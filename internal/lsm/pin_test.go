package lsm

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"
)

// deterministicPin is the SHA-256 of every file the pinned workload
// leaves behind: each table by name, the MANIFEST, and the active WAL
// segment's bytes; the engine must reproduce them exactly.
var deterministicPin = map[string]string{
	"10000/000058.sst": "e27d0cc65364206cc6042e0b9dd17a0c63fc8d117ee132bc3dab7fe21dda7b7a",
	"10000/000063.sst": "e1b3154f1ecfe73394d5c5ecad4d121c3aea738470daa929429bda51e0088a5d",
	"10000/MANIFEST":   "0472375dfb38fe2dd0155dfbcafb91a8fd4b89b8f493e88b8376da281bb2d77a",
	"10000/active WAL": "9aeea3fee5dccdc54129704a1963a23b4875e6271f5f9fd8b5210aa455e04b71",
	"12000/000058.sst": "e27d0cc65364206cc6042e0b9dd17a0c63fc8d117ee132bc3dab7fe21dda7b7a",
	"12000/000068.sst": "60db9d870aa02eed07be9f457653b4ba42de55d38a2ef1f059eb90252759119e",
	"12000/000073.sst": "e7e131b7d1cf63a102496c6f1424c4b86d4cb4a5c90b5eb39bb8e405e9b4da64",
	"12000/000074.sst": "dd63054341a199f3cfe4994b4bb3780b8dde60f1603ee4624e9e4bf9e160ea1b",
	"12000/MANIFEST":   "261979e35e6d0b350b288ecdd5a4f762b009efc0fec477dd77eef9849b096b58",
	"12000/active WAL": "7549ec8f44b4cafb836fdec9638c905c4cadb07dceb49667fb7c230e116ac59e",
	"14000/000058.sst": "e27d0cc65364206cc6042e0b9dd17a0c63fc8d117ee132bc3dab7fe21dda7b7a",
	"14000/000079.sst": "8e9d4e8a64c7c5f48fc97f3eaa36d04335b4d7eebf5f310afdad27933a30c3e8",
	"14000/000084.sst": "b3d7b68da0f3a1a86adfc3249548ccfc59612d4bf3cd8e087bd50f565835db82",
	"14000/000085.sst": "ff9209e30a62c0acfbf8e6ca30fa7925a6828b591fa011ff7de7320b87d33bce",
	"14000/000086.sst": "3f81be11c0766ed2702181413284d9f45e65da1f1cd66d4ca854517605feab84",
	"14000/MANIFEST":   "f425425453f3caaf3c4acacd1fdc9702c1402ac15e58673f576fab0da4b99788",
	"14000/active WAL": "d27ee42bdf555d797ab5beb87e70895990081a0523f7fb5c73edd41396bc8566",
	"2000/000010.sst":  "67c0b21fa4f1d2dbbb9bd475b25073c77a7b11f43bdd4f9847ce5b42378071b7",
	"2000/MANIFEST":    "3b9384d026317c9d17cde4b9243f946107ef0eceddbab5231775df562c483361",
	"2000/active WAL":  "90a5aa72a3a03d52edaa53f2fce19157e49209205d8913b01388ae3eb83befbc",
	"4000/000016.sst":  "2f7a9e731fe4fbc20567a6463d616b6f3caa8198ffbe956a79c05a98a50423e3",
	"4000/000021.sst":  "a5641af5d83a0973c4b1e5dbe4a86d346d6d115a2d1c478508b48b3499f2a300",
	"4000/000022.sst":  "e29e18d7b39d507aac430e6ae5218525bc1f501379517cb18175f93eb6d010f8",
	"4000/000023.sst":  "67ad932d10ae87864178be63a91a6a63b0e1b797d83c8af58713d41b70a29360",
	"4000/MANIFEST":    "93a562ac284d90ef6960b538a805669d43a3e2df6e3cfdf4369ab22ddae012f5",
	"4000/active WAL":  "3f21082364eca45314ad74e79ad3c4f8526ba0810951dc3dda92982c4025398a",
	"6000/000036.sst":  "2b49daeca54828307ed2f30f545f3e2a7627fcc0a90b56333942de9c371bd31b",
	"6000/000037.sst":  "e8abd135183921ed9e5bee5868106a53f48271113611af2987f1b78654820e72",
	"6000/000038.sst":  "9519b3bf4078bda0e68b886911978fd8c3436144be508596aa77faf63129c5ae",
	"6000/MANIFEST":    "a6affbd60a4c354df2a9b291ddb966d52a66ef58c6b7d5242c16cada874bdcd8",
	"6000/active WAL":  "8c5b64fc30183b08ed04df80ff10988a4ae91196a74ec194e9beee3e70bfff8c",
	"8000/000047.sst":  "c1935d37a3d689866a3830eba3b73b38cc5d84780c08e63aa8726be1f5ff4cb6",
	"8000/000048.sst":  "688cd35147ee7541421586ca2551c3e1b5d5ade7da6cfd1b248e0d517ff08394",
	"8000/000049.sst":  "121d04edb239d7fe6071a92db0a9ce9da081dc5a81bfe97e01a4f4e1097f243c",
	"8000/000050.sst":  "d7c08ff19817eaff251ed0474d4457920270709f9c7b7b9bce351804df8c7c02",
	"8000/MANIFEST":    "c339371b776391e9769061d0e0d7cf424cb52012fcc3a2dc126f60eef7c836d0",
	"8000/active WAL":  "39da982b64348abf31998eded8cda819af14f910ab39140152eb656ec3752382",
}

// TestDeterministicModeFilesPinned runs a fixed default-mode workload —
// puts coalesced by a Merger at flush and compaction, tombstones, a partial and a
// full CompactRange, a manual Flush, and writes after them that leave L0
// files, deeper levels and a WAL tail — and pins every table, the
// MANIFEST and the active WAL byte for byte. Flush timing, compaction job
// order, file numbering and merge resolution all show up in these bytes.
func TestDeterministicModeFilesPinned(t *testing.T) {
	opts := smallOpts()
	opts.NewMerger = newConcatMerger
	dir := t.TempDir()
	db, err := Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	sum := func(path string) string {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		s := sha256.Sum256(raw)
		return hex.EncodeToString(s[:])
	}
	// snapshot hashes the directory as it stands, under label. The WAL
	// is flushed to its file by every commit, so mid-run hashes are exact.
	got := map[string]string{}
	snapshot := func(label string) {
		got[label+"/MANIFEST"] = sum(manifestPath(dir))
		got[label+"/active WAL"] = sum(db.memWALs[len(db.memWALs)-1])
		tables, err := filepath.Glob(filepath.Join(dir, "*.sst"))
		if err != nil {
			t.Fatal(err)
		}
		for _, p := range tables {
			got[label+"/"+filepath.Base(p)] = sum(p)
		}
	}

	rng := rand.New(rand.NewSource(26))
	for i := 1; i <= 14000; i++ {
		k := []byte(fmt.Sprintf("key%04d", rng.Intn(4000)))
		if i%13 == 0 {
			err = db.DeleteAt(k, 0)
		} else {
			err = db.PutAt(k, []byte(fmt.Sprintf("v%05d-%016x", i, rng.Uint64())), 0)
		}
		if err != nil {
			t.Fatal(err)
		}
		switch i {
		case 2500:
			err = db.CompactRange([]byte("key0300"), []byte("key0900"))
		case 5500:
			err = db.CompactRange(nil, nil)
		case 8500:
			err = db.Flush()
		}
		if err != nil {
			t.Fatal(err)
		}
		if i%2000 == 0 {
			installPending(t, db)
			snapshot(fmt.Sprint(i))
		}
	}
	deepest := db.deepestNonEmptyLocked()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	if deepest < 2 {
		t.Fatalf("workload reached level %d only; want a multi-level tree", deepest)
	}

	var names []string
	for name := range got {
		names = append(names, name)
	}
	for name := range deterministicPin {
		if _, ok := got[name]; !ok {
			names = append(names, name)
		}
	}
	sort.Strings(names)
	for _, name := range names {
		if got[name] != deterministicPin[name] {
			t.Errorf("%s: sha256 %q, pinned %q", name, got[name], deterministicPin[name])
		}
	}
}
