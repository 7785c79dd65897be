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
	"10000/000058.sst": "dfd2c0ff617a0e2e5bba1155411932bc0651cc100e049542d10c672c1875fea4",
	"10000/000063.sst": "1ef9bbfc8774ac1d06a84457e332da60b624a123d825507650d70b7f089eaae0",
	"10000/MANIFEST":   "e89cc9ea55e93510a9c4d733fc1be1a9b49679739cd99706b646f71e28a32507",
	"10000/active WAL": "9aeea3fee5dccdc54129704a1963a23b4875e6271f5f9fd8b5210aa455e04b71",
	"12000/000058.sst": "dfd2c0ff617a0e2e5bba1155411932bc0651cc100e049542d10c672c1875fea4",
	"12000/000068.sst": "93caea7eb8d7ddfca856355dfd91d12188818593707917e1e526ddd875fb46b6",
	"12000/000073.sst": "26f1e7d0e4861a2cecd55a76376c5a91dbbc7e4c1c5719a49c37619d4589ccc0",
	"12000/000074.sst": "70db41c0af541e6a1ab2d7991640e96c49b4c118c1203d29100dedca1656a806",
	"12000/MANIFEST":   "daf803a85e28e35404dd014996c08fea7a51d07d27c49df71d07e77b9c5fc6d2",
	"12000/active WAL": "7549ec8f44b4cafb836fdec9638c905c4cadb07dceb49667fb7c230e116ac59e",
	"14000/000058.sst": "dfd2c0ff617a0e2e5bba1155411932bc0651cc100e049542d10c672c1875fea4",
	"14000/000079.sst": "d65a92895ee244cc47fc32ed1df782426ace468db801ec62383bee8c71a85e0e",
	"14000/000084.sst": "cd38374637812079285efa8d0c1f38795db5f5245f1ee1717932be0a9e4b5017",
	"14000/000085.sst": "9bcaca37b103df414abee519fa1dcb2fabf3af723d8045a0b5e07f7c8c16b0bb",
	"14000/000086.sst": "2923d1c4869b589f8902571a7907d61774cba37b54254102903dbc34673d94ba",
	"14000/MANIFEST":   "3fb02d1a3c585d78e2fe75af0928c2077544e51ca97a6a4a1f766d1d18496f2a",
	"14000/active WAL": "d27ee42bdf555d797ab5beb87e70895990081a0523f7fb5c73edd41396bc8566",
	"2000/000010.sst":  "67771842454aeef3fc74c91fba5c8ff957eb74bcff211518797d34fa9e657d55",
	"2000/MANIFEST":    "3d56908a0f54fade6a52481ce66dc971acaf08c9b1430b9a3df31442cb414218",
	"2000/active WAL":  "90a5aa72a3a03d52edaa53f2fce19157e49209205d8913b01388ae3eb83befbc",
	"4000/000016.sst":  "19ab4e7a3ab609d961727b499fce9b387c0d3cee606ff970d07a2f7d263f4ed7",
	"4000/000021.sst":  "9a852ea8d737ac1c843138e2918390acf82c92e4aa8d551d6b797ab33a5980e1",
	"4000/000022.sst":  "9918c8efa377dd65804200ec138b152d0845aa319df477615eb4cb4609b106c7",
	"4000/000023.sst":  "4fe7a93ab92b4f9f5e3b7e35ed7e86af4763a4719dc633a73b4916e5b3542e1e",
	"4000/MANIFEST":    "72186b68203918852e6866d5c5aac1e47862b9d75f198b93b7793c36f02f3e18",
	"4000/active WAL":  "3f21082364eca45314ad74e79ad3c4f8526ba0810951dc3dda92982c4025398a",
	"6000/000036.sst":  "2b87b1fb4577ae4af5ae986951821b3550e95c114d8cce6cc100dc8009993b58",
	"6000/000037.sst":  "045cf1ffc8c80287e0eecf36efce200b5a9fa5c955c796ac268dea74e0c3e9ba",
	"6000/000038.sst":  "a6ccddabd095a67403d2331e93ce9d3d3777151d1ab1f9b53a2225be573b4ac8",
	"6000/MANIFEST":    "8484d0ab7588e3d5d52b6d984af45b713fd69fcb6b0e34b81e88c2a5b3dee526",
	"6000/active WAL":  "8c5b64fc30183b08ed04df80ff10988a4ae91196a74ec194e9beee3e70bfff8c",
	"8000/000047.sst":  "e01bf0ceadf8a7161fd53221364926fc8dd2083ab66676b650a3ed811e1da0c1",
	"8000/000048.sst":  "66a4b63685708e9db81dbaf8a39ab28ec9a11257dbccf3912499549ea9de70a8",
	"8000/000049.sst":  "20a8e4424dca0cb2f5c03578b863c5ab90f0953b5a3cae11096865be1a45371c",
	"8000/000050.sst":  "f7b0d8f65ab8b211c9323b21a88b2f7f9ac40a442e7bd8a1f4ce22307b2240d9",
	"8000/MANIFEST":    "4285eac4e4014dee0f724d188f6baa07e06fe3fa454dc94c7d1b799ec648c4be",
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
