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
// segment's bytes. The values were taken from the engine whose inline
// flush and compaction cascade ran beside the background pipeline; the
// deterministic mode must reproduce them exactly.
var deterministicPin = map[string]string{
	"10000/000060.sst": "2c85a314365bffa2a9019f603273103576ddf789fc40ef17016974f2a38556be",
	"10000/000065.sst": "986ff452cd08786f4d17e4d56db7d5fc3dbd3a8cfc22d744bf729947bb7edc72",
	"10000/MANIFEST":   "d94740c9f9b72d49f51be0f0c85267bb052d1c6e286765ef57480df7994244e3",
	"10000/active WAL": "9b9b96c03c473eaec5824dddaae089a4370c9ac94a13c6dcbbc762c9f8861f8e",
	"12000/000060.sst": "2c85a314365bffa2a9019f603273103576ddf789fc40ef17016974f2a38556be",
	"12000/000071.sst": "7cd334667eedc4ff9a243ed3f3ce8dbde082e7ab83d4c6cf0bd459d471d628dd",
	"12000/000076.sst": "6798bcae9f91dbb68f585ba0069aab887147e11e3b3a306680d35df8253d8daa",
	"12000/000077.sst": "0a0d9f81e08df73652d4b8962be410411f4bbb0817125895d232ab2c607f2116",
	"12000/MANIFEST":   "5e1b3594d7b73981339db96f9ce43ba1c316425a896cc12e9b5bc846d120d9a0",
	"12000/active WAL": "12925c80d4c92118ca60b78c05304bde8996a742b41cc9e1393ba1fdfbc7350f",
	"14000/000060.sst": "2c85a314365bffa2a9019f603273103576ddf789fc40ef17016974f2a38556be",
	"14000/000082.sst": "7f14739b7cac9f907eda170971170c3c0aed50e0f9bbd6987c9cd7e0c9bdc562",
	"14000/000087.sst": "726f63fcfdc3cb38894187a44c49bf805b40fba67c90b28284d8b0fa63ab2ad4",
	"14000/000088.sst": "df061b894d2a5255b6b999736073f126d0f603c42ad168556e156da6cd331605",
	"14000/000089.sst": "9f606eafc537d0dd1f450d554611c4c39551b405499ca450b22c934a77cead59",
	"14000/MANIFEST":   "fcbc1a64996cab0262339e2d8dc30ff428df874f5df5134af23f87ed3cff0ddb",
	"14000/active WAL": "dccad1ae06eec2882c03d1c2297a9500bbb151f706bd506a12cb5fa7a01a1307",
	"2000/000011.sst":  "810f805695b8ca32dd952a2f193d461ccb5d5ab602f3806b687e04c0e5158a66",
	"2000/MANIFEST":    "5f3199235aaebcb27648d1375fc849eaf2182af572482592d67edef5132f390c",
	"2000/active WAL":  "2bb1d7426df40052d108e92e869fb778b58fe30303120773816d15bd39314680",
	"4000/000017.sst":  "6b4581ae6235782ac4607296be37713b93910f38c6d73a7aa95b3990a76942da",
	"4000/000022.sst":  "90f0edbe3a26c5296687bd07a3280afe65e958b2c7091929ade9b43ae16be09e",
	"4000/000023.sst":  "a9b83db96cfd411c8411e905f284a1c944a34d1df33f8435422dc22d5e50c14f",
	"4000/000024.sst":  "74c2fae595894989e74c71142cd8bce4fa0d09f6800c72f57f2d2fca35fc4a74",
	"4000/MANIFEST":    "9d8da7a67b4ba58940889863c87f6797a31f20038b90557df41fcc3a54bce679",
	"4000/active WAL":  "2a1a8af384e178483cba4c49e3ed68ecb34df30b218cb6ec3d7776aa87db694e",
	"6000/000037.sst":  "6ed1b5a9e4dd2fed649f5aefdd58a64dda201573fd7427bba1a408ff6a395ea7",
	"6000/000038.sst":  "2478e8408e1b0ff79858f91260c6221f33bed25ff50286aca2d8d5939b092676",
	"6000/000039.sst":  "381d5fb15ed375802f099435211ecd5a286ba17b6474ded1a9aecd26be5f77f5",
	"6000/MANIFEST":    "b93cc43b02dc76ad7ee21c91cedc9e94e3874229cc497f27c8b2c6c833813360",
	"6000/active WAL":  "553f2cb852f6d2ca05e8fe0b9bdd417cedac65af678c204f7d11ba94c08b1f2b",
	"8000/000048.sst":  "72e52042220915519b5377c9ff2b7eed131c3e5d59659502d8560790f23614ee",
	"8000/000049.sst":  "b2950e1b977ef6447d5e4efe918bb967fd25d839fca505998af5575a50f55125",
	"8000/000050.sst":  "34d323b388d3e22b28cff26d90575c5963839750605a0adc96c7e6d913a29d4a",
	"8000/000051.sst":  "ff4910a95fb4e4c67dc3e4db3d8c5352a2470fcc4e5d2ca1758b2fe0e9ce1ba3",
	"8000/MANIFEST":    "af643eda04aaf59cd264e527db19f04964949fd0e5e7d821032a3f88d757cd37",
	"8000/active WAL":  "8eb2b23cce4509a16cf931787339e854cb4f0d3a027c27bf1e790ab60280f116",
}

// TestDeterministicModeFilesPinned runs a fixed default-mode workload —
// write-merged puts, a compaction Merger, tombstones, a partial and a
// full CompactRange, a manual Flush, and writes after them that leave L0
// files, deeper levels and a WAL tail — and pins every table, the
// MANIFEST and the active WAL byte for byte. Flush timing, compaction job
// order, file numbering and merge resolution all show up in these bytes.
func TestDeterministicModeFilesPinned(t *testing.T) {
	opts := smallOpts()
	opts.Merge = concatMerger{}
	opts.WriteMerge = func(existing, incoming []byte) []byte {
		return append(append(append([]byte(nil), existing...), '+'), incoming...)
	}
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
			err = db.Delete(k)
		} else {
			err = db.Put(k, []byte(fmt.Sprintf("v%05d-%016x", i, rng.Uint64())))
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
