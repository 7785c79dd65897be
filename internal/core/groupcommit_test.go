package core

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"reflect"
	"regexp"
	"strings"
	"testing"

	"leveldbpp/internal/metrics"
)

// commitGolden is one index kind's observable state after the
// TestGroupCommitEquivalence workload, as the parent commit's inline
// (pre-queue) commit path left it. Lists are pinned by the sha256 of
// their rendering (digest).
type commitGolden struct {
	io             string // digest of ioStats(Stats): the fig8a/fig12 I/O counters
	stats          string // digest of all of Stats, write-path counters included
	primary, index int64  // DiskUsage
	scan           string // digest of the primary scan's key order
	lookup, rng    string // digests of the LOOKUP / RANGELOOKUP results
}

// Every table records each block's max seq, so every kind's write
// counters and disk usage carry the column's bytes.
var commitGoldens = map[IndexKind]commitGolden{
	IndexNone: {"faa96805a7c3f351792450bc4808434e74a91030a4996300a281b88b98f6ebdd",
		"f3adf897aa65796d55e94e97a4496b03920414c8c37d89ee6b90d0e52b7fb7c8", 9756, 0,
		"5a8f0c56d39d20ff964f55350e04852ced87781bee63124c049aa2b163ab0105",
		"80683bc0729fdfa24a3dfdfaaea89c0a6c2f75542fdd2ab37d80b4a450fffc05",
		"b01c9cd2e71d1767a48488b5ae0a1609390ccc065c61b228d49869f9e82ff48f"},
	IndexEmbedded: {"3769754fdff2e22013c1407337f07f7ab44e351cb47f783a8e045af1dddac5af",
		"39b30473c42d43d18def1623007287edcce916f0652e3b2c0940f5cbf6b125c1", 11922, 0,
		"5a8f0c56d39d20ff964f55350e04852ced87781bee63124c049aa2b163ab0105",
		"80683bc0729fdfa24a3dfdfaaea89c0a6c2f75542fdd2ab37d80b4a450fffc05",
		"b01c9cd2e71d1767a48488b5ae0a1609390ccc065c61b228d49869f9e82ff48f"},
	// The stand-alone kinds' index records carry their primary record's
	// seq. The workload deletes absent keys, so those seqs run ahead of
	// the index-local ones the parent wrote: the index tables' bytes (I/O
	// digests, index disk usage) moved, and Composite's results now rank
	// by the primary's seqs, as every other kind's do.
	//
	// A version edit is installed at the table's next freeze, so the reads
	// the write path issues between two freezes (Eager's index GETs, the
	// primary GETs of a delete) find the frozen MemTable instead of the
	// table its flush wrote: the three stand-alone kinds' read counters
	// (block reads and bytes, point gets, entries decoded, block seeks)
	// are lower than the inline pipeline's; every write and compaction
	// counter is unchanged.
	//
	// A point read on a table without a block cache inflates a block only
	// up to the entry it needs and scans that prefix from its start, with
	// no restart search: the stand-alone kinds' BlockSeeks read 0, and
	// every other counter is unchanged.
	IndexEager: {"25300023160900716fa3d0202523523710507bf050a7f873d2c25c977b40098a",
		"d1bb3adf8cc1eba6c444acd91df22c36f2cfe9aadaba7f7f9aaf16df4def9f03", 9756, 9236,
		"5a8f0c56d39d20ff964f55350e04852ced87781bee63124c049aa2b163ab0105",
		"80683bc0729fdfa24a3dfdfaaea89c0a6c2f75542fdd2ab37d80b4a450fffc05",
		"b01c9cd2e71d1767a48488b5ae0a1609390ccc065c61b228d49869f9e82ff48f"},
	// Lazy index PUTs are blind: the MemTable fills with one-entry
	// fragments rather than re-merged lists, so its index tables flush at
	// other points, and the flush, not the write, decodes and merges the
	// postings.
	IndexLazy: {"6eb14ae588f17e3c49f0ebb2aa723cf065768cc33b87cb4318e0c2a21702caee",
		"eec49ecfdb1e7e60b3fd40170ed5d3399604b979cecd5a9207b6d9e90219ebac", 9756, 6627,
		"5a8f0c56d39d20ff964f55350e04852ced87781bee63124c049aa2b163ab0105",
		"80683bc0729fdfa24a3dfdfaaea89c0a6c2f75542fdd2ab37d80b4a450fffc05",
		"b01c9cd2e71d1767a48488b5ae0a1609390ccc065c61b228d49869f9e82ff48f"},
	IndexComposite: {"335c6d09e39005b8bc0943baf5798714d3536aafc82769d4796507c71112447c",
		"191f8d93af05ac00eb7d1a13a309f33a610329d84aa9b74eb348faa3ef5511f4", 9756, 7497,
		"5a8f0c56d39d20ff964f55350e04852ced87781bee63124c049aa2b163ab0105",
		"80683bc0729fdfa24a3dfdfaaea89c0a6c2f75542fdd2ab37d80b4a450fffc05",
		"b01c9cd2e71d1767a48488b5ae0a1609390ccc065c61b228d49869f9e82ff48f"},
}

// ioSnapshot is metrics.Snapshot's sixteen I/O counters in order, so %+v
// renders a Stats the way it rendered before Snapshot also held the
// write-path counters.
type ioSnapshot struct {
	BlockReads, BlockReadBytes             int64
	BlockWrites, BlockWriteBytes           int64
	CompactionReads, CompactionReadBytes   int64
	CompactionWrites, CompactionWriteBytes int64
	CacheHits, CacheMisses                 int64
	PointGets, EntriesDecoded, BlockSeeks  int64

	PostingsBytesDecoded, PostingsEntriesDecoded, FragmentsMerged int64
}

// ioStats projects st onto the sixteen I/O counters.
func ioStats(st Stats) (out struct{ Primary, Index ioSnapshot }) {
	project := func(dst *ioSnapshot, sn metrics.Snapshot) {
		d := reflect.ValueOf(dst).Elem()
		for i := 0; i < d.NumField(); i++ {
			d.Field(i).SetInt(reflect.ValueOf(sn).FieldByName(d.Type().Field(i).Name).Int())
		}
	}
	project(&out.Primary, st.Primary)
	project(&out.Index, st.Index)
	return out
}

// renderStats renders st as %+v did while Snapshot still ended with the
// L0 write-stall counter, StallNanos, which only the removed background
// mode ever moved from 0: the stats digests stay the parent commit's.
func renderStats(st Stats) string {
	return ingestBytes.ReplaceAllString(fmt.Sprintf("%+v", st), "$0 StallNanos:0")
}

var ingestBytes = regexp.MustCompile(`IngestBytes:\d+`)

func digest(s string) string {
	sum := sha256.Sum256([]byte(s))
	return hex.EncodeToString(sum[:])
}

// TestGroupCommitEquivalence runs a deterministic single-writer workload
// for every index kind and requires the observable state the parent
// commit's inline commit path produced: I/O counters (the fig8a/fig12
// measurements), disk usage, primary-scan order, and LOOKUP/RANGELOOKUP
// results. It replaces the on/off comparison of the same name, whose
// "off" side no longer exists: a group of one must be indistinguishable
// from the seed commit path.
func TestGroupCommitEquivalence(t *testing.T) {
	for _, kind := range allKinds {
		t.Run(kind.String(), func(t *testing.T) {
			want := commitGoldens[kind]
			db, err := Open(t.TempDir(), smallOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer db.Close()

			for i := 0; i < 400; i++ {
				key := fmt.Sprintf("t%04d", i)
				user := fmt.Sprintf("u%02d", i%7)
				if err := db.Put(key, tweetDoc(user, 1000+i, fmt.Sprintf("text-%04d", i))); err != nil {
					t.Fatal(err)
				}
				if i%31 == 0 && i > 0 {
					if err := db.Delete(fmt.Sprintf("t%04d", i-5)); err != nil {
						t.Fatal(err)
					}
				}
				if i%57 == 0 {
					var b Batch
					b.Put(fmt.Sprintf("b%04d", i), tweetDoc("u99", 2000+i, "batched"))
					b.Delete(fmt.Sprintf("t%04d", i/2))
					if err := db.Apply(&b); err != nil {
						t.Fatal(err)
					}
				}
			}
			if err := db.Flush(); err != nil {
				t.Fatal(err)
			}

			st := db.Stats()
			if io := ioStats(st); digest(fmt.Sprintf("%+v", io)) != want.io {
				t.Errorf("I/O counters differ from the parent commit's: %+v", io)
			}
			if got := digest(renderStats(st)); got != want.stats {
				t.Errorf("counters differ (digest %s): %+v", got, st)
			}
			primary, index, err := db.DiskUsage()
			if err != nil {
				t.Fatal(err)
			}
			if primary != want.primary || index != want.index {
				t.Errorf("disk usage = (%d,%d), want (%d,%d)", primary, index, want.primary, want.index)
			}
			var scan []string
			if err := db.Scan("", "", func(k string, _ []byte) bool {
				scan = append(scan, k)
				return true
			}); err != nil {
				t.Fatal(err)
			}
			if digest(strings.Join(scan, "\n")) != want.scan {
				t.Errorf("scan order differs from the parent commit's (%d keys)", len(scan))
			}
			lookup, err := db.Lookup("UserID", "u03", 20)
			if err != nil {
				t.Fatal(err)
			}
			if digest(fmt.Sprintf("%+v", lookup)) != want.lookup {
				t.Errorf("LOOKUP results differ from the parent commit's: %v", lookup)
			}
			rng, err := db.RangeLookup("CreationTime", "0000001100", "0000001200", 15)
			if err != nil {
				t.Fatal(err)
			}
			if digest(fmt.Sprintf("%+v", rng)) != want.rng {
				t.Errorf("RANGELOOKUP results differ from the parent commit's: %v", rng)
			}
		})
	}
}

// TestGroupCommitConcurrentCore drives concurrent core writers (no
// stand-alone indexes, so they reach the engine's commit queue) and
// verifies grouping happened and every document survives a reopen.
func TestGroupCommitConcurrentCore(t *testing.T) {
	for _, kind := range []IndexKind{IndexNone, IndexEmbedded} {
		t.Run(kind.String(), func(t *testing.T) {
			dir := t.TempDir()
			opts := smallOptions(kind)
			opts.MemTableBytes = 1 << 20
			db, err := Open(dir, opts)
			if err != nil {
				t.Fatal(err)
			}

			const writers = 8
			const perWriter = 300
			errs := make(chan error, writers)
			for w := 0; w < writers; w++ {
				go func(w int) {
					for i := 0; i < perWriter; i++ {
						key := fmt.Sprintf("w%02d-%04d", w, i)
						if err := db.Put(key, tweetDoc(fmt.Sprintf("u%02d", w), i, key)); err != nil {
							errs <- err
							return
						}
					}
					errs <- nil
				}(w)
			}
			for w := 0; w < writers; w++ {
				if err := <-errs; err != nil {
					t.Fatal(err)
				}
			}
			prim := db.Stats().Primary
			if prim.Commits != writers*perWriter {
				t.Errorf("primary commits = %d, want %d", prim.Commits, writers*perWriter)
			}
			if prim.CommitGroups == 0 || prim.CommitGroups > prim.Commits {
				t.Errorf("primary groups = %d out of %d commits", prim.CommitGroups, prim.Commits)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := Open(dir, smallOptions(kind))
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			for w := 0; w < writers; w++ {
				for i := 0; i < perWriter; i += 29 {
					key := fmt.Sprintf("w%02d-%04d", w, i)
					if _, ok, err := re.Get(key); err != nil || !ok {
						t.Fatalf("Get(%s) after reopen = %v %v", key, ok, err)
					}
				}
			}
		})
	}
}
