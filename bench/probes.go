package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"

	"leveldbpp/internal/core"
	"leveldbpp/internal/ikey"
	"leveldbpp/internal/skiplist"
	"leveldbpp/internal/sstable"
	"leveldbpp/internal/wal"
	"leveldbpp/internal/workload"
)

// Probes call one layer's public functions directly, on the tables the run
// left behind and on the records it began with, so a change inside a layer
// shows here before it is visible through the layers above it.

type probeResults struct {
	getUS      float64 // sstable.Table.GetWith on keys the table holds
	scanMBps   float64 // sstable.Iterator over every live primary table
	buildMBps  float64 // scanned entries re-added to a Builder writing to io.Discard
	walNS      float64 // wal.Writer.Append per record
	skiplistNS float64 // skiplist.List.Insert per key
}

const (
	probeGets       = 5000
	probeBuildBytes = 8 << 20 // user bytes rebuilt; all tables are scanned
	probeRecords    = 20000
)

// tableOptions are the sstable options the engine derives from spec.options.
func (sp *spec) tableOptions() sstable.Options {
	o := sp.options(nil, nil)
	t := sstable.Options{BlockSize: o.BlockSize, BitsPerKey: o.BitsPerKey, Compression: sstable.FlateCompression}
	if sp.index == core.IndexEmbedded {
		t.SecondaryAttrs = o.Attrs
	}
	return t
}

// probeTables scans, point-reads and rebuilds the primary table's files.
// The database must be closed, so every file present is live.
func probeTables(dir string, sp *spec, res *probeResults) error {
	paths, err := filepath.Glob(filepath.Join(dir, "primary", "*.sst"))
	if err != nil {
		return err
	}
	sort.Strings(paths)
	type openTable struct {
		f *os.File
		t *sstable.Table
	}
	var tables []openTable
	defer func() {
		for _, ot := range tables {
			ot.f.Close()
		}
	}()
	entries := 0
	for _, p := range paths {
		f, err := os.Open(p)
		if err != nil {
			return err
		}
		fi, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		t, err := sstable.OpenTable(f, fi.Size(), nil)
		if err != nil {
			f.Close()
			return fmt.Errorf("probe: open %s: %w", p, err)
		}
		tables = append(tables, openTable{f, t})
		entries += t.EntryCount()
	}
	stride := max(1, entries/probeGets)

	var scanBytes, buildBytes, gets int64
	var scanT, buildT, getT time.Duration
	seen := 0
	for _, ot := range tables {
		t0 := time.Now()
		it := ot.t.NewIterator(false)
		for it.Next() {
			scanBytes += int64(len(it.Key()) + len(it.Value()))
		}
		if err := it.Err(); err != nil {
			return err
		}
		scanT += time.Since(t0)

		// Second, untimed pass: copy what the other two probes need.
		var keys, values [][]byte
		var attrs [][]sstable.AttrValue
		var sample [][]byte
		rebuild := buildBytes < probeBuildBytes
		for it = ot.t.NewIterator(false); it.Next(); seen++ {
			if seen%stride == 0 {
				sample = append(sample, append([]byte(nil), ikey.UserKey(it.Key())...))
			}
			if !rebuild {
				continue
			}
			k, v := append([]byte(nil), it.Key()...), append([]byte(nil), it.Value()...)
			keys, values = append(keys, k), append(values, v)
			buildBytes += int64(len(k) + len(v))
			var av []sstable.AttrValue
			if sp.index == core.IndexEmbedded {
				var doc struct{ UserID, CreationTime string }
				if err := json.Unmarshal(v, &doc); err != nil {
					return err
				}
				av = []sstable.AttrValue{{Attr: workload.AttrUser, Value: doc.UserID}, {Attr: workload.AttrTime, Value: doc.CreationTime}}
			}
			attrs = append(attrs, av)
		}

		var sc sstable.GetScratch
		t0 = time.Now()
		for _, k := range sample {
			if _, _, ok, err := ot.t.GetWith(&sc, k); err != nil || !ok {
				return fmt.Errorf("probe: GetWith(%q) = %v, %v", k, ok, err)
			}
		}
		getT += time.Since(t0)
		gets += int64(len(sample))

		if rebuild {
			t0 = time.Now()
			b := sstable.NewBuilder(io.Discard, sp.tableOptions())
			for i := range keys {
				if err := b.Add(keys[i], values[i], attrs[i]); err != nil {
					return err
				}
			}
			if _, err := b.Finish(); err != nil {
				return err
			}
			buildT += time.Since(t0)
		}
	}
	res.getUS = ratio(float64(getT.Microseconds()), float64(gets))
	res.scanMBps = ratio(float64(scanBytes)/1e6, scanT.Seconds())
	res.buildMBps = ratio(float64(min(buildBytes, scanBytes))/1e6, buildT.Seconds())
	return nil
}

// probeWrites appends the run's first records to a fresh WAL and inserts
// them into a fresh skiplist.
func probeWrites(dir string, sp *spec, seed int64, res *probeResults) error {
	ops := newStream(sp, seed, 0).preload(probeRecords)

	w, err := wal.Create(filepath.Join(dir, "probe.wal"))
	if err != nil {
		return err
	}
	t0 := time.Now()
	for i := range ops {
		if err := w.Append(wal.Record{Seq: uint64(i + 1), Kind: byte(ikey.KindSet), Key: []byte(ops[i].Key), Value: ops[i].Value}); err != nil {
			w.Close()
			return err
		}
	}
	if err := w.Close(); err != nil {
		return err
	}
	res.walNS = float64(time.Since(t0).Nanoseconds()) / probeRecords

	keys := make([][]byte, len(ops))
	for i := range ops {
		keys[i] = ikey.Make([]byte(ops[i].Key), uint64(i+1), ikey.KindSet)
	}
	l := skiplist.New(ikey.Compare)
	t0 = time.Now()
	for i := range ops {
		l.Insert(keys[i], ops[i].Value)
	}
	res.skiplistNS = float64(time.Since(t0).Nanoseconds()) / probeRecords
	return nil
}
