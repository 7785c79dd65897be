package core_test

import (
	"fmt"
	"log"
	"math/rand"
	"os"
	"path/filepath"

	"leveldbpp/internal/advisor"
	"leveldbpp/internal/core"
	"leveldbpp/internal/workload"
)

// Example shows the paper's full operation set (Table 1) against a Lazy
// stand-alone index.
func Example() {
	dir, _ := os.MkdirTemp("", "leveldbpp-example-")
	defer os.RemoveAll(dir)

	db, err := core.Open(dir, core.Options{
		Index: core.IndexLazy,
		Attrs: []string{"UserID"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put("t1", []byte(`{"UserID":"alice","Text":"first"}`))
	db.Put("t2", []byte(`{"UserID":"bob","Text":"hello"}`))
	db.Put("t3", []byte(`{"UserID":"alice","Text":"second"}`))

	// LOOKUP(A, a, K): the K most recent records with UserID == alice.
	entries, _ := db.Lookup("UserID", "alice", 10)
	for _, e := range entries {
		fmt.Println(e.Key)
	}
	// Output:
	// t3
	// t1
}

// ExampleDB_RangeLookup demonstrates RANGELOOKUP over a byte-ordered
// attribute.
func ExampleDB_RangeLookup() {
	dir, _ := os.MkdirTemp("", "leveldbpp-example-")
	defer os.RemoveAll(dir)

	db, err := core.Open(dir, core.Options{
		Index: core.IndexEmbedded,
		Attrs: []string{"Score"},
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	db.Put("p1", []byte(`{"Score":"040"}`))
	db.Put("p2", []byte(`{"Score":"075"}`))
	db.Put("p3", []byte(`{"Score":"090"}`))

	entries, _ := db.RangeLookup("Score", "050", "099", 0)
	for _, e := range entries {
		fmt.Println(e.Key)
	}
	// Output:
	// p3
	// p2
}

// ExampleBatch shows an atomic multi-operation commit.
func ExampleBatch() {
	dir, _ := os.MkdirTemp("", "leveldbpp-example-")
	defer os.RemoveAll(dir)

	db, err := core.Open(dir, core.Options{Index: core.IndexComposite, Attrs: []string{"UserID"}})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	var b core.Batch
	b.Put("t1", []byte(`{"UserID":"alice"}`))
	b.Put("t2", []byte(`{"UserID":"alice"}`))
	b.Delete("t1")
	if err := db.Apply(&b); err != nil {
		log.Fatal(err)
	}

	entries, _ := db.Lookup("UserID", "alice", 0)
	fmt.Println(len(entries), entries[0].Key)
	// Output: 1 t2
}

// Example_twitter is the paper's motivating application (§1): tweets
// keyed by tweet id, and "the K most recent tweets of a user" served by
// the Lazy and the Composite stand-alone index over the same synthetic
// stream. Feeds are top-K-sensitive, so Lazy, which stops at the first
// level holding K results, reads fewer blocks per request.
func Example_twitter() {
	dir, _ := os.MkdirTemp("", "leveldbpp-example-")
	defer os.RemoveAll(dir)

	tweets := workload.NewGenerator(workload.Config{Tweets: 5000, Seed: 1}).All()
	for _, kind := range []core.IndexKind{core.IndexLazy, core.IndexComposite} {
		db, err := core.Open(filepath.Join(dir, kind.String()), core.Options{
			Index:          kind,
			Attrs:          []string{workload.AttrUser},
			MemTableBytes:  64 << 10,
			BaseLevelBytes: 256 << 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		for _, tw := range tweets {
			if err := db.Put(tw.ID, tw.Doc()); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			log.Fatal(err)
		}

		// 200 timeline requests: the top 10 tweets of users drawn from
		// the data, so popular users are asked for more often.
		q := workload.NewStaticQueries(tweets, 99)
		s0 := db.Stats()
		served := 0
		for i := 0; i < 200; i++ {
			op := q.Lookup(workload.AttrUser, 10)
			entries, err := db.Lookup(op.Attr, op.Lo, op.K)
			if err != nil {
				log.Fatal(err)
			}
			served += len(entries)
		}
		s1 := db.Stats()
		reads := s1.Primary.BlockReads - s0.Primary.BlockReads + s1.Index.BlockReads - s0.Index.BlockReads
		fmt.Printf("%s: %d timeline entries, %.2f block reads per request\n", kind, served, float64(reads)/200)
		db.Close()
	}
	// Output:
	// Lazy: 1934 timeline entries, 7.92 block reads per request
	// Composite: 1934 timeline entries, 8.17 block reads per request
}

// Example_sensornet is the Embedded index's sweet spot (§1): sensors
// stream (measurement id, temperature, humidity) records with rare
// secondary queries on a space-constrained device. The advisor (Figure 2)
// picks Embedded: bloom filters and zone maps inside the primary tables,
// so no index table is written.
func Example_sensornet() {
	rec := advisor.Recommend(advisor.Profile{
		WriteFraction:          0.9,
		SecondaryQueryFraction: 0.02,
		SpaceConstrained:       true,
	})
	fmt.Println("advisor recommends", rec.Index)

	dir, _ := os.MkdirTemp("", "leveldbpp-example-")
	defer os.RemoveAll(dir)
	db, err := core.Open(dir, core.Options{
		Index:          rec.Index,
		Attrs:          []string{"TempDeci", "Sensor"},
		MemTableBytes:  64 << 10,
		BaseLevelBytes: 256 << 10,
	})
	if err != nil {
		log.Fatal(err)
	}
	defer db.Close()

	// 5 000 measurements from 50 sensors at 20–28 °C, with rare heat
	// spikes. Temperatures are zero-padded tenths of a degree, so range
	// predicates work over the string zone maps.
	rng := rand.New(rand.NewSource(3))
	for tick := 0; tick < 5000; tick++ {
		temp := 20 + 8*rng.Float64()
		if rng.Intn(500) == 0 {
			temp = 30 + 5*rng.Float64()
		}
		doc := fmt.Sprintf(`{"Sensor":"s%03d","TempDeci":"%05d","Humidity":"%05.1f"}`,
			rng.Intn(50), int(temp*10), 40+20*rng.Float64())
		if err := db.Put(fmt.Sprintf("m%08d", tick), []byte(doc)); err != nil {
			log.Fatal(err)
		}
	}
	if err := db.Flush(); err != nil {
		log.Fatal(err)
	}
	_, idx, err := db.DiskUsage()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("index table bytes:", idx)

	// All measurements at or above 30.0 °C.
	hot, err := db.RangeLookup("TempDeci", "00300", "00999", 0)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("heat spikes:", len(hot))
	for _, e := range hot[:min(3, len(hot))] {
		fmt.Println(" ", e.Key, string(e.Value))
	}

	// The latest 3 readings of sensor s007.
	latest, err := db.Lookup("Sensor", "s007", 3)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("sensor s007:")
	for _, e := range latest {
		fmt.Println(" ", e.Key, string(e.Value))
	}
	// Output:
	// advisor recommends Embedded
	// index table bytes: 0
	// heat spikes: 9
	//   m00004725 {"Sensor":"s031","TempDeci":"00337","Humidity":"051.5"}
	//   m00004380 {"Sensor":"s023","TempDeci":"00315","Humidity":"054.1"}
	//   m00004148 {"Sensor":"s041","TempDeci":"00300","Humidity":"045.6"}
	// sensor s007:
	//   m00004969 {"Sensor":"s007","TempDeci":"00230","Humidity":"050.0"}
	//   m00004909 {"Sensor":"s007","TempDeci":"00231","Humidity":"042.6"}
	//   m00004875 {"Sensor":"s007","TempDeci":"00200","Humidity":"058.5"}
}

// Example_analytics is the Composite index's sweet spot (§1: "general
// analytics platforms where one may group by year or department"): an
// order store grouped by department with unbounded LOOKUPs. Composite
// and Lazy return the same groups; Composite's entries are plain keys,
// where Lazy decodes and merges posting lists.
func Example_analytics() {
	dir, _ := os.MkdirTemp("", "leveldbpp-example-")
	defer os.RemoveAll(dir)

	departments := []string{"books", "garden", "music", "toys"}
	for _, kind := range []core.IndexKind{core.IndexComposite, core.IndexLazy} {
		db, err := core.Open(filepath.Join(dir, kind.String()), core.Options{
			Index:          kind,
			Attrs:          []string{"Dept"},
			MemTableBytes:  64 << 10,
			BaseLevelBytes: 256 << 10,
		})
		if err != nil {
			log.Fatal(err)
		}
		rng := rand.New(rand.NewSource(11))
		for i := 0; i < 5000; i++ {
			doc := fmt.Sprintf(`{"Dept":%q,"Amount":"%06d"}`, departments[rng.Intn(len(departments))], rng.Intn(100000))
			if err := db.Put(fmt.Sprintf("order%08d", i), []byte(doc)); err != nil {
				log.Fatal(err)
			}
		}
		if err := db.Flush(); err != nil {
			log.Fatal(err)
		}

		// Group by department: every order of each (K = 0, no limit).
		fmt.Print(kind, ":")
		for _, dept := range departments {
			entries, err := db.Lookup("Dept", dept, 0)
			if err != nil {
				log.Fatal(err)
			}
			fmt.Printf(" %s=%d", dept, len(entries))
		}
		fmt.Println()
		db.Close()
	}
	// Output:
	// Composite: books=1258 garden=1246 music=1298 toys=1198
	// Lazy: books=1258 garden=1246 music=1298 toys=1198
}
