package main

import (
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"runtime"
	"sync"
	"time"

	"leveldbpp/internal/core"
	"leveldbpp/internal/metrics"
	"leveldbpp/internal/server"
	"leveldbpp/internal/workload"
)

// config is one invocation of the driver.
type config struct {
	sp      *spec
	seed    int64
	seconds float64 // sizes the measured phase: spec.rate × seconds operations
	trace   bool
	preload int       // tweets ingested before timing (tests shrink it)
	setups  int       // set-ups performed; setup_s is their median
	tmp     string    // parent of the database directories ("" = os.TempDir())
	log     io.Writer // progress and failure messages
}

// Operation classes: the four latencies the paper reports. UPDATE is a PUT.
const (
	classPut = iota
	classGet
	classLookup
	classRange
	numClasses
)

var classNames = [numClasses]string{"put", "get", "lookup", "rangelookup"}

func classOf(k workload.OpKind) int {
	switch k {
	case workload.OpGet:
		return classGet
	case workload.OpLookup:
		return classLookup
	case workload.OpRangeLookup:
		return classRange
	default:
		return classPut
	}
}

// rig is one set-up system under test: a preloaded database behind its
// front door, with the clients, streams and reference models that go with it.
type rig struct {
	cfg *config
	dir string
	db  *core.DB

	srv     *http.Server
	served  chan struct{} // closed when the server's accept loop has returned
	span    *spanHandler  // traced runs only
	tracer  *metrics.Tracer
	events  *eventSums // traced runs only
	streams []*stream
	clients []client
	// models: one per client. A single client's model checks every result
	// exactly; with concurrent clients each model knows its own keys only.
	models []*model

	setup time.Duration // open + preload + flush + stream generation

	// Reference slices (ref.go): the latest one, which is "before" for the
	// next segment, and the sum of those taken after segments.
	ref      *reference
	slice    time.Duration
	sliceSum time.Duration
	slices   int

	attempted, failed int64
	complaints        int
}

// newRig opens a fresh database under cfg.tmp and preloads it.
func newRig(cfg *config, ref *reference) (r *rig, err error) {
	sp := cfg.sp
	r = &rig{cfg: cfg, ref: ref}
	defer func() {
		if err != nil {
			r.close()
		}
	}()
	var watch time.Duration // runs while the system under test or the stream builder works
	t0 := time.Now()

	if r.dir, err = os.MkdirTemp(cfg.tmp, "e2e-"+sp.name+"-"); err != nil {
		return r, err
	}
	var sink metrics.EventSink
	if cfg.trace {
		r.tracer = metrics.NewTracer(0, 0)
		r.events = &eventSums{}
		sink = r.events
	}
	if r.db, err = core.Open(r.dir, sp.options(r.tracer, sink)); err != nil {
		return r, err
	}
	if r.tracer == nil {
		r.tracer = r.db.Tracer()
	}
	if sp.http {
		var handler http.Handler = server.NewWith(r.db, server.Config{Metrics: true})
		if cfg.trace {
			r.span = &spanHandler{next: handler}
			handler = r.span
		}
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return r, err
		}
		r.srv = &http.Server{Handler: handler}
		r.served = make(chan struct{})
		go func() {
			defer close(r.served)
			_ = r.srv.Serve(ln) // returns ErrServerClosed from close
		}()
		for c := 0; c < sp.clients; c++ {
			r.clients = append(r.clients, newHTTPClient("http://"+ln.Addr().String()))
		}
	} else {
		r.clients = []client{&coreClient{db: r.db}}
	}

	const batch = 5000
	per := cfg.preload / sp.clients
	for c := 0; c < sp.clients; c++ {
		st, m := newStream(sp, cfg.seed, c), newModel()
		r.streams, r.models = append(r.streams, st), append(r.models, m)
		for done := 0; done < per; done += batch {
			ops := st.preload(min(batch, per-done))
			for i := range ops {
				if err := r.db.Put(ops[i].Key, ops[i].Value); err != nil {
					return r, fmt.Errorf("preload: %w", err)
				}
			}
			watch += time.Since(t0)
			for i := range ops { // the model's time is not set-up time
				if err := m.put(ops[i].Key, ops[i].Value); err != nil {
					return r, err
				}
			}
			t0 = time.Now()
		}
	}
	if err := r.db.Flush(); err != nil {
		return r, fmt.Errorf("preload flush: %w", err)
	}
	r.setup = watch + time.Since(t0)
	r.slice = ref.slice()
	return r, nil
}

// close stops the server, closes the database, removes its directory and
// drops every reference to them, so the heap they held can be collected.
func (r *rig) close() {
	for _, c := range r.clients {
		if hc, ok := c.(*httpClient); ok {
			hc.close()
		}
	}
	if r.srv != nil {
		_ = r.srv.Close()
		<-r.served
	}
	if r.db != nil {
		if err := r.db.Close(); err != nil {
			fmt.Fprintln(r.cfg.log, "close:", err)
		}
	}
	if r.dir != "" {
		_ = os.RemoveAll(r.dir)
	}
	*r = rig{cfg: r.cfg, attempted: r.attempted, failed: r.failed}
}

// setTracing switches the engine tracer and the bench-owned server span.
func (r *rig) setTracing(on bool) {
	rate := 0.0
	if on {
		rate = 1
	}
	r.tracer.SetRate(rate)
	if r.span != nil {
		r.span.on.Store(on)
	}
}

// tally is what a set of timed segments adds up to.
type tally struct {
	wall      time.Duration
	wallRef   time.Duration // wall at reference speed (ref.go)
	ops       int64
	lat       [numClasses][]int64 // ns, every sample
	latRef    [numClasses][]int64 // the same samples at reference speed
	io        core.Stats          // counter deltas over the segments
	userBytes int64               // key+value bytes of the PUTs and UPDATEs
	coreNS    float64             // time inside core.DB calls (OpStats sums)
	rt        runtimeDelta        // traced runs only
}

func (t *tally) latSum(class int) (ns int64) {
	for _, v := range t.lat[class] {
		ns += v
	}
	return ns
}

func (t *tally) opsPerS() float64 { return ratio(float64(t.ops), t.wall.Seconds()) }

func (t *tally) opsPerSRef() float64 { return ratio(float64(t.ops), t.wallRef.Seconds()) }

func (t *tally) reads() int64 {
	return int64(len(t.lat[classGet]) + len(t.lat[classLookup]) + len(t.lat[classRange]))
}

func (t *tally) queries() int64 {
	return int64(len(t.lat[classLookup]) + len(t.lat[classRange]))
}

// grow returns acc + (after − before).
func grow(acc, before, after metrics.Snapshot) metrics.Snapshot {
	return acc.Sub(before.Sub(after))
}

func (r *rig) coreSeconds() (s float64) {
	for op := metrics.Op(0); op < metrics.NumOps; op++ {
		s += r.db.OpStats().Hist(op).Sum()
	}
	return s
}

// segment generates the next chunk of every client's stream, times its
// execution (closed loop, no think time) into t, then checks every result
// against the models. Generation and checking are outside the timed part.
func (r *rig) segment(t *tally) error {
	n := r.cfg.sp.chunk
	chunks := make([][]workload.Op, len(r.clients))
	lats := make([][]int64, len(r.clients))
	digs := make([][]uint64, len(r.clients))
	errs := make([][]error, len(r.clients))
	for c, cl := range r.clients {
		chunks[c] = r.streams[c].chunk(n)
		if err := cl.prepare(chunks[c]); err != nil {
			return err
		}
		lats[c], digs[c], errs[c] = make([]int64, n), make([]uint64, n), make([]error, n)
	}
	var rt0 runtimeSnap
	if r.cfg.trace {
		rt0 = readRuntime()
	}
	io0, core0 := r.db.Stats(), r.coreSeconds()

	loop := func(c int) {
		cl, lat, dig, errv := r.clients[c], lats[c], digs[c], errs[c]
		for i := range lat {
			s := time.Now()
			err := cl.do(i)
			lat[i] = int64(time.Since(s))
			if err == nil {
				dig[i], err = cl.digest(i)
			}
			errv[i] = err
		}
	}
	start := time.Now()
	if len(r.clients) == 1 {
		loop(0)
	} else {
		var wg sync.WaitGroup
		for c := range r.clients {
			wg.Add(1)
			go func() { defer wg.Done(); loop(c) }()
		}
		wg.Wait()
	}
	wall := time.Since(start)
	before := r.slice
	r.slice = r.ref.slice()
	r.slices, r.sliceSum = r.slices+1, r.sliceSum+r.slice
	f := atReference(before, r.slice)
	t.wall += wall
	t.wallRef += time.Duration(float64(wall) * f)

	io1 := r.db.Stats()
	t.io.Primary = grow(t.io.Primary, io0.Primary, io1.Primary)
	t.io.Index = grow(t.io.Index, io0.Index, io1.Index)
	t.coreNS += (r.coreSeconds() - core0) * 1e9
	if r.cfg.trace {
		t.rt.add(rt0, readRuntime())
	}
	for c, ops := range chunks {
		for i := range ops {
			op := &ops[i]
			class := classOf(op.Kind)
			t.lat[class] = append(t.lat[class], lats[c][i])
			t.latRef[class] = append(t.latRef[class], int64(float64(lats[c][i])*f))
			if class == classPut {
				t.userBytes += int64(len(op.Key) + len(op.Value))
			}
			r.check(c, op, digs[c][i], errs[c][i])
		}
		t.ops += int64(len(ops))
	}
	return nil
}

// check counts one executed operation and compares its result with the
// model. Writes advance the model, so checks must come in stream order.
func (r *rig) check(c int, op *workload.Op, got uint64, err error) {
	r.attempted++
	m := r.models[c]
	if classOf(op.Kind) == classPut {
		if merr := m.put(op.Key, op.Value); err == nil {
			err = merr
		}
	} else if err == nil && (op.Kind == workload.OpGet || len(r.clients) == 1) {
		// Concurrent clients had their query results checked for
		// invariants in the loop; their GETs are exact like everything
		// a single client does.
		var want uint64
		if want, err = m.expect(op); err == nil && want != got {
			err = errors.New("result differs from the reference model")
		}
	}
	if err != nil {
		r.failed++
		if r.complaints++; r.complaints <= 5 {
			fmt.Fprintf(r.cfg.log, "FAILED %s %s%s[%s,%s]: %v\n", op.Kind, op.Key, op.Attr, op.Lo, op.Hi, err)
		}
	}
}

// heapMiB is the live heap. The second collection empties what the first
// one moved to the sync.Pool victim caches.
func heapMiB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}
