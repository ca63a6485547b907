package experiments

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/simerr"
	"repro/internal/workload"
)

func TestRunnerConcurrentSameKey(t *testing.T) {
	r := NewRunner(0.02)
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()

	const goroutines = 8
	results := make([]*core.Result, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			res, err := r.Result(w, cfg)
			if err != nil {
				t.Error(err)
				return
			}
			results[i] = res
		}(i)
	}
	wg.Wait()
	for i := 1; i < goroutines; i++ {
		if results[i] != results[0] {
			t.Fatal("concurrent same-key requests ran separate simulations")
		}
	}
}

// TestRunnerCacheHitsOnEqualConfigs verifies the cache is keyed on the
// canonical config.Key(): independently-built but equal configurations hit
// the same cached run, while any field difference forces a fresh one.
func TestRunnerCacheHitsOnEqualConfigs(t *testing.T) {
	r := NewRunner(0.02)
	w, err := workload.ByName("compress")
	if err != nil {
		t.Fatal(err)
	}
	a, err := r.Result(w, config.Default().WithPorts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	b, err := r.Result(w, config.Default().WithPorts(2, 2))
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Error("equal configs missed the cache")
	}
	c, err := r.Result(w, config.Default().WithPorts(2, 2).WithOptimizations(4))
	if err != nil {
		t.Fatal(err)
	}
	if c == a {
		t.Error("different configs collided in the cache")
	}
}

// TestPrefetchAggregatesErrors checks that a batch reports every failed
// run, not just an arbitrary one, and joins the failures in point order
// whatever order the runs finish in: each point's run here takes longer
// the earlier the point, so the runs finish in reverse.
func TestPrefetchAggregatesErrors(t *testing.T) {
	ws := workload.All()[:6]
	pts := cross(ws, config.Default())
	var want string
	for run := 0; run < 5; run++ {
		r := NewRunner(0.02)
		r.testRun = func(prog *asm.Program, _ config.Config) (*core.Result, error) {
			for i, w := range ws {
				if prog.Name == w.Name+".s" {
					time.Sleep(time.Duration(len(ws)-i) * 2 * time.Millisecond)
				}
			}
			return nil, errors.New("injected failure")
		}
		err := r.simulateAll(context.Background(), pts, len(pts))
		if err == nil {
			t.Fatal("batch with failing runs returned nil error")
		}
		msg := err.Error()
		last := -1
		for _, w := range ws {
			at := strings.Index(msg, w.Name+" under")
			if at < 0 {
				t.Fatalf("aggregated error missing failure for %s: %v", w.Name, err)
			}
			if at < last {
				t.Fatalf("failures not joined in point order (%s out of place): %v", w.Name, err)
			}
			last = at
		}
		if run == 0 {
			want = msg
		} else if msg != want {
			t.Fatalf("run %d joined a different error text:\n%s\nwant:\n%s", run, msg, want)
		}
	}
}

func TestRunnerPrefetchParallel(t *testing.T) {
	r := NewRunner(0.02)
	ws := workload.Integers()[:3]
	pts := cross(ws, cfgNM(2, 0), cfgNM(2, 2))
	if err := r.simulateAll(context.Background(), pts, 4); err != nil {
		t.Fatal(err)
	}
	// Everything must now be served from cache (identical pointers on
	// repeat).
	for _, p := range pts {
		a, err := r.Result(p.w, p.cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := r.Result(p.w, p.cfg)
		if a != b {
			t.Error("prefetch did not populate the cache")
		}
	}
}

// TestRunnerPanickingRunReleasesWaiters is the regression test for the
// in-flight leak: a run that panics must return a typed *simerr.SimError to
// every concurrent waiter on the key and release the in-flight entry, so
// later calls for the same key run again instead of deadlocking.
func TestRunnerPanickingRunReleasesWaiters(t *testing.T) {
	r := NewRunner(0.02)
	var calls atomic.Int32
	r.testRun = func(*asm.Program, config.Config) (*core.Result, error) {
		calls.Add(1)
		panic("test-injected core invariant violation")
	}
	w := workload.Integers()[0]
	cfg := config.Default()

	const goroutines = 6
	errs := make([]error, goroutines)
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = r.Result(w, cfg)
		}(i)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("concurrent callers deadlocked on a panicking run")
	}
	for i, err := range errs {
		if err == nil {
			t.Fatalf("caller %d: panicking run returned nil error", i)
		}
		var se *simerr.SimError
		if !errors.As(err, &se) {
			t.Fatalf("caller %d: error %T is not a *simerr.SimError: %v", i, err, err)
		}
		if se.Kind != simerr.KindPanic {
			t.Fatalf("caller %d: kind %s, want %s", i, se.Kind, simerr.KindPanic)
		}
		if !strings.Contains(se.Reason, "test-injected") {
			t.Fatalf("caller %d: reason %q lost the panic value", i, se.Reason)
		}
		if se.Stack == "" {
			t.Fatalf("caller %d: contained panic carries no stack", i)
		}
	}
	if calls.Load() == 0 {
		t.Fatal("testRun hook never ran")
	}

	// The failed run must not poison the key: once the fault is gone, the
	// same key simulates successfully.
	want := &core.Result{}
	r.testRun = func(*asm.Program, config.Config) (*core.Result, error) {
		return want, nil
	}
	got, err := r.Result(w, cfg)
	if err != nil || got != want {
		t.Fatalf("retry after contained panic = (%v, %v), want the fresh result", got, err)
	}
}

// TestRunnerWaiterRerunsAfterOwnerCancel: a caller never inherits another
// caller's abort. The owner of an in-flight key is canceled mid-run; a
// waiter on the same key then claims it and simulates under its own
// context, so it gets a fresh, successful result. This is why ddserve
// never retries a canceled attempt.
func TestRunnerWaiterRerunsAfterOwnerCancel(t *testing.T) {
	r := NewRunner(0.05)
	w, err := workload.ByName("mgrid")
	if err != nil {
		t.Fatal(err)
	}
	cfg := config.Default()
	key := cfgKey(w.Name, cfg)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	ownerErr := make(chan error, 1)
	go func() {
		_, err := r.ResultCtx(ctx, w, cfg)
		ownerErr <- err
	}()
	for {
		r.mu.Lock()
		_, busy := r.inflight[key]
		r.mu.Unlock()
		if busy {
			break
		}
		time.Sleep(time.Millisecond)
	}
	type outcome struct {
		res *core.Result
		err error
	}
	waiter := make(chan outcome, 1)
	go func() {
		res, err := r.Result(w, cfg)
		waiter <- outcome{res, err}
	}()
	// Give the waiter time to block on the owner's run. Should it arrive
	// only after the abort, it claims the key itself, and the assertions
	// below hold either way.
	time.Sleep(20 * time.Millisecond)
	cancel()

	var se *simerr.SimError
	if err := <-ownerErr; !errors.As(err, &se) || se.Kind != simerr.KindCanceled {
		t.Fatalf("owner error = %v, want a %s SimError", err, simerr.KindCanceled)
	}
	got := <-waiter
	if got.err != nil || got.res == nil || got.res.Committed == 0 {
		t.Fatalf("waiter = (%v, %v), want a fresh successful result", got.res, got.err)
	}
}

// TestPrefetchBoundsGoroutines verifies the semaphore is taken before each
// worker is spawned: with par=3, no more than 3 simulations ever run at
// once, and every worker goroutine exits by the time the batch returns.
func TestPrefetchBoundsGoroutines(t *testing.T) {
	const par = 3
	r := NewRunner(0.02)
	var cur, peak atomic.Int32
	r.testRun = func(*asm.Program, config.Config) (*core.Result, error) {
		n := cur.Add(1)
		defer cur.Add(-1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		return &core.Result{}, nil
	}

	// Unique cache keys so every point is a real run.
	var pts []point
	w := workload.Integers()[0]
	for i := 0; i < 12; i++ {
		cfg := config.Default()
		cfg.MaxInsts = uint64(1000 + i)
		pts = append(pts, point{w: w, cfg: cfg})
	}

	before := runtime.NumGoroutine()
	if err := r.simulateAll(context.Background(), pts, par); err != nil {
		t.Fatal(err)
	}
	if got := peak.Load(); got > par {
		t.Errorf("peak concurrent simulations = %d, want <= %d", got, par)
	}
	// All workers are wg.Wait()ed inside the batch; allow the runtime a
	// moment to reap exited goroutines before counting.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before+2 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before+2 {
		t.Errorf("goroutines leaked by the batch: %d before, %d after", before, after)
	}
}

// lineCounter counts the lines written to it, from concurrent writers.
type lineCounter struct {
	mu    sync.Mutex
	lines int
}

func (c *lineCounter) Write(b []byte) (int, error) {
	c.mu.Lock()
	c.lines += strings.Count(string(b), "\n")
	c.mu.Unlock()
	return len(b), nil
}

func (c *lineCounter) count() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.lines
}

// TestExperimentsRenderOnlyFromTheirBatch: every experiment that
// simulates declares its whole grid, so once the grid has run, rendering
// starts no simulation; a Progress line while it renders is a point
// missing from the grid. An experiment without a grid must not simulate
// at all. Each experiment gets a runner of its own, so a point another
// experiment happened to run first cannot hide a gap. Which points an
// experiment reads does not depend on the numbers it reads, so the core
// is replaced by a stub, which keeps the test cheap; program generation,
// profiling and analysis.Assign still run.
func TestExperimentsRenderOnlyFromTheirBatch(t *testing.T) {
	for _, e := range AllExperiments() {
		r := NewRunner(0.01)
		r.testRun = func(*asm.Program, config.Config) (*core.Result, error) {
			return &core.Result{Stats: core.Stats{Cycles: 100, Committed: 100}}, nil
		}
		progress := &lineCounter{}
		r.Progress = progress
		render := func() (string, error) { return e.Run(r) }
		if e.plan != nil {
			grid, planned, err := e.plan(r)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if err := r.simulateAll(context.Background(), grid, runtime.NumCPU()); err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if progress.count() == 0 {
				t.Fatalf("%s: its grid reported no simulation", e.ID)
			}
			render = planned
		}
		ran := progress.count()
		if _, err := render(); err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if n := progress.count() - ran; n > 0 {
			t.Errorf("%s: rendering ran %d simulations outside its grid", e.ID, n)
		}
	}
}

// TestOptimizationsInertWithoutLVC is the premise Figure 9 shares Figure
// 7's (N+0) runs on: fast data forwarding and access combining act only on
// the LVAQ, so on a machine without an LVC they change nothing.
func TestOptimizationsInertWithoutLVC(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates all workloads under six configurations")
	}
	r := NewRunner(0.01)
	var cfgs []config.Config
	for n := 2; n <= 4; n++ {
		cfgs = append(cfgs, cfgNM(n, 0), cfgNM(n, 0).WithOptimizations(2))
	}
	pts := cross(workload.All(), cfgs...)
	if err := r.simulateAll(context.Background(), pts, runtime.NumCPU()); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(pts); i += 2 {
		plain, err := r.Result(pts[i].w, pts[i].cfg)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := r.Result(pts[i+1].w, pts[i+1].cfg)
		if err != nil {
			t.Fatal(err)
		}
		if plain == opt {
			t.Fatalf("%s: %s and %s share one cache entry", pts[i].w.Name, pts[i].cfg.Name(), pts[i+1].cfg.Name())
		}
		if !reflect.DeepEqual(plain, opt) {
			t.Errorf("%s: %s and its optimized twin simulate differently (cycles %d vs %d)",
				pts[i].w.Name, pts[i].cfg.Name(), plain.Cycles, opt.Cycles)
		}
	}
}
