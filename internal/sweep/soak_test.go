package sweep_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/serve"
	"repro/internal/sweep"
)

// The sweep soak drives the ddsweep coordinator the way a flaky fleet
// would: three real in-process ddserve backends, a seeded killer that
// severs one backend's connections and restarts it on a schedule, a
// deterministic fault campaign that watchdog-fails a share of first
// run attempts server-side, a mid-sweep coordinator cancel followed by
// a checkpointed -resume, and a corrupted checkpoint that must self-heal
// into a counted full re-run. The claims under test:
//
//   - the final figure JSON is byte-identical to a serial single-backend
//     no-fault reference, regardless of kills, sheds, retries, resume,
//     or checkpoint healing;
//   - every failed attempt lands in a typed outcome (census), never in a
//     hang or an untyped error;
//   - a defective checkpoint is a counted, logged self-healing reset —
//     a full re-run, not a crash;
//   - after the storm, coordinator and backends drain cleanly and leak
//     no goroutines.
//
// Set SWEEP_SOAK_REPORT_DIR to persist the census dump (CI uploads it
// as an artifact on failure).

// cleanSweepRunOpts is the fault-free run envelope; retried attempts and
// the reference backend both use it, so every successful run — and
// therefore every figure byte — comes from an identical simulation.
func cleanSweepRunOpts() core.RunOptions {
	return core.RunOptions{MaxCycles: 20_000_000, WatchdogCycles: 100_000}
}

// sweepSoakRunOpts arms the deterministic server-side fault campaign:
// roughly half the job keys watchdog-fail their first attempt (a tight
// forward-progress window that trips immediately), and a slice of those
// fail the first retry too, so both the one-retry and the deep-retry
// paths stay hot. Retries past the campaign run clean, and only clean
// runs ever produce a result, so every figure byte comes from the same
// simulation as the reference's.
func sweepSoakRunOpts(key string, attempt int) core.RunOptions {
	opts := cleanSweepRunOpts()
	h := fnv.New64a()
	io.WriteString(h, key)
	sum := h.Sum64()
	switch {
	case sum%4 == 0 && attempt <= 1:
		opts.WatchdogCycles = 16
	case sum%2 == 1 && attempt == 0:
		opts.WatchdogCycles = 16
	}
	return opts
}

// chaosBackend is one real ddserve instance behind killable middleware.
// A kill models a crashed process at the transport layer: new requests
// panic with http.ErrAbortHandler (the connection is severed, the client
// sees a transport error, never a status) and every established client
// connection is closed, aborting in-flight requests. A restart simply
// readmits traffic — the server process itself never dies, which is
// exactly what a supervisor-restarted backend looks like to a client.
type chaosBackend struct {
	name string
	srv  *serve.Server
	ts   *httptest.Server
	down atomic.Bool
}

func newChaosBackend(t *testing.T, name string, runOpts func(string, int) core.RunOptions) *chaosBackend {
	t.Helper()
	srv, err := serve.New(serve.Options{
		Workers:      2,
		QueueDepth:   8,
		MaxPerClient: 8,
		MaxRetries:   2,
		RetryBase:    2 * time.Millisecond,
		RetryCap:     20 * time.Millisecond,
		JobTimeout:   30 * time.Second,
		MaxScale:     0.1,
		CacheDir:     t.TempDir(),
		JobRunOpts:   runOpts,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := &chaosBackend{name: name, srv: srv}
	h := srv.Handler()
	b.ts = httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if b.down.Load() {
			panic(http.ErrAbortHandler)
		}
		h.ServeHTTP(w, r)
	}))
	return b
}

func (b *chaosBackend) kill() {
	b.down.Store(true)
	b.ts.CloseClientConnections()
}

func (b *chaosBackend) restart() { b.down.Store(false) }

func (b *chaosBackend) close(t *testing.T) {
	t.Helper()
	b.restart()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := b.srv.Shutdown(ctx); err != nil {
		t.Errorf("backend %s: drain was forced: %v", b.name, err)
	}
	b.ts.Close()
}

func sweepSoakSpec() *sweep.Spec {
	return &sweep.Spec{
		Schema:    sweep.SpecSchema,
		Name:      "sweep-soak",
		Workloads: []string{"li", "go", "compress", "perl", "swim"},
		Ports:     []string{"2+0", "3+2"},
		Modes:     []string{"base", "opt"},
		Scale:     0.02,
	}
}

func sweepFigureBytes(t *testing.T, f *sweep.Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func fetchStatz(t *testing.T, base string) serve.Statz {
	t.Helper()
	resp, err := http.Get(base + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var z serve.Statz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	return z
}

func TestSweepSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("drives a multi-backend sweep storm")
	}
	baseline := runtime.NumGoroutine()
	spec := sweepSoakSpec()

	// Reference: one healthy backend, serial dispatch, no faults, no
	// checkpoint. These bytes are the ground truth every chaos figure
	// must reproduce exactly.
	ref := newChaosBackend(t, "ref", func(string, int) core.RunOptions { return cleanSweepRunOpts() })
	refCo, err := sweep.New(spec, sweep.Options{
		Backends:      []string{ref.ts.URL},
		Parallel:      1,
		ProbeInterval: 20 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	refFig, refCen, err := refCo.Run(context.Background())
	if err != nil {
		t.Fatalf("reference sweep failed: %v", err)
	}
	if refCen.Completed != len(refFig.Points) || len(refFig.Points) == 0 {
		t.Fatalf("reference sweep incomplete: %d points, census %+v", len(refFig.Points), refCen)
	}
	refBytes := sweepFigureBytes(t, refFig)
	ref.close(t)

	// The chaos fleet: three backends with the fault campaign armed.
	backends := make([]*chaosBackend, 3)
	urls := make([]string, len(backends))
	for i := range backends {
		backends[i] = newChaosBackend(t, fmt.Sprintf("b%d", i), sweepSoakRunOpts)
		urls[i] = backends[i].ts.URL
	}

	// Seeded killer: one backend at a time is severed for a short window,
	// then restarted, for as long as the chaos phases run.
	killerStop := make(chan struct{})
	var killerDone sync.WaitGroup
	var kills atomic.Uint64
	killerDone.Add(1)
	go func() {
		defer killerDone.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-killerStop:
				return
			case <-time.After(time.Duration(30+rng.Intn(50)) * time.Millisecond):
			}
			b := backends[rng.Intn(len(backends))]
			b.kill()
			kills.Add(1)
			select {
			case <-killerStop:
				b.restart()
				return
			case <-time.After(time.Duration(40+rng.Intn(60)) * time.Millisecond):
			}
			b.restart()
		}
	}()
	stopKiller := func() {
		select {
		case <-killerStop:
		default:
			close(killerStop)
			killerDone.Wait()
			for _, b := range backends {
				b.restart()
			}
		}
	}
	defer stopKiller()

	ckptPath := filepath.Join(t.TempDir(), "soak.sweepckpt")
	chaosOpts := func() sweep.Options {
		return sweep.Options{
			Backends:      urls,
			Parallel:      4,
			MaxAttempts:   10,
			RetryBase:     2 * time.Millisecond,
			RetryCap:      50 * time.Millisecond,
			ProbeInterval: 20 * time.Millisecond,
			DispatchWait:  15 * time.Second,
			Checkpoint:    ckptPath,
		}
	}

	// Phase 1: kill the coordinator mid-sweep — cancel its context after
	// a handful of points have completed and checkpointed.
	ctx1, cancel1 := context.WithCancel(context.Background())
	defer cancel1()
	var phase1OK atomic.Int64
	opts1 := chaosOpts()
	opts1.OnPoint = func(key, outcome string) {
		if outcome == "ok" && phase1OK.Add(1) == 4 {
			cancel1()
		}
	}
	co1, err := sweep.New(spec, opts1)
	if err != nil {
		t.Fatal(err)
	}
	_, cen1, err1 := co1.Run(ctx1)
	if err1 == nil {
		t.Fatal("phase 1 sweep was not interrupted")
	}
	if phase1OK.Load() < 4 {
		t.Fatalf("phase 1 completed %d points before interruption, want >= 4", phase1OK.Load())
	}

	// Phase 2: coordinator restart with -resume under continuing chaos.
	// The checkpointed points must be skipped, and the final figure must
	// be byte-identical to the reference. If the storm exhausts a point's
	// retry budget the failure is typed and one more resume — the
	// operator's move — finishes the sweep.
	opts2 := chaosOpts()
	opts2.Resume = true
	co2, err := sweep.New(spec, opts2)
	if err != nil {
		t.Fatal(err)
	}
	fig2, cen2, err2 := co2.Run(context.Background())
	if cen2.Resumed < 4 {
		t.Errorf("phase 2 resumed %d points, want >= 4", cen2.Resumed)
	}
	if cen2.CheckpointResets != 0 {
		t.Errorf("phase 2 reset a healthy checkpoint: %+v", cen2)
	}
	stopKiller()
	finalFig, finalCen := fig2, cen2
	if err2 != nil {
		t.Logf("phase 2 under chaos: %v (outcomes %v); resuming clean", err2, cen2.Outcomes)
		opts2b := chaosOpts()
		opts2b.Resume = true
		co2b, err := sweep.New(spec, opts2b)
		if err != nil {
			t.Fatal(err)
		}
		fig2b, cen2b, err2b := co2b.Run(context.Background())
		if err2b != nil {
			t.Fatalf("clean resume still failed: %v (census %+v)", err2b, cen2b)
		}
		finalFig, finalCen = fig2b, cen2b
	}
	finalBytes := sweepFigureBytes(t, finalFig)
	if !bytes.Equal(finalBytes, refBytes) {
		t.Errorf("chaos figure differs from serial single-backend reference:\n-- reference --\n%s\n-- chaos --\n%s",
			refBytes, finalBytes)
	}
	if len(finalCen.Failed) != 0 {
		t.Errorf("final sweep left failed points: %v", finalCen.Failed)
	}

	// Every attempt the storm broke must have landed in a typed outcome.
	for _, cen := range []*sweep.Census{cen1, cen2, finalCen} {
		for outcome, n := range cen.Outcomes {
			if outcome == "" || n <= 0 {
				t.Errorf("untyped or empty outcome bucket %q=%d", outcome, n)
			}
		}
	}

	// The server-side fault campaign must have bitten: the backends
	// retried watchdog-failed attempts internally.
	var serverRetries uint64
	for _, b := range backends {
		z := fetchStatz(t, b.ts.URL)
		serverRetries += z.Retries
	}
	if serverRetries == 0 {
		t.Error("fault campaign never fired: zero server-side retries across the fleet")
	}
	t.Logf("phase1: ok=%d outcomes=%v", phase1OK.Load(), cen1.Outcomes)
	t.Logf("phase2: resumed=%d outcomes=%v err=%v", cen2.Resumed, cen2.Outcomes, err2)
	t.Logf("kills=%d server_retries=%d backends=%+v", kills.Load(), serverRetries, finalCen.Backends)

	// Phase 3: corrupt the checkpoint and resume. The defect must heal
	// into a counted empty checkpoint and a full re-run whose figure is
	// still byte-identical — never a crash, never a silent partial run.
	if err := os.WriteFile(ckptPath, []byte("{torn mid-"), 0o644); err != nil {
		t.Fatal(err)
	}
	var healLog bytes.Buffer
	opts3 := chaosOpts()
	opts3.Resume = true
	opts3.Log = &healLog
	co3, err := sweep.New(spec, opts3)
	if err != nil {
		t.Fatal(err)
	}
	fig3, cen3, err3 := co3.Run(context.Background())
	if err3 != nil {
		t.Fatalf("re-run after checkpoint corruption failed: %v (census %+v)", err3, cen3)
	}
	if cen3.CheckpointResets != 1 {
		t.Errorf("corrupt checkpoint: got %d resets, want 1", cen3.CheckpointResets)
	}
	if cen3.Resumed != 0 {
		t.Errorf("corrupt checkpoint resumed %d points, want 0 (full re-run)", cen3.Resumed)
	}
	if !bytes.Contains(healLog.Bytes(), []byte("treating as empty")) {
		t.Errorf("checkpoint healing was not logged:\n%s", healLog.String())
	}
	if got := sweepFigureBytes(t, fig3); !bytes.Equal(got, refBytes) {
		t.Errorf("post-heal figure differs from reference:\n-- reference --\n%s\n-- healed --\n%s", refBytes, got)
	}

	// Clean drain and no goroutine leak: coordinators join their probe
	// and worker goroutines before returning, backends drain their pools.
	for _, b := range backends {
		b.close(t)
	}
	leakDeadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > baseline+3 {
		if time.Now().After(leakDeadline) {
			buf := make([]byte, 1<<20)
			t.Fatalf("goroutine leak: %d now vs %d at baseline\n%s",
				runtime.NumGoroutine(), baseline, buf[:runtime.Stack(buf, true)])
		}
		time.Sleep(20 * time.Millisecond)
	}

	writeSweepSoakReport(t, refBytes, finalBytes, []*sweep.Census{cen1, cen2, finalCen, cen3})
}

// writeSweepSoakReport persists the per-phase censuses (and, on failure,
// the reference and final figure bytes) for CI artifact upload.
func writeSweepSoakReport(t *testing.T, refBytes, finalBytes []byte, censuses []*sweep.Census) {
	dir := os.Getenv("SWEEP_SOAK_REPORT_DIR")
	if dir == "" {
		return
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Logf("sweep soak report: %v", err)
		return
	}
	if data, err := json.MarshalIndent(censuses, "", "  "); err == nil {
		os.WriteFile(filepath.Join(dir, "sweep-soak-census.json"), data, 0o644)
	}
	if t.Failed() {
		os.WriteFile(filepath.Join(dir, "sweep-soak-figure-reference.json"), refBytes, 0o644)
		os.WriteFile(filepath.Join(dir, "sweep-soak-figure-final.json"), finalBytes, 0o644)
	}
}
