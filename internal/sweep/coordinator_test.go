package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/serve"
)

// stubResult is the deterministic JobResult a fake backend returns for a
// spec: a pure function of the job fields, so every stub agrees —
// exactly the property real backends have.
func stubResult(spec serve.JobSpec) serve.JobResult {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|%s|%s|%v|%v|%d|%d",
		spec.Workload, spec.Ports, spec.Steer,
		spec.Opt, spec.StaticOpt, spec.Combine, spec.MaxInsts)
	x := h.Sum64()
	cycles := 1000 + x%100000
	committed := 500 + x%50000
	steer := spec.Steer
	if steer == "" {
		steer = "hint"
	}
	return serve.JobResult{
		Schema:        serve.ResultSchema,
		Name:          spec.Workload,
		Config:        "(" + spec.Ports + ")",
		Scale:         spec.Scale,
		Steering:      steer,
		Cycles:        cycles,
		Committed:     committed,
		IPC:           float64(committed) / float64(cycles),
		Loads:         x % 1000,
		Stores:        x % 700,
		LocalFraction: float64(x%100) / 100,
		Misroutes:     x % 17,
	}
}

func respondJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func decodeSpec(t *testing.T, r *http.Request) serve.JobSpec {
	t.Helper()
	var spec serve.JobSpec
	if err := json.NewDecoder(r.Body).Decode(&spec); err != nil {
		t.Errorf("stub got bad job body: %v", err)
	}
	return spec
}

// newStub starts a fake ddserve speaking the wire protocol: /readyz ok,
// /jobs handled by jobs (nil = always answer stubResult).
func newStub(t *testing.T, jobs http.HandlerFunc) *httptest.Server {
	t.Helper()
	if jobs == nil {
		jobs = func(w http.ResponseWriter, r *http.Request) {
			respondJSON(w, http.StatusOK, stubResult(decodeSpec(t, r)))
		}
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/jobs", jobs)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)
	return srv
}

func fastOpts(backends ...string) Options {
	return Options{
		Backends:      backends,
		MaxAttempts:   4,
		RetryBase:     time.Millisecond,
		RetryCap:      10 * time.Millisecond,
		ProbeInterval: 50 * time.Millisecond,
		DispatchWait:  500 * time.Millisecond,
	}
}

func testSpec() *Spec {
	return &Spec{
		Schema: SpecSchema, Name: "unit",
		Workloads: []string{"li", "go"}, Ports: []string{"2+0", "3+2"},
		Scale: 0.01,
	}
}

func runSweep(t *testing.T, spec *Spec, opts Options) (*Figure, *Census, error) {
	t.Helper()
	c, err := New(spec, opts)
	if err != nil {
		t.Fatal(err)
	}
	return c.Run(context.Background())
}

func figureBytes(t *testing.T, f *Figure) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := f.EncodeJSON(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestCoordinatorHappyPath(t *testing.T) {
	b0 := newStub(t, nil)
	fig, census, err := runSweep(t, testSpec(), fastOpts(b0.URL))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 4 || census.Completed != 4 || len(census.Failed) != 0 {
		t.Fatalf("points=%d completed=%d failed=%v", len(fig.Points), census.Completed, census.Failed)
	}
	if census.Outcomes["ok"] != 4 {
		t.Fatalf("outcomes: %v", census.Outcomes)
	}
	for i := 1; i < len(fig.Points); i++ {
		if fig.Points[i-1].Key >= fig.Points[i].Key {
			t.Fatalf("figure points not sorted: %q then %q", fig.Points[i-1].Key, fig.Points[i].Key)
		}
	}
	if fig.Schema != FigureSchema || fig.SpecID == "" || fig.Scale != 0.01 {
		t.Fatalf("figure header: %+v", fig)
	}
}

// The assembled figure is byte-identical regardless of backend count or
// parallelism: the defining determinism property.
func TestFigureByteIdentical(t *testing.T) {
	b0 := newStub(t, nil)
	ref, _, err := runSweep(t, testSpec(), Options{
		Backends: []string{b0.URL}, Parallel: 1,
		RetryBase: time.Millisecond, ProbeInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	refBytes := figureBytes(t, ref)

	b1, b2 := newStub(t, nil), newStub(t, nil)
	opts := fastOpts(b0.URL, b1.URL, b2.URL)
	opts.Parallel = 8
	fig, _, err := runSweep(t, testSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(refBytes, figureBytes(t, fig)) {
		t.Fatalf("figure bytes differ across backend counts:\n--- 1 backend\n%s\n--- 3 backends\n%s",
			refBytes, figureBytes(t, fig))
	}
}

// Transient failures (retryable simerr kinds) are retried with backoff
// and the attempts land in the census as typed outcomes.
func TestRetriesTransientThenSucceeds(t *testing.T) {
	var calls atomic.Int64
	flaky := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		spec := decodeSpec(t, r)
		if calls.Add(1) == 1 {
			respondJSON(w, http.StatusInternalServerError, serve.ErrorBody{
				Error: "livelock", Kind: "watchdog", Retryable: true,
			})
			return
		}
		respondJSON(w, http.StatusOK, stubResult(spec))
	})
	spec := &Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}}
	fig, census, err := runSweep(t, spec, fastOpts(flaky.URL))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 1 {
		t.Fatalf("point did not complete: %v", census.Failed)
	}
	if census.Outcomes["retried:watchdog"] != 1 {
		t.Fatalf("outcomes: %v", census.Outcomes)
	}
}

// shedFirst returns a /jobs handler that sheds its first n posts (every
// post if n < 0) with a 1 s Retry-After and answers the rest.
func shedFirst(t *testing.T, n int64) http.HandlerFunc {
	var calls atomic.Int64
	return func(w http.ResponseWriter, r *http.Request) {
		spec := decodeSpec(t, r)
		if n < 0 || calls.Add(1) <= n {
			w.Header().Set("Retry-After", "1")
			respondJSON(w, http.StatusTooManyRequests, serve.ErrorBody{
				Error: "queue full", Kind: "queue-full", Retryable: true, RetryAfterSeconds: 1,
			})
			return
		}
		respondJSON(w, http.StatusOK, stubResult(spec))
	}
}

// backendCensus returns the census entry of the backend at url.
func backendCensus(t *testing.T, census *Census, url string) BackendCensus {
	t.Helper()
	for _, b := range census.Backends {
		if b.URL == url {
			return b
		}
	}
	t.Fatalf("no census entry for %s", url)
	return BackendCensus{}
}

// A shed cools only its backend for the server's Retry-After window: the
// retry goes to another backend at once, and a lone backend is waited
// out until its window ends.
func TestShedHonorsRetryAfter(t *testing.T) {
	spec := &Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}}

	t.Run("diverts", func(t *testing.T) {
		shedder := newStub(t, shedFirst(t, -1))
		ok := newStub(t, nil)
		start := time.Now()
		fig, census, err := runSweep(t, spec, fastOpts(shedder.URL, ok.URL))
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed >= time.Second {
			t.Fatalf("retry sat out the shedder's window instead of diverting (took %v)", elapsed)
		}
		if len(fig.Points) != 1 || census.Outcomes["retried:shed:queue-full"] != 1 {
			t.Fatalf("points=%d outcomes=%v", len(fig.Points), census.Outcomes)
		}
		if b := backendCensus(t, census, shedder.URL); b.Dispatched != 1 || b.Shed != 1 {
			t.Fatalf("shedder got more than the one post that shed: %+v", b)
		}
		if b := backendCensus(t, census, ok.URL); b.OK != 1 {
			t.Fatalf("healthy backend census: %+v", b)
		}
	})

	t.Run("waits-alone", func(t *testing.T) {
		lone := newStub(t, shedFirst(t, 1))
		opts := fastOpts(lone.URL)
		opts.DispatchWait = 5 * time.Second // one wait covers the whole window
		start := time.Now()
		fig, census, err := runSweep(t, spec, opts)
		if err != nil {
			t.Fatal(err)
		}
		if elapsed := time.Since(start); elapsed < time.Second {
			t.Fatalf("retry ignored the 1s Retry-After hint (took %v)", elapsed)
		}
		if len(fig.Points) != 1 || census.Outcomes["retried:shed:queue-full"] != 1 {
			t.Fatalf("points=%d outcomes=%v", len(fig.Points), census.Outcomes)
		}
		if b := census.Backends[0]; b.Dispatched != 2 || b.Shed != 1 || b.OK != 1 {
			t.Fatalf("backend census: %+v", b)
		}
	})
}

// Terminal verdicts stop the point immediately — no retry burns a
// backend on a deterministic failure.
func TestTerminalFailsFast(t *testing.T) {
	terminal := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		respondJSON(w, http.StatusUnprocessableEntity, serve.ErrorBody{
			Error: "cycle budget exhausted", Kind: "cycle-budget", Retryable: false,
		})
	})
	spec := &Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}}
	fig, census, err := runSweep(t, spec, fastOpts(terminal.URL))
	if !errors.Is(err, ErrPointsFailed) {
		t.Fatalf("got %v, want ErrPointsFailed", err)
	}
	if len(fig.Points) != 0 {
		t.Fatal("failed point produced figure data")
	}
	key := "li/2+0/hint/base"
	if reason := census.Failed[key]; !strings.Contains(reason, "cycle-budget") {
		t.Fatalf("failure not typed: %q (census %v)", reason, census.Failed)
	}
	b := census.Backends[0]
	if b.Dispatched != 1 || b.Terminal != 1 {
		t.Fatalf("terminal retried: %+v", b)
	}
	if census.Outcomes["terminal:cycle-budget"] != 1 {
		t.Fatalf("outcomes: %v", census.Outcomes)
	}
}

// A backend whose /readyz answers but whose /jobs fails — a severed
// connection or a malformed 200 — is down after each failure and sits
// out until its next good probe, so traffic diverts to the healthy one:
// the broken backend stops being hammered.
func TestDownBackendDivertsTraffic(t *testing.T) {
	for _, tc := range []struct {
		name    string
		jobs    http.HandlerFunc // the broken backend's /jobs
		retried string           // the outcome its failures land in
	}{
		// Healthy /readyz but every /jobs connection is severed: each good
		// probe readmits the backend, and each post marks it down again.
		{"transport", func(w http.ResponseWriter, r *http.Request) {
			panic(http.ErrAbortHandler)
		}, "retried:transport"},
		{"bad-result", func(w http.ResponseWriter, r *http.Request) {
			respondJSON(w, http.StatusOK, serve.JobResult{Schema: "bogus"})
		}, "retried:bad-result"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			broken := newStub(t, tc.jobs)
			ok := newStub(t, nil)
			opts := fastOpts(broken.URL, ok.URL)
			opts.Parallel = 1

			fig, census, err := runSweep(t, testSpec(), opts)
			if err != nil {
				t.Fatal(err)
			}
			if len(fig.Points) != 4 {
				t.Fatalf("sweep incomplete: %v", census.Failed)
			}
			// Once down, the broken backend saw at most a few dispatches,
			// not one per attempt of every point.
			if b := backendCensus(t, census, broken.URL); b.Dispatched > 3 {
				t.Fatalf("down backend did not divert traffic: %+v", b)
			}
			if census.Outcomes[tc.retried] == 0 {
				t.Fatalf("outcomes: %v", census.Outcomes)
			}
		})
	}
}

// A backend whose /readyz fails is down from its first probe on. Only a
// post that raced that probe can reach it, and the stub holds such a post
// until the second probe, by which time the first has marked it down.
func TestFailedProbeKeepsBackendOut(t *testing.T) {
	var probes atomic.Int64
	secondProbe := make(chan struct{})
	mux := http.NewServeMux()
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		if probes.Add(1) == 2 {
			close(secondProbe)
		}
		w.WriteHeader(http.StatusServiceUnavailable)
	})
	mux.HandleFunc("/jobs", func(w http.ResponseWriter, r *http.Request) {
		spec := decodeSpec(t, r)
		<-secondProbe
		respondJSON(w, http.StatusOK, stubResult(spec))
	})
	unready := httptest.NewServer(mux)
	t.Cleanup(unready.Close)
	ok := newStub(t, nil)
	opts := fastOpts(unready.URL, ok.URL)
	opts.Parallel = 1

	fig, census, err := runSweep(t, testSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 4 {
		t.Fatalf("sweep incomplete: %v", census.Failed)
	}
	if b := backendCensus(t, census, unready.URL); b.Dispatched > 1 {
		t.Fatalf("unready backend got more than a post that raced its first probe: %+v", b)
	}
}

// A lone backend that severs its first post is down only until its next
// good probe: the retry waits for that probe and completes the sweep.
func TestGoodProbeClearsDown(t *testing.T) {
	var calls atomic.Int64
	flaky := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		spec := decodeSpec(t, r)
		if calls.Add(1) == 1 {
			panic(http.ErrAbortHandler)
		}
		respondJSON(w, http.StatusOK, stubResult(spec))
	})
	spec := &Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}}
	fig, census, err := runSweep(t, spec, fastOpts(flaky.URL))
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Points) != 1 || census.Outcomes["retried:transport"] != 1 {
		t.Fatalf("points=%d outcomes=%v", len(fig.Points), census.Outcomes)
	}
	if b := census.Backends[0]; b.Dispatched != 2 || b.Transient != 1 || b.OK != 1 {
		t.Fatalf("backend census: %+v", b)
	}
}

// With every backend refusing work the sweep fails typed — bounded
// attempts of bounded dispatch waits — rather than hanging.
func TestAllBackendsDownFailsTyped(t *testing.T) {
	draining := newStub(t, func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		respondJSON(w, http.StatusServiceUnavailable, serve.ErrorBody{
			Error: "draining", Kind: "draining", Retryable: true, RetryAfterSeconds: 1,
		})
	})
	spec := &Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}}
	opts := fastOpts(draining.URL)
	opts.MaxAttempts = 2
	opts.DispatchWait = 100 * time.Millisecond

	fig, census, err := runSweep(t, spec, opts)
	if !errors.Is(err, ErrPointsFailed) {
		t.Fatalf("got %v, want ErrPointsFailed", err)
	}
	if len(fig.Points) != 0 || len(census.Failed) != 1 {
		t.Fatalf("fig=%d failed=%v", len(fig.Points), census.Failed)
	}
	if census.Outcomes["retries-exhausted"] != 1 {
		t.Fatalf("outcomes: %v", census.Outcomes)
	}
}

// A sweep killed mid-flight resumes from its checkpoint: only missing
// points re-run, and the final figure is byte-identical to an unbroken
// single-backend run.
func TestResumeByteIdentical(t *testing.T) {
	b0 := newStub(t, nil)
	ref, _, err := runSweep(t, testSpec(), fastOpts(b0.URL))
	if err != nil {
		t.Fatal(err)
	}
	refBytes := figureBytes(t, ref)

	ckPath := filepath.Join(t.TempDir(), "ck.json")

	// Phase 1: kill the sweep after 2 completed points.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var done atomic.Int64
	opts := fastOpts(b0.URL)
	opts.Parallel = 1
	opts.Checkpoint = ckPath
	opts.OnPoint = func(key, outcome string) {
		if outcome == "ok" && done.Add(1) == 2 {
			cancel()
		}
	}
	c, err := New(testSpec(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.Run(ctx); err == nil {
		t.Fatal("interrupted sweep reported success")
	}

	// Phase 2: resume. Only the missing points run; bytes match the
	// unbroken reference.
	var log strings.Builder
	opts2 := fastOpts(b0.URL)
	opts2.Checkpoint = ckPath
	opts2.Resume = true
	opts2.Log = &log
	c2, err := New(testSpec(), opts2)
	if err != nil {
		t.Fatal(err)
	}
	fig, census, err := c2.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if census.Resumed < 2 {
		t.Fatalf("resumed %d points, want >=2 (log: %s)", census.Resumed, log.String())
	}
	if census.Outcomes["resumed"] != census.Resumed {
		t.Fatalf("outcomes: %v", census.Outcomes)
	}
	if !bytes.Equal(refBytes, figureBytes(t, fig)) {
		t.Fatalf("resumed figure differs from reference:\n--- reference\n%s\n--- resumed\n%s",
			refBytes, figureBytes(t, fig))
	}

	// Phase 3: corrupt the checkpoint; the resume heals it (counted,
	// logged), re-runs everything, and the bytes still match.
	if err := os.WriteFile(ckPath, []byte("{torn"), 0o644); err != nil {
		t.Fatal(err)
	}
	var log3 strings.Builder
	opts3 := fastOpts(b0.URL)
	opts3.Checkpoint = ckPath
	opts3.Resume = true
	opts3.Log = &log3
	c3, err := New(testSpec(), opts3)
	if err != nil {
		t.Fatal(err)
	}
	fig3, census3, err := c3.Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if census3.CheckpointResets != 1 || census3.Resumed != 0 {
		t.Fatalf("corrupt checkpoint not healed: resets=%d resumed=%d", census3.CheckpointResets, census3.Resumed)
	}
	if !strings.Contains(log3.String(), "treating as empty") {
		t.Fatalf("self-heal not logged: %q", log3.String())
	}
	if !bytes.Equal(refBytes, figureBytes(t, fig3)) {
		t.Fatal("healed re-run figure differs from reference")
	}
}

// New rejects unusable configurations before any job is sent.
func TestNewRejectsBadInput(t *testing.T) {
	if _, err := New(testSpec(), Options{}); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("no backends: got %v", err)
	}
	bad := &Spec{Schema: SpecSchema, Workloads: []string{"nope"}, Ports: []string{"2+0"}}
	if _, err := New(bad, fastOpts("http://localhost:1")); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad spec: got %v", err)
	}
}

// Census rendering is deterministic (sorted iteration) so soak logs and
// CI artifacts diff cleanly.
func TestCensusRenderDeterministic(t *testing.T) {
	c := &Census{
		Points: 3, Completed: 2,
		Failed:   map[string]string{"b": "terminal: x", "a": "retries exhausted"},
		Outcomes: map[string]int{"ok": 2, "retried:transport": 1, "canceled": 1},
		Backends: []BackendCensus{{Name: "b0", URL: "u"}},
	}
	var r1, r2 strings.Builder
	c.Render(&r1)
	c.Render(&r2)
	if r1.String() != r2.String() {
		t.Fatal("render not deterministic")
	}
	out := r1.String()
	aIdx, bIdx := strings.Index(out, "FAILED a"), strings.Index(out, "FAILED b")
	if aIdx < 0 || bIdx < 0 || aIdx > bIdx {
		t.Fatalf("failures not sorted:\n%s", out)
	}
}
