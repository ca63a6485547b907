package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simerr"
)

// tinyProgram is a complete runnable job program: pure local traffic,
// finishes in a few hundred cycles.
const tinyProgram = `	.text
	.global main
main:
	addi $sp, $sp, -8
	li   $t0, 7
	sw   $t0, 0($sp) !local
	lw   $t1, 0($sp) !local
	out  $t1
	addi $sp, $sp, 8
	halt
`

// newTestServer builds a started server + httptest front end and tears
// both down (drain first, then listener) at test end.
func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(opts)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		s.Shutdown(ctx)
		ts.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, client string, body string) (int, []byte, http.Header) {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if client != "" {
		req.Header.Set("X-Client", client)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data, resp.Header
}

func decodeError(t *testing.T, data []byte) ErrorBody {
	t.Helper()
	var e ErrorBody
	if err := json.Unmarshal(data, &e); err != nil {
		t.Fatalf("error body is not ErrorBody JSON: %v\n%s", err, data)
	}
	return e
}

func TestJobEndpointRunsProgram(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	spec, _ := json.Marshal(JobSpec{Program: tinyProgram, Ports: "2+0"})
	status, data, _ := postJob(t, ts, "c1", string(spec))
	if status != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Schema != ResultSchema || res.Committed == 0 || res.Cycles == 0 {
		t.Fatalf("implausible result: %+v", res)
	}
	if !strings.Contains(res.StatBlock, "committed") {
		t.Fatalf("stat block missing:\n%s", res.StatBlock)
	}
	if res.Attempts != 1 || res.Cached {
		t.Fatalf("serving metadata wrong: attempts=%d cached=%v", res.Attempts, res.Cached)
	}
}

func TestJobEndpointRunsWorkload(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	status, data, _ := postJob(t, ts, "c1", `{"workload":"li","scale":0.02,"ports":"3+2","opt":true}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	var res JobResult
	if err := json.Unmarshal(data, &res); err != nil {
		t.Fatal(err)
	}
	if res.Name != "li" || res.Config != "(3+2)" {
		t.Fatalf("result = %+v", res)
	}
}

func TestBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	cases := []struct {
		name   string
		body   string
		status int
		kind   string
	}{
		{"bad JSON", `{"workload":`, http.StatusBadRequest, "bad-json"},
		{"unknown field", `{"wrkld":"li"}`, http.StatusBadRequest, "bad-json"},
		{"engine field", `{"workload":"li","engine":"tick"}`, http.StatusBadRequest, "bad-json"},
		{"neither source", `{}`, http.StatusBadRequest, "bad-request"},
		{"both sources", `{"workload":"li","program":"halt"}`, http.StatusBadRequest, "bad-request"},
		{"unknown workload", `{"workload":"doom"}`, http.StatusBadRequest, "bad-request"},
		{"bad ports", `{"workload":"li","ports":"many"}`, http.StatusBadRequest, "bad-request"},
		{"bad steer", `{"workload":"li","steer":"psychic"}`, http.StatusBadRequest, "bad-request"},
		{"oversized scale", `{"workload":"li","scale":64}`, http.StatusBadRequest, "bad-request"},
		{"bad program", `{"program":"not assembly at all"}`, http.StatusBadRequest, "bad-request"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			status, data, _ := postJob(t, ts, "c1", tc.body)
			if status != tc.status {
				t.Fatalf("status = %d, want %d; body:\n%s", status, tc.status, data)
			}
			if e := decodeError(t, data); e.Kind != tc.kind || e.Retryable {
				t.Fatalf("error body = %+v", e)
			}
		})
	}
}

func TestOversizedProgramRejected(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, MaxBodyBytes: 4096})
	big := strings.Repeat("# padding line\n", 1024)
	spec, _ := json.Marshal(JobSpec{Program: big})
	status, data, _ := postJob(t, ts, "c1", string(spec))
	if status != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	if e := decodeError(t, data); e.Kind != "oversized" {
		t.Fatalf("error body = %+v", e)
	}
}

func TestMethodNotAllowed(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1})
	resp, err := ts.Client().Get(ts.URL + "/jobs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestHealthReadyStatz(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for path, want := range map[string]int{"/healthz": 200, "/readyz": 200, "/statz": 200} {
		resp, err := ts.Client().Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != want {
			t.Fatalf("%s = %d, want %d", path, resp.StatusCode, want)
		}
	}
	resp, err := ts.Client().Get(ts.URL + "/statz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var z Statz
	if err := json.NewDecoder(resp.Body).Decode(&z); err != nil {
		t.Fatal(err)
	}
	if z.Schema != "ddserve-statz/v1" || z.Workers != 1 || z.QueueCap != s.opts.QueueDepth {
		t.Fatalf("statz = %+v", z)
	}
}

// TestMidRunCancel verifies that a client abandoning its request aborts
// the running simulation (typed canceled) and frees the worker.
func TestMidRunCancel(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	started := make(chan struct{})
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		close(started)
		<-ctx.Done()
		return nil, &simerr.SimError{Kind: simerr.KindCanceled, Reason: "run canceled", Err: ctx.Err()}
	}

	ctx, cancel := context.WithCancel(context.Background())
	req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/jobs",
		strings.NewReader(`{"workload":"li","scale":0.02}`))
	errCh := make(chan error, 1)
	go func() {
		_, err := ts.Client().Do(req)
		errCh <- err
	}()
	<-started
	cancel()
	if err := <-errCh; err == nil {
		t.Fatal("expected the client request to fail after cancel")
	}
	// The atomic canceled counter is the happens-before edge proving the
	// worker is done with the hook before the test swaps it out.
	waitFor(t, 2*time.Second, func() bool { return s.statz().Canceled == 1 })

	// The worker must return to the pool: a second, well-behaved job
	// must complete on the real simulator.
	s.runHook = nil
	status, data, _ := postJob(t, ts, "c2", `{"workload":"li","scale":0.02}`)
	if status != http.StatusOK {
		t.Fatalf("post-cancel job: status = %d, body:\n%s", status, data)
	}
}

// TestQueueFullSheds fills the pool and queue with blocked jobs and
// verifies load shedding (429 + Retry-After), then unblocks everything.
func TestQueueFullSheds(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, MaxPerClient: 8, MaxRetries: -1})
	release := make(chan struct{})
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, &simerr.SimError{Kind: simerr.KindCanceled, Reason: "test"}
	}

	// Fill the pool, then the queue, sequentially: posting both hogs at
	// once races the worker's dequeue — the second hog can arrive while
	// the first is still queued and be shed itself, and the expected
	// 1-in-flight + 1-queued state never forms.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // 1 in-flight + 1 queued
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJob(t, ts, "hog", fmt.Sprintf(`{"workload":"li","scale":0.0%d}`, i+1))
		}(i)
		want := func() bool { return int(s.inFlight.Load()) == 1 && s.q.Depth() == i }
		waitFor(t, 2*time.Second, want)
	}

	status, data, hdr := postJob(t, ts, "other", `{"workload":"li","scale":0.03}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	if e := decodeError(t, data); e.Kind != "queue-full" || !e.Retryable || e.RetryAfterSeconds == 0 {
		t.Fatalf("error body = %+v", e)
	}
	close(release)
	wg.Wait()
	if z := s.statz(); z.ShedQueueFull != 1 {
		t.Fatalf("shed counter = %+v", z)
	}
}

// TestPerClientLimitSheds verifies one client cannot consume the whole
// queue: its excess jobs shed with client-limit while another client
// still gets in.
func TestPerClientLimitSheds(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 16, MaxPerClient: 1, MaxRetries: -1})
	release := make(chan struct{})
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		select {
		case <-release:
		case <-ctx.Done():
		}
		return nil, &simerr.SimError{Kind: simerr.KindCanceled, Reason: "test"}
	}

	// Sequential posts, as in TestQueueFullSheds: a concurrent second
	// post can be client-limit-shed while the first is still queued.
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ { // greedy: 1 in-flight + 1 queued
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			postJob(t, ts, "greedy", fmt.Sprintf(`{"workload":"li","scale":0.0%d}`, i+1))
		}(i)
		want := func() bool { return int(s.inFlight.Load()) == 1 && s.q.Depth() == i }
		waitFor(t, 2*time.Second, want)
	}

	status, data, _ := postJob(t, ts, "greedy", `{"workload":"li","scale":0.03}`)
	if status != http.StatusTooManyRequests {
		t.Fatalf("greedy overflow: status = %d, body:\n%s", status, data)
	}
	if e := decodeError(t, data); e.Kind != "client-limit" {
		t.Fatalf("error body = %+v", e)
	}

	// A different client still gets a queue slot.
	done := make(chan struct{})
	go func() {
		defer close(done)
		postJob(t, ts, "polite", `{"workload":"li","scale":0.04}`)
	}()
	waitFor(t, 2*time.Second, func() bool { return s.q.Depth() == 2 })
	close(release)
	wg.Wait()
	<-done
	if z := s.statz(); z.ShedClientLimit != 1 {
		t.Fatalf("shed counters = %+v", z)
	}
}

// TestRetriesTransientThenSucceeds: watchdog failures retry with backoff
// and the job still completes.
func TestRetriesTransientThenSucceeds(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxRetries: 2, RetryBase: time.Millisecond})
	var calls int
	var mu sync.Mutex
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		mu.Lock()
		calls++
		n := calls
		mu.Unlock()
		if n < 3 {
			return nil, &simerr.SimError{Kind: simerr.KindWatchdog, Reason: "transient livelock"}
		}
		return &core.Result{Config: "(2+0)", Stats: core.Stats{Cycles: 10, Committed: 5}}, nil
	}
	status, data, _ := postJob(t, ts, "c1", `{"workload":"li","scale":0.02}`)
	if status != http.StatusOK {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	var res JobResult
	json.Unmarshal(data, &res)
	if res.Attempts != 3 {
		t.Fatalf("attempts = %d, want 3", res.Attempts)
	}
	if z := s.statz(); z.Retries != 2 {
		t.Fatalf("retry counter = %d", z.Retries)
	}
}

// TestTerminalKindsDoNotRetry: panic (and other deterministic kinds) go
// straight to a structured error carrying the snapshot.
func TestTerminalKindsDoNotRetry(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, MaxRetries: 3, RetryBase: time.Millisecond})
	var calls int
	var mu sync.Mutex
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		mu.Lock()
		calls++
		mu.Unlock()
		return nil, &simerr.SimError{
			Kind:     simerr.KindPanic,
			Reason:   "invariant violated",
			Snapshot: simerr.Snapshot{Cycle: 99, Committed: 12},
		}
	}
	status, data, _ := postJob(t, ts, "c1", `{"workload":"li","scale":0.02}`)
	if status != http.StatusInternalServerError {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	e := decodeError(t, data)
	if e.Kind != "panic" || e.Retryable || e.Attempts != 1 {
		t.Fatalf("error body = %+v", e)
	}
	if !strings.Contains(e.Snapshot, "cycle 99") {
		t.Fatalf("snapshot missing pipeline state:\n%s", e.Snapshot)
	}
	mu.Lock()
	defer mu.Unlock()
	if calls != 1 {
		t.Fatalf("panic was retried %d times", calls)
	}
}

// TestBudgetKindMaps422: a job that exhausts its configured compute
// budget is the client's problem, reported as 422 with the snapshot.
func TestBudgetKindMaps422(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		return nil, &simerr.SimError{Kind: simerr.KindMaxCycles, Reason: "cycle cap reached"}
	}
	status, data, _ := postJob(t, ts, "c1", `{"workload":"li","scale":0.02}`)
	if status != http.StatusUnprocessableEntity {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	if e := decodeError(t, data); e.Kind != "max-cycles" || e.Retryable {
		t.Fatalf("error body = %+v", e)
	}
}

// TestDiskCacheHitServesWithoutRun: the second identical job answers
// from the persistent cache, without a simulation or a queue slot.
func TestDiskCacheHitServesWithoutRun(t *testing.T) {
	dir := t.TempDir()
	s, ts := newTestServer(t, Options{Workers: 1, CacheDir: dir})
	body := `{"workload":"li","scale":0.02,"ports":"3+2","opt":true}`
	status, first, _ := postJob(t, ts, "c1", body)
	if status != http.StatusOK {
		t.Fatalf("first run: %d\n%s", status, first)
	}

	var runs int
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		runs++
		return nil, &simerr.SimError{Kind: simerr.KindPanic, Reason: "must not run"}
	}
	status, second, _ := postJob(t, ts, "c1", body)
	if status != http.StatusOK {
		t.Fatalf("cached run: %d\n%s", status, second)
	}
	if runs != 0 {
		t.Fatal("cache hit still simulated")
	}
	var r1, r2 JobResult
	json.Unmarshal(first, &r1)
	json.Unmarshal(second, &r2)
	if !r2.Cached || r1.Cached {
		t.Fatalf("cached flags: first=%v second=%v", r1.Cached, r2.Cached)
	}
	if r1.Cycles != r2.Cycles || r1.Committed != r2.Committed {
		t.Fatalf("cache returned different numbers: %+v vs %+v", r1, r2)
	}
	if z := s.statz(); z.Cache.Hits != 1 || z.Cache.Writes != 1 {
		t.Fatalf("cache stats = %+v", z.Cache)
	}
}

// TestGracefulDrain is the drain acceptance test: SIGTERM-equivalent
// shutdown with in-flight jobs returns their completed results, rejects
// new work with 503, and exits within the drain deadline.
func TestGracefulDrain(t *testing.T) {
	s, err := New(Options{Workers: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{})
	release := make(chan struct{})
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		close(started)
		select {
		case <-release:
			return &core.Result{Config: "(2+0)", Stats: core.Stats{Cycles: 10, Committed: 5}}, nil
		case <-ctx.Done():
			return nil, &simerr.SimError{Kind: simerr.KindCanceled, Reason: "forced", Err: ctx.Err()}
		}
	}

	// In-flight job, mid-run when drain starts.
	type outcome struct {
		status int
		body   []byte
	}
	inflight := make(chan outcome, 1)
	go func() {
		st, data, _ := postJob(t, ts, "c1", `{"workload":"li","scale":0.02}`)
		inflight <- outcome{st, data}
	}()
	<-started

	drained := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		drained <- s.Shutdown(ctx)
	}()
	waitFor(t, 2*time.Second, func() bool { return s.Draining() })

	// New work is rejected with 503 while draining.
	status, data, _ := postJob(t, ts, "c2", `{"workload":"li","scale":0.03}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("during drain: status = %d, body:\n%s", status, data)
	}
	if e := decodeError(t, data); e.Kind != "draining" || !e.Retryable {
		t.Fatalf("drain error body = %+v", e)
	}

	// The in-flight job finishes and its client gets the result.
	close(release)
	got := <-inflight
	if got.status != http.StatusOK {
		t.Fatalf("in-flight job during drain: status = %d, body:\n%s", got.status, got.body)
	}
	select {
	case err := <-drained:
		if err != nil {
			t.Fatalf("drain was forced: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Shutdown did not return within the drain deadline")
	}
}

// TestForcedDrainCancelsStragglers: a job that never finishes cannot
// hold Shutdown past its deadline; its client gets the typed 503.
func TestForcedDrainCancelsStragglers(t *testing.T) {
	s, err := New(Options{Workers: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{})
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		close(started)
		<-ctx.Done() // only a forced cancel ends this job
		return nil, &simerr.SimError{Kind: simerr.KindCanceled, Reason: "forced", Err: ctx.Err()}
	}
	type outcome struct {
		status int
		body   []byte
	}
	inflight := make(chan outcome, 1)
	go func() {
		st, data, _ := postJob(t, ts, "c1", `{"workload":"li","scale":0.02}`)
		inflight <- outcome{st, data}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("forced drain reported clean")
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("forced drain took %v", elapsed)
	}
	got := <-inflight
	if got.status != http.StatusServiceUnavailable {
		t.Fatalf("straggler client: status = %d, body:\n%s", got.status, got.body)
	}
	if e := decodeError(t, got.body); e.Kind != "canceled" || !e.Retryable {
		t.Fatalf("straggler error body = %+v", e)
	}
}

// TestPoolShutdownLeaksNoGoroutines brackets a full server lifecycle
// (including real runs) with a goroutine census.
func TestPoolShutdownLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()

	s, err := New(Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			spec, _ := json.Marshal(JobSpec{Program: tinyProgram, Ports: "2+0", Scale: 0})
			postJob(t, ts, fmt.Sprintf("c%d", i%3), string(spec))
		}(i)
	}
	wg.Wait()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}
	ts.Close()

	waitFor(t, 5*time.Second, func() bool {
		runtime.GC()
		return runtime.NumGoroutine() <= before+2 // http idle-timer slack
	})
}

// TestRunnerRotationBoundsMemory: the in-memory runner rotates once its
// result cache passes the cap, and jobs keep completing across rotation.
func TestRunnerRotationBoundsMemory(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, RunnerResultCap: 2})
	for i := 0; i < 5; i++ {
		body := fmt.Sprintf(`{"workload":"li","scale":0.02,"maxinsts":%d}`, 1000+i)
		status, data, _ := postJob(t, ts, "c1", body)
		if status != http.StatusOK {
			t.Fatalf("job %d: status = %d, body:\n%s", i, status, data)
		}
	}
	z := s.statz()
	if z.RunnerRotations == 0 {
		t.Fatalf("runner never rotated: %+v", z)
	}
	if z.RunnerResults > 2 {
		t.Fatalf("in-memory results (%d) exceed the cap", z.RunnerResults)
	}
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, d time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(d)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("condition not reached in time")
}
