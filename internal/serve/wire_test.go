// Regression tests for the wire-contract details the sweep coordinator
// depends on: uniform Retry-After on both 503 paths, the job-identity
// header, and the readiness-probe counter.
package serve

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/simerr"
)

// Both 503 paths — the admission shed while draining AND the force-cancel
// of a straggler at the drain deadline — must carry the Retry-After
// backpressure hint, so client backoff is uniform.
func TestDrainShed503CarriesRetryAfter(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	s.draining.Store(true)

	status, data, hdr := postJob(t, ts, "c1", `{"workload":"li","scale":0.02}`)
	if status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, body:\n%s", status, data)
	}
	if hdr.Get("Retry-After") == "" {
		t.Fatal("admission-shed 503 missing Retry-After header")
	}
	e := decodeError(t, data)
	if e.Kind != "draining" || !e.Retryable || e.RetryAfterSeconds <= 0 {
		t.Fatalf("shed body = %+v", e)
	}
}

func TestForcedDrain503CarriesRetryAfter(t *testing.T) {
	s, err := New(Options{Workers: 1, MaxRetries: -1})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	started := make(chan struct{})
	s.runHook = func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error) {
		close(started)
		<-ctx.Done() // only the forced drain cancel ends this job
		return nil, &simerr.SimError{Kind: simerr.KindCanceled, Reason: "forced", Err: ctx.Err()}
	}
	type outcome struct {
		status int
		body   []byte
		hdr    http.Header
	}
	inflight := make(chan outcome, 1)
	go func() {
		st, data, hdr := postJob(t, ts, "c1", `{"workload":"li","scale":0.02}`)
		inflight <- outcome{st, data, hdr}
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); err == nil {
		t.Fatal("forced drain reported clean")
	}
	got := <-inflight
	if got.status != http.StatusServiceUnavailable {
		t.Fatalf("straggler: status = %d, body:\n%s", got.status, got.body)
	}
	if got.hdr.Get("Retry-After") == "" {
		t.Fatal("force-cancel 503 missing Retry-After header")
	}
	e := decodeError(t, got.body)
	if e.Kind != "canceled" || !e.Retryable || e.RetryAfterSeconds <= 0 {
		t.Fatalf("force-cancel body = %+v", e)
	}
}

// Every resolved job's response carries X-Job-Key: a client that submits
// the same job twice can see the duplicates are the same unit of work,
// and identical specs get identical keys regardless of which backend
// answers.
func TestJobKeyHeaderStable(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2})
	body := `{"workload":"li","scale":0.02,"ports":"3+2"}`

	_, _, hdr1 := postJob(t, ts, "c1", body)
	_, _, hdr2 := postJob(t, ts, "c2", body)
	k1, k2 := hdr1.Get("X-Job-Key"), hdr2.Get("X-Job-Key")
	if k1 == "" || k1 != k2 {
		t.Fatalf("identical specs got keys %q and %q", k1, k2)
	}

	_, _, hdr3 := postJob(t, ts, "c1", `{"workload":"li","scale":0.02,"ports":"3+2","steer":"sp"}`)
	if k3 := hdr3.Get("X-Job-Key"); k3 == "" || k3 == k1 {
		t.Fatalf("steering not part of identity: %q vs %q", k3, k1)
	}
}

// /readyz hits are counted in statz, so an operator can see sweep
// coordinators' health probing.
func TestReadyProbesCounted(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1})
	for i := 0; i < 3; i++ {
		resp, err := ts.Client().Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
	}
	if z := s.statz(); z.ReadyProbes != 3 {
		t.Fatalf("ready_probes = %d, want 3", z.ReadyProbes)
	}
}
