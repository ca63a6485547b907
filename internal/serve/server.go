// Package serve is the simulation-as-a-service layer: an HTTP service
// that accepts simulation jobs (config JSON + workload name or assembled
// program in, statistics JSON out) and is robust by construction.
//
// Robustness properties, each enforced structurally and exercised by the
// service soak (TestServiceSoak):
//
//   - Bounded everything: a fixed worker pool, an admission-controlled
//     queue with a global depth bound and per-client occupancy bound
//     (shed with 429 + Retry-After, never unbounded memory), a bounded
//     request body, and a rotation bound on the in-memory result cache.
//   - Fairness: queued work is dequeued round-robin across clients, so
//     one flooding client cannot starve the rest.
//   - Typed terminal states: every admitted job ends in a result, a
//     structured error JSON carrying the typed simerr kind (with the
//     pipeline snapshot), or a shed/drain rejection. Nothing hangs.
//   - Bounded retries: transient failures (a watchdog abort, or an
//     attempt's own timeout while the job is still wanted) retry with
//     exponential backoff and jitter; deterministic failures (panic,
//     unsound config, cycle budgets) do not.
//   - Cancellation: the client's request context propagates into the
//     running core, so a dropped client frees its worker within one
//     context-poll interval.
//   - Graceful drain: Shutdown stops intake (503), lets queued and
//     in-flight jobs finish inside the drain deadline, then force-cancels
//     stragglers; the persistent cache is write-through, so a drain never
//     loses completed work.
package serve

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/asm"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/simerr"
)

// Options configures a Server. The zero value of each field selects the
// documented default.
type Options struct {
	// Workers is the size of the simulation worker pool (default
	// min(GOMAXPROCS, 4)).
	Workers int
	// QueueDepth bounds the total number of queued jobs (default 64).
	QueueDepth int
	// MaxPerClient bounds one client's queued jobs (default 8).
	MaxPerClient int

	// MaxRetries is how many times a transiently-failed run is retried
	// beyond its first attempt (default 2). MaxRetries < 0 disables
	// retries.
	MaxRetries int
	// RetryBase is the first backoff step; step k waits
	// RetryBase·2^(k-1), ±50% jitter, capped at RetryCap (defaults 100ms
	// and 2s).
	RetryBase time.Duration
	RetryCap  time.Duration

	// JobTimeout caps one attempt's wall-clock time (default 60s); a
	// job's timeout_seconds may shorten but never exceed it.
	JobTimeout time.Duration
	// MaxBodyBytes bounds the request body (default 1 MiB).
	MaxBodyBytes int64
	// MaxScale bounds a job's workload scale factor (default 1.0).
	MaxScale float64

	// CacheDir roots the persistent result cache; empty disables it.
	CacheDir string

	// RunOpts is the per-job run budget (MaxCycles, WatchdogCycles;
	// Deadline is ignored — wall-clock bounding is JobTimeout's job).
	RunOpts core.RunOptions
	// JobRunOpts, when non-nil, replaces RunOpts per attempt. The
	// service and sweep soaks use it to fail chosen attempts through
	// their own run bounds.
	JobRunOpts func(key string, attempt int) core.RunOptions

	// RunnerResultCap rotates the in-memory runner once it holds this
	// many distinct results (default 4096), bounding resident memory on
	// long-lived hosts; the persistent cache keeps rotation cheap.
	RunnerResultCap int
}

func (o *Options) fillDefaults() {
	if o.Workers == 0 {
		o.Workers = runtime.GOMAXPROCS(0)
		if o.Workers > 4 {
			o.Workers = 4
		}
	}
	if o.QueueDepth == 0 {
		o.QueueDepth = 64
	}
	if o.MaxPerClient == 0 {
		o.MaxPerClient = 8
	}
	if o.MaxRetries == 0 {
		o.MaxRetries = 2
	}
	if o.MaxRetries < 0 {
		o.MaxRetries = 0
	}
	if o.RetryBase == 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryCap == 0 {
		o.RetryCap = 2 * time.Second
	}
	if o.JobTimeout == 0 {
		o.JobTimeout = 60 * time.Second
	}
	if o.MaxBodyBytes == 0 {
		o.MaxBodyBytes = 1 << 20
	}
	if o.MaxScale == 0 {
		o.MaxScale = 1.0
	}
	if o.RunnerResultCap == 0 {
		o.RunnerResultCap = 4096
	}
}

// Server is the simulation service. Create with New, expose via
// Handler, stop with Shutdown.
type Server struct {
	opts  Options
	q     *queue
	cache *diskCache

	// runner state, rotated under mu to bound in-memory growth.
	mu        sync.Mutex
	runner    *experiments.Runner
	programs  map[string]*asm.Program
	rotations uint64

	draining atomic.Bool
	// forceCtx is cancelled when the drain deadline passes: it aborts
	// in-flight runs and pending backoff sleeps.
	forceCtx    context.Context
	forceCancel context.CancelFunc

	wg    sync.WaitGroup
	start time.Time

	// counters for /statz
	submitted, completed, failed, canceledJobs  atomic.Uint64
	shedFull, shedClient, shedDraining, retries atomic.Uint64
	readyProbes                                 atomic.Uint64
	inFlight                                    atomic.Int64
	kindMu                                      sync.Mutex
	byKind                                      map[string]uint64

	// runHook, when non-nil, replaces the simulation call; serve's own
	// tests use it to model slow, failing and hanging runs determinist-
	// ically. The service soak drives real runs instead.
	runHook func(ctx context.Context, rj *resolvedJob, opts core.RunOptions) (*core.Result, error)
}

// New builds and starts a server: the worker pool is running on return.
func New(opts Options) (*Server, error) {
	opts.fillDefaults()
	cache, err := newDiskCache(opts.CacheDir)
	if err != nil {
		return nil, fmt.Errorf("serve: opening cache: %w", err)
	}
	s := &Server{
		opts:     opts,
		q:        newQueue(opts.QueueDepth, opts.MaxPerClient),
		cache:    cache,
		programs: make(map[string]*asm.Program),
		start:    time.Now(),
		byKind:   make(map[string]uint64),
	}
	s.runner = s.newRunner()
	s.forceCtx, s.forceCancel = context.WithCancel(context.Background())
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// newRunner builds a runner configured for service use. Scale is fixed at
// 1 and ignored: the service always runs jobs through the program
// keyspace with explicitly-scaled images, because one shared runner
// cannot hold per-job scale.
func (s *Server) newRunner() *experiments.Runner {
	r := experiments.NewRunner(1)
	r.RunOpts = s.opts.RunOpts
	return r
}

// currentRunner returns the live runner, rotating to a fresh one when the
// in-memory result cache has outgrown its cap. Jobs already running on
// the old runner finish on it; the persistent cache carries the results
// forward.
func (s *Server) currentRunner() *experiments.Runner {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.runner.CachedResults() >= s.opts.RunnerResultCap {
		s.runner = s.newRunner()
		s.programs = make(map[string]*asm.Program)
		s.rotations++
	}
	return s.runner
}

// programFor memoizes workload program generation by (name, scale, strip)
// so repeated jobs do not regenerate images; the memo rotates with the
// runner.
func (s *Server) programFor(rj *resolvedJob) *asm.Program {
	if rj.isProg {
		return rj.prog
	}
	name := rj.runnerName()
	s.mu.Lock()
	prog, ok := s.programs[name]
	s.mu.Unlock()
	if ok {
		return prog
	}
	prog = rj.program() // generated outside the lock: can be slow
	s.mu.Lock()
	s.programs[name] = prog
	s.mu.Unlock()
	return prog
}

// worker is one pool member: it drains the queue until the queue closes
// and empties.
func (s *Server) worker() {
	defer s.wg.Done()
	for {
		j, ok := s.q.Pop()
		if !ok {
			return
		}
		s.inFlight.Add(1)
		s.execute(j)
		s.inFlight.Add(-1)
	}
}

// execute runs one job to its typed terminal state: a result, or an
// error after bounded retries. It always closes j.done.
func (s *Server) execute(j *job) {
	defer close(j.done)
	start := time.Now()
	for attempt := 1; ; attempt++ {
		res, err := s.runAttempt(j, attempt-1)
		j.attempts = attempt
		if err == nil {
			j.res = j.rj.buildResult(res, attempt, time.Since(start))
			s.cache.Put(j.rj, j.res)
			s.completed.Add(1)
			return
		}
		retry, wait := s.retryDecision(j, err, attempt)
		if !retry {
			j.err = err
			s.noteFailure(j, err)
			return
		}
		s.retries.Add(1)
		t := time.NewTimer(wait)
		select {
		case <-j.ctx.Done():
			t.Stop()
			j.err = err
			s.noteFailure(j, err)
			return
		case <-s.forceCtx.Done():
			t.Stop()
			j.err = err
			s.noteFailure(j, err)
			return
		case <-t.C:
		}
	}
}

// runAttempt performs one bounded simulation attempt for j.
func (s *Server) runAttempt(j *job, attempt int) (*core.Result, error) {
	opts := s.opts.RunOpts
	if s.opts.JobRunOpts != nil {
		opts = s.opts.JobRunOpts(j.rj.key, attempt)
	}
	opts.Deadline = time.Time{} // wall-clock bounding belongs to the context

	ctx, cancel := context.WithTimeout(j.ctx, j.rj.timeout)
	defer cancel()
	// A forced drain must abort in-flight runs even though the client is
	// still connected.
	stop := context.AfterFunc(s.forceCtx, cancel)
	defer stop()

	if s.runHook != nil {
		return s.runHook(ctx, j.rj, opts)
	}
	r := s.currentRunner()
	return r.ResultProgramOptsCtx(ctx, j.rj.runnerName(), s.programFor(j.rj), j.rj.cfg, opts)
}

// retryDecision classifies a failed attempt: transient failures retry
// (with exponential backoff + jitter) while attempts remain, everything
// else is terminal.
//
// Retryable kinds: watchdog (livelock under transient contention —
// injected faults make these genuinely transient) and deadline (the
// per-attempt timeout fired while the job's own context is still live,
// so a fresh attempt can succeed). A job never inherits another job's
// abort: when the owner of a shared in-flight run fails, the runner has
// each waiter simulate again under its own context. Terminal kinds:
// panic, max-cycles, cycle-budget (deterministic — a retry replays the
// same failure), the job's own cancel/timeout, a forced drain, and every
// non-simulation error (bad config, bad program: the client's to fix).
func (s *Server) retryDecision(j *job, err error, attempts int) (bool, time.Duration) {
	if attempts > s.opts.MaxRetries {
		return false, 0
	}
	if j.ctx.Err() != nil || s.forceCtx.Err() != nil {
		return false, 0
	}
	var se *simerr.SimError
	if !errors.As(err, &se) {
		return false, 0
	}
	if se.Kind != simerr.KindWatchdog && se.Kind != simerr.KindDeadline {
		return false, 0
	}
	wait := s.opts.RetryBase << (attempts - 1)
	if wait > s.opts.RetryCap || wait <= 0 {
		wait = s.opts.RetryCap
	}
	// ±50% jitter decorrelates retry storms.
	wait = wait/2 + time.Duration(rand.Int63n(int64(wait)))
	return true, wait
}

// noteFailure classifies a terminal failure for /statz.
func (s *Server) noteFailure(j *job, err error) {
	var se *simerr.SimError
	if errors.As(err, &se) {
		s.kindMu.Lock()
		s.byKind[se.Kind.String()]++
		s.kindMu.Unlock()
		if se.Kind == simerr.KindCanceled && j.ctx.Err() != nil {
			s.canceledJobs.Add(1)
			return
		}
	}
	s.failed.Add(1)
}

// Draining reports whether Shutdown has begun.
func (s *Server) Draining() bool { return s.draining.Load() }

// Shutdown drains the server: intake stops immediately (new jobs are
// rejected with 503), queued and in-flight jobs run to completion, and
// when ctx expires before they finish the stragglers are force-cancelled
// (their clients get the typed canceled error) so the pool always exits.
// The persistent cache is write-through and needs no flush; Shutdown
// returns nil on a clean drain and ctx's error on a forced one.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.q.Close()
	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = ctx.Err()
		s.forceCancel()
		<-done // force-cancel aborts every run within one poll interval
	}
	s.forceCancel() // release the AfterFunc resources on the clean path too
	return err
}

// Statz is the /statz body: the service's observable health counters.
type Statz struct {
	Schema        string  `json:"schema"`
	UptimeSeconds float64 `json:"uptime_seconds"`
	Draining      bool    `json:"draining"`

	Workers    int `json:"workers"`
	QueueDepth int `json:"queue_depth"`
	QueueCap   int `json:"queue_cap"`
	InFlight   int `json:"in_flight"`

	Submitted uint64 `json:"submitted"`
	Completed uint64 `json:"completed"`
	Failed    uint64 `json:"failed"`
	Canceled  uint64 `json:"canceled"`

	ShedQueueFull   uint64 `json:"shed_queue_full"`
	ShedClientLimit uint64 `json:"shed_client_limit"`
	ShedDraining    uint64 `json:"shed_draining"`
	Retries         uint64 `json:"retries"`
	// ReadyProbes counts /readyz hits: under a sweep coordinator's
	// per-backend health probing this confirms the probe loop is alive.
	ReadyProbes uint64 `json:"ready_probes"`

	FailuresByKind map[string]uint64 `json:"failures_by_kind"`

	Cache           cacheStats `json:"cache"`
	RunnerResults   int        `json:"runner_results"`
	RunnerRotations uint64     `json:"runner_rotations"`

	Goroutines int `json:"goroutines"`
}

func (s *Server) statz() Statz {
	s.kindMu.Lock()
	byKind := make(map[string]uint64, len(s.byKind))
	for k, v := range s.byKind {
		byKind[k] = v
	}
	s.kindMu.Unlock()
	s.mu.Lock()
	runnerResults := s.runner.CachedResults()
	rotations := s.rotations
	s.mu.Unlock()
	return Statz{
		Schema:          "ddserve-statz/v1",
		UptimeSeconds:   time.Since(s.start).Seconds(),
		Draining:        s.draining.Load(),
		Workers:         s.opts.Workers,
		QueueDepth:      s.q.Depth(),
		QueueCap:        s.opts.QueueDepth,
		InFlight:        int(s.inFlight.Load()),
		Submitted:       s.submitted.Load(),
		Completed:       s.completed.Load(),
		Failed:          s.failed.Load(),
		Canceled:        s.canceledJobs.Load(),
		ShedQueueFull:   s.shedFull.Load(),
		ShedClientLimit: s.shedClient.Load(),
		ShedDraining:    s.shedDraining.Load(),
		Retries:         s.retries.Load(),
		ReadyProbes:     s.readyProbes.Load(),
		FailuresByKind:  byKind,
		Cache:           s.cache.stats(),
		RunnerResults:   runnerResults,
		RunnerRotations: rotations,
		Goroutines:      runtime.NumGoroutine(),
	}
}

// clientID identifies the submitting client for fairness accounting: the
// X-Client header when present, else the remote address.
func clientID(r *http.Request) string {
	if c := r.Header.Get("X-Client"); c != "" {
		return c
	}
	return r.RemoteAddr
}
