package sweep

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/serve"
)

// ErrPointsFailed reports a finished sweep in which one or more points
// never produced a result: every failure is typed and in the census, and
// the assembled figure holds the points that did complete.
var ErrPointsFailed = errors.New("sweep: some points failed")

// Options configures a Coordinator. Zero values select the documented
// defaults; Backends is the only mandatory field.
type Options struct {
	// Backends are the ddserve base URLs ("http://host:port") jobs are
	// sharded across.
	Backends []string
	// Parallel is the number of concurrent points in flight across all
	// backends (default 2 x backends).
	Parallel int
	// MaxAttempts bounds the tries per point (default 6).
	MaxAttempts int
	// RetryBase/RetryCap shape the exponential backoff between attempts
	// (defaults 100ms / 3s). A server's Retry-After hint cools the backend
	// that shed, not the point: the retry goes to another backend.
	RetryBase time.Duration
	RetryCap  time.Duration
	// ProbeInterval is the /readyz health-probe period (default 1s). A
	// backend marked down sits out until its next successful probe.
	ProbeInterval time.Duration
	// DispatchWait bounds how long one attempt waits for any backend to
	// admit the job (default 10s). Past it the attempt fails transient
	// ("no-backend") and the normal retry budget applies, so a sweep with
	// every backend down fails typed instead of hanging.
	DispatchWait time.Duration
	// Checkpoint is the sweepckpt/v1 path ("" disables); Resume loads it
	// and re-runs only the missing points.
	Checkpoint string
	Resume     bool
	// Log receives progress and self-healing notices (default io.Discard).
	Log io.Writer
	// HTTPClient overrides the transport (default http.DefaultClient);
	// tests inject httptest clients here.
	HTTPClient *http.Client
	// OnPoint, if set, is called after every point reaches a terminal
	// state with its key and outcome ("ok", "resumed", "failed:<reason>").
	// Tests use it to kill a sweep mid-flight.
	OnPoint func(key, outcome string)
}

func (o *Options) setDefaults() error {
	if len(o.Backends) == 0 {
		return fmt.Errorf("%w: no backends", ErrBadSpec)
	}
	if o.Parallel <= 0 {
		o.Parallel = 2 * len(o.Backends)
	}
	if o.MaxAttempts <= 0 {
		o.MaxAttempts = 6
	}
	if o.RetryBase <= 0 {
		o.RetryBase = 100 * time.Millisecond
	}
	if o.RetryCap <= 0 {
		o.RetryCap = 3 * time.Second
	}
	if o.ProbeInterval <= 0 {
		o.ProbeInterval = time.Second
	}
	if o.DispatchWait <= 0 {
		o.DispatchWait = 10 * time.Second
	}
	if o.Log == nil {
		o.Log = io.Discard
	}
	if o.HTTPClient == nil {
		o.HTTPClient = http.DefaultClient
	}
	return nil
}

// Census is the sweep's accounting: where every point's every attempt
// went and how it ended. It is diagnostic output (stderr / artifact),
// deliberately separate from the deterministic figure JSON.
type Census struct {
	Points    int `json:"points"`
	Resumed   int `json:"resumed"`
	Completed int `json:"completed"`
	// Failed maps point key -> typed reason for points that never
	// produced a result.
	Failed map[string]string `json:"failed,omitempty"`
	// Outcomes counts every typed per-attempt and per-point event:
	// ok, resumed, retried:<reason>, terminal:<kind>, retries-exhausted,
	// canceled.
	Outcomes map[string]int `json:"outcomes"`
	// CheckpointResets counts defective checkpoints healed to empty;
	// CheckpointWriteErrs counts persists that failed (and were
	// swallowed: a broken disk costs resumability, not the sweep).
	CheckpointResets    int             `json:"checkpoint_resets"`
	CheckpointWriteErrs uint64          `json:"checkpoint_write_errs"`
	Backends            []BackendCensus `json:"backends"`
}

// EncodeJSON writes the census as indented JSON (encoding/json marshals
// maps in sorted key order, so the artifact is deterministic too).
func (c *Census) EncodeJSON(w io.Writer) error {
	data, err := json.MarshalIndent(c, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encoding census: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}

// Render writes the census human-readably. Map iteration goes through
// sorted key slices so the rendering is deterministic.
func (c *Census) Render(w io.Writer) {
	fmt.Fprintf(w, "sweep census: %d points, %d resumed, %d completed, %d failed\n",
		c.Points, c.Resumed, c.Completed, len(c.Failed))
	outcomes := make([]string, 0, len(c.Outcomes))
	for k := range c.Outcomes {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)
	for _, k := range outcomes {
		fmt.Fprintf(w, "  outcome %-20s %d\n", k, c.Outcomes[k])
	}
	failed := make([]string, 0, len(c.Failed))
	for k := range c.Failed {
		failed = append(failed, k)
	}
	sort.Strings(failed)
	for _, k := range failed {
		fmt.Fprintf(w, "  FAILED %s: %s\n", k, c.Failed[k])
	}
	for _, b := range c.Backends {
		fmt.Fprintf(w, "  backend %s\n", b)
	}
	if c.CheckpointResets > 0 || c.CheckpointWriteErrs > 0 {
		fmt.Fprintf(w, "  checkpoint: %d self-healing resets, %d write errors\n",
			c.CheckpointResets, c.CheckpointWriteErrs)
	}
}

// Coordinator drives one sweep across the configured backends.
type Coordinator struct {
	spec   *Spec
	points []Point
	opts   Options

	backends []*backend
	ck       *checkpoint

	mu       sync.Mutex // guards outcomes, failed, rng
	outcomes map[string]int
	failed   map[string]string
	rng      *rand.Rand
}

// New validates the spec and options and builds a Coordinator. Spec
// expansion happens here, so a bad grid fails before any job is sent.
func New(spec *Spec, opts Options) (*Coordinator, error) {
	if err := opts.setDefaults(); err != nil {
		return nil, err
	}
	points, err := spec.Points()
	if err != nil {
		return nil, err
	}
	c := &Coordinator{
		spec:     spec,
		points:   points,
		opts:     opts,
		outcomes: map[string]int{},
		failed:   map[string]string{},
		rng:      rand.New(rand.NewSource(1)),
	}
	for i, url := range opts.Backends {
		c.backends = append(c.backends, &backend{
			url:    strings.TrimRight(url, "/"),
			name:   fmt.Sprintf("b%d", i),
			client: opts.HTTPClient,
		})
	}
	return c, nil
}

// Run executes the sweep: resume from the checkpoint, drive the missing
// points through the backends, and assemble the figure. The figure and
// census are returned even on failure (partial figure, typed failures in
// the census); the error is ErrPointsFailed or the context's error.
func (c *Coordinator) Run(ctx context.Context) (*Figure, *Census, error) {
	specID := c.spec.ID()
	ck, resumed := openCheckpoint(c.opts.Checkpoint, specID, c.opts.Resume, c.opts.Log)
	c.ck = ck

	// Health probing runs for the whole sweep and is joined before Run
	// returns: no goroutine outlives the coordinator.
	probeCtx, stopProbes := context.WithCancel(context.Background())
	var probeWG sync.WaitGroup
	for _, b := range c.backends {
		probeWG.Add(1)
		go b.probeLoop(probeCtx, c.opts.ProbeInterval, &probeWG)
	}
	defer func() {
		stopProbes()
		probeWG.Wait()
	}()

	// results is indexed by point position: workers write disjoint slots,
	// so assembly needs no ordering from the workers at all.
	results := make([]*FigurePoint, len(c.points))
	todo := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < c.opts.Parallel; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for idx := range todo {
				p := c.points[idx]
				fp, err := c.runPoint(ctx, p)
				if err != nil {
					c.failPoint(p.Key, err.Error())
					c.notify(p.Key, "failed:"+err.Error())
					continue
				}
				results[idx] = fp
				c.ck.record(fp)
				c.count("ok")
				c.notify(p.Key, "ok")
			}
		}()
	}

	dispatched := 0
feed:
	for idx, p := range c.points {
		if fp := c.ck.completed(p.Key); fp != nil {
			results[idx] = fp
			c.count("resumed")
			c.notify(p.Key, "resumed")
			continue
		}
		select {
		case todo <- idx:
			dispatched++
		case <-ctx.Done():
			break feed
		}
	}
	close(todo)
	wg.Wait()

	fmt.Fprintf(c.opts.Log, "ddsweep: %d points (%d resumed, %d dispatched)\n",
		len(c.points), resumed, dispatched)

	figure := &Figure{Schema: FigureSchema, Name: c.spec.Name, SpecID: specID, Scale: c.spec.Scale}
	for _, fp := range results {
		if fp != nil {
			figure.Points = append(figure.Points, *fp)
		}
	}
	census := c.buildCensus(resumed, len(figure.Points))

	switch {
	case ctx.Err() != nil:
		return figure, census, fmt.Errorf("sweep: interrupted: %w", ctx.Err())
	case len(census.Failed) > 0:
		return figure, census, fmt.Errorf("%w: %d of %d", ErrPointsFailed, len(census.Failed), len(c.points))
	default:
		return figure, census, nil
	}
}

func (c *Coordinator) buildCensus(resumed, completed int) *Census {
	c.mu.Lock()
	defer c.mu.Unlock()
	census := &Census{
		Points:              len(c.points),
		Resumed:             resumed,
		Completed:           completed,
		Outcomes:            make(map[string]int, len(c.outcomes)),
		CheckpointResets:    c.ck.resets,
		CheckpointWriteErrs: c.ck.writeErrs,
	}
	for k, v := range c.outcomes {
		census.Outcomes[k] = v
	}
	if len(c.failed) > 0 {
		census.Failed = make(map[string]string, len(c.failed))
		for k, v := range c.failed {
			census.Failed[k] = v
		}
	}
	for _, b := range c.backends {
		census.Backends = append(census.Backends, b.census())
	}
	return census
}

func (c *Coordinator) count(outcome string) {
	c.mu.Lock()
	c.outcomes[outcome]++
	c.mu.Unlock()
}

func (c *Coordinator) failPoint(key, reason string) {
	c.mu.Lock()
	c.failed[key] = reason
	c.mu.Unlock()
}

func (c *Coordinator) notify(key, outcome string) {
	if c.opts.OnPoint != nil {
		c.opts.OnPoint(key, outcome)
	}
}

// jitter returns a random duration in [0, d) from a fixed seed: jitter
// never reaches the figure bytes, and a fixed seed keeps tests
// reproducible.
func (c *Coordinator) jitter(d time.Duration) time.Duration {
	if d <= 0 {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return time.Duration(c.rng.Int63n(int64(d)))
}

// backoff computes the delay before retry number attempt (1-based over
// completed attempts): exponential from RetryBase, capped at RetryCap,
// with up to 50% jitter.
func (c *Coordinator) backoff(attempt int) time.Duration {
	d := c.opts.RetryBase
	for i := 1; i < attempt && d < c.opts.RetryCap; i++ {
		d *= 2
	}
	if d > c.opts.RetryCap {
		d = c.opts.RetryCap
	}
	return d + c.jitter(d/2)
}

// runPoint drives one point to a terminal state: bounded attempts with
// backoff between them. Terminal verdicts stop immediately — retrying a
// deterministic failure wastes a backend.
func (c *Coordinator) runPoint(ctx context.Context, p Point) (*FigurePoint, error) {
	for attempt := 1; attempt <= c.opts.MaxAttempts; attempt++ {
		v := c.attempt(ctx, p)
		switch v.class {
		case verdictOK:
			return v.fp, nil
		case verdictTerminal:
			c.count("terminal:" + v.reason)
			return nil, fmt.Errorf("terminal: %s: %s", v.reason, v.detail)
		case verdictCanceled:
			c.count("canceled")
			return nil, ctx.Err()
		}
		if attempt == c.opts.MaxAttempts {
			break
		}
		c.count("retried:" + v.reason)
		t := time.NewTimer(c.backoff(attempt))
		select {
		case <-ctx.Done():
			t.Stop()
			c.count("canceled")
			return nil, ctx.Err()
		case <-t.C:
		}
	}
	c.count("retries-exhausted")
	return nil, fmt.Errorf("retries exhausted after %d attempts", c.opts.MaxAttempts)
}

// verdict classes of one attempt.
type verdictClass int

const (
	verdictOK verdictClass = iota
	verdictTerminal
	verdictTransient
	verdictCanceled
)

type verdict struct {
	class  verdictClass
	reason string // stable discriminator for census outcome keys
	detail string // human-readable specifics
	fp     *FigurePoint
}

// attempt runs one try: the point goes to the least loaded admissible
// backend, waiting up to DispatchWait for one to admit it.
func (c *Coordinator) attempt(ctx context.Context, p Point) verdict {
	b := c.waitBackend(ctx)
	if b == nil {
		if ctx.Err() != nil {
			return verdict{class: verdictCanceled, reason: "canceled"}
		}
		return verdict{class: verdictTransient, reason: "no-backend",
			detail: "no ready backend admitted the job"}
	}
	return c.post(ctx, b, p)
}

// pickBackend returns the admissible backend with the fewest jobs in
// flight (the first such in backend order), or nil.
func (c *Coordinator) pickBackend(now time.Time) *backend {
	var best *backend
	for _, b := range c.backends {
		if b.admissible(now) && (best == nil || b.inflight.Load() < best.inflight.Load()) {
			best = b
		}
	}
	return best
}

// waitBackend polls pickBackend until a backend admits the job, ctx
// ends, or DispatchWait expires. The poll period is short relative to
// probe intervals and Retry-After windows, which are what actually gate
// admission.
func (c *Coordinator) waitBackend(ctx context.Context) *backend {
	deadline := time.NewTimer(c.opts.DispatchWait)
	defer deadline.Stop()
	for {
		if b := c.pickBackend(time.Now()); b != nil {
			return b
		}
		t := time.NewTimer(25 * time.Millisecond)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil
		case <-deadline.C:
			t.Stop()
			return nil
		case <-t.C:
		}
	}
}

// post submits the point to one backend and classifies the outcome.
// Transport errors, sheds and retryable simerr kinds are transient;
// terminal kinds are the point's failure, not the backend's. A transport
// error or a malformed 200 also marks the backend down until its next
// good probe, and a shed cools it for the server's Retry-After window.
func (c *Coordinator) post(ctx context.Context, b *backend, p Point) verdict {
	b.inflight.Add(1)
	defer b.inflight.Add(-1)
	b.dispatched.Add(1)

	spec := serve.JobSpec{
		Workload:       p.GP.Workload,
		Scale:          c.spec.Scale,
		Ports:          p.GP.Ports,
		Opt:            p.GP.Opt,
		Combine:        p.GP.Combine,
		StaticOpt:      p.GP.StaticOpt,
		Steer:          p.GP.Steering,
		MaxInsts:       p.GP.MaxInsts,
		TimeoutSeconds: c.spec.TimeoutSeconds,
	}
	body, err := json.Marshal(spec)
	if err != nil {
		b.terminal.Add(1)
		return verdict{class: verdictTerminal, reason: "bad-spec", detail: err.Error()}
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, b.url+"/jobs", bytes.NewReader(body))
	if err != nil {
		b.terminal.Add(1)
		return verdict{class: verdictTerminal, reason: "bad-url", detail: err.Error()}
	}
	req.Header.Set("Content-Type", "application/json")

	resp, err := b.client.Do(req)
	if err != nil {
		if ctx.Err() != nil {
			// Our own cancel (sweep shutdown): not evidence against the
			// backend.
			return verdict{class: verdictCanceled, reason: "canceled"}
		}
		b.down.Store(true)
		b.transient.Add(1)
		return verdict{class: verdictTransient, reason: "transport", detail: err.Error()}
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()

	if resp.StatusCode == http.StatusOK {
		var res serve.JobResult
		if err := json.NewDecoder(resp.Body).Decode(&res); err != nil || res.Schema != serve.ResultSchema {
			detail := fmt.Sprintf("result schema %q", res.Schema)
			if err != nil {
				detail = err.Error()
			}
			b.down.Store(true)
			b.transient.Add(1)
			return verdict{class: verdictTransient, reason: "bad-result", detail: detail}
		}
		b.ok.Add(1)
		return verdict{class: verdictOK, reason: "ok", fp: &FigurePoint{
			Key:           p.Key,
			Workload:      p.GP.Workload,
			Ports:         res.Config,
			Steering:      res.Steering,
			Mode:          p.Mode,
			Cycles:        res.Cycles,
			Committed:     res.Committed,
			IPC:           res.IPC,
			Loads:         res.Loads,
			Stores:        res.Stores,
			LocalFraction: res.LocalFraction,
			Misroutes:     res.Misroutes,
		}}
	}

	var eb serve.ErrorBody
	decErr := json.NewDecoder(resp.Body).Decode(&eb)
	kind := eb.Kind
	if decErr != nil || kind == "" {
		kind = "http-" + strconv.Itoa(resp.StatusCode)
	}

	switch resp.StatusCode {
	case http.StatusTooManyRequests, http.StatusServiceUnavailable:
		// Shed or drain: the server told us when to come back. Cool this
		// backend for the window; the retry goes to another backend, or
		// waits the window out if there is none.
		b.cool(time.Now(), retryAfterHint(resp, &eb))
		b.shed.Add(1)
		return verdict{class: verdictTransient, reason: "shed:" + kind, detail: eb.Error}
	default:
		if eb.Retryable {
			b.transient.Add(1)
			return verdict{class: verdictTransient, reason: kind, detail: eb.Error}
		}
		b.terminal.Add(1)
		return verdict{class: verdictTerminal, reason: kind, detail: eb.Error}
	}
}

// retryAfterHint extracts the server's backpressure hint from the body
// field or the Retry-After header (seconds form).
func retryAfterHint(resp *http.Response, eb *serve.ErrorBody) time.Duration {
	if eb.RetryAfterSeconds > 0 {
		return time.Duration(eb.RetryAfterSeconds) * time.Second
	}
	if h := resp.Header.Get("Retry-After"); h != "" {
		if sec, err := strconv.Atoi(h); err == nil && sec > 0 {
			return time.Duration(sec) * time.Second
		}
	}
	return 0
}
