package serve

import (
	"context"
	"errors"
	"sync"
)

// Admission-control errors. They are the queue's whole failure surface:
// a push either succeeds or fails with exactly one of these, so every
// rejected request maps to one documented HTTP status.
var (
	// ErrQueueFull: the global queue depth bound is reached (HTTP 429).
	ErrQueueFull = errors.New("serve: job queue full")
	// ErrClientLimit: this client already has its fair share of queued
	// jobs (HTTP 429).
	ErrClientLimit = errors.New("serve: per-client queue limit reached")
	// ErrDraining: the server is shutting down and accepts no new work
	// (HTTP 503).
	ErrDraining = errors.New("serve: draining, not accepting jobs")
)

// job is one admitted unit of work flowing from handler to worker. The
// handler blocks on done; the worker owns the job until it closes done,
// after which res/err/attempts are immutable.
type job struct {
	rj     *resolvedJob
	client string
	// ctx is the submitting request's context: client disconnects and
	// per-request cancels propagate through it into the running core.
	ctx context.Context

	res      *JobResult
	err      error
	attempts int
	done     chan struct{}
}

// queue is the admission-controlled job queue. It bounds total depth
// (load shedding, never unbounded memory) and per-client occupancy, and
// dequeues fairly: clients with pending work are served round-robin, so
// one client flooding its per-client allowance cannot starve the others.
type queue struct {
	mu   sync.Mutex
	cond *sync.Cond

	maxDepth     int
	maxPerClient int

	pending map[string][]*job
	// rr is the round-robin rotation: each client with pending work
	// appears exactly once; Pop serves rr[0] and re-appends it while it
	// still has work.
	rr     []string
	depth  int
	closed bool
}

func newQueue(maxDepth, maxPerClient int) *queue {
	q := &queue{
		maxDepth:     maxDepth,
		maxPerClient: maxPerClient,
		pending:      make(map[string][]*job),
	}
	q.cond = sync.NewCond(&q.mu)
	return q
}

// Push admits j or rejects it with one of the admission errors.
func (q *queue) Push(j *job) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	switch {
	case q.closed:
		return ErrDraining
	case q.depth >= q.maxDepth:
		return ErrQueueFull
	case len(q.pending[j.client]) >= q.maxPerClient:
		return ErrClientLimit
	}
	if len(q.pending[j.client]) == 0 {
		q.rr = append(q.rr, j.client)
	}
	q.pending[j.client] = append(q.pending[j.client], j)
	q.depth++
	q.cond.Signal()
	return nil
}

// Pop blocks until a job is available and returns it, serving clients
// round-robin. After Close it keeps returning queued jobs until the
// queue is empty, then reports ok=false: drain means "finish what was
// admitted", not "drop it".
func (q *queue) Pop() (*job, bool) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for q.depth == 0 && !q.closed {
		q.cond.Wait()
	}
	if q.depth == 0 {
		return nil, false
	}
	client := q.rr[0]
	q.rr = q.rr[1:]
	list := q.pending[client]
	j := list[0]
	list[0] = nil // drop the queue's reference as soon as the job leaves
	if len(list) > 1 {
		q.pending[client] = list[1:]
		q.rr = append(q.rr, client)
	} else {
		delete(q.pending, client)
	}
	q.depth--
	return j, true
}

// Close stops intake (further Push fails with ErrDraining) and wakes
// every blocked Pop so idle workers can exit once the queue runs dry.
func (q *queue) Close() {
	q.mu.Lock()
	q.closed = true
	q.cond.Broadcast()
	q.mu.Unlock()
}

// Depth returns the current number of queued (not yet popped) jobs.
func (q *queue) Depth() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.depth
}
