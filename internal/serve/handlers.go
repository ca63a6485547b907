package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"strconv"

	"repro/internal/simerr"
)

// Handler returns the service's HTTP surface:
//
//	POST /jobs     submit one job, blocking until its terminal state
//	GET  /healthz  liveness (200 while the process runs)
//	GET  /readyz   readiness (200 accepting, 503 draining)
//	GET  /statz    JSON health counters (queue, shed, retry, cache)
//
// The pprof sidecar is deliberately not here: cmd/ddserve mounts
// net/http/pprof on its own listener so profiling is never exposed on
// the service port.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/jobs", s.handleJobs)
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
	mux.HandleFunc("/readyz", func(w http.ResponseWriter, r *http.Request) {
		s.readyProbes.Add(1)
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		if s.draining.Load() {
			w.WriteHeader(http.StatusServiceUnavailable)
			fmt.Fprintln(w, "draining")
			return
		}
		fmt.Fprintln(w, "ready")
	})
	mux.HandleFunc("/statz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, s.statz())
	})
	return mux
}

// retryAfterSeconds is the backpressure hint on 429/503: a coarse
// function of queue pressure, not a promise.
func (s *Server) retryAfterSeconds() int {
	sec := 1 + s.q.Depth()/s.opts.Workers
	if sec > 30 {
		sec = 30
	}
	return sec
}

func (s *Server) handleJobs(w http.ResponseWriter, r *http.Request) {
	if r.Method != http.MethodPost {
		w.Header().Set("Allow", http.MethodPost)
		writeError(w, http.StatusMethodNotAllowed, ErrorBody{
			Error: "POST a JobSpec", Kind: "bad-request",
		})
		return
	}
	s.submitted.Add(1)

	if s.draining.Load() {
		s.shedDraining.Add(1)
		s.writeShed(w, http.StatusServiceUnavailable, "draining", ErrDraining)
		return
	}

	r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxBodyBytes)
	var spec JobSpec
	dec := json.NewDecoder(r.Body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&spec); err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge, ErrorBody{
				Error: fmt.Sprintf("request body over %d bytes", tooBig.Limit),
				Kind:  "oversized",
			})
			return
		}
		writeError(w, http.StatusBadRequest, ErrorBody{
			Error: "bad job JSON: " + err.Error(), Kind: "bad-json",
		})
		return
	}

	rj, err := s.resolveSpec(spec)
	if err != nil {
		writeError(w, http.StatusBadRequest, ErrorBody{
			Error: err.Error(), Kind: "bad-request",
		})
		return
	}
	// The job's cache identity, exposed so clients that submit the same
	// job twice (a retry, or the same point sent to another backend) can
	// see the duplicates are the same unit of work. Coalescing is per
	// server: identical in-flight jobs on this server share one
	// simulation (the runner's in-flight table), and a duplicate on
	// another server runs its own.
	w.Header().Set("X-Job-Key", rj.key)

	// Persistent cache: a hit answers without touching the queue, so
	// repeated sweeps cost disk reads, not simulator time or queue slots.
	if res := s.cache.Get(rj); res != nil {
		writeJSON(w, http.StatusOK, res)
		return
	}

	j := &job{rj: rj, client: clientID(r), ctx: r.Context(), done: make(chan struct{})}
	if err := s.q.Push(j); err != nil {
		switch {
		case errors.Is(err, ErrQueueFull):
			s.shedFull.Add(1)
			s.writeShed(w, http.StatusTooManyRequests, "queue-full", err)
		case errors.Is(err, ErrClientLimit):
			s.shedClient.Add(1)
			s.writeShed(w, http.StatusTooManyRequests, "client-limit", err)
		default: // ErrDraining: intake closed between the check and the push
			s.shedDraining.Add(1)
			s.writeShed(w, http.StatusServiceUnavailable, "draining", err)
		}
		return
	}

	// The worker owns the job now; wait for its terminal state. On client
	// disconnect the shared context aborts the run and the worker still
	// closes done — nothing leaks, there is just nobody left to tell.
	<-j.done
	if j.err != nil {
		status, body := errorResponse(j)
		if status == http.StatusServiceUnavailable {
			// A drain-mode 503 (the run was force-cancelled by the drain
			// deadline) carries the same backpressure hint as an admission
			// shed, so client backoff is uniform across both 503 paths.
			after := s.retryAfterSeconds()
			w.Header().Set("Retry-After", strconv.Itoa(after))
			body.RetryAfterSeconds = after
		}
		writeError(w, status, body)
		return
	}
	writeJSON(w, http.StatusOK, j.res)
}

// errorResponse maps a job's terminal error to its documented HTTP status
// and structured body.
//
//	429/503  shed or drain (handled before the job runs)
//	400      deterministic client errors (bad config/program at run time)
//	408      the job's own context was cancelled or timed out client-side
//	422      the job exhausted its configured compute budget (max-cycles,
//	         cycle-budget): well-formed, too expensive as submitted
//	504      the per-attempt wall-clock timeout expired (after retries)
//	503      the run was force-cancelled by a drain deadline
//	500      watchdog livelock (after retries) and contained panics
func errorResponse(j *job) (int, ErrorBody) {
	err := j.err
	body := ErrorBody{Error: err.Error(), Attempts: j.attempts}
	var se *simerr.SimError
	if !errors.As(err, &se) {
		body.Kind = "bad-request"
		return http.StatusBadRequest, body
	}
	body.Kind = se.Kind.String()
	body.Snapshot = se.Snapshot.String()
	switch se.Kind {
	case simerr.KindCanceled:
		if j.ctx.Err() != nil {
			// The client went away or cancelled; it likely never reads
			// this, but the state is still typed and logged.
			return http.StatusRequestTimeout, body
		}
		// Force-cancelled by the drain deadline: safe to retry elsewhere.
		body.Retryable = true
		return http.StatusServiceUnavailable, body
	case simerr.KindDeadline:
		body.Retryable = true
		return http.StatusGatewayTimeout, body
	case simerr.KindMaxCycles, simerr.KindBudget:
		return http.StatusUnprocessableEntity, body
	case simerr.KindWatchdog:
		body.Retryable = true
		return http.StatusInternalServerError, body
	default: // panic and anything unclassified
		return http.StatusInternalServerError, body
	}
}

func (s *Server) writeShed(w http.ResponseWriter, status int, kind string, err error) {
	after := s.retryAfterSeconds()
	w.Header().Set("Retry-After", strconv.Itoa(after))
	writeError(w, status, ErrorBody{
		Error:             err.Error(),
		Kind:              kind,
		Retryable:         true,
		RetryAfterSeconds: after,
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v) // a failed write means the client left; nothing to do
}

func writeError(w http.ResponseWriter, status int, body ErrorBody) {
	writeJSON(w, status, body)
}
