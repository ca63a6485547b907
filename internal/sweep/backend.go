package sweep

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"sync"
	"sync/atomic"
	"time"
)

// backend is one ddserve instance: its URL, admission state, in-flight
// load and census counters.
type backend struct {
	url  string
	name string // short display label ("b0", "b1", ...)

	client *http.Client

	// down is set by a failed /readyz probe, a transport error or a
	// malformed 200, and cleared only by the next successful probe.
	down      atomic.Bool
	coolUntil atomic.Int64 // unix nanos; Retry-After window of the last shed
	inflight  atomic.Int64 // jobs currently posted

	// census counters (atomics: bumped from many workers).
	dispatched, ok, transient, terminal, shed atomic.Uint64
}

// admissible reports whether the backend may receive a job at now: it
// is not down and not cooling after a shed.
func (b *backend) admissible(now time.Time) bool {
	return !b.down.Load() && now.UnixNano() >= b.coolUntil.Load()
}

// cool records a Retry-After hint: no dispatch to this backend until
// the window passes.
func (b *backend) cool(now time.Time, after time.Duration) {
	if after <= 0 {
		return
	}
	until := now.Add(after).UnixNano()
	for {
		cur := b.coolUntil.Load()
		if until <= cur || b.coolUntil.CompareAndSwap(cur, until) {
			return
		}
	}
}

// probe checks /readyz once: a 200 clears down, anything else sets it.
func (b *backend) probe(ctx context.Context) {
	pctx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(pctx, http.MethodGet, b.url+"/readyz", nil)
	if err != nil {
		b.down.Store(true)
		return
	}
	resp, err := b.client.Do(req)
	if err != nil {
		b.down.Store(true)
		return
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	b.down.Store(resp.StatusCode != http.StatusOK)
}

// probeLoop re-probes readiness every interval until ctx ends.
func (b *backend) probeLoop(ctx context.Context, interval time.Duration, wg *sync.WaitGroup) {
	defer wg.Done()
	b.probe(ctx)
	t := time.NewTicker(interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			b.probe(ctx)
		}
	}
}

// BackendCensus is one backend's contribution to the sweep census.
type BackendCensus struct {
	Name       string `json:"name"`
	URL        string `json:"url"`
	Dispatched uint64 `json:"dispatched"`
	OK         uint64 `json:"ok"`
	Transient  uint64 `json:"transient"`
	Terminal   uint64 `json:"terminal"`
	Shed       uint64 `json:"shed"`
}

func (b *backend) census() BackendCensus {
	return BackendCensus{
		Name:       b.name,
		URL:        b.url,
		Dispatched: b.dispatched.Load(),
		OK:         b.ok.Load(),
		Transient:  b.transient.Load(),
		Terminal:   b.terminal.Load(),
		Shed:       b.shed.Load(),
	}
}

func (c BackendCensus) String() string {
	return fmt.Sprintf("%s %s: dispatched=%d ok=%d transient=%d terminal=%d shed=%d",
		c.Name, c.URL, c.Dispatched, c.OK, c.Transient, c.Terminal, c.Shed)
}
