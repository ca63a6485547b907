package main

import (
	"sort"
	"sync"
	"time"
)

// spanRecord is one recorded span: a call into a layer, timed from the
// benchmark's side of the call. Spans that share Trace belong to one
// top-level operation (a pass, a suite round, a request, a probe).
type spanRecord struct {
	Trace  uint64            `json:"trace"`
	ID     uint64            `json:"id"`
	Parent uint64            `json:"parent,omitempty"`
	Name   string            `json:"name"`
	Start  int64             `json:"start_ns"`
	End    int64             `json:"end_ns"`
	Counts map[string]uint64 `json:"counts,omitempty"`
}

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so the untraced run calls the same code at the cost of a nil
// check.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	next  uint64
	spans []spanRecord
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// span is an open span; end records it.
type span struct {
	t   *tracer
	rec spanRecord
}

// begin opens a span under parent; a nil parent starts a new trace.
func (t *tracer) begin(parent *span, name string) *span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	t.next++
	id := t.next
	t.mu.Unlock()
	s := &span{t: t, rec: spanRecord{Trace: id, ID: id, Name: name, Start: time.Since(t.t0).Nanoseconds()}}
	if parent != nil {
		s.rec.Trace, s.rec.Parent = parent.rec.Trace, parent.rec.ID
	}
	return s
}

func (s *span) end(counts map[string]uint64) {
	if s == nil {
		return
	}
	s.rec.End = time.Since(s.t.t0).Nanoseconds()
	s.rec.Counts = counts
	s.t.mu.Lock()
	s.t.spans = append(s.t.spans, s.rec)
	s.t.mu.Unlock()
}

// selfTime is the per-name total of a span file: how often the span
// occurred, its total duration, and its self time — the duration minus
// the part of it its child spans cover.
type selfTime struct {
	Name    string `json:"name"`
	Count   int    `json:"count"`
	TotalNS int64  `json:"total_ns"`
	SelfNS  int64  `json:"self_ns"`
}

func selfTimes(spans []spanRecord) []selfTime {
	children := map[uint64][]spanRecord{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := map[string]*selfTime{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &selfTime{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalNS += s.End - s.Start
		st.SelfNS += s.End - s.Start - covered(children[s.ID])
	}
	out := make([]selfTime, 0, len(byName))
	for _, st := range byName {
		out = append(out, *st)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfNS != out[j].SelfNS {
			return out[i].SelfNS > out[j].SelfNS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of the spans' intervals: concurrent
// children must not be subtracted twice.
func covered(spans []spanRecord) int64 {
	sort.Slice(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	var total, end int64
	for i, s := range spans {
		switch {
		case i == 0 || s.Start >= end:
			total += s.End - s.Start
			end = s.End
		case s.End > end:
			total += s.End - end
			end = s.End
		}
	}
	return total
}

// write stores the spans and their self-time summary.
func (t *tracer) write(path, workload string, seed uint64) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	return writeJSON(path, struct {
		Workload string       `json:"workload"`
		Seed     uint64       `json:"seed"`
		Self     []selfTime   `json:"self"`
		Spans    []spanRecord `json:"spans"`
	}{workload, seed, selfTimes(t.spans), t.spans})
}
