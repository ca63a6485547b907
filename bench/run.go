package main

import (
	"fmt"
	"math"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"sync"
	"syscall"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// summary is the JSON object a run prints as its last line.
type summary struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is what a run writes to its result file: every metric it
// measured (a traced run measures the end-to-end ones too, under tracing),
// the sample count behind each timing, the failed checks and the simulated
// outputs -bless records.
type result struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Trace    bool   `json:"trace"`
	summary
	Samples  map[string]int `json:"samples"`
	Errors   []string       `json:"errors,omitempty"`
	Observed *golden        `json:"observed"`
}

func (r *result) fileName() string {
	if r.Trace {
		return fmt.Sprintf("%s-seed%d-trace.json", r.Workload, r.Seed)
	}
	return fmt.Sprintf("%s-seed%d.json", r.Workload, r.Seed)
}

type runOptions struct {
	seed    uint64
	seconds float64
	trace   bool
	out     string  // result, span and temporary-file directory
	gold    *golden // nil skips the golden checks
}

// run is one workload execution in progress. Operations on several
// goroutines record through opDone and checkf, which lock.
type run struct {
	name string
	runOptions
	decl     *declaration
	tr       *tracer // nil in an untraced run
	mu       sync.Mutex
	res      result
	observed *golden
}

// execute runs workload w once with parameters p and returns its result.
// An error means the run could not be carried out at all; failed
// operations and failed checks are in the result instead.
func execute(decl *declaration, w *workloadDef, p params, o runOptions) (*result, error) {
	r := &run{name: w.name, runOptions: o, decl: decl, observed: newGolden()}
	if o.trace {
		r.tr = newTracer()
	}
	r.res = result{Workload: w.name, Seed: o.seed, Trace: o.trace,
		summary: summary{Metrics: map[string]metric{}}, Samples: map[string]int{}}
	if err := w.run(r, p); err != nil {
		return nil, fmt.Errorf("%s: %w", w.name, err)
	}
	r.set("rss_peak_mb", peakRSSMB(), "MB")
	r.res.Errors = append(r.res.Errors, decl.check(r.res.Metrics, o.trace)...)
	r.res.Correct = len(r.res.Errors) == 0
	r.res.Observed = r.observed
	if r.tr != nil {
		if err := r.tr.write(filepath.Join(o.out, fmt.Sprintf("%s-seed%d.spans.json", w.name, o.seed)), w.name, o.seed); err != nil {
			return nil, err
		}
	}
	return &r.res, nil
}

func (r *run) set(name string, v float64, unit string) {
	r.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// setTiming sets a timing metric and records how many samples it rests on.
func (r *run) setTiming(name string, v float64, unit string, n int) {
	r.set(name, v, unit)
	r.res.Samples[name] = n
}

// unused reports zero for every declared per-layer metric under prefix: a
// layer this workload does not exercise did no work.
func (r *run) unused(prefix string) {
	for _, m := range r.decl.PerLayer {
		if strings.HasPrefix(m.Name, prefix) {
			r.set(m.Name, 0, m.Unit)
		}
	}
}

// opDone counts one attempted operation; a non-nil err fails it.
func (r *run) opDone(what string, err error) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.res.Attempted++
	if err != nil {
		r.res.Failed++
		r.res.Errors = append(r.res.Errors, fmt.Sprintf("%s: %v", what, err))
	}
	return err == nil
}

// checkf records a failed output check unless ok.
func (r *run) checkf(ok bool, format string, args ...any) bool {
	if !ok {
		r.mu.Lock()
		r.res.Errors = append(r.res.Errors, fmt.Sprintf(format, args...))
		r.mu.Unlock()
	}
	return ok
}

// checkSim compares one simulation's counts with its golden and records
// them for -bless. At a seed the goldens were recorded for, a missing
// golden fails the check, so that a renamed key cannot switch it off.
func (r *run) checkSim(key string, cycles, committed uint64) {
	got := simGolden{Cycles: cycles, Committed: committed}
	r.observed.Sims[key] = got
	r.observed.Seeds = []uint64{r.seed}
	if r.gold == nil {
		return
	}
	want, ok := r.gold.Sims[key]
	if !ok {
		r.checkf(!r.gold.recorded(r.seed), "%s: no golden, although seed %d was recorded", key, r.seed)
		return
	}
	r.checkf(want == got, "%s: simulated (cycles, committed) = (%d, %d), golden (%d, %d)",
		key, cycles, committed, want.Cycles, want.Committed)
}

// checkFigures compares the figure suite's output digest with its golden
// and records it for -bless. The suite's inputs do not depend on the
// seed, so its golden must exist at every seed.
func (r *run) checkFigures(key, got string) {
	r.observed.Figures[key] = got
	if r.gold == nil {
		return
	}
	want, ok := r.gold.Figures[key]
	r.checkf(ok, "figures %s: no golden", key)
	r.checkf(!ok || want == got, "figures %s: output sha256 %s, golden %s", key, got, want)
}

// A run builds its inputs at least minSetups times, and until it has
// spent minSetupTime building, so that setup_s, their median, is not one
// slow build (page faults, a GC cycle) and a build of a few milliseconds
// is timed often enough to be steady.
const (
	minSetups    = 3
	maxSetups    = 25
	minSetupTime = 500 * time.Millisecond
)

// setup runs build repeatedly and reports the median duration as setup_s.
// build must leave the run's inputs in place; only the last build's are
// used.
func (r *run) setup(build func(parent *span) error) error {
	var ts []float64
	for t := time.Now(); len(ts) < minSetups || (time.Since(t) < minSetupTime && len(ts) < maxSetups); {
		s := r.tr.begin(nil, "setup")
		t0 := time.Now()
		err := build(s)
		ts = append(ts, time.Since(t0).Seconds())
		s.end(nil)
		if err != nil {
			return err
		}
	}
	r.setTiming("setup_s", median(ts), "s", len(ts))
	return nil
}

// more reports whether another round of the timed loop fits in the run's
// measuring time, given how long the last round took. Every run measures
// at least one round.
func (r *run) more(start time.Time, last time.Duration) bool {
	return time.Since(start)+last <= time.Duration(r.seconds*float64(time.Second))
}

// usage samples host resources over the timed phase of a run.
type usage struct {
	wall    time.Time
	cpu     time.Duration
	gc, all float64
}

var cpuMetrics = []string{"/cpu/classes/gc/total:cpu-seconds", "/cpu/classes/total:cpu-seconds"}

func startUsage() usage {
	u := usage{wall: time.Now(), cpu: cpuTime()}
	u.gc, u.all = gcCPU()
	return u
}

// finish reports the runner layer's throughput and the process's CPU use
// over the timed phase: sims is how many simulations it ran.
func (u usage) finish(r *run, sims int) {
	wall := time.Since(u.wall).Seconds()
	gc, all := gcCPU()
	r.set("runner.sims", float64(sims), "count")
	r.set("runner.sims_per_s", float64(sims)/wall, "1/s")
	r.set("runner.cpu_util", (cpuTime()-u.cpu).Seconds()/(wall*float64(runtime.GOMAXPROCS(0))), "fraction")
	share := 0.0
	if all > u.all {
		share = (gc - u.gc) / (all - u.all)
	}
	r.set("runtime.gc_cpu_share", share, "fraction")
}

func gcCPU() (gc, all float64) {
	s := make([]metrics.Sample, len(cpuMetrics))
	for i, name := range cpuMetrics {
		s[i].Name = name
	}
	metrics.Read(s)
	return s[0].Value.Float64(), s[1].Value.Float64()
}

func rusage() syscall.Rusage {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return ru
}

func cpuTime() time.Duration {
	ru := rusage()
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (Linux reports KiB).
func peakRSSMB() float64 { return float64(rusage().Maxrss) / 1024 }

// jobLatencies reports job latency in milliseconds, resting on n timed
// jobs. kinds holds the latencies of each kind of job the workload runs
// (a program, a cache hit or miss, a suite round): job_p50_gmean_ms is the
// geometric mean of their medians, so that every kind weighs the same and
// a change of any kind's latency by a factor moves the metric by the same
// factor whatever the kind's share of jobs. A plain median over all jobs
// would sit on the boundary between two kinds whose shares are near half
// and jump between their latencies from run to run. job_p90_ms is the 90th
// percentile of tail.
func (r *run) jobLatencies(kinds [][]float64, tail []float64, n int) {
	gmean := 0.0 // no job finished
	if len(kinds) > 0 {
		logSum := 0.0
		for _, k := range kinds {
			logSum += math.Log(median(k))
		}
		gmean = math.Exp(logSum / float64(len(kinds)))
	}
	r.setTiming("job_p50_gmean_ms", gmean, "ms", n)
	r.setTiming("job_p90_ms", percentile(sorted(tail), 0.90), "ms", n)
}
