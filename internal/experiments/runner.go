// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on the synthetic workload suite: program bandwidth
// requirements (Fig 5), LVC size and port sensitivity (Figs 6, 7), the
// LVAQ optimizations (Table 3, Figs 8, 9), cache-latency sensitivity
// (Fig 10), per-program port surfaces (Fig 11), workload characterization
// (Figs 2, 3; Tables 1, 2), the §4.2.1 L2-traffic observation, and a set
// of ablations beyond the paper.
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"runtime/debug"
	"sort"
	"sync"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/profile"
	"repro/internal/simerr"
	"repro/internal/workload"
)

// Runner executes simulations for the experiment drivers, caching results
// so overlapping experiments (e.g. Fig 7 and Fig 11) share runs. It is
// safe for concurrent use and runs independent simulations in parallel.
// A simulation that panics or fails is contained: the error (a typed
// *simerr.SimError for panics) is returned to every waiter and the
// in-flight bookkeeping is always released, so concurrent callers of the
// same key can never deadlock on a crashed run.
type Runner struct {
	// Scale is the workload scale factor (1.0 = full experiment size).
	Scale float64
	// Progress, when non-nil, receives one line per finished simulation.
	Progress io.Writer
	// RunOpts bounds every simulation this runner starts (cycle caps,
	// deadline, watchdog, fault injection). The zero value reproduces
	// unbounded historical behaviour.
	RunOpts core.RunOptions

	mu       sync.Mutex
	programs map[string]*asm.Program
	results  map[string]*core.Result
	profiles map[string]*profile.Profile
	inflight map[string]*sync.WaitGroup

	// testRun, when non-nil, replaces the core simulation call; tests use
	// it to inject panics, failures and slow runs.
	testRun func(prog *asm.Program, cfg config.Config) (*core.Result, error)
}

// NewRunner returns a Runner at the given workload scale.
func NewRunner(scale float64) *Runner {
	if scale <= 0 {
		scale = 1
	}
	return &Runner{
		Scale:    scale,
		programs: make(map[string]*asm.Program),
		results:  make(map[string]*core.Result),
		profiles: make(map[string]*profile.Profile),
		inflight: make(map[string]*sync.WaitGroup),
	}
}

func (r *Runner) program(w workload.Workload) *asm.Program {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.programs[w.Name]
	if !ok {
		p = w.Program(r.Scale)
		r.programs[w.Name] = p
	}
	return p
}

func cfgKey(name string, cfg config.Config) string {
	return name + "|" + cfg.Key()
}

// Result simulates workload w under cfg (cached), unbounded except by the
// runner's RunOpts.
func (r *Runner) Result(w workload.Workload, cfg config.Config) (*core.Result, error) {
	return r.ResultCtx(context.Background(), w, cfg)
}

// ResultCtx simulates workload w under cfg (cached), additionally bounded
// by ctx: cancellation ends the simulation with a typed *simerr.SimError.
func (r *Runner) ResultCtx(ctx context.Context, w workload.Workload, cfg config.Config) (*core.Result, error) {
	res, err := r.cachedRun(cfgKey(w.Name, cfg), w.Name, cfg, func() (*core.Result, error) {
		return r.runProgram(ctx, r.program(w), cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: %s under %s: %w", w.Name, cfg.Name(), err)
	}
	return res, nil
}

// ResultProgramOptsCtx is ResultProgramCtx with per-run RunOptions
// replacing the runner's RunOpts for this run only. The result cache is
// shared with the other Result variants: a completed run is deterministic
// regardless of its budget, so budget-only option differences cannot
// poison the cache. A run whose options carry a fault injector is the
// exception — injected faults perturb timing on purpose — so
// injector-armed runs bypass the cache entirely (neither hitting nor
// filling it) while keeping the same panic containment.
func (r *Runner) ResultProgramOptsCtx(ctx context.Context, name string, prog *asm.Program, cfg config.Config, opts core.RunOptions) (*core.Result, error) {
	run := func() (*core.Result, error) {
		return r.runProgramOpts(ctx, prog, cfg, opts)
	}
	var res *core.Result
	var err error
	if opts.Injector != nil {
		res, err = r.containedRun(run)
	} else {
		res, err = r.cachedRun(cfgKey("prog:"+name, cfg), name, cfg, run)
	}
	if err != nil {
		return nil, fmt.Errorf("experiments: program %s under %s: %w", name, cfg.Name(), err)
	}
	return res, nil
}

// CachedResults returns how many distinct simulation results the runner
// holds in memory. Long-running hosts (the ddserve service) use it to
// bound the in-memory cache by rotating to a fresh runner.
func (r *Runner) CachedResults() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.results)
}

// ResultProgram simulates an arbitrary named program under cfg, with the
// same caching, containment and progress reporting as workload runs. The
// name spans its own key space ("prog:<name>"), so derived program
// variants (hint-stripped, re-hinted) never alias the generator-hinted
// workload results. The caller must use distinct names for distinct
// program images.
func (r *Runner) ResultProgram(name string, prog *asm.Program, cfg config.Config) (*core.Result, error) {
	return r.ResultProgramCtx(context.Background(), name, prog, cfg)
}

// ResultProgramCtx is ResultProgram additionally bounded by ctx.
func (r *Runner) ResultProgramCtx(ctx context.Context, name string, prog *asm.Program, cfg config.Config) (*core.Result, error) {
	res, err := r.cachedRun(cfgKey("prog:"+name, cfg), name, cfg, func() (*core.Result, error) {
		return r.runProgram(ctx, prog, cfg)
	})
	if err != nil {
		return nil, fmt.Errorf("experiments: program %s under %s: %w", name, cfg.Name(), err)
	}
	return res, nil
}

// cachedRun resolves key through the result cache, claiming the key (or
// waiting for the in-flight owner) and then executing run exactly once.
func (r *Runner) cachedRun(key, label string, cfg config.Config, run func() (*core.Result, error)) (*core.Result, error) {
	for {
		r.mu.Lock()
		if res, ok := r.results[key]; ok {
			r.mu.Unlock()
			return res, nil
		}
		if wg, busy := r.inflight[key]; busy {
			r.mu.Unlock()
			wg.Wait()
			continue
		}
		wg := &sync.WaitGroup{}
		wg.Add(1)
		r.inflight[key] = wg
		r.mu.Unlock()
		break
	}

	res, err := r.simulate(key, run)
	if err != nil {
		return nil, err
	}
	if r.Progress != nil {
		fmt.Fprintf(r.Progress, "  ran %-10s %-8s ipc=%.3f cycles=%d\n",
			label, cfg.Name(), res.IPC(), res.Cycles)
	}
	return res, nil
}

// simulate runs one uncached simulation for key. The deferred block is the
// in-flight release point: it runs on success, on error AND on panic
// (containedRun has already converted the panic to an error by the time it
// fires), so a crashing run can never strand concurrent waiters on the key.
func (r *Runner) simulate(key string, run func() (*core.Result, error)) (res *core.Result, err error) {
	defer func() {
		r.mu.Lock()
		if err == nil {
			r.results[key] = res
		}
		r.inflight[key].Done()
		delete(r.inflight, key)
		r.mu.Unlock()
	}()

	return r.containedRun(run)
}

// containedRun executes one simulation with the runner's panic containment
// but without touching the cache or in-flight bookkeeping: a panic anywhere
// on the path (program generation, core construction — the cycle loop
// itself is already contained by core.RunWith) is converted into the same
// typed error the core produces.
func (r *Runner) containedRun(run func() (*core.Result, error)) (res *core.Result, err error) {
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, &simerr.SimError{
				Kind:       simerr.KindPanic,
				Reason:     fmt.Sprint(p),
				PanicValue: p,
				Stack:      string(debug.Stack()),
			}
		}
	}()
	return run()
}

// runProgram constructs and runs one core simulation under the runner-wide
// options.
func (r *Runner) runProgram(ctx context.Context, prog *asm.Program, cfg config.Config) (*core.Result, error) {
	return r.runProgramOpts(ctx, prog, cfg, r.RunOpts)
}

// runProgramOpts constructs and runs one core simulation under opts.
func (r *Runner) runProgramOpts(ctx context.Context, prog *asm.Program, cfg config.Config, opts core.RunOptions) (*core.Result, error) {
	if r.testRun != nil {
		return r.testRun(prog, cfg)
	}
	c, err := core.New(prog, cfg)
	if err != nil {
		return nil, err
	}
	return c.RunWith(ctx, opts)
}

// Profile returns the functional profile of workload w (cached).
func (r *Runner) Profile(w workload.Workload) (*profile.Profile, error) {
	r.mu.Lock()
	if p, ok := r.profiles[w.Name]; ok {
		r.mu.Unlock()
		return p, nil
	}
	r.mu.Unlock()

	p, err := profile.Run(r.program(w), 0)
	if err != nil {
		return nil, fmt.Errorf("experiments: profiling %s: %w", w.Name, err)
	}
	r.mu.Lock()
	r.profiles[w.Name] = p
	r.mu.Unlock()
	return p, nil
}

// profilesOf returns the functional profile of every workload in ws
// (cached), one workload per CPU.
func (r *Runner) profilesOf(ws []workload.Workload) ([]*profile.Profile, error) {
	return batch(len(ws), func(i int) (*profile.Profile, error) {
		return r.Profile(ws[i])
	})
}

// point is one simulation of an experiment's grid: workload w under cfg,
// or, when prog is set, the program image prog under cfg in
// ResultProgram's key space, cached as name.
type point struct {
	w    workload.Workload
	name string
	prog *asm.Program
	cfg  config.Config
}

// cross is the grid of every workload in ws under every config in cfgs.
func cross(ws []workload.Workload, cfgs ...config.Config) []point {
	pts := make([]point, 0, len(ws)*len(cfgs))
	for _, w := range ws {
		for _, c := range cfgs {
			pts = append(pts, point{w: w, cfg: c})
		}
	}
	return pts
}

// resultOf simulates p (cached).
func (r *Runner) resultOf(ctx context.Context, p point) (*core.Result, error) {
	if p.prog != nil {
		return r.ResultProgramCtx(ctx, p.name, p.prog, p.cfg)
	}
	return r.ResultCtx(ctx, p.w, p.cfg)
}

// simulateAll runs every point of pts in one batch on at most par
// workers; the returned error joins every failure in point order.
func (r *Runner) simulateAll(ctx context.Context, pts []point, par int) error {
	_, err := parallelFor(ctx, len(pts), par, func(i int) (*core.Result, error) {
		return r.resultOf(ctx, pts[i])
	})
	return err
}

// parallelFor calls f(i) for every i in [0, n) on at most par goroutines
// and returns the results in index order, with the errors joined in index
// order, whatever order the calls finish in. Each goroutine is spawned
// only once it holds a slot, so at most par exist at once. Once ctx is
// cancelled no further calls start, and the context error joins the
// result.
func parallelFor[T any](ctx context.Context, n, par int, f func(i int) (T, error)) ([]T, error) {
	if par < 1 {
		par = 1
	}
	out := make([]T, n)
	errs := make([]error, n)
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		if err := ctx.Err(); err != nil {
			errs[i] = err
			break
		}
		sem <- struct{}{}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer func() { <-sem }()
			out[i], errs[i] = f(i)
		}(i)
	}
	wg.Wait()
	return out, errors.Join(errs...)
}

// batch is parallelFor with one worker per CPU, the bound every
// experiment's batch runs on.
func batch[T any](n int, f func(i int) (T, error)) ([]T, error) {
	return parallelFor(context.Background(), n, runtime.NumCPU(), f)
}

// Experiment is one reproducible table or figure.
type Experiment struct {
	ID          string
	Title       string
	Description string
	// Run regenerates the table or figure. An experiment that simulates
	// runs its whole grid in one batch, one simulation per CPU, then
	// renders serially from the runner's cache, so its text does not
	// depend on the order the simulations finish in.
	Run func(r *Runner) (string, error)

	// plan, set on the experiments that simulate, builds Run.
	plan planFunc
}

// planFunc declares every simulation an experiment reads and returns the
// renderer that reads them back from the runner's cache.
type planFunc func(r *Runner) (grid []point, render func() (string, error), err error)

var experimentList []Experiment

func registerExperiment(e Experiment) {
	if plan := e.plan; plan != nil {
		e.Run = func(r *Runner) (string, error) {
			grid, render, err := plan(r)
			if err != nil {
				return "", err
			}
			if err := r.simulateAll(context.Background(), grid, runtime.NumCPU()); err != nil {
				return "", err
			}
			return render()
		}
	}
	experimentList = append(experimentList, e)
}

// AllExperiments returns every registered experiment sorted by ID.
func AllExperiments() []Experiment {
	out := make([]Experiment, len(experimentList))
	copy(out, experimentList)
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// ErrUnknownExperiment: the requested experiment ID is not registered.
var ErrUnknownExperiment = errors.New("experiments: unknown experiment")

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	for _, e := range experimentList {
		if e.ID == id {
			return e, nil
		}
	}
	return Experiment{}, fmt.Errorf("%w: %q", ErrUnknownExperiment, id)
}

// WriteReports runs each experiment on r, in order, and writes its report
// to w as `ddbench -exp` prints it: a "==> id — title" line, the rendered
// text and a blank line. It stops at the first experiment that fails.
func WriteReports(w io.Writer, r *Runner, exps ...Experiment) error {
	for _, e := range exps {
		out, err := e.Run(r)
		if err != nil {
			return fmt.Errorf("%s: %w", e.ID, err)
		}
		fmt.Fprintf(w, "==> %s — %s\n%s\n", e.ID, e.Title, out)
	}
	return nil
}
