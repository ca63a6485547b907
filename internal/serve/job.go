// Job schema of the simulation service: the JSON a client submits, the
// JSON it gets back, and the resolution of a submitted spec into a
// validated, cache-keyed unit of work.
package serve

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"time"

	"repro/internal/asm"
	"repro/internal/config"
	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/workload"
)

// ResultSchema is the wire-format version tag of a job result. Bump only
// on deliberate, documented schema changes (the persistent cache also
// stores it and treats a mismatch as a miss).
const ResultSchema = "ddserve/v1"

// JobSpec is the JSON body of one simulation job. Exactly one of Workload
// and Program must be set.
type JobSpec struct {
	// Workload names a built-in synthetic workload (see ddsim -list).
	Workload string `json:"workload,omitempty"`
	// Program is MIPS-subset assembly source to assemble and simulate
	// instead of a workload.
	Program string `json:"program,omitempty"`
	// Scale is the workload scale factor (default 1.0; ignored with
	// Program). Clamped-checked against the server's -maxscale.
	Scale float64 `json:"scale,omitempty"`

	// Ports is the paper's "(N+M)" port configuration (default "2+0").
	Ports string `json:"ports,omitempty"`
	// Opt enables fast data forwarding and 2-way access combining;
	// Combine overrides the combining width.
	Opt     bool `json:"opt,omitempty"`
	Combine int  `json:"combine,omitempty"`
	// StaticOpt restricts the optimizations to statically-proven
	// pairs/groups (implies Opt).
	StaticOpt bool `json:"staticopt,omitempty"`
	// Steer is the steering policy name (hint, sp, oracle, dual, static,
	// spec; default hint).
	Steer string `json:"steer,omitempty"`
	// Strip removes compiler hints from the program before simulating.
	Strip bool `json:"strip,omitempty"`
	// MaxInsts bounds committed instructions (0 = run to halt).
	MaxInsts uint64 `json:"maxinsts,omitempty"`

	// TimeoutSeconds caps one attempt's wall-clock time; 0 selects the
	// server default and values above the server cap are clamped to it.
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`
}

// JobResult is the JSON body of a completed job.
type JobResult struct {
	Schema   string  `json:"schema"`
	Name     string  `json:"name"`   // workload or program name
	Config   string  `json:"config"` // the "(N+M)" name
	Scale    float64 `json:"scale,omitempty"`
	Steering string  `json:"steering"`

	Cycles        uint64  `json:"cycles"`
	Committed     uint64  `json:"committed"`
	IPC           float64 `json:"ipc"`
	Loads         uint64  `json:"loads"`
	Stores        uint64  `json:"stores"`
	LocalFraction float64 `json:"local_fraction"`
	Misroutes     uint64  `json:"misroutes"`
	// StatBlock is the full human-readable statistics block (what ddsim
	// prints).
	StatBlock string `json:"stat_block"`

	// Serving metadata. Cached and Attempts describe how this response
	// was produced, not the simulation itself; the persistent cache
	// rewrites them on a hit.
	Cached      bool    `json:"cached"`
	Attempts    int     `json:"attempts"`
	WallSeconds float64 `json:"wall_seconds"`
}

// ErrorBody is the structured error JSON every non-200 response carries.
type ErrorBody struct {
	Error string `json:"error"`
	// Kind is a stable machine-readable discriminator: a simerr kind
	// (watchdog, deadline, canceled, max-cycles, cycle-budget, panic) for
	// failed runs, or a request-level kind (bad-json, bad-request,
	// oversized, queue-full, client-limit, draining).
	Kind string `json:"kind"`
	// Retryable tells the client whether resubmitting the identical job
	// later can succeed.
	Retryable bool `json:"retryable"`
	// RetryAfterSeconds mirrors the Retry-After header on 429/503.
	RetryAfterSeconds int `json:"retry_after_seconds,omitempty"`
	// Snapshot is the pipeline snapshot of a failed run (simerr kinds).
	Snapshot string `json:"snapshot,omitempty"`
	// Attempts is how many times the run was tried before giving up.
	Attempts int `json:"attempts,omitempty"`
}

// resolvedJob is a validated job: the machine configuration, the program
// source (workload or assembled image), the cache identity, and the
// per-attempt timeout.
type resolvedJob struct {
	spec JobSpec
	cfg  config.Config

	// Exactly one of w (workload jobs) and prog (program jobs) is live.
	w        workload.Workload
	isProg   bool
	prog     *asm.Program
	name     string // display/result name
	progName string // runner keyspace name for program jobs

	// identity is the full, collision-proof cache identity; key and shard
	// are its hashed forms (file name, config-keyed shard directory).
	identity string
	key      string
	shard    string

	timeout time.Duration
}

// badRequestError marks a request-level validation failure (HTTP 400).
type badRequestError struct{ msg string }

func (e *badRequestError) Error() string { return e.msg }

func badRequest(format string, args ...any) error {
	return &badRequestError{msg: fmt.Sprintf(format, args...)}
}

// maxProgramInsts bounds the assembled text of a submitted program; far
// above any legitimate job, it exists so a pathological generator cannot
// make the service hold a giant image per queued job.
const maxProgramInsts = 1 << 20

// resolveSpec validates a submitted spec against the server limits and
// produces the runnable, cache-keyed job. All failures are
// *badRequestError: deterministic, non-retryable, the client's to fix.
func (s *Server) resolveSpec(spec JobSpec) (*resolvedJob, error) {
	rj := &resolvedJob{spec: spec}

	if (spec.Workload == "") == (spec.Program == "") {
		return nil, badRequest("exactly one of \"workload\" and \"program\" must be set")
	}

	// Machine configuration, mirroring the ddsim flag surface through the
	// shared grid-point mapping (a sweep point and the job it becomes
	// resolve identically by construction).
	point := experiments.GridPoint{
		Ports:     spec.Ports,
		Steering:  spec.Steer,
		Opt:       spec.Opt,
		Combine:   spec.Combine,
		StaticOpt: spec.StaticOpt,
		MaxInsts:  spec.MaxInsts,
	}
	cfg, err := point.Config()
	if err != nil {
		return nil, badRequest("%v", err)
	}
	rj.cfg = cfg

	var srcID string
	switch {
	case spec.Workload != "":
		w, err := workload.ByName(spec.Workload)
		if err != nil {
			return nil, badRequest("unknown workload %q", spec.Workload)
		}
		scale := spec.Scale
		if scale == 0 {
			scale = 1.0
		}
		if scale < 0 || scale > s.opts.MaxScale {
			return nil, badRequest("scale %g out of range (0, %g]", scale, s.opts.MaxScale)
		}
		rj.w = w
		rj.spec.Scale = scale
		rj.name = w.Name
		srcID = fmt.Sprintf("w:%s@%g/strip=%v", w.Name, scale, spec.Strip)
	default:
		prog, err := asm.Assemble("job.s", spec.Program)
		if err != nil {
			return nil, badRequest("bad program: %v", err)
		}
		if len(prog.Text) > maxProgramInsts {
			return nil, badRequest("program too large: %d instructions (limit %d)",
				len(prog.Text), maxProgramInsts)
		}
		if spec.Strip {
			prog = prog.StripHints()
		}
		rj.isProg = true
		rj.prog = prog
		rj.name = "program"
		sum := sha256.Sum256([]byte(spec.Program))
		srcID = fmt.Sprintf("p:%s/strip=%v", hex.EncodeToString(sum[:]), spec.Strip)
		rj.progName = "serve:" + srcID
	}

	rj.identity = srcID + "|" + cfg.Key()
	sum := sha256.Sum256([]byte(rj.identity))
	rj.key = hex.EncodeToString(sum[:16])
	shardSum := sha256.Sum256([]byte(cfg.Key()))
	rj.shard = hex.EncodeToString(shardSum[:1])

	rj.timeout = s.opts.JobTimeout
	if spec.TimeoutSeconds > 0 {
		d := time.Duration(spec.TimeoutSeconds * float64(time.Second))
		if d < rj.timeout {
			rj.timeout = d
		}
	}
	return rj, nil
}

// buildResult renders a finished run as the wire result.
func (rj *resolvedJob) buildResult(res *core.Result, attempts int, wall time.Duration) *JobResult {
	return &JobResult{
		Schema:        ResultSchema,
		Name:          rj.name,
		Config:        res.Config,
		Scale:         rj.spec.Scale,
		Steering:      rj.cfg.Steering.String(),
		Cycles:        res.Cycles,
		Committed:     res.Committed,
		IPC:           res.IPC(),
		Loads:         res.Loads,
		Stores:        res.Stores,
		LocalFraction: res.LocalFraction(),
		Misroutes:     res.Misroutes,
		StatBlock:     res.String(),
		Attempts:      attempts,
		WallSeconds:   wall.Seconds(),
	}
}

// program returns the image to simulate for a workload job, generating it
// on demand (program jobs carry theirs from assembly time).
func (rj *resolvedJob) program() *asm.Program {
	prog := rj.w.Program(rj.spec.Scale)
	if rj.spec.Strip {
		prog = prog.StripHints()
	}
	return prog
}

// runnerName is the name a workload job runs under in the runner's
// program keyspace: distinct (scale, strip) variants must never alias.
func (rj *resolvedJob) runnerName() string {
	if rj.isProg {
		return rj.progName
	}
	return fmt.Sprintf("serve:w:%s@%g/strip=%v", rj.w.Name, rj.spec.Scale, rj.spec.Strip)
}
