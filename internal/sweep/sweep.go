// Package sweep is the distributed sweep coordinator behind the ddsweep
// tool: it expands a declarative sweep/v1 spec (workload x port-geometry
// x steering x mode grid with explicit exclusions) into simulation
// jobs and drives them across N ddserve backends, assembling one
// deterministic figure JSON at the end.
//
// The coordinator is fault-tolerant by construction:
//
//   - Multi-backend sharding with load-aware dispatch: each job goes to
//     the admissible backend with the fewest jobs in flight.
//   - One admission rule per backend. A backend is down after a failed
//     /readyz probe, a transport error or a malformed 200, and only its
//     next successful probe readmits it. A 429/503 shed cools the
//     backend for the server's Retry-After window, so the retry goes to
//     another backend, and a lone backend is waited out.
//   - Bounded retries with exponential backoff for transient failures:
//     transport errors, sheds and retryable simerr-taxonomy kinds.
//     Terminal kinds (bad requests, deterministic budget failures,
//     contained panics) fail the point at once: they are the point's
//     failure, not the backend's.
//   - A checkpoint file (sweepckpt/v1, atomic temp+rename after every
//     completed point) so -resume re-runs only the missing points. A
//     truncated, corrupt or stale-schema checkpoint is a counted,
//     logged, self-healing empty checkpoint — never a crash, never a
//     silent full re-run.
//
// The assembled figure JSON is deterministic: points are sorted by
// their canonical key and carry only simulation outputs (which are a
// pure function of config+program), so the bytes are identical
// regardless of backend count, retries, or the resume path.
package sweep

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"sort"

	"repro/internal/experiments"
	"repro/internal/workload"
)

// Schema tags of the three serialized artifacts.
const (
	SpecSchema       = "sweep/v1"
	FigureSchema     = "ddsweep-figure/v1"
	CheckpointSchema = "sweepckpt/v1"
)

// ErrBadSpec marks an unusable sweep spec (schema, dimensions,
// exclusions): a usage error, the caller's to fix.
var ErrBadSpec = errors.New("sweep: bad sweep spec")

// Spec is the declarative sweep/v1 grid. Every listed dimension is
// crossed with every other; Exclude removes individual points.
type Spec struct {
	Schema string `json:"schema"`
	// Name labels the sweep in the figure JSON and logs.
	Name string `json:"name,omitempty"`

	// Workloads and Ports are the mandatory dimensions: built-in
	// workload names and "(N+M)" port geometries.
	Workloads []string `json:"workloads"`
	Ports     []string `json:"ports"`
	// Steering and Modes default to one-element axes ("hint", "base").
	// Modes select the optimization level: base (none), opt (dynamic
	// forwarding + 2-way combining), static (statically-proven
	// pairs/groups only).
	Steering []string `json:"steering,omitempty"`
	Modes    []string `json:"modes,omitempty"`

	// Scale is the workload scale factor (default 1.0), shared by every
	// point; per-point scale would break cross-point comparability.
	Scale float64 `json:"scale,omitempty"`
	// Combine overrides the combining width for opt/static modes.
	Combine int `json:"combine,omitempty"`
	// MaxInsts bounds committed instructions per point (0 = to halt).
	MaxInsts uint64 `json:"maxinsts,omitempty"`
	// TimeoutSeconds is the per-job attempt timeout submitted to the
	// backend (0 = the backend's default).
	TimeoutSeconds float64 `json:"timeout_seconds,omitempty"`

	// Exclude removes grid points: a point matching every set field of
	// any exclusion is dropped (empty field = wildcard).
	Exclude []Exclusion `json:"exclude,omitempty"`
}

// Exclusion is one point filter. Empty fields match anything.
type Exclusion struct {
	Workload string `json:"workload,omitempty"`
	Ports    string `json:"ports,omitempty"`
	Steering string `json:"steering,omitempty"`
	Mode     string `json:"mode,omitempty"`
}

func (e Exclusion) matches(p Point) bool {
	match := func(want, got string) bool { return want == "" || want == got }
	return match(e.Workload, p.GP.Workload) &&
		match(e.Ports, p.GP.Ports) &&
		match(e.Steering, p.steering()) &&
		match(e.Mode, p.Mode)
}

// Point is one expanded grid coordinate: the shared GridPoint mapping
// plus the sweep-level mode name and the cached canonical key.
type Point struct {
	GP   experiments.GridPoint
	Mode string // base | opt | static
	Key  string
}

func (p Point) steering() string {
	if p.GP.Steering == "" {
		return "hint"
	}
	return p.GP.Steering
}

// ParseSpec decodes and schema-gates a sweep/v1 spec. A field the spec
// schema does not name is an error, so a misspelt axis cannot silently
// fall back to its default.
func ParseSpec(data []byte) (*Spec, error) {
	var s Spec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadSpec, err)
	}
	if dec.More() {
		return nil, fmt.Errorf("%w: data after the spec object", ErrBadSpec)
	}
	if s.Schema != SpecSchema {
		return nil, fmt.Errorf("%w: schema %q, want %q", ErrBadSpec, s.Schema, SpecSchema)
	}
	return &s, nil
}

// normalize fills the defaulted axes in place.
func (s *Spec) normalize() {
	if len(s.Steering) == 0 {
		s.Steering = []string{"hint"}
	}
	if len(s.Modes) == 0 {
		s.Modes = []string{"base"}
	}
	if s.Scale == 0 {
		s.Scale = 1.0
	}
}

// Points expands the grid: every dimension crossed, exclusions applied,
// duplicates collapsed, the result sorted by canonical key. Every
// surviving point is validated through the shared GridPoint mapping, so
// a spec that expands cleanly cannot produce a 400 at submit time.
func (s *Spec) Points() ([]Point, error) {
	s.normalize()
	if len(s.Workloads) == 0 || len(s.Ports) == 0 {
		return nil, fmt.Errorf("%w: workloads and ports must be non-empty", ErrBadSpec)
	}
	if s.Scale < 0 {
		return nil, fmt.Errorf("%w: negative scale %g", ErrBadSpec, s.Scale)
	}
	seen := make(map[string]bool)
	var points []Point
	for _, w := range s.Workloads {
		if _, err := workload.ByName(w); err != nil {
			return nil, fmt.Errorf("%w: unknown workload %q", ErrBadSpec, w)
		}
		for _, ports := range s.Ports {
			for _, steer := range s.Steering {
				for _, mode := range s.Modes {
					p := Point{
						GP: experiments.GridPoint{
							Workload: w,
							Ports:    ports,
							Steering: steer,
							Combine:  s.Combine,
							MaxInsts: s.MaxInsts,
						},
						Mode: mode,
					}
					switch mode {
					case "base":
					case "opt":
						p.GP.Opt = true
					case "static":
						p.GP.StaticOpt = true
					default:
						return nil, fmt.Errorf("%w: unknown mode %q (want base, opt or static)", ErrBadSpec, mode)
					}
					if _, err := p.GP.Config(); err != nil {
						return nil, fmt.Errorf("%w: point %s: %v", ErrBadSpec, p.GP.Key(), err)
					}
					p.Key = p.GP.Key()
					excluded := false
					for _, ex := range s.Exclude {
						if ex.matches(p) {
							excluded = true
							break
						}
					}
					if excluded || seen[p.Key] {
						continue
					}
					seen[p.Key] = true
					points = append(points, p)
				}
			}
		}
	}
	if len(points) == 0 {
		return nil, fmt.Errorf("%w: every point excluded", ErrBadSpec)
	}
	sort.Slice(points, func(i, j int) bool { return points[i].Key < points[j].Key })
	return points, nil
}

// ID is the spec's content hash, binding checkpoints and figures to the
// exact grid they belong to. It hashes the normalized spec JSON, whose
// field order is fixed by the struct, so the ID is deterministic.
func (s *Spec) ID() string {
	norm := *s
	norm.normalize()
	data, _ := json.Marshal(norm) // a struct of scalars and string slices cannot fail
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:8])
}

// FigurePoint is one completed point's simulation outputs: a pure
// function of config+program (no wall-clock, attempt or cache metadata),
// which is what makes the assembled figure byte-identical across
// backends, retries and resume.
type FigurePoint struct {
	Key      string `json:"key"`
	Workload string `json:"workload"`
	Ports    string `json:"ports"`
	Steering string `json:"steering"`
	Mode     string `json:"mode"`

	Cycles        uint64  `json:"cycles"`
	Committed     uint64  `json:"committed"`
	IPC           float64 `json:"ipc"`
	Loads         uint64  `json:"loads"`
	Stores        uint64  `json:"stores"`
	LocalFraction float64 `json:"local_fraction"`
	Misroutes     uint64  `json:"misroutes"`
}

// Figure is the assembled sweep result: every completed point, sorted
// by key.
type Figure struct {
	Schema string        `json:"schema"`
	Name   string        `json:"name,omitempty"`
	SpecID string        `json:"spec_id"`
	Scale  float64       `json:"scale"`
	Points []FigurePoint `json:"points"`
}

// EncodeJSON writes the figure as indented JSON. The encoding is
// deterministic: struct field order is fixed and points are pre-sorted.
func (f *Figure) EncodeJSON(w io.Writer) error {
	data, err := json.MarshalIndent(f, "", "  ")
	if err != nil {
		return fmt.Errorf("sweep: encoding figure: %w", err)
	}
	data = append(data, '\n')
	_, err = w.Write(data)
	return err
}
