// Grid points: the canonical mapping from one declarative sweep
// coordinate (workload x port geometry x steering x optimizations) to
// the machine configuration it simulates. The service layer
// (internal/serve) resolves submitted jobs through the same mapping the
// sweep coordinator (internal/sweep) expands its grid with, so a sweep
// point and the job it becomes can never drift apart.
package experiments

import (
	"fmt"

	"repro/internal/config"
)

// GridPoint is one coordinate of a sweep grid: everything that selects a
// distinct simulation, in the vocabulary the CLIs and the service share
// (port strings like "3+2", steering policy names).
type GridPoint struct {
	// Workload names a built-in synthetic workload; empty for callers
	// that only need the configuration half of the mapping.
	Workload string
	// Ports is the paper's "(N+M)" port configuration ("" = "2+0").
	Ports string
	// Steering is the steering policy name ("" = hint).
	Steering string
	// Opt enables fast data forwarding and combining; Combine overrides
	// the combining width; StaticOpt restricts both to statically-proven
	// pairs/groups (implies Opt).
	Opt       bool
	Combine   int
	StaticOpt bool
	// MaxInsts bounds committed instructions (0 = run to halt).
	MaxInsts uint64
}

// Config maps the point to its validated machine configuration. The
// mapping is the single source of truth: serve.resolveSpec and the sweep
// expansion both call it.
func (p GridPoint) Config() (config.Config, error) {
	ports := p.Ports
	if ports == "" {
		ports = "2+0"
	}
	n, m, err := config.ParseNM(ports)
	if err != nil {
		return config.Config{}, fmt.Errorf("bad ports: %w", err)
	}
	cfg := config.Default().WithPorts(n, m)
	if p.Opt || p.StaticOpt {
		cfg = cfg.WithOptimizations(2)
	}
	if p.Combine > 0 {
		cfg.CombineWidth = p.Combine
	}
	if p.StaticOpt {
		cfg.ForwardStatic = true
		cfg.CombineStatic = cfg.CombineWidth > 1
	}
	steer, err := config.ParseSteering(p.Steering)
	if err != nil {
		return config.Config{}, fmt.Errorf("bad steer: %w", err)
	}
	cfg.Steering = steer
	cfg.MaxInsts = p.MaxInsts
	if err := cfg.Validate(); err != nil {
		return config.Config{}, fmt.Errorf("bad config: %w", err)
	}
	return cfg, nil
}

// Key is the point's stable identity within a sweep: every dimension in
// canonical form, "/"-joined. Points sort deterministically by it, and
// the sweep checkpoint and figure JSON are keyed on it.
func (p GridPoint) Key() string {
	ports := p.Ports
	if ports == "" {
		ports = "2+0"
	}
	steer := p.Steering
	if steer == "" {
		steer = "hint"
	}
	mode := "base"
	switch {
	case p.StaticOpt:
		mode = "static"
	case p.Opt:
		mode = "opt"
	}
	k := fmt.Sprintf("%s/%s/%s/%s", p.Workload, ports, steer, mode)
	if p.Combine > 0 {
		k += fmt.Sprintf("/c%d", p.Combine)
	}
	if p.MaxInsts > 0 {
		k += fmt.Sprintf("/i%d", p.MaxInsts)
	}
	return k
}
