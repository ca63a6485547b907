package main

import (
	"errors"
	"io/fs"
	"slices"
)

// golden holds the simulated outputs a run is checked against. Simulated
// results are deterministic functions of program and configuration, so a
// changed entry means the modelled machine changed: bless it on purpose
// with -bless, or treat it as a bug.
type golden struct {
	// Seeds lists the seeds whose simulations were recorded: at these
	// seeds every simulation must have a golden.
	Seeds []uint64 `json:"seeds"`
	// Sims maps "<workload>@<scale>/s<seed>/<program>" to one simulation's
	// cycle and committed-instruction counts.
	Sims map[string]simGolden `json:"sims"`
	// Figures maps "<scale>/<experiments>" to the sha256 of the figure
	// suite's output text; the suite's inputs do not depend on the seed.
	Figures map[string]string `json:"figures"`
}

type simGolden struct {
	Cycles    uint64 `json:"cycles"`
	Committed uint64 `json:"committed"`
}

func newGolden() *golden {
	return &golden{Sims: map[string]simGolden{}, Figures: map[string]string{}}
}

// readGolden loads the goldens; a missing file is an empty set.
func readGolden(path string) (*golden, error) {
	g := newGolden()
	if err := readJSON(path, g); err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, err
	}
	return g, nil
}

func (g *golden) recorded(seed uint64) bool {
	return slices.Contains(g.Seeds, seed)
}

func (g *golden) merge(o *golden) {
	for _, s := range o.Seeds {
		if !g.recorded(s) {
			g.Seeds = append(g.Seeds, s)
		}
	}
	slices.Sort(g.Seeds)
	for k, v := range o.Sims {
		g.Sims[k] = v
	}
	for k, v := range o.Figures {
		g.Figures[k] = v
	}
}
