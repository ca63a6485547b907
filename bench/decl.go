package main

import (
	"fmt"
	"regexp"
	"sort"
)

// declaration is BENCHMARK.json: the workloads, and every metric with its
// unit, its direction and, for end-to-end metrics, its regression bound.
type declaration struct {
	RunSeconds int            `json:"run_seconds"`
	Workloads  []workloadDecl `json:"workloads"`
	EndToEnd   []metricDecl   `json:"end_to_end"`
	PerLayer   []metricDecl   `json:"per_layer"`
}

type workloadDecl struct {
	Name string `json:"name"`
}

type metricDecl struct {
	Name   string `json:"name"`
	Unit   string `json:"unit"`
	Better string `json:"better"`
	// Bound is the share of the parent's median by which an end-to-end
	// metric may worsen before a change counts as a regression.
	Bound float64 `json:"bound,omitempty"`
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func readDeclaration(path string) (*declaration, error) {
	var d declaration
	if err := readJSON(path, &d); err != nil {
		return nil, err
	}
	seen := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, d.EndToEnd...), d.PerLayer...) {
		if !metricName.MatchString(m.Name) || seen[m.Name] {
			return nil, fmt.Errorf("%s: bad or repeated metric name %q", path, m.Name)
		}
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better must be higher or lower", path, m.Name)
		}
		seen[m.Name] = true
	}
	if d.RunSeconds < 1 {
		return nil, fmt.Errorf("%s: run_seconds must be positive", path)
	}
	return &d, nil
}

func (d *declaration) hasWorkload(name string) bool {
	for _, w := range d.Workloads {
		if w.Name == name {
			return true
		}
	}
	return false
}

// modeMetrics returns the metrics a run reports: per-layer when traced,
// end-to-end otherwise.
func (d *declaration) modeMetrics(traced bool) []metricDecl {
	if traced {
		return d.PerLayer
	}
	return d.EndToEnd
}

// check reports every metric a run measured that the declaration lacks,
// and every declared metric the run did not measure, so that the code and
// BENCHMARK.json cannot drift apart.
func (d *declaration) check(measured map[string]metric, traced bool) []string {
	var problems []string
	declared := map[string]bool{}
	for _, m := range append(append([]metricDecl{}, d.EndToEnd...), d.PerLayer...) {
		declared[m.Name] = true
	}
	for _, m := range d.modeMetrics(traced) {
		got, ok := measured[m.Name]
		if !ok {
			problems = append(problems, "metric "+m.Name+" was not measured")
		} else if got.Unit != m.Unit {
			problems = append(problems, fmt.Sprintf("metric %s measured in %s, declared in %s", m.Name, got.Unit, m.Unit))
		}
	}
	for name := range measured {
		if !declared[name] {
			problems = append(problems, "metric "+name+" is not declared in BENCHMARK.json")
		}
	}
	sort.Strings(problems)
	return problems
}
