package main

import (
	"fmt"
	"io"
	"math"
	"path/filepath"
	"sort"
	"strings"
)

// compareCmd is "bench compare PARENT_DIR CHANGE_DIR": both directories
// hold untraced result files from runs of the same workloads and seeds,
// one side made by the parent commit and one by the change. It prints a
// verdict for every (workload, end-to-end metric) and exits 1 when any is
// a regression, 2 when the inputs are unusable.
func compareCmd(decl *declaration, args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "usage: bench compare PARENT_DIR CHANGE_DIR")
		return 2
	}
	parent, err := loadResults(args[0])
	if err == nil && len(parent) == 0 {
		err = fmt.Errorf("%s: no untraced result files", args[0])
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	change, err := loadResults(args[1])
	if err != nil {
		fmt.Fprintln(stderr, "bench compare:", err)
		return 2
	}
	rows := compareResults(decl, parent, change)
	fmt.Fprintf(stdout, "%-10s %-16s %-26s %-26s %8s %7s  %s\n",
		"workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "change", "wins", "verdict")
	code := 0
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
		if r.verdict == verdictRegression {
			code = 1
		}
	}
	return code
}

// loadResults reads the untraced result files of dir, by workload and seed.
func loadResults(dir string) (map[string]map[uint64]*result, error) {
	paths, err := filepath.Glob(filepath.Join(dir, "*.json"))
	if err != nil {
		return nil, err
	}
	out := map[string]map[uint64]*result{}
	for _, p := range paths {
		if strings.HasSuffix(p, ".spans.json") {
			continue
		}
		var r result
		if err := readJSON(p, &r); err != nil {
			return nil, err
		}
		if r.Trace || r.Workload == "" {
			continue
		}
		if out[r.Workload] == nil {
			out[r.Workload] = map[uint64]*result{}
		}
		out[r.Workload][r.Seed] = &r
	}
	return out, nil
}

const (
	verdictRegression = "REGRESSION"
	verdictUnresolved = "unresolved"
	verdictGain       = "gain"
	verdictNoChange   = "no change"
	verdictMissing    = "missing"
)

// compareRow is the verdict on one (workload, metric) pairing.
type compareRow struct {
	workload, metric string
	parent, change   []float64
	wins, pairs      int
	delta            float64 // signed (change - parent) / parent median
	verdict          string
}

func (r compareRow) String() string {
	side := func(xs []float64) string {
		if len(xs) == 0 {
			return "-"
		}
		q1, q3 := quartiles(xs)
		return fmt.Sprintf("%.4g [%.4g, %.4g]", median(xs), q1, q3)
	}
	return fmt.Sprintf("%-10s %-16s %-26s %-26s %+7.1f%% %3d/%-3d  %s",
		r.workload, r.metric, side(r.parent), side(r.change), 100*r.delta, r.wins, r.pairs, r.verdict)
}

// compareResults applies the declared bounds and the pairing rule to every
// (workload, end-to-end metric):
//
//   - REGRESSION: the change's median is worse than the parent's by more
//     than the metric's bound.
//   - unresolved: otherwise, when the parent's own quartile spread is
//     wider than the bound, unless every change run beats every parent
//     run.
//   - gain: the change wins at least 9 in 10 seed-paired runs, ties
//     counting for neither side, and the medians differ by more than the
//     parent's quartile spread.
//   - no change: anything else.
func compareResults(decl *declaration, parent, change map[string]map[uint64]*result) []compareRow {
	var rows []compareRow
	for _, w := range decl.Workloads {
		seeds := make([]uint64, 0, len(parent[w.Name]))
		for s := range parent[w.Name] {
			seeds = append(seeds, s)
		}
		sort.Slice(seeds, func(i, j int) bool { return seeds[i] < seeds[j] })
		for _, m := range decl.EndToEnd {
			row := compareRow{workload: w.Name, metric: m.Name}
			sign := 1.0 // > 0 when larger is better
			if m.Better == "lower" {
				sign = -1
			}
			for _, s := range seeds {
				pm, ok := parent[w.Name][s].Metrics[m.Name]
				if !ok {
					continue
				}
				row.parent = append(row.parent, pm.Value)
				c, ok := change[w.Name][s]
				if !ok {
					continue
				}
				cm, ok := c.Metrics[m.Name]
				if !ok {
					continue
				}
				row.change = append(row.change, cm.Value)
				row.pairs++
				if sign*(cm.Value-pm.Value) > 0 {
					row.wins++
				}
			}
			row.verdict = verdict(&row, sign, m.Bound)
			rows = append(rows, row)
		}
	}
	return rows
}

func verdict(r *compareRow, sign, bound float64) string {
	if len(r.parent) == 0 || len(r.change) == 0 {
		return verdictMissing
	}
	pm, cm := median(r.parent), median(r.change)
	q1, q3 := quartiles(r.parent)
	r.delta = (cm - pm) / math.Abs(pm)
	worse := -sign * r.delta
	allBetter := true
	for _, c := range r.change {
		for _, p := range r.parent {
			if sign*(c-p) <= 0 {
				allBetter = false
			}
		}
	}
	switch {
	case worse > bound:
		return verdictRegression
	case (q3-q1)/math.Abs(pm) > bound && !allBetter:
		return verdictUnresolved
	case 10*r.wins >= 9*r.pairs && worse < 0 && math.Abs(cm-pm) > q3-q1:
		return verdictGain
	}
	return verdictNoChange
}
