package main

import (
	"bytes"
	"encoding/json"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"repro/internal/workload"
)

// tiny shrinks every workload so that the smoke test runs all four, both
// untraced and traced, in a few seconds.
var tiny = map[string]params{
	"core-dense": {scale: 0.02, cfg: paperConfig(), programs: []string{"li", "m88ksim"}},
	"mem-bound":  {scale: 0.02, cfg: memConfig(), programs: []string{"compress", "swim"}},
	"figures":    {scale: 0.02, cfg: paperConfig(), programs: []string{"li", "swim"}, experiments: []string{"fig2", "table3"}},
	"serve-mix":  {scale: 0.02, cfg: paperConfig(), programs: []string{"li", "m88ksim"}, prewarm: 1},
}

func declared(t *testing.T) *declaration {
	t.Helper()
	decl, err := readDeclaration("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return decl
}

func runTiny(t *testing.T, decl *declaration, name string, o runOptions) (*result, string) {
	t.Helper()
	w, ok := workloadByName(name)
	if !ok {
		t.Fatalf("workload %s is declared but not defined", name)
	}
	if o.out == "" {
		o.out = t.TempDir()
	}
	res, err := execute(decl, w, tiny[name], o)
	if err != nil {
		t.Fatal(err)
	}
	var stdout, stderr bytes.Buffer
	if err := report(decl, res, o.out, &stdout, &stderr); err != nil {
		t.Fatal(err)
	}
	return res, stdout.String()
}

// TestSmoke runs every declared workload at tiny size, untraced and
// traced, and checks that each passes its output checks and prints
// exactly the declared metrics, with well-formed names, both as lines and
// in the closing JSON summary.
func TestSmoke(t *testing.T) {
	decl := declared(t)
	valid := regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)
	for _, w := range decl.Workloads {
		for _, traced := range []bool{false, true} {
			o := runOptions{seed: workload.DefaultSeed, seconds: 0.3, trace: traced}
			res, out := runTiny(t, decl, w.Name, o)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s (traced %v): correct=%v attempted=%d failed=%d errors=%q",
					w.Name, traced, res.Correct, res.Attempted, res.Failed, res.Errors)
			}
			var want []string
			for _, m := range decl.modeMetrics(traced) {
				want = append(want, m.Name)
			}
			sort.Strings(want)

			lines := strings.Split(strings.TrimSpace(out), "\n")
			var printed []string
			for _, l := range lines[:len(lines)-1] {
				f := strings.Fields(l)
				if len(f) != 4 || f[0] != w.Name {
					t.Fatalf("%s: malformed metric line %q", w.Name, l)
				}
				if !valid.MatchString(f[1]) {
					t.Errorf("%s: metric name %q has characters outside [A-Za-z0-9_.-]", w.Name, f[1])
				}
				printed = append(printed, f[1])
			}
			sort.Strings(printed)
			if strings.Join(printed, " ") != strings.Join(want, " ") {
				t.Errorf("%s (traced %v): printed metrics\n%v\nwant the declared\n%v", w.Name, traced, printed, want)
			}

			var sum map[string]json.RawMessage
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &sum); err != nil {
				t.Fatalf("%s: last line is not JSON: %v", w.Name, err)
			}
			var metrics map[string]metric
			if err := json.Unmarshal(sum["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(sum) != 4 || len(metrics) != len(want) {
				t.Errorf("%s: summary has keys %v and %d metrics, want 4 keys and %d metrics",
					w.Name, keys(sum), len(metrics), len(want))
			}
		}
	}
}

func keys[V any](m map[string]V) []string {
	var ks []string
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// TestCorruptedGoldenFails shows the golden check is wired into the
// verdict: a run against its own recorded outputs passes, and the same
// run fails against a golden with one count changed or one key missing,
// and against a figure golden that is missing.
func TestCorruptedGoldenFails(t *testing.T) {
	decl := declared(t)
	o := runOptions{seed: workload.DefaultSeed, seconds: 0}
	first, _ := runTiny(t, decl, "core-dense", o)
	if !first.Correct || len(first.Observed.Sims) == 0 || !first.Observed.recorded(o.seed) {
		t.Fatalf("recording run: correct=%v, %d simulations observed, seeds %v",
			first.Correct, len(first.Observed.Sims), first.Observed.Seeds)
	}

	o.gold = first.Observed
	if res, _ := runTiny(t, decl, "core-dense", o); !res.Correct {
		t.Fatalf("run against its own goldens failed: %q", res.Errors)
	}

	for _, c := range []struct {
		name    string
		corrupt func(g *golden, key string)
	}{
		{"one count changed", func(g *golden, key string) {
			v := g.Sims[key]
			v.Cycles++
			g.Sims[key] = v
		}},
		{"one key missing", func(g *golden, key string) { delete(g.Sims, key) }},
	} {
		g := newGolden()
		g.merge(first.Observed)
		c.corrupt(g, keys(g.Sims)[0])
		o.gold = g
		res, _ := runTiny(t, decl, "core-dense", o)
		if res.Correct || !strings.Contains(strings.Join(res.Errors, "\n"), "golden") {
			t.Errorf("%s: correct=%v errors=%q", c.name, res.Correct, res.Errors)
		}
	}

	o.gold = newGolden()
	if res, _ := runTiny(t, decl, "figures", o); res.Correct || !strings.Contains(strings.Join(res.Errors, "\n"), "no golden") {
		t.Errorf("figures without a golden: correct=%v errors=%q", res.Correct, res.Errors)
	}
}

// TestRunLengthIsDeclared shows that a run cannot measure for another
// length than BENCHMARK.json's run_seconds.
func TestRunLengthIsDeclared(t *testing.T) {
	decl := declared(t)
	var stdout, stderr bytes.Buffer
	args := []string{"--workload", "core-dense", "--seconds", strconv.Itoa(decl.RunSeconds + 1), "--out", t.TempDir()}
	if code := mainCode(args, &stdout, &stderr); code != 2 || stdout.Len() != 0 {
		t.Fatalf("exit %d, stdout %q; want exit 2 and no result", code, stdout.String())
	}
}

// TestQuartilesMatchPython pins quartiles to statistics.quantiles(xs, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{10, 1, 5, 3}, 1.5, 8.75},
		{[]float64{4, 2}, 1.5, 4.5},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v; want %v, %v", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

func synthetic(workloadName string, values map[string][]float64) map[string]map[uint64]*result {
	out := map[string]map[uint64]*result{workloadName: {}}
	for metricName, vs := range values {
		for i, v := range vs {
			seed := uint64(i + 1)
			r := out[workloadName][seed]
			if r == nil {
				r = &result{Workload: workloadName, Seed: seed, summary: summary{Metrics: map[string]metric{}}}
				out[workloadName][seed] = r
			}
			r.Metrics[metricName] = metric{Value: v}
		}
	}
	return out
}

func TestCompareVerdicts(t *testing.T) {
	decl := &declaration{
		Workloads: []workloadDecl{{Name: "w"}},
		EndToEnd: []metricDecl{
			{Name: "rate", Better: "higher", Bound: 0.1},
			{Name: "latency", Better: "lower", Bound: 0.1},
		},
	}
	steady := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	noisy := []float64{70, 130, 80, 120, 75, 125, 100, 90, 110, 100}
	for _, c := range []struct {
		name           string
		metric         string
		parent, change []float64
		want           string
	}{
		{"same numbers", "rate", steady, steady, verdictNoChange},
		{"rate dropped 20%", "rate", steady, scale(steady, 0.8), verdictRegression},
		{"latency rose 20%", "latency", steady, scale(steady, 1.2), verdictRegression},
		{"rate up 5% on every seed", "rate", steady, scale(steady, 1.05), verdictGain},
		{"latency down 5% on every seed", "latency", steady, scale(steady, 0.95), verdictGain},
		{"within the bound but spread is wider", "rate", noisy, scale(noisy, 0.97), verdictUnresolved},
		{"wide spread but every change run better", "rate", noisy, scale(steady, 1.6), verdictGain},
		{"rate up 5% on half the seeds", "rate", steady, append(scale(steady[:5], 1.05), steady[5:]...), verdictNoChange},
	} {
		rows := compareResults(decl, synthetic("w", map[string][]float64{c.metric: c.parent}),
			synthetic("w", map[string][]float64{c.metric: c.change}))
		for _, r := range rows {
			if r.metric == c.metric && r.verdict != c.want {
				t.Errorf("%s: verdict %q, want %q (%s)", c.name, r.verdict, c.want, r)
			}
		}
	}
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
