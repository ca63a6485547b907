// Command bench is the repository's benchmark. It measures the simulator
// end to end on four workloads and, in a traced run, layer by layer, by
// timing calls into the simulator's public packages from outside; it never
// changes simulator code. BENCHMARK.json at the repository root declares
// the workloads, the metrics and each end-to-end metric's regression bound.
//
// Run it from the repository root. bench/run.sh builds this package inside
// the checkout and passes its arguments through:
//
//	bash bench/run.sh                          # every workload, each in its own process
//	bash bench/run.sh --trace 1                # ... followed by its traced run
//	bash bench/run.sh --workload mem-bound --seed 3 --trace 0
//	bash bench/run.sh compare PARENT_DIR CHANGE_DIR
//
// Every run measures for BENCHMARK.json's run_seconds, so that the two
// sides of an A/B comparison always run equally long.
//
// A run prints one "workload metric value unit" line per metric and, as its
// last line, the JSON summary {"correct", "attempted", "failed", "metrics"}:
// the end-to-end metrics in an untraced run, the per-layer metrics in a
// traced one. It writes the full result, and in a traced run the spans, to
// the -out directory, and exits 1 when any output check fails.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"

	"repro/internal/workload"
)

func main() {
	os.Exit(mainCode(os.Args[1:], os.Stdout, os.Stderr))
}

func mainCode(args []string, stdout, stderr io.Writer) int {
	root, err := findRoot()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	decl, err := readDeclaration(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if len(args) > 0 && args[0] == "compare" {
		return compareCmd(decl, args[1:], stdout, stderr)
	}

	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run in this process (empty: every workload, each in its own process)")
	seed := fs.Uint64("seed", workload.DefaultSeed, "seed the workload inputs are made from")
	// The benchmark's callers pass the declared run length explicitly; any
	// other length is refused rather than measured.
	seconds := fs.Int("seconds", decl.RunSeconds, "must equal BENCHMARK.json's run_seconds")
	trace := fs.Int("trace", 0, "1 records spans and reports the per-layer metrics instead of the end-to-end ones")
	out := fs.String("out", filepath.Join(root, ".bench_build", "results"), "directory for result, span and temporary files")
	bless := fs.Bool("bless", false, "run one pass and record its simulated outputs as the goldens instead of checking them")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(stderr, "bench: -trace takes 0 or 1")
		return 2
	}
	if *seconds != decl.RunSeconds {
		fmt.Fprintf(stderr, "bench: -seconds is %d, BENCHMARK.json's run_seconds is %d\n", *seconds, decl.RunSeconds)
		return 2
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	if *name == "" {
		return runAll(decl, *seed, *trace == 1, *out, stdout, stderr)
	}

	w, ok := workloadByName(*name)
	if !ok || !decl.hasWorkload(*name) {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", *name)
		return 2
	}
	goldPath := filepath.Join(root, "bench", "golden.json")
	gold, err := readGolden(goldPath)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	o := runOptions{seed: *seed, seconds: float64(decl.RunSeconds), trace: *trace == 1, out: *out, gold: gold}
	if *bless {
		// One pass records every simulated output the goldens hold.
		o.seconds, o.gold = 0, nil
	}
	res, err := execute(decl, w, w.p, o)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if *bless && res.Correct {
		gold.merge(res.Observed)
		if err := writeJSON(goldPath, gold); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	if err := report(decl, res, *out, stdout, stderr); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !res.Correct {
		return 1
	}
	return 0
}

// findRoot returns the repository root: the working directory when run
// through bench/run.sh, its parent under go test or go run in bench/.
func findRoot() (string, error) {
	for _, dir := range []string{".", ".."} {
		if _, err := os.Stat(filepath.Join(dir, "BENCHMARK.json")); err == nil {
			return filepath.Abs(dir)
		}
	}
	return "", errors.New("BENCHMARK.json not found: run from the repository root")
}

// runAll runs every declared workload in its own process, so that no
// workload's heap, GC state or peak RSS leaks into another's numbers.
func runAll(decl *declaration, seed uint64, trace bool, out string, stdout, stderr io.Writer) int {
	exe, err := os.Executable()
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 2
	}
	code := 0
	for _, w := range decl.Workloads {
		modes := []string{"0"}
		if trace {
			modes = append(modes, "1")
		}
		for _, mode := range modes {
			cmd := exec.Command(exe, "--workload", w.Name, "--seed", strconv.FormatUint(seed, 10),
				"--trace", mode, "--out", out)
			cmd.Stdout, cmd.Stderr = stdout, stderr
			if err := cmd.Run(); err != nil {
				fmt.Fprintf(stderr, "bench: %s (trace %s): %v\n", w.Name, mode, err)
				code = 1
			}
		}
	}
	return code
}

// report writes the result file, prints the metric lines and the closing
// JSON summary, and in a traced run prints the tracing overhead against
// the untraced run of the same workload and seed, when one is on file.
func report(decl *declaration, res *result, out string, stdout, stderr io.Writer) error {
	if err := writeJSON(filepath.Join(out, res.fileName()), res); err != nil {
		return err
	}
	shown := decl.modeMetrics(res.Trace)
	names := make([]string, 0, len(shown))
	sum := summary{Correct: res.Correct, Attempted: res.Attempted, Failed: res.Failed, Metrics: map[string]metric{}}
	for _, d := range shown {
		names = append(names, d.Name)
		sum.Metrics[d.Name] = res.Metrics[d.Name]
	}
	sort.Strings(names)
	for _, n := range names {
		m := sum.Metrics[n]
		fmt.Fprintf(stdout, "%s %s %s %s\n", res.Workload, n, strconv.FormatFloat(m.Value, 'f', -1, 64), m.Unit)
	}
	for _, e := range res.Errors {
		fmt.Fprintf(stderr, "bench: %s: check failed: %s\n", res.Workload, e)
	}
	if res.Trace {
		base := &result{Workload: res.Workload, Seed: res.Seed}
		var untraced result
		if readJSON(filepath.Join(out, base.fileName()), &untraced) == nil {
			a, b := untraced.Metrics["jobs_per_s"].Value, res.Metrics["jobs_per_s"].Value
			if a > 0 {
				fmt.Fprintf(stderr, "bench: %s: tracing overhead %.1f%% (jobs_per_s %.4g untraced, %.4g traced)\n",
					res.Workload, 100*(a-b)/a, a, b)
			}
		}
	}
	line, err := json.Marshal(sum)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

func readJSON(path string, v any) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(data, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}
