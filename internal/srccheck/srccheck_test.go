package srccheck

import (
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// loadFixture loads a testdata module and runs the full checker set with
// its canned escape-analysis output.
func loadFixture(t *testing.T, name string) (*Module, []Finding) {
	t.Helper()
	root := filepath.Join("testdata", name)
	cfg := DefaultConfig()
	if data, err := os.ReadFile(filepath.Join(root, "escapes.txt")); err == nil {
		cfg.Escapes = ParseEscapes(data)
	}
	mod, findings, err := Run(root, cfg)
	if err != nil {
		t.Fatalf("Run(%s): %v", root, err)
	}
	return mod, findings
}

// TestViolationsFixture: the seeded-violation module must produce at least
// one finding for every rule the suite ships — the self-test that no
// checker silently stops firing.
func TestViolationsFixture(t *testing.T) {
	_, findings := loadFixture(t, "violations")
	byRule := map[string][]Finding{}
	for _, f := range findings {
		byRule[f.Rule] = append(byRule[f.Rule], f)
	}
	wantRules := []string{
		"det-time-now", "det-rand", "det-map-iter", "det-goroutine-order",
		"layer-leaf", "layer-forbid", "layer-only-from",
		"err-naked-errorf", "err-adhoc-new",
		"hotpath-alloc", "hotpath-append", "hotpath-closure", "hotpath-fmt",
		"hotpath-escape",
		"allow-malformed",
	}
	for _, rule := range wantRules {
		if len(byRule[rule]) == 0 {
			t.Errorf("rule %s: no finding from the seeded fixture", rule)
		}
	}
	for _, f := range findings {
		if f.File == "" || f.Line == 0 || f.Package == "" || f.Message == "" || f.Severity == "" {
			t.Errorf("finding missing required fields: %+v", f)
		}
	}
	if !sort.SliceIsSorted(findings, func(i, j int) bool {
		a, b := findings[i], findings[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Rule < b.Rule
	}) {
		t.Error("findings are not position-sorted")
	}
}

// TestViolationsDetail pins the load-bearing specifics: the malformed
// allow does not suppress, the transitive layer chain is rendered, the
// map-iter rule reaches the serve output package, and canned escape diags
// land in the annotated function.
func TestViolationsDetail(t *testing.T) {
	_, findings := loadFixture(t, "violations")
	find := func(rule, file string) []Finding {
		var out []Finding
		for _, f := range findings {
			if f.Rule == rule && f.File == file {
				out = append(out, f)
			}
		}
		return out
	}

	// The reasonless //ddvet:allow must not suppress the det-time-now on
	// its following line: two time-now findings in core.go.
	if got := find("det-time-now", "internal/core/core.go"); len(got) != 2 {
		t.Errorf("det-time-now in core.go: got %d findings, want 2 (malformed allow must not suppress)", len(got))
	}
	if got := find("allow-malformed", "internal/core/core.go"); len(got) != 1 {
		t.Errorf("allow-malformed in core.go: got %d findings, want 1", len(got))
	}

	// emu -> memsys -> core renders the transitive chain.
	var chained bool
	for _, f := range find("layer-forbid", "internal/emu/emu.go") {
		for _, r := range f.Reason {
			if strings.Contains(r, "internal/emu -> internal/memsys -> internal/core") {
				chained = true
			}
		}
	}
	if !chained {
		t.Error("layer-forbid for emu lacks the transitive import chain in its reason")
	}

	// Output packages are in det-map-iter scope even though wall-clock is
	// allowed there.
	if got := find("det-map-iter", "internal/serve/serve.go"); len(got) != 1 {
		t.Errorf("det-map-iter in serve.go: got %d, want 1", len(got))
	}
	if got := find("det-time-now", "internal/serve/serve.go"); len(got) != 0 {
		t.Errorf("det-time-now must not apply to output-only packages, got %d", len(got))
	}

	// Concurrent-collection packages are in det-goroutine-order scope: the
	// arrival-order append fires and names the slice in its reason chain.
	gor := find("det-goroutine-order", "internal/serve/serve.go")
	if len(gor) != 1 {
		t.Errorf("det-goroutine-order in serve.go: got %d, want 1", len(gor))
	} else {
		var named bool
		for _, r := range gor[0].Reason {
			if strings.Contains(r, "appends to out") {
				named = true
			}
		}
		if !named {
			t.Errorf("det-goroutine-order reason chain does not name the slice: %v", gor[0].Reason)
		}
	}

	// Canned escape diags inside the annotated Drain become findings; the
	// inline/no-escape noise does not.
	if got := find("hotpath-escape", "internal/emu/emu.go"); len(got) != 2 {
		t.Errorf("hotpath-escape: got %d, want 2 (make + func literal)", len(got))
	}

	// The string([]byte(s)) double conversion yields two alloc findings on
	// one line, plus literal/concat/make sites elsewhere.
	if got := find("hotpath-alloc", "internal/emu/emu.go"); len(got) < 4 {
		t.Errorf("hotpath-alloc: got %d, want >= 4", len(got))
	}
}

// TestCleanFixture: every conforming idiom — sorted map iteration,
// commutative reductions, seeded rand, reasoned allows, panic messages in
// hot paths, allocation outside annotated functions — must pass silently.
func TestCleanFixture(t *testing.T) {
	_, findings := loadFixture(t, "clean")
	for _, f := range findings {
		t.Errorf("clean fixture produced a finding: %s", f)
	}
}

// TestRulesSubset: disabling checkers suppresses their findings.
func TestRulesSubset(t *testing.T) {
	root := filepath.Join("testdata", "violations")
	cfg := DefaultConfig()
	cfg.Rules = map[string]bool{"layering": true}
	_, findings, err := Run(root, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(findings) == 0 {
		t.Fatal("layering-only run found nothing")
	}
	for _, f := range findings {
		if !strings.HasPrefix(f.Rule, "layer-") && f.Rule != "allow-malformed" {
			t.Errorf("unexpected rule %s with layering-only subset", f.Rule)
		}
	}
}

// TestRepoIsClean is the dogfood gate: the repository this checker ships
// in must satisfy its own invariants (AST rules; the compiler
// cross-validation runs in CI where a go toolchain build is guaranteed).
func TestRepoIsClean(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	_, findings, err := Run("../..", DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Errorf("repo finding: %s", f)
	}
}

// TestLoadRepo sanity-checks the loader on the real module: the known
// packages exist, file names are root-relative, and the hotpath
// annotations on the engine are seen.
func TestLoadRepo(t *testing.T) {
	if testing.Short() {
		t.Skip("type-checks the whole module")
	}
	mod, err := Load("../..")
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"internal/core", "internal/memsys", "internal/emu", "internal/simerr", "cmd/ddvet"} {
		if mod.ByRel[want] == nil {
			t.Errorf("loader missed package %s", want)
		}
	}
	var symbols []string
	for _, hp := range mod.hotpaths {
		symbols = append(symbols, hp.pkg.RelPath+"."+funcSymbol(hp.decl))
	}
	for _, want := range []string{
		"internal/core.(*Core).cycle",
		"internal/memsys.(*Stream).Grant",
		"internal/core.(*Core).nextEvent",
	} {
		found := false
		for _, s := range symbols {
			if s == want {
				found = true
			}
		}
		if !found {
			t.Errorf("hotpath annotation on %s not seen (have %v)", want, symbols)
		}
	}
}
