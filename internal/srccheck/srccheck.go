// Package srccheck is the repo-level static-analysis framework behind the
// ddvet tool. Where internal/analysis proves properties of the *simulated*
// programs, srccheck proves properties of the simulator's own Go source:
// the invariants the differential tests and soaks probe dynamically
// (deterministic results, the package layering DAG, the typed simerr
// failure taxonomy, the zero-allocation hot loop) are checked statically on
// every commit.
//
// The framework is dependency-free: it loads the module with the standard
// go/parser + go/types toolchain (stdlib imports are type-checked from
// $GOROOT source), runs a pluggable set of checkers, and reports findings
// with file:line anchors, rule ids and reason chains. A committed baseline
// file grandfathers pre-existing findings; anything new fails the run.
//
// Checkers ship in this package:
//
//   - determinism (determinism.go): wall-clock reads, unseeded randomness
//     and order-sensitive map iteration in simulation-state or
//     output-producing packages.
//   - layering (layering.go): the declared package DAG — leaf packages,
//     transitively-forbidden edges, restricted importers.
//   - errors (errors.go): the simerr taxonomy — no naked fmt.Errorf or
//     ad-hoc errors.New on error paths that cross package boundaries.
//   - hotpath (hotpath.go): functions annotated //ddvet:hotpath must not
//     contain allocation-inducing constructs, cross-validated against the
//     compiler's -gcflags=-m escape analysis (escapes.go).
//
// Inline suppression uses //ddvet:allow <rule> -- <reason>; an allow
// without a reason is itself a finding.
package srccheck

import (
	"fmt"
	"sort"
)

// Severity orders findings; today every rule reports at SevError and the
// field exists so informational rules can be added without a schema break.
type Severity string

const (
	SevError Severity = "error"
	SevInfo  Severity = "info"
)

// Finding is one rule violation at one source position.
type Finding struct {
	Rule     string   `json:"rule"`
	Severity Severity `json:"severity"`
	// File is the path relative to the module root; Line/Col are 1-based.
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
	// Package is the import path; Symbol the enclosing function or method
	// (receiver-qualified), empty at file scope.
	Package string `json:"package"`
	Symbol  string `json:"symbol,omitempty"`
	Message string `json:"message"`
	// Reason is the chain of evidence: for a layering violation the import
	// path sequence, for a determinism finding what makes the loop body
	// order-sensitive, for an escape finding the compiler's own words.
	Reason []string `json:"reason,omitempty"`
	// Baselined marks a finding grandfathered by the baseline file; it is
	// reported but does not fail the run.
	Baselined bool `json:"baselined"`
}

func (f Finding) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s: %s", f.File, f.Line, f.Col, f.Rule, f.Message)
	for _, r := range f.Reason {
		s += "\n\t" + r
	}
	return s
}

// key is the baseline identity of a finding: everything except the line and
// column, so a finding survives unrelated edits to its file.
func (f Finding) key() string {
	return f.Rule + "\x00" + f.File + "\x00" + f.Symbol + "\x00" + f.Message
}

// LayerRule is one declared constraint on the package DAG. Pkg and the
// package lists are module-root-relative import paths ("internal/simerr").
type LayerRule struct {
	// Kind selects the constraint:
	//   "leaf":      Pkg must import no module-internal package at all.
	//   "forbid":    Pkg must not reach any package in Deny, transitively.
	//   "only-from": Pkg may be imported only by packages matching a From
	//                prefix ("cmd/" matches every command).
	Kind string
	Pkg  string
	Deny []string
	From []string
}

// Config selects what the checkers look at. Package lists are
// module-root-relative paths.
type Config struct {
	// DetPackages hold simulation state or produce simulation output:
	// wall-clock reads and unseeded randomness are forbidden there.
	DetPackages []string
	// OutputPackages are additionally checked for order-sensitive map
	// iteration (serialized output must be byte-stable across runs).
	OutputPackages []string
	// ConcPackages fan results in from concurrent producers: ranging over
	// a channel there must not accumulate into a slice in arrival order
	// (scheduling order would leak into output). The conforming idioms are
	// indexed writes into pre-sized slices and collect-then-sort.
	ConcPackages []string
	// ErrPackages carry the simerr taxonomy across package boundaries: no
	// naked fmt.Errorf, no ad-hoc errors.New inside function bodies.
	ErrPackages []string
	// Layering is the declared package DAG.
	Layering []LayerRule
	// Escapes is parsed -gcflags=-m compiler output for the hotpath
	// checker's cross-validation; nil skips that rule (AST rules still run).
	Escapes []EscapeDiag
	// Rules, when non-nil, enables only the named checkers
	// (determinism/layering/errors/hotpath).
	Rules map[string]bool
}

// DefaultConfig returns the rule set for this repository: the invariants
// DESIGN.md documents and the dynamic test suites probe.
func DefaultConfig() *Config {
	return &Config{
		DetPackages: []string{
			"internal/core", "internal/memsys", "internal/sched",
			"internal/emu", "internal/stats", "internal/experiments",
		},
		// serve's and sweep's wall-clock/jitter use is legitimate service
		// plumbing, but their serialized output (/statz, job results, figure
		// JSON, census) must be byte-stable.
		OutputPackages: []string{"internal/serve", "internal/sweep"},
		// The service worker pool, the sweep coordinator and the
		// experiment runner's batches collect results from concurrent
		// goroutines: arrival order must never reach a slice.
		ConcPackages: []string{"internal/serve", "internal/sweep", "internal/experiments"},
		ErrPackages: []string{
			"internal/core", "internal/serve", "internal/experiments",
		},
		Layering: []LayerRule{
			// simerr is the shared error vocabulary: a leaf by design, so
			// the core, the runner and the facade can all use it without
			// cycles.
			{Kind: "leaf", Pkg: "internal/simerr"},
			// The mechanism packages must not know about the machine that
			// drives them.
			{Kind: "forbid", Pkg: "internal/memsys", Deny: []string{"internal/core"}},
			{Kind: "forbid", Pkg: "internal/sched", Deny: []string{"internal/core", "internal/memsys"}},
			// The core is below the service and experiment layers.
			{Kind: "forbid", Pkg: "internal/core", Deny: []string{"internal/serve", "internal/experiments"}},
			// The emulator is the architectural reference: it must not
			// depend on any timing machinery.
			{Kind: "forbid", Pkg: "internal/emu", Deny: []string{"internal/core", "internal/memsys", "internal/sched"}},
			// cliutil is flag-surface glue for the commands only.
			{Kind: "only-from", Pkg: "internal/cliutil", From: []string{"cmd/"}},
		},
	}
}

// checker is one analysis pass.
type checker struct {
	name string
	run  func(*Module, *Config) []Finding
}

var checkers = []checker{
	{"determinism", checkDeterminism},
	{"layering", checkLayering},
	{"errors", checkErrors},
	{"hotpath", checkHotpath},
}

// CheckerNames lists the available checkers in execution order.
func CheckerNames() []string {
	names := make([]string, len(checkers))
	for i, c := range checkers {
		names[i] = c.name
	}
	return names
}

// Run loads the module rooted at root and applies every enabled checker.
// Findings come back sorted (file, line, col, rule) with allow directives
// already applied; the baseline is the caller's concern (see Baseline).
func Run(root string, cfg *Config) (*Module, []Finding, error) {
	mod, err := Load(root)
	if err != nil {
		return nil, nil, err
	}
	return mod, RunModule(mod, cfg), nil
}

// RunModule applies every enabled checker to an already-loaded module.
func RunModule(mod *Module, cfg *Config) []Finding {
	var all []Finding
	for _, c := range checkers {
		if cfg.Rules != nil && !cfg.Rules[c.name] {
			continue
		}
		all = append(all, c.run(mod, cfg)...)
	}
	all = append(all, mod.directiveFindings()...)
	all = mod.applyAllows(all)
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		// Same rule at the same position (one import spec violating two
		// layer constraints): break the tie on the message so the order
		// never depends on sort-internal pivot choices.
		return a.Message < b.Message
	})
	return all
}

// pkgListed reports whether the package's module-relative path is in list.
func pkgListed(relPath string, list []string) bool {
	for _, p := range list {
		if relPath == p {
			return true
		}
	}
	return false
}
