package sweep

import (
	"errors"
	"strings"
	"testing"
)

func TestParseSpecSchemaGate(t *testing.T) {
	if _, err := ParseSpec([]byte(`{"schema":"sweep/v0","workloads":["li"],"ports":["2+0"]}`)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("stale schema: got %v, want ErrBadSpec", err)
	}
	if _, err := ParseSpec([]byte(`{not json`)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("bad JSON: got %v, want ErrBadSpec", err)
	}
	// An unknown field fails instead of silently leaving its axis at the
	// default: a misspelt "steering" would otherwise sweep hint steering.
	for _, body := range []string{
		`{"schema":"sweep/v1","workloads":["li"],"ports":["2+0"],"steer":["sp"]}`,
		`{"schema":"sweep/v1","workloads":["li"],"ports":["2+0"],"engines":["tick"]}`,
	} {
		if _, err := ParseSpec([]byte(body)); !errors.Is(err, ErrBadSpec) {
			t.Fatalf("unknown field in %s: got %v, want ErrBadSpec", body, err)
		}
	}
	if _, err := ParseSpec([]byte(`{"schema":"sweep/v1","workloads":["li"],"ports":["2+0"]} {}`)); !errors.Is(err, ErrBadSpec) {
		t.Fatalf("data after the spec: got %v, want ErrBadSpec", err)
	}
	s, err := ParseSpec([]byte(`{"schema":"sweep/v1","workloads":["li"],"ports":["2+0"]}`))
	if err != nil {
		t.Fatalf("valid spec rejected: %v", err)
	}
	if len(s.Workloads) != 1 || s.Workloads[0] != "li" {
		t.Fatalf("workloads not decoded: %+v", s)
	}
}

func TestPointsExpansionAndDefaults(t *testing.T) {
	s := &Spec{Schema: SpecSchema, Workloads: []string{"li", "go"}, Ports: []string{"2+0", "3+2"}}
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 4 {
		t.Fatalf("got %d points, want 4", len(points))
	}
	for i := 1; i < len(points); i++ {
		if points[i-1].Key >= points[i].Key {
			t.Fatalf("points not strictly sorted: %q then %q", points[i-1].Key, points[i].Key)
		}
	}
	for _, p := range points {
		if p.steering() != "hint" || p.Mode != "base" {
			t.Fatalf("defaults not applied: %+v", p)
		}
		if !strings.Contains(p.Key, p.GP.Workload) {
			t.Fatalf("key %q missing workload", p.Key)
		}
	}
	// Defaulted axes must have been filled in (the spec ID hashes them).
	if len(s.Steering) != 1 || len(s.Modes) != 1 || s.Scale != 1.0 {
		t.Fatalf("normalize did not fill defaults: %+v", s)
	}
}

func TestPointsModes(t *testing.T) {
	s := &Spec{
		Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"},
		Steering: []string{"hint", "sp"}, Modes: []string{"base", "opt", "static"},
	}
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 6 {
		t.Fatalf("got %d points, want 6", len(points))
	}
	modes := map[string]int{}
	for _, p := range points {
		modes[p.Mode]++
		switch p.Mode {
		case "base":
			if p.GP.Opt || p.GP.StaticOpt {
				t.Fatalf("base point has optimizations on: %+v", p.GP)
			}
		case "opt":
			if !p.GP.Opt || p.GP.StaticOpt {
				t.Fatalf("opt point mismapped: %+v", p.GP)
			}
		case "static":
			if !p.GP.StaticOpt {
				t.Fatalf("static point mismapped: %+v", p.GP)
			}
		}
	}
	if modes["base"] != 2 || modes["opt"] != 2 || modes["static"] != 2 {
		t.Fatalf("mode counts wrong: %v", modes)
	}
}

func TestPointsExclusion(t *testing.T) {
	s := &Spec{
		Schema: SpecSchema, Workloads: []string{"li", "go"}, Ports: []string{"2+0", "3+2"},
		Exclude: []Exclusion{{Workload: "go", Ports: "3+2"}},
	}
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 3 {
		t.Fatalf("got %d points, want 3 after exclusion", len(points))
	}
	for _, p := range points {
		if p.GP.Workload == "go" && p.GP.Ports == "3+2" {
			t.Fatalf("excluded point survived: %q", p.Key)
		}
	}

	// A wildcard field matches anything: excluding workload "li" alone
	// drops every li point.
	s2 := &Spec{
		Schema: SpecSchema, Workloads: []string{"li", "go"}, Ports: []string{"2+0", "3+2"},
		Exclude: []Exclusion{{Workload: "li"}},
	}
	points2, err := s2.Points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points2 {
		if p.GP.Workload == "li" {
			t.Fatalf("wildcard exclusion missed %q", p.Key)
		}
	}
	if len(points2) != 2 {
		t.Fatalf("got %d points, want 2", len(points2))
	}
}

func TestPointsDedup(t *testing.T) {
	s := &Spec{Schema: SpecSchema, Workloads: []string{"li", "li"}, Ports: []string{"2+0"}}
	points, err := s.Points()
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 1 {
		t.Fatalf("duplicate axis entries not collapsed: %d points", len(points))
	}
}

func TestPointsErrors(t *testing.T) {
	cases := []struct {
		name string
		spec Spec
	}{
		{"no workloads", Spec{Schema: SpecSchema, Ports: []string{"2+0"}}},
		{"no ports", Spec{Schema: SpecSchema, Workloads: []string{"li"}}},
		{"unknown workload", Spec{Schema: SpecSchema, Workloads: []string{"nope"}, Ports: []string{"2+0"}}},
		{"bad ports", Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"banana"}}},
		{"bad steering", Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}, Steering: []string{"psychic"}}},
		{"bad mode", Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}, Modes: []string{"turbo"}}},
		{"negative scale", Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}, Scale: -1}},
		{"all excluded", Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}, Exclude: []Exclusion{{}}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := tc.spec.Points(); !errors.Is(err, ErrBadSpec) {
				t.Fatalf("got %v, want ErrBadSpec", err)
			}
		})
	}
}

func TestSpecID(t *testing.T) {
	a := &Spec{Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"}}
	// Explicitly writing the defaults must hash identically: the ID is of
	// the normalized spec, so a checkpoint stays valid when a user later
	// spells out what was implicit.
	b := &Spec{
		Schema: SpecSchema, Workloads: []string{"li"}, Ports: []string{"2+0"},
		Steering: []string{"hint"}, Modes: []string{"base"}, Scale: 1.0,
	}
	if a.ID() != b.ID() {
		t.Fatalf("normalized IDs differ: %s vs %s", a.ID(), b.ID())
	}
	c := &Spec{Schema: SpecSchema, Workloads: []string{"go"}, Ports: []string{"2+0"}}
	if a.ID() == c.ID() {
		t.Fatal("different grids share an ID")
	}
	if a.ID() != a.ID() {
		t.Fatal("ID not stable")
	}
}
