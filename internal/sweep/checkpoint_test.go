package sweep

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// The checkpoint lifecycle contract (mirroring the service disk cache):
// a checkpoint only saves work, so every defective file — truncated,
// corrupt, stale schema, another sweep's — degrades to a counted, logged,
// empty checkpoint. Never a crash, never a *silent* full re-run.

func testPoint(key string) *FigurePoint {
	return &FigurePoint{Key: key, Workload: "li", Ports: "(2+0)", Steering: "hint",
		Mode: "base", Cycles: 1234, Committed: 567, IPC: 0.46}
}

func TestCheckpointRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	var log strings.Builder

	ck, resumed := openCheckpoint(path, "spec1", false, &log)
	if resumed != 0 || ck.resets != 0 {
		t.Fatalf("fresh checkpoint: resumed=%d resets=%d", resumed, ck.resets)
	}
	ck.record(testPoint("a"))
	ck.record(testPoint("b"))
	if ck.writeErrs != 0 {
		t.Fatalf("persist failed %d times", ck.writeErrs)
	}

	ck2, resumed := openCheckpoint(path, "spec1", true, &log)
	if resumed != 2 {
		t.Fatalf("resumed %d points, want 2", resumed)
	}
	if fp := ck2.completed("a"); fp == nil || fp.Cycles != 1234 {
		t.Fatalf("point a not carried over: %+v", fp)
	}
	if ck2.completed("missing") != nil {
		t.Fatal("phantom completed point")
	}
	if !strings.Contains(log.String(), "resuming from") {
		t.Fatalf("resume not logged: %q", log.String())
	}
}

func TestCheckpointMissingFile(t *testing.T) {
	var log strings.Builder
	ck, resumed := openCheckpoint(filepath.Join(t.TempDir(), "none.json"), "s", true, &log)
	if resumed != 0 || ck.resets != 0 {
		t.Fatalf("missing file: resumed=%d resets=%d", resumed, ck.resets)
	}
	if !strings.Contains(log.String(), "full run") {
		t.Fatalf("missing checkpoint not logged: %q", log.String())
	}
}

// Every defect class heals to a counted, logged empty checkpoint.
func TestCheckpointSelfHealing(t *testing.T) {
	valid := func() []byte {
		data, _ := json.Marshal(checkpointData{
			Schema: CheckpointSchema, SpecID: "spec1",
			Points: map[string]*FigurePoint{"a": testPoint("a")},
		})
		return data
	}
	cases := []struct {
		name    string
		content []byte
		wantLog string
	}{
		{"corrupt", []byte("{{{{not json"), "corrupt or truncated"},
		{"truncated", valid()[:20], "corrupt or truncated"},
		{"empty file", nil, "corrupt or truncated"},
		{"stale schema", []byte(`{"schema":"sweepckpt/v0","spec_id":"spec1","points":{}}`), "stale schema"},
		{"wrong spec", []byte(`{"schema":"sweepckpt/v1","spec_id":"other","points":{}}`), "belongs to spec"},
		{"no point table", []byte(`{"schema":"sweepckpt/v1","spec_id":"spec1"}`), "no point table"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "ck.json")
			if err := os.WriteFile(path, tc.content, 0o644); err != nil {
				t.Fatal(err)
			}
			var log strings.Builder
			ck, resumed := openCheckpoint(path, "spec1", true, &log)
			if resumed != 0 {
				t.Fatalf("resumed %d from a defective checkpoint", resumed)
			}
			if ck.resets != 1 {
				t.Fatalf("resets=%d, want 1", ck.resets)
			}
			if !strings.Contains(log.String(), tc.wantLog) || !strings.Contains(log.String(), "treating as empty") {
				t.Fatalf("self-heal not logged as %q: %q", tc.wantLog, log.String())
			}
			// The healed checkpoint must still work: record and re-resume.
			ck.record(testPoint("b"))
			ck2, resumed := openCheckpoint(path, "spec1", true, &log)
			if resumed != 1 || ck2.completed("b") == nil {
				t.Fatalf("healed checkpoint unusable: resumed=%d", resumed)
			}
		})
	}
}

func TestCheckpointNoResumeOverwrites(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	var log strings.Builder
	ck, _ := openCheckpoint(path, "spec1", false, &log)
	ck.record(testPoint("a"))

	// Reopening without -resume warns and starts empty.
	ck2, resumed := openCheckpoint(path, "spec1", false, &log)
	if resumed != 0 || ck2.completed("a") != nil {
		t.Fatal("resume-off checkpoint carried points over")
	}
	if !strings.Contains(log.String(), "starting fresh") {
		t.Fatalf("overwrite not warned: %q", log.String())
	}
}

// The file on disk is a complete valid snapshot after every record
// (atomic temp+rename), so a kill between points never leaves a torn
// checkpoint.
func TestCheckpointAlwaysCompleteOnDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "ck.json")
	ck, _ := openCheckpoint(path, "spec1", false, os.Stderr)
	for _, key := range []string{"a", "b", "c"} {
		ck.record(testPoint(key))
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var loaded checkpointData
		if err := json.Unmarshal(data, &loaded); err != nil {
			t.Fatalf("checkpoint torn after recording %q: %v", key, err)
		}
		if loaded.Schema != CheckpointSchema || loaded.SpecID != "spec1" {
			t.Fatalf("bad snapshot header: %+v", loaded)
		}
		if loaded.Points[key] == nil {
			t.Fatalf("point %q missing from snapshot", key)
		}
	}
	entries, err := os.ReadDir(filepath.Dir(path))
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("temp files left behind: %v", entries)
	}
}

func TestCheckpointDisabled(t *testing.T) {
	var log strings.Builder
	ck, resumed := openCheckpoint("", "spec1", true, &log)
	if resumed != 0 {
		t.Fatal("disabled checkpoint resumed points")
	}
	ck.record(testPoint("a")) // must not try to persist anywhere
	if ck.writeErrs != 0 {
		t.Fatal("disabled checkpoint counted a write error")
	}
	if ck.completed("a") == nil {
		t.Fatal("in-memory ledger should still work")
	}
}

// A persist failure costs resumability, never the sweep: record swallows
// it and counts it.
func TestCheckpointPersistFailureSwallowed(t *testing.T) {
	dir := t.TempDir()
	sub := filepath.Join(dir, "blocked")
	// Make the checkpoint's parent an unwritable *file* so MkdirAll and
	// CreateTemp both fail.
	if err := os.WriteFile(sub, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	ck, _ := openCheckpoint(filepath.Join(sub, "ck.json"), "spec1", false, os.Stderr)
	ck.record(testPoint("a"))
	if ck.writeErrs != 1 {
		t.Fatalf("writeErrs=%d, want 1", ck.writeErrs)
	}
	if ck.completed("a") == nil {
		t.Fatal("in-memory ledger lost the point")
	}
}
