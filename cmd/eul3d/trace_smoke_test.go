package main

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"eul3d/internal/trace"
)

// TestTraceSmoke is the end-to-end flight-recorder smoke test behind
// `make trace-smoke`: build the eul3d binary, run it with -trace on both
// the shared-memory and the fault-injected distributed paths, and check
// that every produced file is loadable Chrome trace JSON with the expected
// tracks.
func TestTraceSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("subprocess smoke test skipped in -short mode")
	}
	dir := t.TempDir()
	bin := filepath.Join(dir, "eul3d")
	build := exec.Command("go", "build", "-o", bin, ".")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building eul3d: %v\n%s", err, out)
	}

	validate := func(path string, wantTracks ...string) {
		t.Helper()
		f, err := os.Open(path)
		if err != nil {
			t.Fatalf("trace file missing: %v", err)
		}
		defer f.Close()
		if n, err := trace.Validate(f); err != nil {
			t.Fatalf("%s: invalid Chrome trace: %v", path, err)
		} else if n == 0 {
			t.Fatalf("%s: no events", path)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		for _, tk := range wantTracks {
			if !strings.Contains(string(raw), `"name":"thread_name"`) ||
				!strings.Contains(string(raw), `"name":"`+tk+`"`) {
				t.Errorf("%s: track %q missing", path, tk)
			}
		}
	}

	// 1. Shared-memory pooled run: per-worker tracks with kernel spans.
	smTrace := filepath.Join(dir, "sm.json")
	sm := exec.Command(bin, "-nx", "10", "-ny", "5", "-nz", "4", "-strategy", "single",
		"-workers", "3", "-cycles", "10", "-tol", "0", "-log-every", "0", "-trace", smTrace)
	if out, err := sm.CombinedOutput(); err != nil {
		t.Fatalf("shared-memory run: %v\n%s", err, out)
	}
	validate(smTrace, "phases", "w0", "w1", "w2")

	// 2. Distributed run with an injected node crash: the per-proc
	// timelines in the main trace, plus the automatic incident dump
	// fired by the crash recovery.
	dmTrace := filepath.Join(dir, "dm.json")
	dm := exec.Command(bin, "-nx", "8", "-ny", "4", "-nz", "3", "-strategy", "single",
		"-nproc", "3", "-cycles", "10", "-tol", "0", "-log-every", "0",
		"-checkpoint-every", "2", "-faults", "seed=7,crash=1@4", "-trace", dmTrace)
	out, err := dm.CombinedOutput()
	if err != nil {
		t.Fatalf("distributed run: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "restoring checkpoint") {
		t.Fatalf("injected crash did not trigger a recovery:\n%s", out)
	}
	validate(dmTrace, "p0", "p1", "p2", "events")

	incident := strings.TrimSuffix(dmTrace, ".json") + ".incident.json"
	validate(incident, "events")
	raw, _ := os.ReadFile(incident)
	for _, want := range []string{"node-crash", "recovery"} {
		if !strings.Contains(string(raw), `"name":"`+want+`"`) {
			t.Errorf("incident dump missing %q instant", want)
		}
	}
}
