package verify

import (
	"fmt"
	"runtime"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/reorder"
	"eul3d/internal/scenario"
	"eul3d/internal/smsolver"
)

// TestScenarioConformance extends the cross-engine bitwise suite to the
// scenario presets: on a color-canonical scenario mesh, the sequential
// stepper, the pooled engine at workers {1, 2, 8}, the pooled engine's
// serial-cutoff inline path and the distributed engine on one processor
// must produce bitwise-identical residual histories and solutions from the
// scenario's initial state. The presets run with ConvexLimit and (for the
// unsteady ones) GlobalDt, so this pins the time-accurate step and the
// limiter's admissible fast path across engines. No preset candidate ever
// leaves the admissible set, so the limited branch itself is pinned by
// TestLimitedBranchConformance.
func TestScenarioConformance(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			m, err := meshgen.Channel(sc.Spec())
			if err != nil {
				t.Fatal(err)
			}
			steps := sc.Steps
			if steps > 25 {
				steps = 25 // the startup transient is the demanding stretch
			}
			conform(t, m, sc.Params(), func(cm *mesh.Mesh) []euler.State { return sc.InitialState(cm) }, steps)
		})
	}
}

// TestLimitedBranchConformance pins the convex limiter's limited branch
// across engines: the small channel at CFL 40 drives stage candidates out
// of the admissible set from the third step on, so sequential runs with
// ConvexLimit on and off really differ — which the test asserts first —
// and the limited run must then be bitwise identical on every engine.
func TestLimitedBranchConformance(t *testing.T) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 5, 4, 17))
	if err != nil {
		t.Fatal(err)
	}
	const steps = 5
	p := euler.DefaultParams(0.675, 0)
	p.CFL = 40
	freestream := func(cm *mesh.Mesh) []euler.State {
		w := make([]euler.State, cm.NV())
		for i := range w {
			w[i] = p.Freestream
		}
		return w
	}
	history := func(limit bool) []float64 {
		q := p
		q.ConvexLimit = limit
		d := euler.NewDisc(m, q)
		ws := euler.NewStepWorkspace(m.NV())
		w := freestream(m)
		h := make([]float64, steps)
		for c := range h {
			h[c] = d.Step(w, nil, ws)
		}
		return h
	}
	limited, reverted := history(true), history(false)
	differ := false
	for c := range limited {
		differ = differ || limited[c] != reverted[c]
	}
	if !differ {
		t.Fatalf("ConvexLimit changes nothing here (%v); the case no longer reaches the limited branch", limited)
	}
	p.ConvexLimit = true
	conform(t, m, p, freestream, steps)
}

// conform runs steps single-grid steps of p on the color-canonical form of
// m from init's state on every engine and fails unless each reproduces the
// sequential stepper bitwise.
func conform(t *testing.T, m *mesh.Mesh, p euler.Params, init func(*mesh.Mesh) []euler.State, steps int) {
	t.Helper()
	cm, ec, fc, err := reorder.ColorCanonical(m)
	if err != nil {
		t.Fatal(err)
	}

	// Sequential reference.
	d := euler.NewDisc(cm, p)
	ws := euler.NewStepWorkspace(cm.NV())
	refW := init(cm)
	refHist := make([]float64, steps)
	for c := range refHist {
		refHist[c] = d.Step(refW, nil, ws)
	}

	check := func(label string, c int, norm float64) {
		t.Helper()
		if norm != refHist[c] {
			t.Fatalf("%s: step %d norm %v, sequential %v", label, c, norm, refHist[c])
		}
	}
	checkW := func(label string, w []euler.State) {
		t.Helper()
		for i := range w {
			if w[i] != refW[i] {
				t.Fatalf("%s: vertex %d state %v, sequential %v", label, i, w[i], refW[i])
			}
		}
	}

	pooled := func(label string, cutoff, nw int) {
		t.Helper()
		defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
		smsolver.SerialCutoffEdges = cutoff
		s, err := smsolver.NewColored(cm, p, nw, ec, fc)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		w := init(cm)
		for c := 0; c < steps; c++ {
			check(label, c, s.Step(w, nil))
		}
		checkW(label, w)
	}
	for _, nw := range []int{1, 2, 8} {
		pooled(fmt.Sprintf("pooled[workers=%d]", nw), 0, nw)
		pooled(fmt.Sprintf("serial-cutoff[workers=%d]", nw), 1<<30, nw)
	}

	// Distributed on one processor: partition-local order is mesh order.
	dm, err := dmsolver.NewSingle(cm, make([]int32, cm.NV()), 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if err := dm.SetFineSolution(init(cm)); err != nil {
		t.Fatal(err)
	}
	for c := 0; c < steps; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		check("distributed[nproc=1]", c, norm)
	}
	checkW("distributed[nproc=1]", dm.GatherSolution())
}

// TestScenarioStepAllocs pins the zero-allocation contract of the pooled
// engine's SoA step path under scenario parameters — the convex limiter
// and the global-dt branch must not introduce allocations into the hot
// loop.
func TestScenarioStepAllocs(t *testing.T) {
	for _, name := range scenario.Names() {
		sc, err := scenario.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		t.Run(name, func(t *testing.T) {
			m, err := meshgen.Channel(sc.Spec())
			if err != nil {
				t.Fatal(err)
			}
			cm, ec, fc, err := reorder.ColorCanonical(m)
			if err != nil {
				t.Fatal(err)
			}
			defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
			smsolver.SerialCutoffEdges = 0
			s, err := smsolver.NewColored(cm, sc.Params(), 2, ec, fc)
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			w := sc.InitialState(cm)
			s.Step(w, nil) // the first step is the limiter-heavy one; warm it up
			// GC before measuring (and retry once) so an unrelated
			// collection cycle inside AllocsPerRun's short window is not
			// attributed to the step path; a genuine per-step allocation
			// shows up on every attempt.
			var allocs float64
			for attempt := 0; attempt < 2; attempt++ {
				runtime.GC()
				if allocs = testing.AllocsPerRun(5, func() { s.Step(w, nil) }); allocs == 0 {
					break
				}
			}
			if allocs != 0 {
				t.Fatalf("limited SoA step path allocates %v times per run", allocs)
			}
		})
	}
}
