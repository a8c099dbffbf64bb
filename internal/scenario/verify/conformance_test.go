package verify

import (
	"runtime"
	"testing"

	"eul3d/internal/euler"
	"eul3d/internal/meshgen"
	"eul3d/internal/reorder"
	"eul3d/internal/scenario"
	"eul3d/internal/smsolver"
)

// TestScenarioConformance extends the cross-engine bitwise suite to the
// scenario presets: on a color-canonical scenario mesh, the sequential
// stepper, the pooled engine at workers {1, 2, 8}, and the pooled engine's
// serial-cutoff inline path must produce bitwise-identical residual
// histories and solutions from the scenario's initial state. The presets
// run with ConvexLimit and (for the unsteady ones) GlobalDt, so this is
// the bitwise check of the limiter across the sequential []State loops and
// the SoA range kernels — the startup transient of the Sod diaphragm
// exercises the limited branch, not just the admissible fast path.
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
			cm, ec, fc, err := reorder.ColorCanonical(m)
			if err != nil {
				t.Fatal(err)
			}
			p := sc.Params()
			steps := sc.Steps
			if steps > 25 {
				steps = 25 // the startup transient is where the limiter fires
			}

			// Sequential reference from the scenario's initial state.
			d := euler.NewDisc(cm, p)
			ws := euler.NewStepWorkspace(cm.NV())
			refW := sc.InitialState(cm)
			refHist := make([]float64, steps)
			for c := range refHist {
				refHist[c] = d.Step(refW, nil, ws)
			}

			run := func(label string, cutoff, nw int) {
				t.Helper()
				defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
				smsolver.SerialCutoffEdges = cutoff
				s, err := smsolver.NewColored(cm, p, nw, ec, fc)
				if err != nil {
					t.Fatal(err)
				}
				defer s.Close()
				w := sc.InitialState(cm)
				for c := 0; c < steps; c++ {
					if norm := s.Step(w, nil); norm != refHist[c] {
						t.Fatalf("%s: step %d norm %v, sequential %v", label, c, norm, refHist[c])
					}
				}
				for i := range w {
					if w[i] != refW[i] {
						t.Fatalf("%s: vertex %d state %v, sequential %v", label, i, w[i], refW[i])
					}
				}
			}

			for _, nw := range []int{1, 2, 8} {
				run("pooled", 0, nw)
				run("serial-cutoff", 1<<30, nw)
			}
		})
	}
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
