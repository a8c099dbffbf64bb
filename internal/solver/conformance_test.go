package solver

import (
	"fmt"
	"runtime"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
	"eul3d/internal/reorder"
	"eul3d/internal/smsolver"
)

// TestCrossEngineConformance is the cross-engine bitwise conformance
// suite: one mesh sequence, three solver engines — serial multigrid,
// pooled shared-memory multigrid at several worker counts, and the
// distributed-memory multigrid (one goroutine per simulated processor) —
// asserting bitwise-identical solutions and residual histories.
//
// Bitwise identity across engines requires identical floating-point
// accumulation order, so the suite runs on color-canonical meshes
// (reorder.ColorCanonical): the edge and boundary-face lists are stored
// in color-group order, making the sequential raw-order accumulation, the
// pooled engine's color-order accumulation, and the one-processor
// distributed solver's partition-local order one and the same. The norm
// reduction is blocked identically in all engines (euler.NormBlock).
// Multi-processor distributed runs reassociate per-vertex sums across
// partition boundaries and therefore agree to tight roundoff instead;
// that is asserted separately.
func TestCrossEngineConformance(t *testing.T) {
	for _, tc := range []struct {
		name          string
		gamma, levels int
		tune          func(*euler.Params) // optional deviation from the defaults
	}{
		{"V-cycle-2-levels", 1, 2, nil},
		{"W-cycle-3-levels", 2, 3, nil},
		// An odd sweep count leaves the smoothed residual and correction in
		// the ping-pong scratch, so the copy-back runs on both paths.
		{"W-cycle-3-levels-odd-smoothing", 2, 3, func(p *euler.Params) { p.NSmooth = 3 }},
		// No residual averaging: raw residuals and raw corrections. The
		// default CFL leans on the averaging for stability (unsmoothed,
		// this mesh's residual grows more than fivefold within five
		// cycles), so the row runs at an unsmoothed-stable CFL.
		{"W-cycle-3-levels-unsmoothed", 2, 3, func(p *euler.Params) {
			p.EpsSmooth, p.NSmooth, p.CFL = 0, 0, 2
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			// The conformance meshes sit below the engine's default
			// serial-fallback threshold; pin it to zero so the pooled
			// engine really runs its pooled path here (the inline path has
			// its own bitwise test, smsolver's TestSerialCutoffBitwise).
			defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
			smsolver.SerialCutoffEdges = 0

			raw, err := meshgen.Sequence(meshgen.DefaultChannel(10, 7, 5, 17), tc.levels)
			if err != nil {
				t.Fatal(err)
			}
			canon := make([]*mesh.Mesh, len(raw))
			cols := make([]smsolver.Colorings, len(raw))
			for i, m := range raw {
				cm, ec, fc, err := reorder.ColorCanonical(m)
				if err != nil {
					t.Fatal(err)
				}
				canon[i] = cm
				cols[i] = smsolver.Colorings{Edges: ec, Faces: fc}
			}
			p := euler.DefaultParams(0.675, 0)
			if tc.tune != nil {
				tc.tune(&p)
			}
			const cycles = 5

			// Reference: the serial FAS multigrid.
			serial, err := multigrid.New(canon, p, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			refHist := make([]float64, cycles)
			for c := range refHist {
				refHist[c] = serial.Cycle()
			}
			refW := serial.Fine().W

			check := func(engine string, hist []float64, w []euler.State) {
				t.Helper()
				for c := range hist {
					if hist[c] != refHist[c] {
						t.Fatalf("%s: cycle %d residual %v, serial %v", engine, c, hist[c], refHist[c])
					}
				}
				if len(w) != len(refW) {
					t.Fatalf("%s: %d states, serial %d", engine, len(w), len(refW))
				}
				for i := range w {
					if w[i] != refW[i] {
						t.Fatalf("%s: vertex %d state %v, serial %v", engine, i, w[i], refW[i])
					}
				}
			}

			// Pooled shared-memory multigrid, several worker counts.
			for _, nw := range []int{1, 2, 3, 8} {
				mg, err := smsolver.NewMultigridColored(canon, p, tc.gamma, nw, cols)
				if err != nil {
					t.Fatal(err)
				}
				hist := make([]float64, cycles)
				for c := range hist {
					hist[c] = mg.Cycle()
				}
				check(fmt.Sprintf("pooled[workers=%d]", nw), hist, mg.Fine().W)
				mg.Close()
			}

			// Distributed multigrid on one processor: partition-local index
			// order equals mesh order, so it is bitwise too.
			parts := make([][]int32, len(canon))
			parts[0] = make([]int32, canon[0].NV())
			dm1, err := dmsolver.NewMultigrid(canon, parts, 1, p, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			hist := make([]float64, cycles)
			for c := range hist {
				if hist[c], err = dm1.Cycle(); err != nil {
					t.Fatal(err)
				}
			}
			check("distributed[nproc=1]", hist, dm1.GatherSolution())

			// Multi-processor distributed: partition boundaries reassociate
			// the per-vertex sums, so agreement is to roundoff only — and
			// the scheme's discrete switches (sensor max, positivity guard)
			// amplify the reassociation noise by orders of magnitude over
			// the startup transient of this small mesh. The loose bound is a
			// sanity cross-check (real defects show up at O(1)), not part of
			// the bitwise contract established above.
			g, err := graph.FromEdges(canon[0].NV(), canon[0].Edges)
			if err != nil {
				t.Fatal(err)
			}
			finePart, err := partition.Partition(g, canon[0].X, 4, partition.Spectral, 1)
			if err != nil {
				t.Fatal(err)
			}
			parts4 := make([][]int32, len(canon))
			parts4[0] = finePart
			dm4, err := dmsolver.NewMultigrid(canon, parts4, 4, p, tc.gamma)
			if err != nil {
				t.Fatal(err)
			}
			for c := range hist {
				norm, err := dm4.Cycle()
				if err != nil {
					t.Fatal(err)
				}
				if rel := relDiff(norm, refHist[c]); rel > 1e-4 {
					t.Fatalf("distributed[nproc=4]: cycle %d residual %v vs %v (rel %v)", c, norm, refHist[c], rel)
				}
			}
			w4 := dm4.GatherSolution()
			for i := range w4 {
				for k := 0; k < euler.NVar; k++ {
					if rel := relDiff(w4[i][k], refW[i][k]); rel > 1e-4 {
						t.Fatalf("distributed[nproc=4]: vertex %d var %d %v vs %v", i, k, w4[i][k], refW[i][k])
					}
				}
			}
		})
	}
}

func relDiff(a, b float64) float64 {
	d := a - b
	if d < 0 {
		d = -d
	}
	m := 1.0
	if ab := abs64(a); ab > m {
		m = ab
	}
	if bb := abs64(b); bb > m {
		m = bb
	}
	return d / m
}

func abs64(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestSingleGridSoAConformance pins the pooled engine's SoA hot path
// directly against the serial []State reference: on a color-canonical
// mesh the sequential euler.Disc.Step (raw edge order, AoS layout) and
// the pooled smsolver.Solver (color order, SoA component streams) must
// produce bitwise-identical residual histories and solutions at every
// worker count — the state layout and the chunking are memory-placement
// choices, not numerical ones. The same solver instances must also keep
// the engine's zero-allocation contract on the SoA step path, which
// testing.AllocsPerRun enforces.
func TestSingleGridSoAConformance(t *testing.T) {
	defer func(old int) { smsolver.SerialCutoffEdges = old }(smsolver.SerialCutoffEdges)
	smsolver.SerialCutoffEdges = 0

	m, err := meshgen.Channel(meshgen.DefaultChannel(10, 7, 5, 17))
	if err != nil {
		t.Fatal(err)
	}
	cm, ec, fc, err := reorder.ColorCanonical(m)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	const steps = 5

	// Serial reference: the sequential stepper on the canonical mesh.
	d := euler.NewDisc(cm, p)
	ws := euler.NewStepWorkspace(cm.NV())
	refW := make([]euler.State, cm.NV())
	d.InitUniform(refW)
	refHist := make([]float64, steps)
	for c := range refHist {
		refHist[c] = d.Step(refW, nil, ws)
	}

	for _, nw := range []int{1, 2, 3, 8} {
		s, err := smsolver.NewColored(cm, p, nw, ec, fc)
		if err != nil {
			t.Fatal(err)
		}
		w := make([]euler.State, cm.NV())
		s.InitUniform(w)
		for c := 0; c < steps; c++ {
			if norm := s.Step(w, nil); norm != refHist[c] {
				t.Fatalf("workers=%d: step %d norm %v, serial %v", nw, c, norm, refHist[c])
			}
		}
		for i := range w {
			if w[i] != refW[i] {
				t.Fatalf("workers=%d: vertex %d state %v, serial %v", nw, i, w[i], refW[i])
			}
		}
		// Collect the garbage from the previous worker count's solver
		// before measuring: a GC cycle triggered inside AllocsPerRun's
		// short window gets attributed to the step path. The retry keeps
		// a straggling cycle from failing the run; a genuine per-step
		// allocation shows up on every attempt.
		if allocs := zeroAllocStep(s, w); allocs != 0 {
			t.Fatalf("workers=%d: SoA step path allocates %v times per run", nw, allocs)
		}
		s.Close()
	}
}

// zeroAllocStep measures the steady-state allocation count of s.Step,
// insulating the measurement from unrelated GC activity.
func zeroAllocStep(s *smsolver.Solver, w []euler.State) float64 {
	var allocs float64
	for attempt := 0; attempt < 2; attempt++ {
		runtime.GC()
		allocs = testing.AllocsPerRun(5, func() { s.Step(w, nil) })
		if allocs == 0 {
			break
		}
	}
	return allocs
}
