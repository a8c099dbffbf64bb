package euler

import (
	"fmt"
	"math/rand"
	"testing"

	"eul3d/internal/meshgen"
)

// kernelFixture builds a disc with a perturbed field so every kernel does
// nontrivial work.
func kernelFixture(t *testing.T) (*Disc, []State) {
	t.Helper()
	m, err := meshgen.Channel(meshgen.DefaultChannel(8, 5, 4, 7))
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisc(m, DefaultParams(0.675, 0))
	w := make([]State, m.NV())
	rng := rand.New(rand.NewSource(2))
	g := d.P.Gas
	for i := range w {
		w[i] = g.FromPrimitive(1+0.1*rng.Float64(), 0.5+0.1*rng.Float64(),
			0.05*rng.Float64(), 0.05*rng.Float64(), 0.7+0.1*rng.Float64())
	}
	d.computePressures(w)
	return d, w
}

func allEdges(d *Disc) []int32 {
	e := make([]int32, d.M.NE())
	for i := range e {
		e[i] = int32(i)
	}
	return e
}

func allFaces(d *Disc) []int32 {
	f := make([]int32, len(d.M.BFaces))
	for i := range f {
		f[i] = int32(i)
	}
	return f
}

func sameF(t *testing.T, name string, got, want []float64) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: vertex %d: kernel %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

func sameW(t *testing.T, name string, got, want []State) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: vertex %d: kernel %v, oracle %v", name, i, got[i], want[i])
		}
	}
}

func sameS(t *testing.T, name string, got *StateSoA, want []State) {
	t.Helper()
	for i := range want {
		if st := got.At(i); st != want[i] {
			t.Fatalf("%s: vertex %d: kernel %v, oracle %v", name, i, st, want[i])
		}
	}
}

// dirty fills SoA blocks with garbage, so a kernel that fails to
// overwrite or zero a slot shows up as a mismatch.
func dirty(blocks ...*StateSoA) {
	for _, b := range blocks {
		for k := range b.Comp {
			for i := range b.Comp[k] {
				b.Comp[k][i] = 7
			}
		}
	}
}

// soaOf loads a []State field into a fresh SoA block.
func soaOf(w []State) *StateSoA {
	s := NewStateSoA(len(w))
	s.FromStates(w, 0, len(w))
	return s
}

// The kernel tests below drive the range kernels over the whole mesh in
// stored edge order — the order the sequential loops of ops.go and rk.go
// use — and assert bitwise agreement with those loops, which are the
// oracle. The parallel executor runs the same kernels per color chunk; on
// a color-canonical mesh that order is the stored one, which is how the
// cross-engine conformance suite extends this contract to whole cycles.

// TestKernelsMatchMonolithicLoops covers the stage preamble and the edge
// loops: init and pressures, stage zeroing, spectral radii and time steps
// (local and global), convective flux, and both dissipation passes with
// the switch between them.
func TestKernelsMatchMonolithicLoops(t *testing.T) {
	dO, w := kernelFixture(t) // oracle: the sequential loops
	dK := NewDisc(dO.M, dO.P) // driven through the range kernels
	nv := dO.M.NV()
	edges, faces := allEdges(dO), allFaces(dO)

	// Init: SoA load, stage-0 snapshot, pressures, lam reset.
	wS, w0S := NewStateSoA(nv), NewStateSoA(nv)
	for i := range dK.lam {
		dK.lam[i] = 7
	}
	dK.StepInitSoAKernel(w, wS, w0S, 0, nv)
	dO.computePressures(w)
	sameS(t, "init w", wS, w)
	sameS(t, "init w0", w0S, w)
	sameF(t, "init pressure", dK.pres, dO.pres)
	sameF(t, "init lam", dK.Lam(), make([]float64, nv))

	// Stage zeroing: the convective accumulator always, the dissipation
	// workspace only when asked.
	convS, dissS, laplS := NewStateSoA(nv), NewStateSoA(nv), NewStateSoA(nv)
	dirty(convS, dissS, laplS)
	dK.StageZeroSoAKernel(convS, dissS, laplS, false, 0, nv)
	sameS(t, "zero conv", convS, make([]State, nv))
	if dissS.At(0)[0] != 7 || laplS.At(0)[0] != 7 {
		t.Fatal("stage zeroing without zeroDiss cleared the dissipation workspace")
	}
	for i := range dK.sensor {
		dK.sensor[i], dK.den[i] = 7, 7
	}
	dK.StageZeroSoAKernel(convS, dissS, laplS, true, 0, nv)
	for _, b := range []*StateSoA{convS, dissS, laplS} {
		sameS(t, "zero", b, make([]State, nv))
	}
	sameF(t, "zero sensor", dK.Sensor(), make([]float64, nv))
	sameF(t, "zero den", dK.Den(), make([]float64, nv))

	// Spectral radii and local time steps, then the time-accurate global
	// step.
	dK.LambdaEdgesSoAKernel(wS, dK.Lam(), edges)
	dK.LambdaBFacesSoAKernel(wS, dK.Lam(), faces)
	dK.DtRangeKernel(dK.Lam(), 0, nv)
	dO.ComputeTimeSteps(w)
	sameF(t, "lambda", dK.Lam(), dO.lam)
	sameF(t, "dt", dK.Dt, dO.Dt)
	dK.P.GlobalDt, dO.P.GlobalDt = 2.5e-3, 2.5e-3
	dK.DtRangeKernel(dK.Lam(), 0, nv)
	dO.ComputeTimeSteps(w)
	sameF(t, "global dt", dK.Dt, dO.Dt)

	// Convective flux plus boundary closure.
	dK.ConvectiveEdgesSoAKernel(wS, convS, edges)
	dK.BoundaryFluxSoAKernel(wS, convS, faces)
	conv := make([]State, nv)
	dO.Convective(w, conv)
	sameS(t, "convective", convS, conv)

	// Dissipation: Laplacian + sensor sums, the switch, the blended flux.
	diss := make([]State, nv)
	dO.Dissipation(w, diss) // leaves lapl, nu (in sensor) and den behind
	dK.DissPass1SoAKernel(wS, laplS, dK.Sensor(), dK.Den(), edges)
	sameS(t, "laplacian", laplS, dO.lapl)
	sameF(t, "sensor den", dK.Den(), dO.den)
	dK.NuRangeKernel(dK.Sensor(), dK.Den(), 0, nv)
	sameF(t, "switch", dK.Sensor(), dO.sensor)
	dK.DissPass2SoAKernel(wS, laplS, dissS, dK.Sensor(), edges)
	sameS(t, "dissipation", dissS, diss)
}

// TestCombineAndUpdateKernels covers the vertex kernels that close a
// stage: the residual combine in both output layouts with and without
// forcing, both stage-update forms against Disc.Step (revert and
// convex-limit admission) including the next-stage pressure refresh, and
// the standalone-residual preamble. The convective and dissipative
// inputs come from the oracle loops.
func TestCombineAndUpdateKernels(t *testing.T) {
	dO, w := kernelFixture(t)
	p := dO.P
	p.NSmooth = 1
	dO.P = p
	dK := NewDisc(dO.M, p)
	nv := dO.M.NV()

	conv, diss := make([]State, nv), make([]State, nv)
	dO.Convective(w, conv)
	dO.Dissipation(w, diss)
	convS, dissS := soaOf(conv), soaOf(diss)

	// Residual combine: both output layouts, with and without forcing.
	ref := make([]State, nv)
	dO.Residual(w, ref)
	forcing := make([]State, nv)
	forced := make([]State, nv)
	rng := rand.New(rand.NewSource(5))
	for i := range forcing {
		for k := 0; k < NVar; k++ {
			forcing[i][k] = 1e-2 * (rng.Float64() - 0.5)
			forced[i][k] = ref[i][k] + forcing[i][k]
		}
	}
	resS := NewStateSoA(nv)
	res := make([]State, nv)
	for _, c := range []struct {
		name    string
		forcing []State
		want    []State
	}{{"residual", nil, ref}, {"residual+forcing", forcing, forced}} {
		dirty(resS)
		dK.CombineResidualSoAKernel(resS, convS, dissS, c.forcing, 0, nv)
		sameS(t, c.name, resS, c.want)
		dK.CombineResidualOutKernel(res, convS, dissS, c.forcing, 0, nv)
		sameW(t, c.name+" out", res, c.want)
	}

	// Both stage-update forms against a one-stage Disc.Step on the same
	// field and forcing, whose update is w0 - alpha*Dt/V * smoothed
	// residual through AdmitUpdate. The large alpha drives some
	// candidates out of the admissible set, so both admission branches
	// run.
	smoothed := append([]State(nil), forced...)
	dO.SmoothResiduals(smoothed)
	smoothS, w0S := soaOf(smoothed), soaOf(w)
	dK.computePressures(w)
	dK.ComputeTimeSteps(w)
	const alpha = 8.0
	for _, convex := range []bool{false, true} {
		dO.P.Stages, dO.P.ConvexLimit = []float64{alpha}, convex
		dK.P.ConvexLimit = convex
		step := append([]State(nil), w...)
		dO.Step(step, forcing, NewStepWorkspace(nv))
		if !convex {
			reverted := 0
			for i := range step {
				if step[i] == w[i] {
					reverted++
				}
			}
			if reverted == 0 || reverted == nv {
				t.Fatalf("%d of %d vertices reverted; want both admission branches exercised", reverted, nv)
			}
		}

		out := make([]State, nv)
		dK.UpdateFinalSoAKernel(out, w0S, smoothS, alpha, 0, nv)
		sameW(t, "update final", out, step)

		next := NewStateSoA(nv)
		dK.UpdateNextSoAKernel(next, w0S, smoothS, alpha, 0, nv)
		sameS(t, "update next", next, step)
		dO.computePressures(step)
		sameF(t, "update next pressure", dK.pres, dO.pres)
	}

	// Standalone-residual preamble: SoA load and pressures.
	wS := NewStateSoA(nv)
	dirty(wS)
	dK.ResInitSoAKernel(w, wS, 0, nv)
	dO.computePressures(w)
	sameS(t, "res-init w", wS, w)
	sameF(t, "res-init pressure", dK.pres, dO.pres)
}

// TestSoAKernelsBitwiseMatchAoS drives the SoA smoothing kernels the way
// the pooled engine does — right-hand-side copy, colored-gather and
// combine per sweep, zeroing the spent buffer, ping-pong, and a copy-back
// on odd sweep counts — and checks them bitwise against the []State
// SmoothResiduals loop for one, two and three sweeps.
func TestSoAKernelsBitwiseMatchAoS(t *testing.T) {
	dO, w := kernelFixture(t)
	nv := dO.M.NV()
	edges := allEdges(dO)
	res := make([]State, nv)
	dO.Residual(w, res)

	for _, sweeps := range []int{1, 2, 3} {
		p := dO.P
		p.NSmooth = sweeps
		dO.P = p
		dK := NewDisc(dO.M, p)

		want := append([]State(nil), res...)
		dO.SmoothResiduals(want)

		resS, smoothS, rhsS := soaOf(res), NewStateSoA(nv), NewStateSoA(nv)
		dirty(smoothS, rhsS)
		rhsS.CopyRange(resS, 0, nv)
		cur, next := resS, smoothS
		next.ZeroRange(0, nv)
		for sweep := 0; sweep < sweeps; sweep++ {
			dK.SmoothAccumSoAKernel(cur, next, edges)
			dK.SmoothCombineSoAKernel(rhsS, next, p.EpsSmooth, 0, nv)
			if sweep+1 < sweeps {
				cur.ZeroRange(0, nv)
			}
			cur, next = next, cur
		}
		if cur != resS {
			resS.CopyRange(cur, 0, nv)
		}
		sameS(t, fmt.Sprintf("smoothing, %d sweeps", sweeps), resS, want)
	}
}

// TestScratchAccessors checks that the scratch accessors the pooled and
// distributed engines drive the kernels through hand out the disc's own
// per-vertex arrays, so kernel writes land where the loops read them.
func TestScratchAccessors(t *testing.T) {
	d, _ := kernelFixture(t)
	nv := d.M.NV()
	for _, c := range []struct {
		name      string
		got, want []float64
	}{
		{"lam", d.Lam(), d.lam},
		{"sensor", d.Sensor(), d.sensor},
		{"den", d.Den(), d.den},
	} {
		if len(c.got) != nv {
			t.Errorf("%s accessor returned %d entries, want %d", c.name, len(c.got), nv)
		} else if &c.got[0] != &c.want[0] {
			t.Errorf("%s accessor does not alias the disc's scratch", c.name)
		}
	}
}
