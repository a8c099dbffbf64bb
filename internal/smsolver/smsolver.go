// Package smsolver is the shared-memory parallel implementation of the
// flow solver, mirroring the paper's Cray Y-MP C90 port (Section 3): each
// edge loop is divided into recurrence-free color groups, and each group
// is chunked across worker goroutines — the role the autotasking compiler
// played on the C90. Because at most one edge per group touches any
// vertex, the floating-point accumulation order per vertex is fixed by the
// color order and is independent of the chunking: the solver produces
// *bitwise identical* results for every worker count (tests assert this).
// Against the sequential solver — which accumulates in raw edge order —
// results agree to roundoff, exactly as on the original machine, where the
// vectorized/autotasked code also reordered the accumulations. (On a
// color-canonical mesh, whose edge list is stored in color order — see
// reorder.ColorCanonical — the two orders coincide and the agreement is
// bitwise.)
//
// Execution uses a persistent worker pool (see pool.go): the workers are
// spawned once, parked between parallel regions, and driven through
// prebuilt per-color chunk tables balanced by element count; adjacent
// zero/copy sweeps are fused into the neighbouring vertex kernels and all
// scratch is solver-owned, so a steady-state Step (and multigrid Cycle)
// performs zero heap allocations. Every kernel — flux and dissipation
// accumulation over the colored edge groups, the Jacobi smoothing sweeps
// (one routine, for step residuals and multigrid corrections alike), and
// the fused vertex updates — runs on a structure-of-arrays state layout
// (euler.StateSoA: five contiguous component streams instead of 40-byte
// records), converting from the public []State interfaces inside the
// fused load, update and residual-output sweeps; the per-block residual-norm
// partials are padded to cache-line boundaries so concurrent block writers
// never share a line. Grid levels below SerialCutoffEdges skip the
// fork/join barrier entirely and run every region inline on the caller —
// chunking and inlining never affect results. The engine/levelEngine split
// in this file lets the same N parked workers drive either a single grid
// (Solver) or every level of a FAS multigrid sequence (Multigrid,
// multigrid.go). Close releases the workers; a solver dropped without
// Close is cleaned up by the garbage collector.
package smsolver

import (
	"fmt"
	"math"
	"runtime"
	"time"

	"eul3d/internal/color"
	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/mesh"
	"eul3d/internal/multigrid"
	"eul3d/internal/perf"
	"eul3d/internal/trace"
)

// SerialCutoffEdges is the serial-fallback work threshold: a grid level
// with fewer edges than this runs every parallel region inline on the
// calling goroutine, skipping the fork/join barrier entirely. On the
// coarse levels of a multigrid sequence the per-color chunks shrink to a
// handful of edges, and the barrier latency of ~30 color groups per sweep
// dominates the arithmetic — the main reason a pooled multigrid cycle used
// to lose to the serial one at 2–8 workers. Results are unaffected
// (chunking never changes the accumulation order within a color), which
// TestSerialCutoffBitwise asserts. Tests that need the pooled path on
// small meshes set this to 0; the default is tuned so channel-mesh coarse
// levels (≲2.5k edges) serialize while paper-scale fine grids stay pooled.
var SerialCutoffEdges = 4096

// taskKind names one parallel region; exec dispatches on it so that
// forking never builds a closure.
type taskKind uint8

const (
	tInit           taskKind = iota // SoA load + w0 snapshot + pressures + lam reset (fused)
	tLamEdges                       // colored: edge spectral radii
	tLamFaces                       // colored: boundary-face spectral radii
	tDtZero                         // local time steps + stage-0 accumulator zeroing (fused)
	tConvEdges                      // colored: convective fluxes
	tConvFaces                      // colored: boundary closure
	tDiss1                          // colored: Laplacian + sensor sums
	tNu                             // sensor sums -> shock switch
	tDiss2                          // colored: blended dissipative flux
	tCombine                        // resS = convS - dissS (+ forcing), SoA
	tCombineOut                     // res = convS - dissS (+ forcing), []State out
	tNorm                           // block partial sums of the residual norm
	tSmoothStartS                   // rhs copy + first-sweep zeroing (fused)
	tSmoothAccumS                   // colored: Jacobi neighbour gather
	tSmoothCombineS                 // Jacobi combine + next-sweep zeroing (fused)
	tCopyResS                       // copy smoothed result back (odd sweep counts)
	tUpdate                         // RK update scattered to []State (final stage)
	tUpdateNext                     // RK update + next-stage pressures + zeroing (fused, SoA)
	tResInit                        // SoA load + pressures + accumulator zeroing (standalone residual)
	tInterp                         // inter-grid interpolation over a target chunk
	tScatter                        // destination-grouped residual restriction rows
	tRepairSave                     // repair restricted states + snapshot (fused)
	tCorrDelta                      // coarse correction delta W - WSaved
	tLoadCorr                       // SoA load of a prolonged correction into resS
	tForcingSub                     // FAS forcing P = R' - R(w')
	tApplyCorr                      // guarded application of the prolonged correction
)

// Instrumented phases of one time step (the engine's internal phase
// numbering; phaseMap routes them to accumulator slots).
const (
	phTimestep = iota // pressures, spectral radii, local time steps
	phConvective
	phDissipation
	phResidual // residual combine + norm reduction
	phSmoothing
	phUpdate
	nPhases
)

var phaseNames = [nPhases]string{"timestep", "convective", "dissipation", "residual", "smoothing", "update"}

// normBlock is the fixed reduction block of residualNorm; partials are
// combined in block order so the rounded norm is worker-count independent
// and identical to the sequential solver's blocked reduction.
const normBlock = euler.NormBlock

// normSlot holds one norm-block partial padded out to a full 64-byte cache
// line. Workers write disjoint contiguous block ranges of the partial
// table; without padding the blocks at each range boundary share a line
// and the concurrent writers ping-pong it (false sharing). Padding costs
// nv/4096 * 56 bytes and keeps every writer on private lines; the
// reduction still reads slot.v in block order, so the rounded norm is
// unchanged.
type normSlot struct {
	v float64
	_ [56]byte
}

// levelEngine holds everything the worker pool needs to run the scheme on
// one mesh: the discretization, the colorings, the prebuilt chunk tables,
// the per-step scratch and the analytic flop charges. A single-grid
// Solver owns one; a Multigrid owns one per level, all driven by the same
// engine (and thus the same parked workers).
//
// The scratch is SoA (euler.StateSoA): the solution block wS and stage-0
// snapshot w0S are loaded from the caller's []State in the fused init
// sweep, the edge kernels accumulate into convS/dissS/laplS, the smoother
// ping-pongs resS against smoothS, and the final-stage update scatters
// straight back to []State. Between steps resS is free, so the pooled
// multigrid loads a prolonged correction into it and smooths it on the
// same path. res keeps the []State layout because the multigrid transfer
// operators consume it directly.
type levelEngine struct {
	d          *euler.Disc
	edgeColors *color.Coloring
	faceColors *color.Coloring

	wS, w0S      *euler.StateSoA
	convS, dissS *euler.StateSoA
	resS, laplS  *euler.StateSoA
	smoothS      *euler.StateSoA // smoothing ping-pong scratch
	rhsS         *euler.StateSoA // smoothing right-hand side

	res         []euler.State // standalone-residual output ([]State, fed to transfers)
	normPartial []normSlot

	// Prebuilt chunk tables: per-worker vertex and norm-block ranges, and
	// per-color per-worker edge/face ranges as absolute offsets into the
	// coloring's Order permutation. On levels below SerialCutoffEdges the
	// tables are built single-worker, so every region runs inline.
	vertSpans  []span
	vertActive int
	normSpans  []span
	normActive int
	edgeSpans  [][]span
	edgeActive []int
	faceSpans  [][]span
	faceActive []int

	// Analytic flop charges of the engine's step phases on this mesh.
	flTimestep, flConv, flDiss, flCombine, flSmooth int64
	flUpdate, flUpdateNext                          int64
}

// newLevelEngine builds the per-mesh tables. ec/fc may carry precomputed
// colorings (verified here); nil selects the greedy ones.
func newLevelEngine(m *mesh.Mesh, p euler.Params, nworkers int, ec, fc *color.Coloring) (*levelEngine, error) {
	var err error
	if ec == nil {
		ec, err = color.Greedy(m.NV(), m.Edges)
		if err != nil {
			return nil, fmt.Errorf("edge coloring: %w", err)
		}
	} else if err = color.Verify(ec, m.NV(), m.Edges); err != nil {
		return nil, fmt.Errorf("edge coloring: %w", err)
	}
	faces := make([][3]int32, len(m.BFaces))
	for i := range m.BFaces {
		faces[i] = m.BFaces[i].V
	}
	if fc == nil {
		fc, err = color.GreedyFaces(m.NV(), faces)
		if err != nil {
			return nil, fmt.Errorf("face coloring: %w", err)
		}
	} else if err = color.VerifyFaces(fc, m.NV(), faces); err != nil {
		return nil, fmt.Errorf("face coloring: %w", err)
	}
	nv := m.NV()
	nb := (nv + normBlock - 1) / normBlock
	le := &levelEngine{
		d:           euler.NewDisc(m, p),
		edgeColors:  ec,
		faceColors:  fc,
		wS:          euler.NewStateSoA(nv),
		w0S:         euler.NewStateSoA(nv),
		convS:       euler.NewStateSoA(nv),
		dissS:       euler.NewStateSoA(nv),
		resS:        euler.NewStateSoA(nv),
		laplS:       euler.NewStateSoA(nv),
		smoothS:     euler.NewStateSoA(nv),
		rhsS:        euler.NewStateSoA(nv),
		res:         make([]euler.State, nv),
		normPartial: make([]normSlot, nb),
	}
	// Serial fallback: a level whose whole edge list is below the cutoff
	// builds single-worker tables, so every fork runs inline on the caller
	// and no barrier is paid. Chunking never affects results.
	spanW := nworkers
	if m.NE() < SerialCutoffEdges {
		spanW = 1
	}
	le.vertSpans, le.vertActive = buildSpans(nv, spanW)
	le.normSpans, le.normActive = buildSpans(nb, spanW)
	le.edgeSpans, le.edgeActive = colorSpans(ec, spanW)
	le.faceSpans, le.faceActive = colorSpans(fc, spanW)
	le.chargeFlops()
	return le, nil
}

// chargeFlops recomputes the analytic per-phase flop charges from the
// level's current mesh and parameters (called at build time and again by
// Rebuild after an adaptation epoch changes the mesh).
func (le *levelEngine) chargeFlops() {
	m, p := le.d.M, le.d.P
	ne, nbf := int64(m.NE()), int64(len(m.BFaces))
	nv64 := int64(m.NV())
	le.flTimestep = nv64*flops.PresVert + ne*flops.DtEdge + nbf*flops.DtBFace + nv64*flops.DtVertex
	le.flConv = ne*flops.ConvEdge + nbf*flops.ConvBFace
	le.flDiss = ne*(flops.Diss1Edge+flops.Diss2Edge) + nv64*flops.NuVert
	le.flCombine = nv64 * flops.CombineVert
	le.flSmooth = int64(p.NSmooth) * (ne*flops.SmoothEdge + nv64*flops.SmoothVert)
	le.flUpdate = nv64 * flops.UpdateVert
	le.flUpdateNext = nv64 * (flops.UpdateVert + flops.PresVert)
}

// colorSpans prebuilds the per-color per-worker chunk table of a coloring:
// absolute [lo,hi) offsets into c.Order, plus the per-color active worker
// count. Each color's edges split evenly (buildSpans balances the
// remainder), so every active worker carries the same edge count ±1.
func colorSpans(c *color.Coloring, nw int) ([][]span, []int) {
	nc := c.NumColors()
	spans := make([][]span, nc)
	active := make([]int, nc)
	for g := 0; g < nc; g++ {
		base := int(c.Start[g])
		n := int(c.Start[g+1]) - base
		sp, a := buildSpans(n, nw)
		for w := range sp {
			sp[w].lo += base
			sp[w].hi += base
		}
		spans[g], active[g] = sp, a
	}
	return spans, active
}

// engine is the pool-driving half: the fork/join barrier, the job
// descriptor published before every parallel region, and the
// instrumentation routing. It holds a pointer to the levelEngine of the
// level currently being operated on, so the same N parked workers serve
// every grid of a multigrid sequence.
type engine struct {
	pool   *pool
	nw     int
	execFn func(int) // e.exec (or e.execTraced), bound once so fork never allocates

	// Flight-recorder hooks (trace.go); nil when tracing is disabled, so
	// the untraced hot path pays one branch.
	et *engineTrace

	// Instrumentation: engine step phases are charged to acc slots through
	// phaseMap (identity for the single-grid Solver; collapsed to one
	// per-level "steps" slot by Multigrid).
	acc      *perf.Accum
	phaseMap [nPhases]int

	lev *levelEngine // level the current region runs on

	// Job descriptor for the current parallel region, published before the
	// fork and read by the workers (the fork/join barrier orders both
	// directions).
	job      taskKind
	group    int           // color group for colored tasks
	alpha    float64       // RK stage coefficient
	eps      float64       // residual-averaging coefficient
	zeroDiss bool          // tDtZero/tUpdateNext: also zero dissipation arrays
	zeroCur  bool          // tSmoothCombineS: also zero the next sweep's target
	w        []euler.State // solution being advanced
	forcing  []euler.State

	// Residual-averaging ping-pong between the level's resS and smoothS.
	curS, nextS *euler.StateSoA

	// Generic per-vertex operands (tRepairSave/tCorrDelta/tForcingSub/
	// tApplyCorr) and the inter-grid transfer descriptor.
	va, vb, vdst []euler.State
	xop          *multigrid.TransferOp
	xplan        *multigrid.ScatterPlan
	xsrc, xdst   []euler.State
	xspans       []span
}

// init starts the pool and binds the dispatch function.
func (e *engine) init(nworkers int, acc *perf.Accum) {
	e.acc = acc
	e.nw = nworkers
	for i := range e.phaseMap {
		e.phaseMap[i] = i
	}
	e.pool = newPool(nworkers)
	e.execFn = e.exec
}

// fork publishes the job descriptor and runs one parallel region. With a
// tracer attached it also closes the region on every worker's track with a
// barrier-wait span (that worker's kernel end → the join).
func (e *engine) fork(j taskKind, group, active int) {
	e.job, e.group = j, group
	e.pool.fork(e.execFn, active)
	if e.et != nil && active > 1 {
		join := time.Now()
		for w := 0; w < active; w++ {
			e.et.wtracks[w].Span(e.et.phBarrier, e.et.kend[w], join, int64(j))
		}
	}
}

// coloredEdges runs one colored task over every edge group of the current
// level (the autotasked vector loop of Section 3.1), one barrier per color.
func (e *engine) coloredEdges(j taskKind) {
	lev := e.lev
	for g := range lev.edgeActive {
		e.fork(j, g, lev.edgeActive[g])
	}
}

// coloredFaces runs one colored task over every boundary-face group.
func (e *engine) coloredFaces(j taskKind) {
	lev := e.lev
	for g := range lev.faceActive {
		e.fork(j, g, lev.faceActive[g])
	}
}

// exec runs worker wk's chunk of the current parallel region. Every case
// is a table lookup plus a kernel call on solver-owned state — no
// closures, no allocation.
func (e *engine) exec(wk int) {
	lev := e.lev
	d := lev.d
	switch e.job {
	case tInit:
		sp := lev.vertSpans[wk]
		d.StepInitSoAKernel(e.w, lev.wS, lev.w0S, sp.lo, sp.hi)
	case tLamEdges:
		sp := lev.edgeSpans[e.group][wk]
		d.LambdaEdgesSoAKernel(lev.wS, d.Lam(), lev.edgeColors.Order[sp.lo:sp.hi])
	case tLamFaces:
		sp := lev.faceSpans[e.group][wk]
		d.LambdaBFacesSoAKernel(lev.wS, d.Lam(), lev.faceColors.Order[sp.lo:sp.hi])
	case tDtZero:
		sp := lev.vertSpans[wk]
		d.DtRangeKernel(d.Lam(), sp.lo, sp.hi)
		d.StageZeroSoAKernel(lev.convS, lev.dissS, lev.laplS, e.zeroDiss, sp.lo, sp.hi)
	case tConvEdges:
		sp := lev.edgeSpans[e.group][wk]
		d.ConvectiveEdgesSoAKernel(lev.wS, lev.convS, lev.edgeColors.Order[sp.lo:sp.hi])
	case tConvFaces:
		sp := lev.faceSpans[e.group][wk]
		d.BoundaryFluxSoAKernel(lev.wS, lev.convS, lev.faceColors.Order[sp.lo:sp.hi])
	case tDiss1:
		sp := lev.edgeSpans[e.group][wk]
		d.DissPass1SoAKernel(lev.wS, lev.laplS, d.Sensor(), d.Den(), lev.edgeColors.Order[sp.lo:sp.hi])
	case tNu:
		sp := lev.vertSpans[wk]
		d.NuRangeKernel(d.Sensor(), d.Den(), sp.lo, sp.hi)
	case tDiss2:
		sp := lev.edgeSpans[e.group][wk]
		d.DissPass2SoAKernel(lev.wS, lev.laplS, lev.dissS, d.Sensor(), lev.edgeColors.Order[sp.lo:sp.hi])
	case tCombine:
		sp := lev.vertSpans[wk]
		d.CombineResidualSoAKernel(lev.resS, lev.convS, lev.dissS, e.forcing, sp.lo, sp.hi)
	case tCombineOut:
		sp := lev.vertSpans[wk]
		d.CombineResidualOutKernel(lev.res, lev.convS, lev.dissS, e.forcing, sp.lo, sp.hi)
	case tNorm:
		sp := lev.normSpans[wk]
		nv := d.M.NV()
		res0 := lev.resS.Comp[0]
		for b := sp.lo; b < sp.hi; b++ {
			lo := b * normBlock
			hi := lo + normBlock
			if hi > nv {
				hi = nv
			}
			sum := 0.0
			for i := lo; i < hi; i++ {
				r := res0[i] / d.M.Vol[i]
				sum += r * r
			}
			lev.normPartial[b].v = sum
		}
	case tSmoothStartS:
		sp := lev.vertSpans[wk]
		lev.rhsS.CopyRange(lev.resS, sp.lo, sp.hi)
		e.nextS.ZeroRange(sp.lo, sp.hi)
	case tSmoothAccumS:
		sp := lev.edgeSpans[e.group][wk]
		d.SmoothAccumSoAKernel(e.curS, e.nextS, lev.edgeColors.Order[sp.lo:sp.hi])
	case tSmoothCombineS:
		sp := lev.vertSpans[wk]
		d.SmoothCombineSoAKernel(lev.rhsS, e.nextS, e.eps, sp.lo, sp.hi)
		if e.zeroCur {
			// cur has been fully gathered (barrier before this region) and
			// becomes the next sweep's accumulation target: zero it here
			// instead of in a sweep of its own.
			e.curS.ZeroRange(sp.lo, sp.hi)
		}
	case tCopyResS:
		sp := lev.vertSpans[wk]
		lev.resS.CopyRange(e.curS, sp.lo, sp.hi)
	case tUpdate:
		sp := lev.vertSpans[wk]
		d.UpdateFinalSoAKernel(e.w, lev.w0S, lev.resS, e.alpha, sp.lo, sp.hi)
	case tUpdateNext:
		sp := lev.vertSpans[wk]
		d.UpdateNextSoAKernel(lev.wS, lev.w0S, lev.resS, e.alpha, sp.lo, sp.hi)
		d.StageZeroSoAKernel(lev.convS, lev.dissS, lev.laplS, e.zeroDiss, sp.lo, sp.hi)
	case tResInit:
		sp := lev.vertSpans[wk]
		d.ResInitSoAKernel(e.w, lev.wS, sp.lo, sp.hi)
		d.StageZeroSoAKernel(lev.convS, lev.dissS, lev.laplS, true, sp.lo, sp.hi)
	case tInterp:
		sp := e.xspans[wk]
		e.xop.InterpRange(e.xsrc, e.xdst, sp.lo, sp.hi)
	case tScatter:
		sp := e.xspans[wk]
		e.xplan.GatherRange(e.xsrc, e.xdst, sp.lo, sp.hi)
	case tRepairSave:
		sp := lev.vertSpans[wk]
		for i := sp.lo; i < sp.hi; i++ {
			st := d.P.Repair(e.va[i])
			e.va[i] = st
			e.vb[i] = st
		}
	case tCorrDelta:
		sp := lev.vertSpans[wk]
		for i := sp.lo; i < sp.hi; i++ {
			for k := 0; k < euler.NVar; k++ {
				e.vdst[i][k] = e.va[i][k] - e.vb[i][k]
			}
		}
	case tForcingSub:
		sp := lev.vertSpans[wk]
		for i := sp.lo; i < sp.hi; i++ {
			for k := 0; k < euler.NVar; k++ {
				e.va[i][k] -= e.vb[i][k]
			}
		}
	case tLoadCorr:
		sp := lev.vertSpans[wk]
		lev.resS.FromStates(e.va, sp.lo, sp.hi)
	case tApplyCorr:
		sp := lev.vertSpans[wk]
		corr := &lev.resS.Comp
		for i := sp.lo; i < sp.hi; i++ {
			var cand euler.State
			for k := 0; k < euler.NVar; k++ {
				cand[k] = e.va[i][k] + corr[k][i]
			}
			if !d.P.Guard(cand) {
				continue // positivity guard: skip the correction at this vertex
			}
			e.va[i] = cand
		}
	}
}

// tick charges the wall clock since *t to an engine phase (routed through
// phaseMap) along with its analytic flop count, and restarts the clock.
func (e *engine) tick(phase int, fl int64, t *time.Time) {
	now := time.Now()
	e.acc.Add(e.phaseMap[phase], now.Sub(*t), fl)
	if e.et != nil {
		e.et.orch.Span(e.et.phasePh[phase], *t, now, 0)
	}
	*t = now
}

// step advances w by one multistage time step on lev, identically to
// euler.Disc.Step but with all loops colored, dispatched to the worker
// pool, and running on the SoA layout between the fused init and update
// sweeps. It returns the first-stage residual norm and performs no heap
// allocations.
func (e *engine) step(lev *levelEngine, w, forcing []euler.State) float64 {
	d := lev.d
	if d.M.NV() == 0 {
		return 0
	}
	e.lev = lev
	e.w, e.forcing = w, forcing
	t := time.Now()
	stepStart := t

	// Pressures, spectral radii, local time steps; the leading fused sweep
	// also loads the SoA solution block, and the trailing one zeroes the
	// stage-0 accumulators.
	e.fork(tInit, 0, lev.vertActive)
	if d.P.GlobalDt <= 0 {
		// Time-accurate runs use a fixed global dt; the spectral radii feed
		// only the local time steps, so the colored loops are skipped.
		e.coloredEdges(tLamEdges)
		e.coloredFaces(tLamFaces)
	}
	e.zeroDiss = euler.DissipStages > 0
	e.fork(tDtZero, 0, lev.vertActive)
	e.tick(phTimestep, lev.flTimestep, &t)

	norm := 0.0
	nstages := len(d.P.Stages)
	for q, alpha := range d.P.Stages {
		stageStart := t
		// Convective operator (accumulators were zeroed by the previous
		// stage's update sweep, or by tDtZero for stage 0).
		e.coloredEdges(tConvEdges)
		e.coloredFaces(tConvFaces)
		e.tick(phConvective, lev.flConv, &t)

		// Dissipation on the first stages, frozen afterwards.
		if q < euler.DissipStages {
			e.coloredEdges(tDiss1)
			e.fork(tNu, 0, lev.vertActive)
			e.coloredEdges(tDiss2)
			e.tick(phDissipation, lev.flDiss, &t)
		}

		e.fork(tCombine, 0, lev.vertActive)
		if q == 0 {
			norm = e.residualNorm(lev)
		}
		e.tick(phResidual, lev.flCombine, &t)

		e.smoothSoA(lev)
		e.tick(phSmoothing, lev.flSmooth, &t)

		e.alpha = alpha
		if q == nstages-1 {
			e.fork(tUpdate, 0, lev.vertActive)
			e.tick(phUpdate, lev.flUpdate, &t)
		} else {
			// Fused stage boundary: RK update, next stage's pressures, and
			// next stage's accumulator zeroing in one sweep.
			e.zeroDiss = q+1 < euler.DissipStages
			e.fork(tUpdateNext, 0, lev.vertActive)
			e.tick(phUpdate, lev.flUpdateNext, &t)
		}
		if e.et != nil {
			e.et.orch.Span(e.et.phStage, stageStart, t, int64(q))
		}
	}
	if e.et != nil {
		e.et.orch.Span(e.et.phStep, stepStart, t, 0)
	}
	e.w, e.forcing = nil, nil
	return norm
}

// residual evaluates the steady residual R(w) plus the optional FAS
// forcing into lev.res, matching euler.Disc.Residual (followed by the
// forcing add) arithmetic-for-arithmetic. The edge kernels run SoA; the
// combine sweep scatters straight into the []State output the transfer
// operators consume. Used by the multigrid forcing construction; performs
// no heap allocations.
func (e *engine) residual(lev *levelEngine, w, forcing []euler.State) {
	if lev.d.M.NV() == 0 {
		return
	}
	e.lev = lev
	e.w, e.forcing = w, forcing
	e.fork(tResInit, 0, lev.vertActive)
	e.coloredEdges(tConvEdges)
	e.coloredFaces(tConvFaces)
	e.coloredEdges(tDiss1)
	e.fork(tNu, 0, lev.vertActive)
	e.coloredEdges(tDiss2)
	e.fork(tCombineOut, 0, lev.vertActive)
	e.w, e.forcing = nil, nil
}

// residualNorm computes the RMS density residual / volume on lev. The
// reduction uses fixed-size blocks combined in block order, so the rounded
// result is independent of the worker count and equal to the sequential
// solver's euler.ResidualNormSq.
func (e *engine) residualNorm(lev *levelEngine) float64 {
	e.fork(tNorm, 0, lev.normActive)
	sum := 0.0
	for b := range lev.normPartial {
		sum += lev.normPartial[b].v
	}
	return math.Sqrt(sum / float64(lev.d.M.NV()))
}

// smoothSoA applies the implicit residual averaging in place to lev.resS —
// the step's combined residual, or a prolonged multigrid correction loaded
// there — with colored parallel Jacobi sweeps, ping-ponging resS against
// the level's smoothS scratch. The right-hand-side copy, the first sweep's
// zeroing and each following sweep's zeroing ride along on neighbouring
// vertex sweeps; an odd sweep count copies the result back into resS.
func (e *engine) smoothSoA(lev *levelEngine) {
	d := lev.d
	eps := d.P.EpsSmooth
	if eps == 0 || d.P.NSmooth == 0 || d.M.NV() == 0 {
		return
	}
	e.lev = lev
	e.eps = eps
	e.curS, e.nextS = lev.resS, lev.smoothS
	e.fork(tSmoothStartS, 0, lev.vertActive)
	for sweep := 0; sweep < d.P.NSmooth; sweep++ {
		e.coloredEdges(tSmoothAccumS)
		e.zeroCur = sweep+1 < d.P.NSmooth
		e.fork(tSmoothCombineS, 0, lev.vertActive)
		e.curS, e.nextS = e.nextS, e.curS
	}
	if e.curS != lev.resS {
		e.fork(tCopyResS, 0, lev.vertActive)
	}
}

// interp runs an inter-grid interpolation chunked over the target range
// table (spans/active belong to the level owning dst).
func (e *engine) interp(op *multigrid.TransferOp, src, dst []euler.State, spans []span, active int) {
	e.xop, e.xsrc, e.xdst, e.xspans = op, src, dst, spans
	e.fork(tInterp, 0, active)
	e.xop, e.xsrc, e.xdst, e.xspans = nil, nil, nil, nil
}

// scatter runs the destination-grouped residual restriction chunked over
// the destination-row table.
func (e *engine) scatter(pl *multigrid.ScatterPlan, src, dst []euler.State, spans []span, active int) {
	e.xplan, e.xsrc, e.xdst, e.xspans = pl, src, dst, spans
	e.fork(tScatter, 0, active)
	e.xplan, e.xsrc, e.xdst, e.xspans = nil, nil, nil, nil
}

// vertexOp runs one of the generic per-vertex regions over lev's vertices.
func (e *engine) vertexOp(j taskKind, lev *levelEngine, a, b, dst []euler.State) {
	e.lev = lev
	e.va, e.vb, e.vdst = a, b, dst
	e.fork(j, 0, lev.vertActive)
	e.va, e.vb, e.vdst = nil, nil, nil
}

// Solver executes the five-stage scheme on a single grid with colored
// loops dispatched to a persistent worker pool.
type Solver struct {
	D        *euler.Disc
	NWorkers int

	le  *levelEngine
	eng engine
}

// New builds a parallel solver over mesh m. nworkers <= 0 selects
// GOMAXPROCS. The worker goroutines persist until Close (or until the
// Solver is garbage-collected).
func New(m *mesh.Mesh, p euler.Params, nworkers int) (*Solver, error) {
	return NewColored(m, p, nworkers, nil, nil)
}

// NewColored is New with caller-provided edge and boundary-face colorings
// (verified here) instead of the greedy ones — used with color-canonical
// meshes, where the identity-run colorings make the parallel solver
// bitwise identical to the sequential one.
func NewColored(m *mesh.Mesh, p euler.Params, nworkers int, edges, faces *color.Coloring) (*Solver, error) {
	if nworkers <= 0 {
		nworkers = runtime.GOMAXPROCS(0)
	}
	le, err := newLevelEngine(m, p, nworkers, edges, faces)
	if err != nil {
		return nil, fmt.Errorf("smsolver: %w", err)
	}
	s := &Solver{D: le.d, NWorkers: nworkers, le: le}
	s.eng.init(nworkers, perf.NewAccum(phaseNames[:]...))
	// The workers reference only the pool (its fn slot is cleared between
	// forks), so an abandoned Solver is collectable; shut its pool down
	// when that happens.
	runtime.AddCleanup(s, func(p *pool) { p.shutdown() }, s.eng.pool)
	return s, nil
}

// Close parks the engine permanently: the worker goroutines exit and the
// Solver must not be stepped afterwards. Close is idempotent and optional —
// the garbage collector releases the workers of an unreferenced Solver —
// but deterministic teardown is kinder to tests and long-lived processes.
func (s *Solver) Close() {
	if s.eng.pool != nil {
		s.eng.pool.shutdown()
		s.eng.pool = nil
	}
}

// SetTrace attaches a flight-recorder tracer: every pooled worker gets a
// track of kernel and barrier-wait spans, and the orchestrator a "phases"
// track of step phases and RK stages. Call before the first Step; a nil
// tracer leaves tracing disabled. Traced steps stay allocation-free.
func (s *Solver) SetTrace(tr *trace.Tracer) { s.eng.attachTrace(tr, "") }

// NumColors returns the edge and boundary-face group counts.
func (s *Solver) NumColors() (edges, faces int) {
	return s.le.edgeColors.NumColors(), s.le.faceColors.NumColors()
}

// Stats returns the accumulated per-phase wall-clock timings with their
// analytic flop charges (internal/flops), from which per-phase and total
// MFlops rates follow.
func (s *Solver) Stats() perf.Stats { return s.eng.acc.Stats() }

// Step advances w by one multistage time step, identically to
// euler.Disc.Step but parallel. It returns the first-stage residual norm
// and performs no heap allocations.
func (s *Solver) Step(w []euler.State, forcing []euler.State) float64 {
	return s.eng.step(s.le, w, forcing)
}

// InitUniform fills w with the freestream state.
func (s *Solver) InitUniform(w []euler.State) { s.D.InitUniform(w) }
