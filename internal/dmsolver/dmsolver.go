// Package dmsolver is the distributed-memory implementation of EUL3D,
// mirroring the paper's Intel Touchstone Delta port. The mesh (and each
// coarser mesh of a multigrid sequence) is partitioned across P simulated
// processors; every compute kernel of the sequential solver is re-expressed
// as a loop over partition-local edges with PARTI gather/scatter executors
// at exactly the points where off-processor data is produced or consumed:
//
//   - flow variables are gathered into ghost slots once per Runge-Kutta
//     stage (the paper: "We can obtain all of the off-processor flow
//     variables needed at the beginning of the step");
//   - edge-loop accumulations (convective and dissipative residuals,
//     Laplacians, sensor sums, spectral radii, smoothing sums) land in
//     ghost slots and are scatter-added back to their owners;
//   - multigrid transfers use incremental schedules on top of the flow
//     variable schedule, fetching only addresses not already ghosted.
//
// Cycle runs one goroutine per simulated processor, each executing the
// same cycle and meeting the others only at those exchange points. The
// answers are identical (to roundoff) to the sequential solver; tests
// assert this.
package dmsolver

import (
	"fmt"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/geom"
	"eul3d/internal/mesh"
	"eul3d/internal/multigrid"
	"eul3d/internal/parti"
	"eul3d/internal/simnet"
)

// localBFace is a boundary face with partition-local vertex indices.
type localBFace struct {
	V      [3]int32
	Normal geom.Vec3
	Kind   mesh.BCKind
}

// CommCounters tallies schedule executions per cycle class so the Delta
// machine model can convert communication volume into time.
type CommCounters struct {
	GatherState  int64 // state-array gathers executed
	ScatterState int64 // state-array scatter-adds executed
	GatherFloat  int64
	ScatterFloat int64
}

// Level holds the distributed state of one grid level.
type Level struct {
	Index int        // position in Solver.Levels (0 = finest)
	M     *mesh.Mesh // the global mesh (preprocessing data; not touched in loops)
	Part  []int32    // vertex -> processor
	Dist  *parti.Dist
	GS    *parti.GhostSpace

	// SchedW fills ghosts of every vertex referenced by local edge or
	// boundary-face loops.
	SchedW *parti.Schedule
	// SchedRestrict (on this level, for the coarser level's benefit) and
	// SchedCoarse are built by the multigrid constructor; nil otherwise.
	SchedFine   *parti.Schedule // extra fine-level ghosts for restriction (lives on the finer level)
	SchedCoarse *parti.Schedule // coarse-level ghosts for prolongation/residual scatter

	// Per-processor topology, local indices into [owned | ghost] arrays.
	Edges  [][][2]int32
	ENorm  [][]geom.Vec3
	BFaces [][]localBFace
	Vol    [][]float64 // owned only
	Deg    [][]float64 // true global degree, owned only

	// Per-processor solution and scratch arrays, sized TotalSize(p).
	W, W0, Conv, Diss, Res, Lapl, Smooth, RHS, Forcing, WSaved, Corr [][]euler.State
	Pres, Num, Den, Lam, Dt                                          [][]float64

	// Multigrid transfer operators localized per processor: for each
	// owned target vertex, 4 local source addresses + weights.
	RestrictAddr [][][4]int32 // coarse-owned vertex -> fine-local addresses (on the same proc)
	RestrictWt   [][][4]float64
	ProlongAddr  [][][4]int32 // fine-owned vertex -> coarse-local addresses
	ProlongWt    [][][4]float64
}

// Solver is the distributed-memory flow solver (single grid when it has one
// level, FAS multigrid otherwise).
type Solver struct {
	P      euler.Params
	NProc  int
	Gamma  int
	Fabric *simnet.Fabric
	Levels []*Level
	Comm   CommCounters

	// Flight recorder (trace.go): nil when tracing is disabled. builds
	// keeps the construction timings for replay into a later-attached
	// tracer.
	st     *solverTrace
	builds []buildSpan
}

// NewSingle builds a distributed single-grid solver over m with the given
// vertex partition.
func NewSingle(m *mesh.Mesh, part []int32, nproc int, p euler.Params) (*Solver, error) {
	return build([]*mesh.Mesh{m}, [][]int32{part}, nproc, p, 1)
}

// NewMultigrid builds a distributed FAS multigrid solver. parts[0] is the
// fine-grid partition; coarser levels, if their entry is nil, inherit the
// partition through the transfer operators (each coarse vertex joins the
// processor owning the dominant fine vertex of its containing tetrahedron),
// which keeps inter-grid transfers mostly local.
func NewMultigrid(meshes []*mesh.Mesh, parts [][]int32, nproc int, p euler.Params, gamma int) (*Solver, error) {
	return build(meshes, parts, nproc, p, gamma)
}

func build(meshes []*mesh.Mesh, parts [][]int32, nproc int, p euler.Params, gamma int) (*Solver, error) {
	if len(meshes) == 0 {
		return nil, fmt.Errorf("dmsolver: no meshes")
	}
	if len(parts) != len(meshes) {
		return nil, fmt.Errorf("dmsolver: %d meshes but %d partitions", len(meshes), len(parts))
	}
	if nproc < 1 {
		return nil, fmt.Errorf("dmsolver: nproc must be >= 1")
	}
	s := &Solver{P: p, NProc: nproc, Gamma: gamma, Fabric: simnet.New(nproc)}

	// Sequential preprocessing: transfer operators between levels.
	var restrictOps, prolongOps []*multigrid.TransferOp // index l: between level l-1 (fine) and l (coarse)
	for l := 1; l < len(meshes); l++ {
		bt := time.Now()
		r, err := multigrid.BuildTransfer(meshes[l], meshes[l-1])
		if err != nil {
			return nil, fmt.Errorf("dmsolver: restrict %d: %w", l, err)
		}
		pr, err := multigrid.BuildTransfer(meshes[l-1], meshes[l])
		if err != nil {
			return nil, fmt.Errorf("dmsolver: prolong %d: %w", l, err)
		}
		restrictOps = append(restrictOps, r)
		prolongOps = append(prolongOps, pr)
		s.recordBuild("transfer-build", l, bt)
	}

	for l, m := range meshes {
		part := parts[l]
		if part == nil {
			if l == 0 {
				return nil, fmt.Errorf("dmsolver: fine-grid partition is required")
			}
			// Inherit: coarse vertex joins the processor of the dominant
			// fine interpolation address.
			op := restrictOps[l-1]
			part = make([]int32, m.NV())
			for v := range part {
				best := 0
				for k := 1; k < 4; k++ {
					if op.Wt[v][k] > op.Wt[v][best] {
						best = k
					}
				}
				part[v] = parts[l-1][op.Addr[v][best]]
			}
			parts[l] = part
		}
		if len(part) != m.NV() {
			return nil, fmt.Errorf("dmsolver: level %d partition has %d entries for %d vertices", l, len(part), m.NV())
		}
		bt := time.Now()
		lev, err := buildLevel(m, part, nproc)
		if err != nil {
			return nil, fmt.Errorf("dmsolver: level %d: %w", l, err)
		}
		s.recordBuild("schedule-build", l, bt)
		lev.Index = l
		s.Levels = append(s.Levels, lev)
	}

	// Localize the multigrid transfer operators and build their
	// (incremental) schedules.
	for l := 1; l < len(s.Levels); l++ {
		bt := time.Now()
		fine, coarse := s.Levels[l-1], s.Levels[l]
		rop, pop := restrictOps[l-1], prolongOps[l-1]

		// Restriction: coarse-owned vertices reference fine globals.
		fineRefs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for _, g := range coarse.Dist.L2G[p] {
				fineRefs[p] = append(fineRefs[p], rop.Addr[g][:]...)
			}
		}
		coarse.SchedFine, _ = parti.BuildIncremental(fine.GS, fineRefs)

		// Prolongation / residual scatter: fine-owned vertices reference
		// coarse globals.
		coarseRefs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for _, g := range fine.Dist.L2G[p] {
				coarseRefs[p] = append(coarseRefs[p], pop.Addr[g][:]...)
			}
		}
		coarse.SchedCoarse, _ = parti.BuildIncremental(coarse.GS, coarseRefs)

		// Localized operator tables (must be built after all ghost slots
		// are allocated; Localize on an existing ghost is a lookup).
		coarse.RestrictAddr = make([][][4]int32, nproc)
		coarse.RestrictWt = make([][][4]float64, nproc)
		coarse.ProlongAddr = make([][][4]int32, nproc)
		coarse.ProlongWt = make([][][4]float64, nproc)
		for p := 0; p < nproc; p++ {
			for _, g := range coarse.Dist.L2G[p] {
				var a [4]int32
				for k := 0; k < 4; k++ {
					a[k] = fine.GS.Localize(p, rop.Addr[g][k])
				}
				coarse.RestrictAddr[p] = append(coarse.RestrictAddr[p], a)
				coarse.RestrictWt[p] = append(coarse.RestrictWt[p], rop.Wt[g])
			}
			for _, g := range fine.Dist.L2G[p] {
				var a [4]int32
				for k := 0; k < 4; k++ {
					a[k] = coarse.GS.Localize(p, pop.Addr[g][k])
				}
				coarse.ProlongAddr[p] = append(coarse.ProlongAddr[p], a)
				coarse.ProlongWt[p] = append(coarse.ProlongWt[p], pop.Wt[g])
			}
		}
		s.recordBuild("incremental-build", l, bt)
	}

	// Allocate solution arrays now that every ghost slot exists.
	for _, lev := range s.Levels {
		lev.alloc(nproc)
	}
	s.InitUniform()
	return s, nil
}

// buildLevel partitions one mesh's topology across processors.
func buildLevel(m *mesh.Mesh, part []int32, nproc int) (*Level, error) {
	dist, err := parti.NewDist(part, nproc)
	if err != nil {
		return nil, err
	}
	// Processors may own no vertices of a level: the paper's coarsest grid
	// had far fewer points than the Delta had nodes ("smaller data sets
	// spread over an equally large number of processors"). Such processors
	// simply idle through that level's loops.
	lev := &Level{M: m, Part: part, Dist: dist, GS: parti.NewGhostSpace(dist)}

	// Inspector: collect each processor's references (edge endpoints and
	// boundary-face vertices of the loops assigned to it).
	refs := make([][]int32, nproc)
	for _, e := range m.Edges {
		p := part[e[0]] // each edge is computed by the owner of its first endpoint
		refs[p] = append(refs[p], e[0], e[1])
	}
	for i := range m.BFaces {
		f := &m.BFaces[i]
		p := part[f.V[0]]
		refs[p] = append(refs[p], f.V[0], f.V[1], f.V[2])
	}
	lev.SchedW = parti.BuildSchedule(lev.GS, refs)

	// Executor-side topology with localized addresses.
	lev.Edges = make([][][2]int32, nproc)
	lev.ENorm = make([][]geom.Vec3, nproc)
	lev.BFaces = make([][]localBFace, nproc)
	for ei, e := range m.Edges {
		p := int(part[e[0]])
		lev.Edges[p] = append(lev.Edges[p], [2]int32{
			lev.GS.Localize(p, e[0]),
			lev.GS.Localize(p, e[1]),
		})
		lev.ENorm[p] = append(lev.ENorm[p], m.EdgeNorm[ei])
	}
	for i := range m.BFaces {
		f := &m.BFaces[i]
		p := int(part[f.V[0]])
		lev.BFaces[p] = append(lev.BFaces[p], localBFace{
			V: [3]int32{
				lev.GS.Localize(p, f.V[0]),
				lev.GS.Localize(p, f.V[1]),
				lev.GS.Localize(p, f.V[2]),
			},
			Normal: f.Normal,
			Kind:   f.Kind,
		})
	}

	// Owned dual volumes and true global degrees.
	lev.Vol = make([][]float64, nproc)
	lev.Deg = make([][]float64, nproc)
	for p := 0; p < nproc; p++ {
		lev.Vol[p] = make([]float64, dist.Count(p))
		lev.Deg[p] = make([]float64, dist.Count(p))
		for li, g := range dist.L2G[p] {
			lev.Vol[p][li] = m.Vol[g]
		}
	}
	deg := make([]int32, m.NV())
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	for p := 0; p < nproc; p++ {
		for li, g := range dist.L2G[p] {
			lev.Deg[p][li] = float64(deg[g])
		}
	}
	return lev, nil
}

// alloc sizes the per-processor solution arrays to owned+ghost.
func (lev *Level) alloc(nproc int) {
	mk := func() [][]euler.State {
		a := make([][]euler.State, nproc)
		for p := 0; p < nproc; p++ {
			a[p] = make([]euler.State, lev.GS.TotalSize(p))
		}
		return a
	}
	mkf := func() [][]float64 {
		a := make([][]float64, nproc)
		for p := 0; p < nproc; p++ {
			a[p] = make([]float64, lev.GS.TotalSize(p))
		}
		return a
	}
	lev.W, lev.W0, lev.Conv, lev.Diss = mk(), mk(), mk(), mk()
	lev.Res, lev.Lapl, lev.Smooth, lev.RHS = mk(), mk(), mk(), mk()
	lev.Forcing, lev.WSaved, lev.Corr = mk(), mk(), mk()
	lev.Pres, lev.Num, lev.Den, lev.Lam, lev.Dt = mkf(), mkf(), mkf(), mkf(), mkf()
}

// InitUniform sets every level to the freestream state (owned and ghost).
func (s *Solver) InitUniform() {
	for _, lev := range s.Levels {
		for p := range lev.W {
			for i := range lev.W[p] {
				lev.W[p][i] = s.P.Freestream
			}
		}
	}
}

// GatherSolution reassembles the global fine-grid solution from the owned
// ranges (for output and verification).
func (s *Solver) GatherSolution() []euler.State {
	lev := s.Levels[0]
	out := make([]euler.State, lev.M.NV())
	for p := 0; p < s.NProc; p++ {
		for li, g := range lev.Dist.L2G[p] {
			out[g] = lev.W[p][li]
		}
	}
	return out
}
