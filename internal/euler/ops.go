package euler

import (
	"math"

	"eul3d/internal/geom"
	"eul3d/internal/mesh"
)

// Params collects the numerical parameters of the scheme. Zero values are
// replaced by DefaultParams values where noted.
type Params struct {
	Gas        Gas
	CFL        float64   // Courant number for the local time step
	K2         float64   // Laplacian (shock) dissipation coefficient
	K4         float64   // biharmonic (background) dissipation coefficient
	EpsSmooth  float64   // implicit residual averaging coefficient (0 = off)
	NSmooth    int       // Jacobi sweeps for residual averaging
	Stages     []float64 // Runge-Kutta stage coefficients
	Freestream State     // far-field reference state

	// Positivity guard (see Guard): a stage update dropping density below
	// MinDensity or pressure below MinPressure is reverted at that vertex.
	// Zero values disable the guard.
	MinDensity  float64
	MinPressure float64

	// ConvexLimit replaces the all-or-nothing revert with the clip-free
	// convex limiter (see LimitUpdate in limiter.go): an inadmissible stage
	// update is scaled back along the segment to the stage-0 state until
	// density and pressure clear the floors, instead of being discarded.
	// Requires positive MinDensity/MinPressure to have any effect.
	ConvexLimit bool

	// GlobalDt, when positive, replaces the local time step CFL*V/lambda
	// with this fixed global step at every vertex, turning the multistage
	// scheme into a time-accurate low-storage Runge-Kutta integrator (set
	// EpsSmooth/NSmooth to zero as well — implicit residual averaging is a
	// steady-state convergence device and destroys time accuracy). The
	// caller owns stability: GlobalDt must respect the most restrictive
	// vertex's CFL limit.
	GlobalDt float64
}

// DefaultParams returns the parameter set used by the experiments: the
// hybrid 5-stage scheme with alpha = (1/4, 1/6, 3/8, 1/2, 1), dissipation
// evaluated on the first two stages only, CFL boosted by residual
// averaging.
func DefaultParams(mach, alphaDeg float64) Params {
	g := Air
	return Params{
		Gas:         g,
		CFL:         6.0,
		K2:          0.55,
		K4:          1.0 / 16,
		EpsSmooth:   0.6,
		NSmooth:     2,
		MinDensity:  0.05,
		MinPressure: 0.02,
		Stages:      []float64{0.25, 1.0 / 6, 0.375, 0.5, 1.0},
		Freestream:  g.Freestream(mach, alphaDeg),
	}
}

// DissipStages is the number of leading RK stages on which the dissipative
// operator is re-evaluated; it is frozen afterwards (Section 2.2).
const DissipStages = 2

// Disc couples a mesh with the numerical parameters and owns the scratch
// arrays for one grid level, so that the per-cycle hot loops are
// allocation-free.
type Disc struct {
	M *mesh.Mesh
	P Params

	// Scratch (sized to the mesh):
	pres   []float64 // vertex pressures
	lam    []float64 // vertex-accumulated spectral radii (for Dt)
	sensor []float64 // pressure-switch numerator workspace
	den    []float64 // pressure-switch denominator workspace
	lapl   []State   // undivided Laplacian of w
	smooth []State   // residual-averaging workspace
	rhs    []State   // residual-averaging right-hand side copy
	rdiss  []State   // dissipation scratch for Residual
	deg    []int32   // vertex degrees (for Jacobi smoothing)
	Dt     []float64 // local time steps
}

// NewDisc allocates a discretization for mesh m with parameters p.
func NewDisc(m *mesh.Mesh, p Params) *Disc {
	nv := m.NV()
	return &Disc{
		M: m, P: p,
		pres:   make([]float64, nv),
		lam:    make([]float64, nv),
		sensor: make([]float64, nv),
		den:    make([]float64, nv),
		lapl:   make([]State, nv),
		smooth: make([]State, nv),
		rhs:    make([]State, nv),
		rdiss:  make([]State, nv),
		deg:    degrees(m),
		Dt:     make([]float64, nv),
	}
}

func degrees(m *mesh.Mesh) []int32 {
	deg := make([]int32, m.NV())
	for _, e := range m.Edges {
		deg[e[0]]++
		deg[e[1]]++
	}
	return deg
}

// growF64 returns a length-n float64 slice, reusing s's backing array when
// it is large enough and otherwise allocating with 25% headroom so repeated
// adaptation epochs amortize. Contents are unspecified beyond the old data.
func growF64(s []float64, n int) []float64 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]float64, n, n+n/4)
}

func growState(s []State, n int) []State {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]State, n, n+n/4)
}

func growI32(s []int32, n int) []int32 {
	if cap(s) >= n {
		return s[:n]
	}
	return make([]int32, n, n+n/4)
}

// Retarget points the discretization at a new (typically adaptively
// refined) mesh, growing the scratch arrays in place where their capacity
// allows. It is the cheap alternative to NewDisc between adaptation
// epochs: no allocation happens when the mesh shrank or grew within the
// reserve headroom. Scratch contents are recomputed by the next operator
// call; only deg is rebuilt eagerly (SmoothResiduals reads it directly).
func (d *Disc) Retarget(m *mesh.Mesh, p Params) {
	d.M, d.P = m, p
	nv := m.NV()
	d.pres = growF64(d.pres, nv)
	d.lam = growF64(d.lam, nv)
	d.sensor = growF64(d.sensor, nv)
	d.den = growF64(d.den, nv)
	d.lapl = growState(d.lapl, nv)
	d.smooth = growState(d.smooth, nv)
	d.rhs = growState(d.rhs, nv)
	d.rdiss = growState(d.rdiss, nv)
	d.Dt = growF64(d.Dt, nv)
	d.deg = growI32(d.deg, nv)
	for i := range d.deg {
		d.deg[i] = 0
	}
	for _, e := range m.Edges {
		d.deg[e[0]]++
		d.deg[e[1]]++
	}
}

// MinStableDt returns the most restrictive vertex time step min_i V_i /
// lambda_i of solution w on mesh m — the CFL=1 stability bound that
// adaptive time stepping rescales GlobalDt against after each refinement
// epoch. It runs sequentially in mesh order (a fixed adaptation schedule
// must yield bitwise-identical steps at every worker count) and owns its
// scratch, so it is safe to call on any mesh/solution pair without a Disc.
func MinStableDt(m *mesh.Mesh, p Params, w []State) float64 {
	nv := m.NV()
	g := p.Gas
	pres := make([]float64, nv)
	lam := make([]float64, nv)
	for i := 0; i < nv; i++ {
		pres[i] = g.Pressure(w[i])
	}
	for e, ed := range m.Edges {
		i, j := ed[0], ed[1]
		lamE := SpectralRadius(g, w[i], w[j], pres[i], pres[j], m.EdgeNorm[e])
		lam[i] += lamE
		lam[j] += lamE
	}
	for bi := range m.BFaces {
		f := &m.BFaces[bi]
		n := f.Normal
		for _, v := range f.V {
			inv := 1 / w[v][0]
			un := (w[v][1]*n.X + w[v][2]*n.Y + w[v][3]*n.Z) * inv
			c := math.Sqrt(g.Gamma * pres[v] * inv)
			lam[v] += (math.Abs(un) + c*n.Norm()) / 3
		}
	}
	min := math.Inf(1)
	for i := 0; i < nv; i++ {
		if lam[i] > 0 {
			if dt := m.Vol[i] / lam[i]; dt < min {
				min = dt
			}
		}
	}
	return min
}

// computePressures fills d.pres from w.
func (d *Disc) computePressures(w []State) {
	g := d.P.Gas
	for i := range w {
		d.pres[i] = g.Pressure(w[i])
	}
}

// Convective accumulates the convective operator Q(w) into res (which is
// overwritten): a single loop over edges plus a loop over boundary faces,
// exactly the structure of the paper's executor loops. Pressures must be
// current (computePressures).
func (d *Disc) Convective(w []State, res []State) {
	m := d.M
	for i := range res {
		res[i] = State{}
	}
	for e, ed := range m.Edges {
		i, j := ed[0], ed[1]
		n := m.EdgeNorm[e]
		fi := FluxDotN(w[i], d.pres[i], n.X, n.Y, n.Z)
		fj := FluxDotN(w[j], d.pres[j], n.X, n.Y, n.Z)
		for k := 0; k < NVar; k++ {
			f := 0.5 * (fi[k] + fj[k])
			res[i][k] += f
			res[j][k] -= f
		}
	}
	d.boundaryFlux(w, res)
}

// boundaryFlux adds the boundary closure: a weak pressure flux on walls and
// symmetry planes, and a characteristic far-field flux on in/outflow faces.
// Each face flux is lumped equally onto the face's three vertices.
func (d *Disc) boundaryFlux(w []State, res []State) {
	m := d.M
	g := d.P.Gas
	for bi := range m.BFaces {
		f := &m.BFaces[bi]
		n := f.Normal
		var flux State
		switch f.Kind {
		case mesh.Wall, mesh.Symmetry:
			// Impermeable: only the pressure term survives v.n = 0.
			p := (d.pres[f.V[0]] + d.pres[f.V[1]] + d.pres[f.V[2]]) / 3
			flux = State{0, p * n.X, p * n.Y, p * n.Z, 0}
		case mesh.FarField:
			var wi State
			for k := 0; k < NVar; k++ {
				wi[k] = (w[f.V[0]][k] + w[f.V[1]][k] + w[f.V[2]][k]) / 3
			}
			wb := FarFieldState(g, wi, d.P.Freestream, n)
			flux = FluxDotN(wb, g.Pressure(wb), n.X, n.Y, n.Z)
		}
		for k := 0; k < NVar; k++ {
			third := flux[k] / 3
			res[f.V[0]][k] += third
			res[f.V[1]][k] += third
			res[f.V[2]][k] += third
		}
	}
}

// edgeSpectralRadius returns lambda_ij = |v_avg . n| + c_avg |n| for edge
// (i,j) with dual normal n.
func (d *Disc) edgeSpectralRadius(w []State, i, j int32, n geom.Vec3) float64 {
	return SpectralRadius(d.P.Gas, w[i], w[j], d.pres[i], d.pres[j], n)
}

// SpectralRadius returns the convective spectral radius |v_avg.n| +
// c_avg*|n| of the edge joining states wi and wj (with precomputed
// pressures pi, pj) across the dual face normal n. Exported for the
// distributed-memory solver, which runs the same edge kernels on
// partition-local data.
func SpectralRadius(g Gas, wi, wj State, pi, pj float64, n geom.Vec3) float64 {
	ri, rj := 1/wi[0], 1/wj[0]
	u := 0.5 * (wi[1]*ri + wj[1]*rj)
	v := 0.5 * (wi[2]*ri + wj[2]*rj)
	ww := 0.5 * (wi[3]*ri + wj[3]*rj)
	c := 0.5 * (math.Sqrt(g.Gamma*pi*ri) + math.Sqrt(g.Gamma*pj*rj))
	return math.Abs(u*n.X+v*n.Y+ww*n.Z) + c*n.Norm()
}

// Dissipation accumulates the blended Laplacian/biharmonic artificial
// dissipation D(w) into diss (overwritten). It is the two-pass edge loop of
// Section 2.2: the first pass assembles the undivided Laplacian and the
// pressure sensor, the second the blended dissipative flux.
func (d *Disc) Dissipation(w []State, diss []State) {
	m := d.M
	// Pass 1: Laplacian of w and pressure-switch sensor.
	num := d.sensor
	den := d.den
	for i := range w {
		d.lapl[i] = State{}
		num[i] = 0
		den[i] = 0
	}
	for _, ed := range m.Edges {
		i, j := ed[0], ed[1]
		for k := 0; k < NVar; k++ {
			dw := w[j][k] - w[i][k]
			d.lapl[i][k] += dw
			d.lapl[j][k] -= dw
		}
		dp := d.pres[j] - d.pres[i]
		num[i] += dp
		num[j] -= dp
		sp := d.pres[j] + d.pres[i]
		den[i] += sp
		den[j] += sp
	}
	nu := num // per-vertex shock switch, in place
	for i := range nu {
		nu[i] = math.Abs(num[i]) / den[i]
	}

	// Pass 2: blended dissipative flux.
	k2, k4 := d.P.K2, d.P.K4
	for i := range diss {
		diss[i] = State{}
	}
	for e, ed := range m.Edges {
		i, j := ed[0], ed[1]
		lamE := d.edgeSpectralRadius(w, i, j, m.EdgeNorm[e])
		eps2 := k2 * math.Max(nu[i], nu[j])
		eps4 := math.Max(0, k4-eps2)
		for k := 0; k < NVar; k++ {
			f := lamE * (eps2*(w[j][k]-w[i][k]) - eps4*(d.lapl[j][k]-d.lapl[i][k]))
			diss[i][k] += f
			diss[j][k] -= f
		}
	}
}

// ComputeTimeSteps fills d.Dt with the local time step CFL*V_i/sum(lambda)
// (edge loop plus boundary-face contribution). Pressures must be current.
func (d *Disc) ComputeTimeSteps(w []State) {
	if dt := d.P.GlobalDt; dt > 0 {
		// Time-accurate mode: one fixed step everywhere; the spectral-radius
		// accumulation is skipped (lam feeds nothing else).
		for i := range d.Dt {
			d.Dt[i] = dt
		}
		return
	}
	m := d.M
	g := d.P.Gas
	for i := range d.lam {
		d.lam[i] = 0
	}
	for e, ed := range m.Edges {
		i, j := ed[0], ed[1]
		lamE := d.edgeSpectralRadius(w, i, j, m.EdgeNorm[e])
		d.lam[i] += lamE
		d.lam[j] += lamE
	}
	for bi := range m.BFaces {
		f := &m.BFaces[bi]
		n := f.Normal
		for _, v := range f.V {
			inv := 1 / w[v][0]
			un := (w[v][1]*n.X + w[v][2]*n.Y + w[v][3]*n.Z) * inv
			c := math.Sqrt(g.Gamma * d.pres[v] * inv)
			d.lam[v] += (math.Abs(un) + c*n.Norm()) / 3
		}
	}
	cfl := d.P.CFL
	for i := range d.Dt {
		d.Dt[i] = cfl * d.M.Vol[i] / d.lam[i]
	}
}

// SmoothResiduals applies NSmooth Jacobi sweeps of the implicit residual
// averaging (I + eps*L) Rbar = R, in place on res.
func (d *Disc) SmoothResiduals(res []State) {
	eps := d.P.EpsSmooth
	if eps == 0 || d.P.NSmooth == 0 || len(res) == 0 {
		return
	}
	m := d.M
	copy(d.rhs, res) // the original R stays the Jacobi right-hand side
	cur := res
	next := d.smooth
	for sweep := 0; sweep < d.P.NSmooth; sweep++ {
		for i := range next {
			next[i] = State{}
		}
		for _, ed := range m.Edges {
			i, j := ed[0], ed[1]
			for k := 0; k < NVar; k++ {
				next[i][k] += cur[j][k]
				next[j][k] += cur[i][k]
			}
		}
		for i := range next {
			inv := 1 / (1 + eps*float64(d.deg[i]))
			for k := 0; k < NVar; k++ {
				next[i][k] = (d.rhs[i][k] + eps*next[i][k]) * inv
			}
		}
		cur, next = next, cur
	}
	if &cur[0] != &res[0] {
		copy(res, cur)
	}
}

// Guard returns true when s is physically admissible under the positivity
// thresholds. Stage updates that fail the guard are reverted to the
// stage-0 state: during violent impulsive-start transients (most visibly
// the W-cycle's repeated coarse-grid visits on fine meshes) an
// intermediate Runge-Kutta state can otherwise reach negative density or
// pressure and poison the run with NaNs. Near convergence the guard never
// triggers, so the converged solution is unaffected.
func (p *Params) Guard(s State) bool {
	if p.MinDensity <= 0 && p.MinPressure <= 0 {
		return true
	}
	if s[0] < p.MinDensity {
		return false
	}
	return p.Gas.Pressure(s) >= p.MinPressure
}

// Repair enforces the positivity floors on s, preserving velocity:
// density and pressure are clamped from below and the conserved state is
// rebuilt. States produced by *interpolation* (multigrid restriction and
// correction) need this rather than a revert, because there is no previous
// admissible value to fall back on — conserved-variable interpolation
// preserves positive density but not positive pressure.
func (p *Params) Repair(s State) State {
	if p.Guard(s) {
		return s
	}
	g := p.Gas
	rho := s[0]
	if rho < p.MinDensity {
		rho = p.MinDensity
	}
	u, v, w := s[1]/s[0], s[2]/s[0], s[3]/s[0]
	if s[0] <= 0 {
		u, v, w = 0, 0, 0
	}
	pr := g.Pressure(s)
	if pr < p.MinPressure {
		pr = p.MinPressure
	}
	return g.FromPrimitive(rho, u, v, w, pr)
}
