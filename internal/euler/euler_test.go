package euler

import (
	"math"
	"math/rand"
	"testing"

	"eul3d/internal/geom"
	"eul3d/internal/meshgen"
)

func TestGasRoundTrip(t *testing.T) {
	g := Air
	s := g.FromPrimitive(1.3, 0.4, -0.2, 0.1, 0.9)
	if math.Abs(g.Pressure(s)-0.9) > 1e-14 {
		t.Errorf("pressure = %v", g.Pressure(s))
	}
	u, v, w := g.Velocity(s)
	if math.Abs(u-0.4)+math.Abs(v+0.2)+math.Abs(w-0.1) > 1e-14 {
		t.Errorf("velocity = %v %v %v", u, v, w)
	}
	wantC := math.Sqrt(1.4 * 0.9 / 1.3)
	if math.Abs(g.SoundSpeed(s)-wantC) > 1e-14 {
		t.Errorf("sound speed = %v, want %v", g.SoundSpeed(s), wantC)
	}
}

func TestFreestreamNormalization(t *testing.T) {
	g := Air
	s := g.Freestream(0.768, 1.116)
	if math.Abs(s[0]-1) > 1e-15 {
		t.Errorf("rho = %v", s[0])
	}
	if math.Abs(g.SoundSpeed(s)-1) > 1e-14 {
		t.Errorf("c = %v, want 1", g.SoundSpeed(s))
	}
	if math.Abs(g.Mach(s)-0.768) > 1e-14 {
		t.Errorf("Mach = %v", g.Mach(s))
	}
	// Angle of attack tilts the velocity into +y.
	_, v, _ := g.Velocity(s)
	if v <= 0 {
		t.Errorf("v component = %v, want > 0 for positive alpha", v)
	}
}

func TestStateArithmetic(t *testing.T) {
	a := State{1, 2, 3, 4, 5}
	b := State{5, 4, 3, 2, 1}
	if a.Add(b) != (State{6, 6, 6, 6, 6}) {
		t.Error("Add")
	}
	if a.Sub(b) != (State{-4, -2, 0, 2, 4}) {
		t.Error("Sub")
	}
	if a.Scale(2) != (State{2, 4, 6, 8, 10}) {
		t.Error("Scale")
	}
}

func TestFluxConsistency(t *testing.T) {
	// F(w).n for n aligned with velocity of a state at rest must be purely
	// pressure.
	g := Air
	s := g.FromPrimitive(1, 0, 0, 0, 1/g.Gamma)
	f := FluxDotN(s, g.Pressure(s), 0, 1, 0)
	want := State{0, 0, 1 / g.Gamma, 0, 0}
	for k := range f {
		if math.Abs(f[k]-want[k]) > 1e-15 {
			t.Fatalf("rest flux = %v", f)
		}
	}
}

// straightChannel returns a bumpless channel disc: uniform axial flow is an
// exact solution there.
func straightChannel(t *testing.T, nx, ny, nz int, mach float64) *Disc {
	t.Helper()
	spec := meshgen.DefaultChannel(nx, ny, nz, 3)
	spec.BumpHeight = 0
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	return NewDisc(m, DefaultParams(mach, 0))
}

func TestFreestreamPreservation(t *testing.T) {
	d := straightChannel(t, 6, 4, 3, 0.5)
	w := make([]State, d.M.NV())
	d.InitUniform(w)
	res := make([]State, len(w))
	d.Residual(w, res)
	for i, r := range res {
		for k := 0; k < NVar; k++ {
			if math.Abs(r[k]) > 1e-11 {
				t.Fatalf("vertex %d var %d: freestream residual %g", i, k, r[k])
			}
		}
	}
}

func TestDissipationConservative(t *testing.T) {
	// Dissipation is assembled antisymmetrically over edges, so it must
	// sum to zero over the mesh for any field.
	d := straightChannel(t, 5, 4, 3, 0.6)
	w := make([]State, d.M.NV())
	rng := rand.New(rand.NewSource(5))
	g := d.P.Gas
	for i := range w {
		w[i] = g.FromPrimitive(1+0.2*rng.Float64(), 0.3*rng.Float64(),
			0.2*rng.Float64(), 0.1*rng.Float64(), 0.7+0.2*rng.Float64())
	}
	d.computePressures(w)
	diss := make([]State, len(w))
	d.Dissipation(w, diss)
	var tot State
	scale := 0.0
	for i := range diss {
		for k := 0; k < NVar; k++ {
			tot[k] += diss[i][k]
			scale += math.Abs(diss[i][k])
		}
	}
	for k := 0; k < NVar; k++ {
		if math.Abs(tot[k]) > 1e-12*(1+scale) {
			t.Errorf("dissipation var %d sums to %g (scale %g)", k, tot[k], scale)
		}
	}
}

func TestConvectiveGlobalConservation(t *testing.T) {
	// Interior edge fluxes telescope, so the global residual sum must
	// equal the sum of boundary-face fluxes.
	d := straightChannel(t, 5, 3, 3, 0.6)
	w := make([]State, d.M.NV())
	rng := rand.New(rand.NewSource(6))
	g := d.P.Gas
	for i := range w {
		w[i] = g.FromPrimitive(1+0.1*rng.Float64(), 0.3+0.1*rng.Float64(),
			0.05*rng.Float64(), 0.05*rng.Float64(), 0.7+0.1*rng.Float64())
	}
	d.computePressures(w)
	res := make([]State, len(w))
	d.Convective(w, res)
	var tot State
	for i := range res {
		for k := 0; k < NVar; k++ {
			tot[k] += res[i][k]
		}
	}
	bnd := make([]State, len(w))
	d.boundaryFlux(w, bnd)
	var btot State
	for i := range bnd {
		for k := 0; k < NVar; k++ {
			btot[k] += bnd[i][k]
		}
	}
	for k := 0; k < NVar; k++ {
		if math.Abs(tot[k]-btot[k]) > 1e-11 {
			t.Errorf("var %d: residual sum %g != boundary flux sum %g", k, tot[k], btot[k])
		}
	}
}

func TestFarFieldStateUniform(t *testing.T) {
	g := Air
	winf := g.Freestream(0.7, 0)
	for _, n := range []geom.Vec3{{X: 1}, {X: -1}, {Y: 1}, {X: 0.5, Y: 0.5, Z: 0.7}} {
		wb := FarFieldState(g, winf, winf, n)
		for k := 0; k < NVar; k++ {
			if math.Abs(wb[k]-winf[k]) > 1e-12 {
				t.Fatalf("n=%v: farFieldState perturbed uniform flow: %v vs %v", n, wb, winf)
			}
		}
	}
}

func TestFarFieldSupersonic(t *testing.T) {
	g := Air
	winf := g.Freestream(2.0, 0)
	wi := g.FromPrimitive(1.1, 2.2, 0, 0, 0.8)
	// Outflow face (+x): full interior state.
	wb := FarFieldState(g, wi, winf, geom.Vec3{X: 1})
	if wb != wi {
		t.Error("supersonic outflow should take the interior state")
	}
	// Inflow face (-x): full freestream state.
	wb = FarFieldState(g, wi, winf, geom.Vec3{X: -1})
	if wb != winf {
		t.Error("supersonic inflow should take the freestream state")
	}
}

func TestTimeStepsPositive(t *testing.T) {
	d := straightChannel(t, 5, 4, 3, 0.7)
	w := make([]State, d.M.NV())
	d.InitUniform(w)
	d.computePressures(w)
	d.ComputeTimeSteps(w)
	for i, dt := range d.Dt {
		if !(dt > 0) || math.IsInf(dt, 0) {
			t.Fatalf("Dt[%d] = %v", i, dt)
		}
	}
}

func TestSmoothResidualsPreservesConstant(t *testing.T) {
	d := straightChannel(t, 4, 3, 3, 0.5)
	res := make([]State, d.M.NV())
	want := State{1, -2, 3, -4, 5}
	for i := range res {
		res[i] = want
	}
	d.SmoothResiduals(res)
	for i := range res {
		for k := 0; k < NVar; k++ {
			if math.Abs(res[i][k]-want[k]) > 1e-12 {
				t.Fatalf("constant residual changed at %d: %v", i, res[i])
			}
		}
	}
}

func TestSmoothResidualsDampsOscillation(t *testing.T) {
	d := straightChannel(t, 6, 4, 3, 0.5)
	res := make([]State, d.M.NV())
	rng := rand.New(rand.NewSource(8))
	varBefore := 0.0
	for i := range res {
		res[i][0] = rng.NormFloat64()
		varBefore += res[i][0] * res[i][0]
	}
	d.SmoothResiduals(res)
	varAfter := 0.0
	for i := range res {
		varAfter += res[i][0] * res[i][0]
	}
	if varAfter >= varBefore {
		t.Errorf("smoothing did not damp: %g -> %g", varBefore, varAfter)
	}
}

func TestSmoothResidualsDisabled(t *testing.T) {
	d := straightChannel(t, 3, 3, 3, 0.5)
	d.P.EpsSmooth = 0
	res := make([]State, d.M.NV())
	res[0] = State{1, 2, 3, 4, 5}
	before := res[0]
	d.SmoothResiduals(res)
	if res[0] != before {
		t.Error("EpsSmooth=0 should be a no-op")
	}
}

func TestStepPreservesFreestream(t *testing.T) {
	d := straightChannel(t, 5, 4, 3, 0.6)
	w := make([]State, d.M.NV())
	d.InitUniform(w)
	ws := NewStepWorkspace(len(w))
	norm := d.Step(w, nil, ws)
	if norm > 1e-11 {
		t.Errorf("freestream step residual norm = %g", norm)
	}
	for i := range w {
		for k := 0; k < NVar; k++ {
			if math.Abs(w[i][k]-d.P.Freestream[k]) > 1e-10 {
				t.Fatalf("freestream not preserved at vertex %d: %v", i, w[i])
			}
		}
	}
}

func TestStepZeroForcingMatchesNil(t *testing.T) {
	spec := meshgen.DefaultChannel(6, 4, 3, 3)
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisc(m, DefaultParams(0.6, 0))
	w1 := make([]State, m.NV())
	w2 := make([]State, m.NV())
	d.InitUniform(w1)
	d.InitUniform(w2)
	ws := NewStepWorkspace(m.NV())
	n1 := d.Step(w1, nil, ws)
	zero := make([]State, m.NV())
	n2 := d.Step(w2, zero, ws)
	if n1 != n2 {
		t.Errorf("norms differ: %v vs %v", n1, n2)
	}
	for i := range w1 {
		if w1[i] != w2[i] {
			t.Fatal("zero forcing changed the step")
		}
	}
}

func TestStepReducesResidualOnBump(t *testing.T) {
	// M = 0.3 keeps the shock switch quiet so the residual decays cleanly
	// within a few hundred cycles even on this coarse mesh (transonic
	// convergence studies live in the multigrid package tests).
	spec := meshgen.DefaultChannel(16, 8, 6, 3)
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := NewDisc(m, DefaultParams(0.3, 0))
	w := make([]State, m.NV())
	d.InitUniform(w)
	ws := NewStepWorkspace(m.NV())
	first := d.Step(w, nil, ws)
	var last float64
	// The impulsive start launches acoustic transients that must leave
	// through the far field before the residual decays; give them time.
	for it := 0; it < 300; it++ {
		last = d.Step(w, nil, ws)
	}
	if !(last < first/100) {
		t.Errorf("residual did not decrease: first %g, last %g", first, last)
	}
	// Solution must stay physical.
	for i := range w {
		if w[i][0] <= 0 || d.P.Gas.Pressure(w[i]) <= 0 {
			t.Fatalf("unphysical state at vertex %d: %v", i, w[i])
		}
	}
}

func TestResidualAveragingEnablesHighCFL(t *testing.T) {
	// The point of the implicit residual averaging: at CFL 6 the scheme
	// diverges without it and converges with it.
	spec := meshgen.DefaultChannel(12, 8, 6, 3)
	spec.BumpHeight = 0
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	run := func(smooth bool) float64 {
		p := DefaultParams(0.5, 0)
		if !smooth {
			p.EpsSmooth = 0
			p.NSmooth = 0
		}
		d := NewDisc(m, p)
		w := make([]State, m.NV())
		g := p.Gas
		for i, x := range m.X {
			w[i] = p.Freestream
			w[i][0] += 0.01 * math.Sin(math.Pi*x.X/3) * math.Sin(math.Pi*x.Y)
			_ = g
		}
		ws := NewStepWorkspace(m.NV())
		var norm float64
		for c := 0; c < 80; c++ {
			norm = d.Step(w, nil, ws)
			if math.IsNaN(norm) || norm > 1e3 {
				return math.Inf(1)
			}
		}
		return norm
	}
	with := run(true)
	without := run(false)
	if !(with < without/10) {
		t.Errorf("residual averaging should stabilize CFL 6: with=%g without=%g", with, without)
	}
}

func TestPositivityGuard(t *testing.T) {
	p := DefaultParams(0.7, 0)
	if !p.Guard(p.Freestream) {
		t.Error("guard rejected the freestream")
	}
	if p.Guard(State{0.01, 0, 0, 0, 1}) {
		t.Error("guard accepted near-vacuum density")
	}
	if p.Guard(Air.FromPrimitive(1, 0.5, 0, 0, 0.001)) {
		t.Error("guard accepted near-zero pressure")
	}
	p.MinDensity, p.MinPressure = 0, 0
	if !p.Guard(State{0.01, 0, 0, 0, -1}) {
		t.Error("disabled guard should accept anything")
	}
}

func TestGuardRevertsBlowUpStage(t *testing.T) {
	// Drive one vertex with a residual so large the update would go
	// unphysical: the guard must hold that vertex at its stage-0 state
	// while the rest of the field updates normally.
	d := straightChannel(t, 4, 3, 3, 0.5)
	w := make([]State, d.M.NV())
	d.InitUniform(w)
	ws := NewStepWorkspace(len(w))
	// A fake forcing blowing up vertex 0 only.
	forcing := make([]State, len(w))
	forcing[0] = State{1e6, 0, 0, 0, 0} // removes density violently
	d.Step(w, forcing, ws)
	if w[0] != d.P.Freestream {
		t.Errorf("guard did not hold the poisoned vertex: %v", w[0])
	}
	for i, s := range w {
		if s[0] <= 0 || d.P.Gas.Pressure(s) <= 0 {
			t.Fatalf("unphysical state at %d after guarded step", i)
		}
	}
}

func TestFarFieldUnphysicalInteriorFallsBack(t *testing.T) {
	g := Air
	winf := g.Freestream(0.7, 0)
	// Negative-pressure interior state (energy far below kinetic).
	bad := State{1, 2, 0, 0, 0.5}
	if g.Pressure(bad) >= 0 {
		t.Fatal("test state should have negative pressure")
	}
	wb := FarFieldState(g, bad, winf, geom.Vec3{X: 1})
	if wb != winf {
		t.Errorf("expected freestream fallback, got %v", wb)
	}
	for _, v := range wb {
		if math.IsNaN(v) {
			t.Fatal("NaN escaped the far-field state")
		}
	}
}

func TestRepairEnforcesFloors(t *testing.T) {
	p := DefaultParams(0.7, 0)
	g := p.Gas
	// Admissible states pass through untouched.
	ok := g.FromPrimitive(1, 0.5, 0, 0, 0.7)
	if p.Repair(ok) != ok {
		t.Error("Repair modified an admissible state")
	}
	// Negative pressure is floored, velocity preserved.
	bad := State{1, 2, 0, 0, 0.5} // p < 0
	r := p.Repair(bad)
	if pr := g.Pressure(r); math.Abs(pr-p.MinPressure) > 1e-12 {
		t.Errorf("repaired pressure %v, want floor %v", pr, p.MinPressure)
	}
	u, _, _ := g.Velocity(r)
	if math.Abs(u-2) > 1e-12 {
		t.Errorf("repair changed velocity: %v", u)
	}
	// Near-vacuum density is floored.
	thin := State{1e-6, 0, 0, 0, 1}
	if r := p.Repair(thin); r[0] < p.MinDensity {
		t.Errorf("repaired density %v below floor", r[0])
	}
}
