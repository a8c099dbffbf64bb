package euler

import (
	"math"
	"math/rand"
	"testing"
)

func limiterParams() Params {
	return Params{Gas: Air, MinDensity: 0.05, MinPressure: 0.02, ConvexLimit: true}
}

// randAdmissible draws a random state clearing the floors of p.
func randAdmissible(rng *rand.Rand, p *Params) State {
	for {
		s := p.Gas.FromPrimitive(
			p.MinDensity+math.Exp(rng.Float64()*3-1),
			rng.Float64()*4-2, rng.Float64()*4-2, rng.Float64()*4-2,
			p.MinPressure+math.Exp(rng.Float64()*3-1),
		)
		if p.Guard(s) {
			return s
		}
	}
}

// randCandidate draws a random candidate update, admissible or not.
func randCandidate(rng *rand.Rand) State {
	var s State
	for k := 0; k < NVar; k++ {
		s[k] = rng.Float64()*8 - 4
	}
	return s
}

// TestLimitUpdateIdentity: an admissible candidate passes through bitwise
// unchanged — the limiter is invisible on smooth flow and near
// convergence.
func TestLimitUpdateIdentity(t *testing.T) {
	p := limiterParams()
	rng := rand.New(rand.NewSource(3))
	for i := 0; i < 1000; i++ {
		w0 := randAdmissible(rng, &p)
		cand := randAdmissible(rng, &p)
		if got := p.LimitUpdate(w0, cand); got != cand {
			t.Fatalf("admissible candidate altered: %v -> %v", cand, got)
		}
	}
}

// TestLimitUpdateAdmissible: whatever the candidate, the limited state is
// admissible (rho and p clear the floors) and lies on the segment between
// w0 and cand.
func TestLimitUpdateAdmissible(t *testing.T) {
	p := limiterParams()
	rng := rand.New(rand.NewSource(4))
	limited, passed := 0, 0
	for i := 0; i < 5000; i++ {
		w0 := randAdmissible(rng, &p)
		cand := randCandidate(rng)
		out := p.LimitUpdate(w0, cand)
		if !p.Guard(out) {
			t.Fatalf("limited state inadmissible: w0=%v cand=%v out=%v (rho=%g p=%g)",
				w0, cand, out, out[0], p.Gas.Pressure(out))
		}
		// On the segment: every component's blending parameter must agree.
		theta := -1.0
		for k := 0; k < NVar; k++ {
			d := cand[k] - w0[k]
			if math.Abs(d) < 1e-12 {
				continue
			}
			tk := (out[k] - w0[k]) / d
			if tk < -1e-9 || tk > 1+1e-9 {
				t.Fatalf("component %d off the segment: theta=%g", k, tk)
			}
			if theta < 0 {
				theta = tk
			} else if math.Abs(tk-theta) > 1e-9 {
				t.Fatalf("inconsistent theta across components: %g vs %g", tk, theta)
			}
		}
		if out != cand {
			limited++
		} else {
			passed++
		}
	}
	// The draw ranges make both outcomes (pass-through, partial limit)
	// common; if one never occurs the test lost its teeth. A full revert
	// never happens from a strictly interior w0 — some prefix of any
	// direction stays admissible, which is the limiter's whole point.
	if limited == 0 || passed == 0 {
		t.Fatalf("degenerate coverage: limited=%d passed=%d", limited, passed)
	}
}

// TestLimitUpdateKeepsProgress: for a candidate that is inadmissible but
// whose direction has admissible prefix, the limiter keeps strictly more
// of the update than the all-or-nothing revert.
func TestLimitUpdateKeepsProgress(t *testing.T) {
	p := limiterParams()
	w0 := p.Gas.FromPrimitive(1, 0, 0, 0, 1)
	// Candidate drives density far below the floor; the first part of the
	// segment is admissible.
	cand := p.Gas.FromPrimitive(-1, 0, 0, 0, 1)
	out := p.LimitUpdate(w0, cand)
	if out == w0 {
		t.Fatalf("limiter reverted an update with admissible prefix")
	}
	if !p.Guard(out) {
		t.Fatalf("limited state inadmissible: %v", out)
	}
	// theta_max puts the density exactly at the floor (within bisection
	// resolution).
	if math.Abs(out[0]-p.MinDensity) > 1e-9 {
		t.Fatalf("expected density at the floor %g, got %g", p.MinDensity, out[0])
	}

	// The guard path (ConvexLimit off) must still revert wholesale.
	pg := p
	pg.ConvexLimit = false
	if got := pg.AdmitUpdate(w0, cand); got != w0 {
		t.Fatalf("guard path did not revert: %v", got)
	}
}

// TestLimitUpdateZeroAlloc: the limiter runs inside the per-vertex hot
// loop of every engine and must not allocate.
func TestLimitUpdateZeroAlloc(t *testing.T) {
	p := limiterParams()
	w0 := p.Gas.FromPrimitive(1, 0, 0, 0, 1)
	cand := p.Gas.FromPrimitive(-1, 3, 0, 0, -2)
	if allocs := testing.AllocsPerRun(100, func() { _ = p.LimitUpdate(w0, cand) }); allocs != 0 {
		t.Fatalf("LimitUpdate allocates %v times per call", allocs)
	}
}

// FuzzLimitUpdate hunts for states where the limiter returns an
// inadmissible state or mangles an admissible candidate.
func FuzzLimitUpdate(f *testing.F) {
	f.Add(1.0, 0.0, 0.0, 0.0, 2.5, 0.1, 0.0, 0.0, 0.0, 0.2)
	f.Add(1.0, 0.5, 0.0, 0.0, 2.5, -1.0, 0.5, 0.0, 0.0, 2.5)
	f.Fuzz(func(t *testing.T, a0, a1, a2, a3, a4, b0, b1, b2, b3, b4 float64) {
		p := limiterParams()
		w0 := State{a0, a1, a2, a3, a4}
		cand := State{b0, b1, b2, b3, b4}
		for k := 0; k < NVar; k++ {
			if math.IsNaN(w0[k]) || math.IsInf(w0[k], 0) || math.IsNaN(cand[k]) || math.IsInf(cand[k], 0) {
				t.Skip()
			}
		}
		out := p.LimitUpdate(w0, cand)
		if p.Guard(cand) && out != cand {
			t.Fatalf("admissible candidate altered: %v -> %v", cand, out)
		}
		if p.Guard(w0) && !p.Guard(out) {
			t.Fatalf("inadmissible output from admissible w0: w0=%v cand=%v out=%v", w0, cand, out)
		}
		if !p.Guard(w0) && out != w0 && !p.Guard(cand) {
			t.Fatalf("inadmissible w0 must be returned as-is: w0=%v out=%v", w0, out)
		}
	})
}
