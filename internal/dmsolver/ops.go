package dmsolver

import (
	"math"

	"eul3d/internal/euler"
	"eul3d/internal/mesh"
)

// This file holds the per-processor loop bodies (the "executor" side of
// the inspector/executor transformation). cycle.go runs them with one
// goroutine per processor, separated by the PARTI exchange halves.

// ---- per-processor compute phases ----

func (s *Solver) copyW0Proc(lev *Level, p int) {
	copy(lev.W0[p][:lev.Dist.Count(p)], lev.W[p][:lev.Dist.Count(p)])
}

func (s *Solver) pressuresProc(lev *Level, p int) {
	g := s.P.Gas
	wp, pp := lev.W[p], lev.Pres[p]
	for i := range wp {
		pp[i] = g.Pressure(wp[i])
	}
}

func zeroStatesProc(a []euler.State) {
	for i := range a {
		a[i] = euler.State{}
	}
}

// convectiveProc assembles proc p's share of Q(w) into lev.Conv[p]
// (including ghost accumulations, scatter-added by the caller).
func (s *Solver) convectiveProc(lev *Level, p int) {
	zeroStatesProc(lev.Conv[p])
	g := s.P.Gas
	w, pres, conv := lev.W[p], lev.Pres[p], lev.Conv[p]
	for e, ed := range lev.Edges[p] {
		i, j := ed[0], ed[1]
		n := lev.ENorm[p][e]
		fi := euler.FluxDotN(w[i], pres[i], n.X, n.Y, n.Z)
		fj := euler.FluxDotN(w[j], pres[j], n.X, n.Y, n.Z)
		for k := 0; k < euler.NVar; k++ {
			f := 0.5 * (fi[k] + fj[k])
			conv[i][k] += f
			conv[j][k] -= f
		}
	}
	for bi := range lev.BFaces[p] {
		f := &lev.BFaces[p][bi]
		n := f.Normal
		var flux euler.State
		if f.Kind == mesh.FarField {
			var wi euler.State
			for k := 0; k < euler.NVar; k++ {
				wi[k] = (w[f.V[0]][k] + w[f.V[1]][k] + w[f.V[2]][k]) / 3
			}
			wb := euler.FarFieldState(g, wi, s.P.Freestream, n)
			flux = euler.FluxDotN(wb, g.Pressure(wb), n.X, n.Y, n.Z)
		} else {
			pf := (pres[f.V[0]] + pres[f.V[1]] + pres[f.V[2]]) / 3
			flux = euler.State{0, pf * n.X, pf * n.Y, pf * n.Z, 0}
		}
		for k := 0; k < euler.NVar; k++ {
			third := flux[k] / 3
			conv[f.V[0]][k] += third
			conv[f.V[1]][k] += third
			conv[f.V[2]][k] += third
		}
	}
}

func (s *Solver) dissPass1Proc(lev *Level, p int) {
	zeroStatesProc(lev.Lapl[p])
	num, den := lev.Num[p], lev.Den[p]
	for i := range num {
		num[i] = 0
		den[i] = 0
	}
	w, pres, lapl := lev.W[p], lev.Pres[p], lev.Lapl[p]
	for _, ed := range lev.Edges[p] {
		i, j := ed[0], ed[1]
		for k := 0; k < euler.NVar; k++ {
			dw := w[j][k] - w[i][k]
			lapl[i][k] += dw
			lapl[j][k] -= dw
		}
		dp := pres[j] - pres[i]
		num[i] += dp
		num[j] -= dp
		sp := pres[j] + pres[i]
		den[i] += sp
		den[j] += sp
	}
}

func (s *Solver) nuProc(lev *Level, p int) {
	num, den := lev.Num[p], lev.Den[p]
	for i := 0; i < lev.Dist.Count(p); i++ {
		num[i] = math.Abs(num[i]) / den[i]
	}
}

func (s *Solver) dissPass2Proc(lev *Level, p int) {
	zeroStatesProc(lev.Diss[p])
	g := s.P.Gas
	k2, k4 := s.P.K2, s.P.K4
	w, pres, nu := lev.W[p], lev.Pres[p], lev.Num[p]
	lapl, diss := lev.Lapl[p], lev.Diss[p]
	for e, ed := range lev.Edges[p] {
		i, j := ed[0], ed[1]
		lamE := euler.SpectralRadius(g, w[i], w[j], pres[i], pres[j], lev.ENorm[p][e])
		eps2 := k2 * math.Max(nu[i], nu[j])
		eps4 := math.Max(0, k4-eps2)
		for k := 0; k < euler.NVar; k++ {
			f := lamE * (eps2*(w[j][k]-w[i][k]) - eps4*(lapl[j][k]-lapl[i][k]))
			diss[i][k] += f
			diss[j][k] -= f
		}
	}
}

func (s *Solver) lamProc(lev *Level, p int) {
	g := s.P.Gas
	lam := lev.Lam[p]
	for i := range lam {
		lam[i] = 0
	}
	w, pres := lev.W[p], lev.Pres[p]
	for e, ed := range lev.Edges[p] {
		i, j := ed[0], ed[1]
		lamE := euler.SpectralRadius(g, w[i], w[j], pres[i], pres[j], lev.ENorm[p][e])
		lam[i] += lamE
		lam[j] += lamE
	}
	for bi := range lev.BFaces[p] {
		f := &lev.BFaces[p][bi]
		n := f.Normal
		for _, v := range f.V {
			inv := 1 / w[v][0]
			un := (w[v][1]*n.X + w[v][2]*n.Y + w[v][3]*n.Z) * inv
			c := math.Sqrt(g.Gamma * pres[v] * inv)
			lam[v] += (math.Abs(un) + c*n.Norm()) / 3
		}
	}
}

// dtProc fills the owned time steps: CFL*V/lambda, or the fixed global
// step in time-accurate mode (Params.GlobalDt > 0), as euler.DtRangeKernel.
func (s *Solver) dtProc(lev *Level, p int) {
	if dt := s.P.GlobalDt; dt > 0 {
		for i := 0; i < lev.Dist.Count(p); i++ {
			lev.Dt[p][i] = dt
		}
		return
	}
	cfl := s.P.CFL
	for i := 0; i < lev.Dist.Count(p); i++ {
		lev.Dt[p][i] = cfl * lev.Vol[p][i] / lev.Lam[p][i]
	}
}

func (s *Solver) combineResProc(lev *Level, p int, withForcing bool) {
	for i := 0; i < lev.Dist.Count(p); i++ {
		for k := 0; k < euler.NVar; k++ {
			lev.Res[p][i][k] = lev.Conv[p][i][k] - lev.Diss[p][i][k]
		}
		if withForcing {
			for k := 0; k < euler.NVar; k++ {
				lev.Res[p][i][k] += lev.Forcing[p][i][k]
			}
		}
	}
}

// normPartialProc sums this processor's share of the residual norm with
// the engine-wide blocked reduction (euler.NormBlock), so that a one-proc
// distributed solve reproduces the sequential norm bitwise.
func (s *Solver) normPartialProc(lev *Level, p int) float64 {
	return euler.ResidualNormSq(lev.Res[p], lev.Vol[p], lev.Dist.Count(p))
}

func (s *Solver) smoothRHSProc(lev *Level, p int, arr [][]euler.State) {
	copy(lev.RHS[p][:lev.Dist.Count(p)], arr[p][:lev.Dist.Count(p)])
}

func (s *Solver) smoothAccumProc(lev *Level, p int, cur, next [][]euler.State) {
	zeroStatesProc(next[p])
	cp, np := cur[p], next[p]
	for _, ed := range lev.Edges[p] {
		i, j := ed[0], ed[1]
		for k := 0; k < euler.NVar; k++ {
			np[i][k] += cp[j][k]
			np[j][k] += cp[i][k]
		}
	}
}

func (s *Solver) smoothCombineProc(lev *Level, p int, next [][]euler.State, eps float64) {
	np, rp := next[p], lev.RHS[p]
	for i := 0; i < lev.Dist.Count(p); i++ {
		inv := 1 / (1 + eps*lev.Deg[p][i])
		for k := 0; k < euler.NVar; k++ {
			np[i][k] = (rp[i][k] + eps*np[i][k]) * inv
		}
	}
}

func (s *Solver) smoothWritebackProc(lev *Level, p int, arr, cur [][]euler.State) {
	copy(arr[p][:lev.Dist.Count(p)], cur[p][:lev.Dist.Count(p)])
}

func (s *Solver) updateProc(lev *Level, p int, alpha float64) {
	for i := 0; i < lev.Dist.Count(p); i++ {
		f := alpha * lev.Dt[p][i] / lev.Vol[p][i]
		var cand euler.State
		for k := 0; k < euler.NVar; k++ {
			cand[k] = lev.W0[p][i][k] - f*lev.Res[p][i][k]
		}
		lev.W[p][i] = s.P.AdmitUpdate(lev.W0[p][i], cand) // the admission point every engine shares
	}
}

// ---- multigrid per-processor phases ----

func (s *Solver) restrictInterpProc(fine, coarse *Level, p int) {
	for li := range coarse.RestrictAddr[p] {
		a, wt := coarse.RestrictAddr[p][li], coarse.RestrictWt[p][li]
		var v euler.State
		for k := 0; k < 4; k++ {
			src := fine.W[p][a[k]]
			f := wt[k]
			for c := 0; c < euler.NVar; c++ {
				v[c] += f * src[c]
			}
		}
		v = s.P.Repair(v) // interpolated pressure can go negative
		coarse.W[p][li] = v
		coarse.WSaved[p][li] = v
	}
}

func (s *Solver) residualScatterProc(fine, coarse *Level, p int) {
	zeroStatesProc(coarse.Forcing[p])
	for li := range coarse.ProlongAddr[p] {
		a, wt := coarse.ProlongAddr[p][li], coarse.ProlongWt[p][li]
		rv := fine.Res[p][li]
		for k := 0; k < 4; k++ {
			f := wt[k]
			dst := &coarse.Forcing[p][a[k]]
			for c := 0; c < euler.NVar; c++ {
				dst[c] += f * rv[c]
			}
		}
	}
}

func (s *Solver) forcingCombineProc(coarse *Level, p int) {
	for i := 0; i < coarse.Dist.Count(p); i++ {
		for k := 0; k < euler.NVar; k++ {
			coarse.Forcing[p][i][k] -= coarse.Res[p][i][k]
		}
	}
}

func (s *Solver) corrDeltaProc(coarse *Level, p int) {
	for i := 0; i < coarse.Dist.Count(p); i++ {
		for k := 0; k < euler.NVar; k++ {
			coarse.Corr[p][i][k] = coarse.W[p][i][k] - coarse.WSaved[p][i][k]
		}
	}
}

func (s *Solver) corrInterpProc(fine, coarse *Level, p int) {
	for li := range coarse.ProlongAddr[p] {
		a, wt := coarse.ProlongAddr[p][li], coarse.ProlongWt[p][li]
		var v euler.State
		for k := 0; k < 4; k++ {
			src := coarse.Corr[p][a[k]]
			f := wt[k]
			for c := 0; c < euler.NVar; c++ {
				v[c] += f * src[c]
			}
		}
		fine.Corr[p][li] = v
	}
}

func (s *Solver) applyCorrProc(fine *Level, p int) {
	for i := 0; i < fine.Dist.Count(p); i++ {
		var cand euler.State
		for k := 0; k < euler.NVar; k++ {
			cand[k] = fine.W[p][i][k] + fine.Corr[p][i][k]
		}
		if !s.P.Guard(cand) {
			continue // positivity guard: skip the correction at this vertex
		}
		fine.W[p][i] = cand
	}
}
