package dmsolver

import (
	"math"
	"sync"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/parti"
	"eul3d/internal/simnet"
)

// The distributed cycle: every simulated processor runs the whole cycle in
// its own goroutine — the per-processor loop bodies of ops.go — and
// exchanges data through per-processor schedule halves separated by a
// barrier (all sends complete before any receive matches, the
// bulk-synchronous discipline of the NX message layer). This is the MIMD
// execution of the paper's Touchstone Delta port: the same cycle on every
// node, with exchanges only at the PARTI gather/scatter points.

// cycleRun holds the shared state of one cycle.
type cycleRun struct {
	s        *Solver
	bar      *simnet.Barrier
	mu       sync.Mutex
	err      error
	partials []float64
}

// fail records the first error.
func (r *cycleRun) fail(err error) {
	if err == nil {
		return
	}
	r.mu.Lock()
	if r.err == nil {
		r.err = err
	}
	r.mu.Unlock()
}

// sync joins the barrier and reports whether the run is still healthy.
// The health verdict is evaluated once, by the last processor to arrive,
// and shared with all (Barrier.AwaitCheck), so every processor takes the
// same continue/bail decision and the bulk-synchronous control flow stays
// in lockstep even when an error lands mid-phase.
func (r *cycleRun) sync() bool {
	return r.bar.AwaitCheck(func() bool {
		r.mu.Lock()
		ok := r.err == nil
		r.mu.Unlock()
		return ok
	})
}

// exchange runs one send-half, a barrier, then one receive-half. With a
// tracer attached it lays processor p's timeline down as it goes: the
// compute span closing the gap since p's previous exchange, the send and
// receive halves, and the bulk-synchronous barrier waits between them.
func (r *cycleRun) exchange(p, kind int, send, recv func() error) bool {
	st := r.s.st
	if st == nil {
		r.fail(send())
		if !r.sync() {
			return false
		}
		r.fail(recv())
		return r.sync()
	}
	tk := st.procs[p]
	t0 := time.Now()
	if !st.lastProc[p].IsZero() {
		tk.Span(st.phComp, st.lastProc[p], t0, 0)
	}
	r.fail(send())
	t1 := time.Now()
	tk.Span(st.sendPh[kind], t0, t1, 0)
	ok := r.sync()
	t2 := time.Now()
	tk.Span(st.phBar, t1, t2, 0)
	if !ok {
		st.lastProc[p] = t2
		return false
	}
	r.fail(recv())
	t3 := time.Now()
	tk.Span(st.recvPh[kind], t2, t3, 0)
	ok = r.sync()
	t4 := time.Now()
	tk.Span(st.phBar, t3, t4, 0)
	st.lastProc[p] = t4
	return ok
}

func (r *cycleRun) gatherStates(sch *parti.Schedule, p int, data [][]euler.State) bool {
	f := r.s.Fabric
	return r.exchange(p, exGatherState,
		func() error { return sch.SendGatherStates(f, p, data) },
		func() error { return sch.RecvGatherStates(f, p, data) },
	)
}

func (r *cycleRun) scatterStates(sch *parti.Schedule, p int, data [][]euler.State) bool {
	f := r.s.Fabric
	return r.exchange(p, exScatterState,
		func() error { return sch.SendScatterStates(f, p, data) },
		func() error { return sch.RecvScatterStates(f, p, data) },
	)
}

func (r *cycleRun) gatherFloats(sch *parti.Schedule, p int, data [][]float64) bool {
	f := r.s.Fabric
	return r.exchange(p, exGatherFloat,
		func() error { return sch.SendGatherFloats(f, p, data) },
		func() error { return sch.RecvGatherFloats(f, p, data) },
	)
}

func (r *cycleRun) scatterFloats(sch *parti.Schedule, p int, data [][]float64) bool {
	f := r.s.Fabric
	return r.exchange(p, exScatterFloat,
		func() error { return sch.SendScatterFloats(f, p, data) },
		func() error { return sch.RecvScatterFloats(f, p, data) },
	)
}

// count bumps the communication counters once per collective (processor 0
// keeps the global tally).
func (r *cycleRun) count(p int, f func(c *CommCounters)) {
	if p == 0 {
		f(&r.s.Comm)
	}
}

// dissipationProc is the per-processor dissipation phase with exchanges.
func (r *cycleRun) dissipationProc(lev *Level, p int) bool {
	s := r.s
	s.dissPass1Proc(lev, p)
	r.count(p, func(c *CommCounters) { c.ScatterState++; c.ScatterFloat += 2 })
	if !r.scatterStates(lev.SchedW, p, lev.Lapl) {
		return false
	}
	if !r.scatterFloats(lev.SchedW, p, lev.Num) {
		return false
	}
	if !r.scatterFloats(lev.SchedW, p, lev.Den) {
		return false
	}
	s.nuProc(lev, p)
	r.count(p, func(c *CommCounters) { c.GatherState++; c.GatherFloat++ })
	if !r.gatherStates(lev.SchedW, p, lev.Lapl) {
		return false
	}
	if !r.gatherFloats(lev.SchedW, p, lev.Num) {
		return false
	}
	s.dissPass2Proc(lev, p)
	r.count(p, func(c *CommCounters) { c.ScatterState++ })
	return r.scatterStates(lev.SchedW, p, lev.Diss)
}

// smoothProc is the per-processor residual averaging with exchanges.
func (r *cycleRun) smoothProc(lev *Level, p int, arr [][]euler.State) bool {
	s := r.s
	eps := s.P.EpsSmooth
	if eps == 0 || s.P.NSmooth == 0 {
		return true
	}
	s.smoothRHSProc(lev, p, arr)
	cur, next := arr, lev.Smooth
	for sweep := 0; sweep < s.P.NSmooth; sweep++ {
		r.count(p, func(c *CommCounters) { c.GatherState++; c.ScatterState++ })
		if !r.gatherStates(lev.SchedW, p, cur) {
			return false
		}
		s.smoothAccumProc(lev, p, cur, next)
		if !r.scatterStates(lev.SchedW, p, next) {
			return false
		}
		s.smoothCombineProc(lev, p, next, eps)
		cur, next = next, cur
	}
	if &cur[0] != &arr[0] {
		s.smoothWritebackProc(lev, p, arr, cur)
	}
	return true
}

// residualProc computes R = Q - D (+forcing) for processor p's share.
func (r *cycleRun) residualProc(lev *Level, p int, withForcing bool) bool {
	s := r.s
	r.count(p, func(c *CommCounters) { c.GatherState++ })
	if !r.gatherStates(lev.SchedW, p, lev.W) {
		return false
	}
	s.pressuresProc(lev, p)
	s.convectiveProc(lev, p)
	r.count(p, func(c *CommCounters) { c.ScatterState++ })
	if !r.scatterStates(lev.SchedW, p, lev.Conv) {
		return false
	}
	if !r.dissipationProc(lev, p) {
		return false
	}
	s.combineResProc(lev, p, withForcing)
	return true
}

// stepProc runs one multistage time step for processor p and returns the
// global first-stage residual norm (identical on every processor).
func (r *cycleRun) stepProc(l, p int) (float64, bool) {
	s := r.s
	lev := s.Levels[l]
	withForcing := l > 0
	s.copyW0Proc(lev, p)
	r.count(p, func(c *CommCounters) { c.GatherState++ })
	if !r.gatherStates(lev.SchedW, p, lev.W) {
		return 0, false
	}
	s.pressuresProc(lev, p)
	s.lamProc(lev, p)
	r.count(p, func(c *CommCounters) { c.ScatterFloat++ })
	if !r.scatterFloats(lev.SchedW, p, lev.Lam) {
		return 0, false
	}
	s.dtProc(lev, p)

	norm := 0.0
	for q, alpha := range s.P.Stages {
		if q > 0 {
			r.count(p, func(c *CommCounters) { c.GatherState++ })
			if !r.gatherStates(lev.SchedW, p, lev.W) {
				return 0, false
			}
			s.pressuresProc(lev, p)
		}
		s.convectiveProc(lev, p)
		r.count(p, func(c *CommCounters) { c.ScatterState++ })
		if !r.scatterStates(lev.SchedW, p, lev.Conv) {
			return 0, false
		}
		if q < euler.DissipStages {
			if !r.dissipationProc(lev, p) {
				return 0, false
			}
		}
		s.combineResProc(lev, p, withForcing)
		if q == 0 {
			r.partials[p] = s.normPartialProc(lev, p)
			if !r.sync() {
				return 0, false
			}
			sum := 0.0
			for _, v := range r.partials {
				sum += v
			}
			norm = math.Sqrt(sum / float64(lev.M.NV()))
			if !r.sync() { // partials may be reused next cycle
				return 0, false
			}
		}
		if !r.smoothProc(lev, p, lev.Res) {
			return 0, false
		}
		s.updateProc(lev, p, alpha)
	}
	return norm, true
}

// cycleProc is the per-processor FAS multigrid cycle.
func (r *cycleRun) cycleProc(l, p int) (float64, bool) {
	s := r.s
	norm, ok := r.stepProc(l, p)
	if !ok || l == len(s.Levels)-1 {
		return norm, ok
	}
	lev, next := s.Levels[l], s.Levels[l+1]

	if !r.residualProc(lev, p, l > 0) {
		return 0, false
	}
	r.count(p, func(c *CommCounters) { c.GatherState += 2 })
	if !r.gatherStates(lev.SchedW, p, lev.W) {
		return 0, false
	}
	if !r.gatherStates(next.SchedFine, p, lev.W) {
		return 0, false
	}
	s.restrictInterpProc(lev, next, p)

	s.residualScatterProc(lev, next, p)
	r.count(p, func(c *CommCounters) { c.ScatterState += 2 })
	if !r.scatterStates(next.SchedCoarse, p, next.Forcing) {
		return 0, false
	}
	if !r.scatterStates(next.SchedW, p, next.Forcing) {
		return 0, false
	}

	if !r.residualProc(next, p, false) {
		return 0, false
	}
	s.forcingCombineProc(next, p)

	visits := s.Gamma
	if l+1 == len(s.Levels)-1 {
		visits = 1
	}
	for v := 0; v < visits; v++ {
		if _, ok := r.cycleProc(l+1, p); !ok {
			return 0, false
		}
	}

	s.corrDeltaProc(next, p)
	r.count(p, func(c *CommCounters) { c.GatherState += 2 })
	if !r.gatherStates(next.SchedCoarse, p, next.Corr) {
		return 0, false
	}
	if !r.gatherStates(next.SchedW, p, next.Corr) {
		return 0, false
	}
	s.corrInterpProc(lev, next, p)
	if !r.smoothProc(lev, p, lev.Corr) {
		return 0, false
	}
	s.applyCorrProc(lev, p)
	return norm, true
}

// Cycle performs one multigrid cycle (or a plain time step for a single
// level) with a goroutine per simulated processor and returns the
// fine-grid residual norm.
func (s *Solver) Cycle() (float64, error) {
	r := &cycleRun{
		s:        s,
		bar:      simnet.NewBarrier(s.NProc),
		partials: make([]float64, s.NProc),
	}
	norms := make([]float64, s.NProc)
	var wg sync.WaitGroup
	for p := 0; p < s.NProc; p++ {
		wg.Add(1)
		go func(p int) {
			defer wg.Done()
			norms[p], _ = r.cycleProc(0, p)
		}(p)
	}
	wg.Wait()
	return norms[0], r.err
}
