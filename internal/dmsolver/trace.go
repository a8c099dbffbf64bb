package dmsolver

import (
	"fmt"
	"time"

	"eul3d/internal/trace"
)

// Flight-recorder instrumentation of the distributed solver, giving the
// paper-style computation-vs-communication breakdown per simulated
// processor. The hooks sit at the communication choke points, so the
// compute spans need no per-kernel wiring: on every track the time between
// two exchanges *is* compute, and the recorder closes that gap with a
// "compute" span when the next exchange opens.
//
//   - every per-processor exchange half becomes a span on that
//     processor's track ("send-gather"/"recv-gather"/"send-scatter"/
//     "recv-scatter") with the bulk-synchronous "barrier" waits between
//     the halves — the per-node timeline of the Delta port;
//   - schedule and transfer-operator builds are timed during construction
//     and replayed onto the "build" track when a tracer is attached (the
//     paper's inspector-cost accounting);
//   - the recovery orchestrator (recovery.go) marks crashes, checkpoint
//     restores and CFL backoffs as instants on the "events" track.

// exchange kinds, indexing solverTrace.sendPh and recvPh.
const (
	exGatherState = iota
	exScatterState
	exGatherFloat
	exScatterFloat
	nExKinds
)

// buildSpan is one timed construction step, recorded before any tracer
// exists and replayed by SetTrace.
type buildSpan struct {
	name     string
	level    int
	from, to time.Time
}

// solverTrace is the solver's attached recorder state; nil disables every
// hook.
type solverTrace struct {
	tr    *trace.Tracer
	procs []*trace.Track // one per simulated processor
	orch  *trace.Track   // recovery/checkpoint instants

	sendPh   [nExKinds]trace.PhaseID // send halves
	recvPh   [nExKinds]trace.PhaseID // receive halves
	phBar    trace.PhaseID           // bulk-synchronous wait
	phComp   trace.PhaseID           // compute gap between exchanges
	phCrash  trace.PhaseID           // node crash detected (arg = cycle)
	phRecov  trace.PhaseID           // checkpoint restore (arg = rewound-to cycle)
	phBack   trace.PhaseID           // CFL backoff (arg = cycle)
	phCkpt   trace.PhaseID           // checkpoint taken (arg = cycle)
	lastProc []time.Time             // per proc: end of its previous exchange (owned by that proc's goroutine)
}

var exNames = [2][nExKinds]string{
	{"send-gather", "send-scatter", "send-gather", "send-scatter"},
	{"recv-gather", "recv-scatter", "recv-gather", "recv-scatter"},
}

// SetTrace attaches a flight-recorder tracer: the "p<i>" tracks carry the
// per-processor exchange halves and barrier waits, "build" the replayed
// schedule-construction spans and "events" the recovery instants. Compute
// time appears as the gap-filling "compute" spans. Call before Run/Cycle;
// a nil tracer leaves tracing disabled.
func (s *Solver) SetTrace(tr *trace.Tracer) {
	if tr == nil {
		return
	}
	st := &solverTrace{
		tr:       tr,
		orch:     tr.Track("events"),
		procs:    make([]*trace.Track, s.NProc),
		lastProc: make([]time.Time, s.NProc),
	}
	for p := range st.procs {
		st.procs[p] = tr.Track(fmt.Sprintf("p%d", p))
	}
	for k := 0; k < nExKinds; k++ {
		st.sendPh[k] = tr.Phase(exNames[0][k])
		st.recvPh[k] = tr.Phase(exNames[1][k])
	}
	st.phBar = tr.Phase("barrier")
	st.phComp = tr.Phase("compute")
	st.phCrash = tr.Phase("node-crash")
	st.phRecov = tr.Phase("recovery")
	st.phBack = tr.Phase("cfl-backoff")
	st.phCkpt = tr.Phase("checkpoint")

	// Replay the construction timings recorded by build(). When the tracer
	// was created after the solver these land at negative timestamps —
	// before the origin — which the viewers accept.
	bt := tr.Track("build")
	for _, b := range s.builds {
		bt.Span(tr.Phase(b.name), b.from, b.to, int64(b.level))
	}
	s.st = st
}

// markIncident records a recovery-orchestrator instant on the events track.
func (s *Solver) markIncident(ph func(*solverTrace) trace.PhaseID, arg int64) {
	if s.st == nil {
		return
	}
	s.st.orch.Instant(ph(s.st), time.Now(), arg)
}

// recordBuild appends one construction timing for later replay.
func (s *Solver) recordBuild(name string, level int, from time.Time) {
	s.builds = append(s.builds, buildSpan{name: name, level: level, from: from, to: time.Now()})
}
