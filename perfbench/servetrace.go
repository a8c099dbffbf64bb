package main

import (
	"fmt"
	"strings"
	"time"

	"eul3d/internal/trace"
)

// lifecycle is one job's path through a node, read from the node's flight
// recorder: queued (admission to dispatch), the mesh build and key hash
// (dispatch to governor), governor wait, engine acquire, run, and the
// terminal instant. On a cluster the coordinator's recorder adds the
// instant it saw the job finish.
type lifecycle struct {
	enq, popped         time.Time
	govStart, govEnd    time.Time
	acqStart, acqEnd    time.Time
	runStart, runEnd    time.Time
	nodeDone, coordDone time.Time
}

// readLifecycles collects the lifecycle events of every "job <id>" track
// of tr into lcs.
func readLifecycles(tr *trace.Tracer, lcs map[string]*lifecycle) {
	if tr == nil {
		return
	}
	origin := tr.Start()
	for _, tk := range tr.Tracks() {
		id, ok := strings.CutPrefix(tk.Name(), "job ")
		if !ok {
			continue
		}
		lc := lcs[id]
		if lc == nil {
			lc = &lifecycle{}
			lcs[id] = lc
		}
		for _, ev := range tk.Events() {
			at := origin.Add(time.Duration(ev.TS))
			end := at.Add(time.Duration(ev.Dur))
			switch tr.PhaseName(ev.Phase) {
			case "queued":
				lc.enq, lc.popped = at, end
			case "governor-wait":
				lc.govStart, lc.govEnd = at, end
			case "engine-acquire":
				lc.acqStart, lc.acqEnd = at, end
			case "run":
				lc.runStart, lc.runEnd = at, end
			case "job-done":
				lc.nodeDone = at
			}
		}
	}
}

// readCoordDone records when the coordinator saw each job finish.
func readCoordDone(tr *trace.Tracer, lcs map[string]*lifecycle) {
	if tr == nil {
		return
	}
	for _, tk := range tr.Tracks() {
		id, ok := strings.CutPrefix(tk.Name(), "job ")
		if !ok || lcs[id] == nil {
			continue
		}
		for _, ev := range tk.Events() {
			if tr.PhaseName(ev.Phase) == "job-done" {
				lcs[id].coordDone = tr.Start().Add(time.Duration(ev.TS))
			}
		}
	}
}

// part is one named interval of a job's latency.
type part struct {
	name     string
	from, to time.Time
}

// parts lays a job's latency out as named intervals: generator lateness,
// the HTTP submit, (on a cluster) coordinator dispatch, node queue wait,
// mesh build and key hash, governor wait, engine acquire, run, and (on a
// cluster) the coordinator's completion lag. It reports false when the
// recorder lacks one of the node spans.
func parts(r *jobRec, lc *lifecycle, isCluster bool) ([]part, bool) {
	if lc == nil || lc.popped.IsZero() || lc.govStart.IsZero() || lc.acqEnd.IsZero() || lc.runEnd.IsZero() || lc.nodeDone.IsZero() {
		return nil, false
	}
	ps := []part{
		{"loadgen.late", r.scheduled, r.sent},
		{"http.submit", r.sent, r.accepted},
		{"serve.queue_wait", lc.enq, lc.popped},
		{"serve.meshes", lc.popped, lc.govStart},
		{"serve.governor", lc.govStart, lc.govEnd},
		{"serve.engine_acquire", lc.acqStart, lc.acqEnd},
		{"serve.run", lc.runStart, lc.runEnd},
	}
	if isCluster {
		if lc.coordDone.IsZero() {
			return nil, false
		}
		// The coordinator may place the job before its HTTP response
		// reaches the client; dispatch is then hidden inside the submit.
		ps = append(ps,
			part{"cluster.dispatch", r.accepted, later(r.accepted, lc.enq)},
			part{"cluster.completion_lag", lc.nodeDone, lc.coordDone})
	}
	return ps, true
}

func later(a, b time.Time) time.Time {
	if b.After(a) {
		return b
	}
	return a
}

// unattributed is the part of [from, to] no named part covers.
func unattributed(from, to time.Time, ps []part) time.Duration {
	iv := make([][2]time.Time, len(ps))
	for i, p := range ps {
		iv[i] = [2]time.Time{p.from, p.to}
	}
	return to.Sub(from) - covered(from, to, iv)
}

// traceServing is the traced serving run: the same schedule as the
// untraced reference load, replayed against a fresh topology with the
// program's flight recorders on, so each job's latency can be split into
// its lifecycle parts.
func traceServing(cfg config, o *outcome, isCluster bool, arr []arrival, ref *loadResult) error {
	spans, m := cfg.spans, o.metrics
	e, setup, err := startEnv(isCluster, true, spans)
	if err != nil {
		return err
	}
	selfT := spans.selfTimes()
	m["reconcile.setup_residue"] = residue(setup,
		selfT["serve.start"].Seconds(), selfT["serve.ready"].Seconds(), selfT["store.upload"].Seconds())
	m["store.put_ms"] = median(e.putMS)

	lr, err := e.load(o, arr)
	var coord map[string]float64
	if err == nil && isCluster {
		coord, err = e.scrape(e.front.url)
	}
	lcs := make(map[string]*lifecycle)
	for _, nd := range e.nodes {
		readLifecycles(nd.tr, lcs)
	}
	readCoordDone(e.ctr, lcs)
	e.stop()
	if err != nil {
		return err
	}
	printLoad(lr)

	var submit, queue, lag, unattr, late []float64
	runByKind := make(map[string][]float64)
	var latSum, unattrSum, runSpanSum float64
	reconciled, waiters := 0, 0
	for i, r := range lr.recs {
		if !r.sent.IsZero() {
			late = append(late, ms(r.sent.Sub(r.scheduled)))
		}
		if !lr.passed[i] {
			continue
		}
		submit = append(submit, ms(r.accepted.Sub(r.sent)))
		if r.view.CoalescedWith != "" {
			waiters++ // attached to another job's run; nothing of its own to split
			continue
		}
		ps, ok := parts(r, lcs[r.id], isCluster)
		if !ok {
			continue
		}
		root := spans.record("job", r.scheduled, r.done, -1, r.id)
		for _, p := range ps {
			spans.record(p.name, p.from, p.to, root, r.id)
		}
		lc := lcs[r.id]
		queue = append(queue, ms(lc.popped.Sub(lc.enq)))
		run := lc.runEnd.Sub(lc.runStart)
		runByKind[r.spec.Engine] = append(runByKind[r.spec.Engine], ms(run))
		runSpanSum += run.Seconds()
		if isCluster {
			lag = append(lag, ms(lc.coordDone.Sub(lc.nodeDone)))
		}
		u := unattributed(r.scheduled, r.done, ps)
		unattr = append(unattr, ms(u))
		latSum += ms(r.latency())
		unattrSum += ms(u)
		reconciled++
	}
	fmt.Printf("reconciled %d jobs (%d coalesced waiters share another job's run)\n", reconciled, waiters)

	nodes := lr.metrics
	if isCluster {
		m["cluster.http_submit_ms"] = median(submit)
		m["cluster.completion_lag_ms.p50"] = median(lag)
		m["cluster.completion_lag_ms.tail"] = tailOf(lag).Value
		m["cluster.dispatches"] = coord["eul3dc_dispatches_total"]
		m["cluster.dispatch_retries"] = coord["eul3dc_dispatch_retries_total"]
		m["cluster.hash_placements"] = coord["eul3dc_hash_placements_total"]
		m["cluster.coalesced_share"] = ratio(coord["eul3dc_coalesce_attach_total"], coord["eul3dc_jobs_submitted_total"])
		m["cluster.checkpoint_pulls"] = coord["eul3dc_checkpoint_pulls_total"]
		m["cluster.artifact_pushes"] = coord["eul3dc_artifact_pushes_total"]
	} else {
		m["serve.http_submit_ms.p50"] = median(submit)
		m["serve.http_submit_ms.tail"] = tailOf(submit).Value
	}
	m["serve.queue_wait_ms.p50"] = median(queue)
	m["serve.queue_wait_ms.tail"] = tailOf(queue).Value
	for _, k := range jobKinds {
		m["serve.run_ms."+k] = median(runByKind[k])
	}
	hits, misses := total(nodes, "eul3dd_engine_cache_hits_total"), total(nodes, "eul3dd_engine_cache_misses_total")
	m["serve.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["serve.engine_builds"] = total(nodes, "eul3dd_engine_builds_total")
	m["serve.evictions"] = total(nodes, "eul3dd_engine_evictions_total")
	attach := total(nodes, "eul3dd_coalesce_attach_total")
	m["serve.coalesced_share"] = ratio(attach, attach+total(nodes, "eul3dd_jobs_submitted_total"))
	m["serve.rejected"] = total(nodes, "eul3dd_jobs_rejected_total")
	for _, nm := range nodes {
		if v := nm["eul3dd_workers_peak"]; v > m["serve.workers_peak"] {
			m["serve.workers_peak"] = v
		}
	}
	m["serve.unattributed_ms"] = median(unattr)
	ah := total(nodes, "eul3dd_artifact_hits_total")
	m["store.hit_ratio"] = ratio(ah, ah+total(nodes, "eul3dd_artifact_misses_total"))

	// Each distinct generated spec's meshes, rebuilt the way a node builds
	// them before its cache lookup.
	var meshMS []float64
	seen := make(map[string]bool)
	for _, a := range arr {
		if a.byHash || seen[a.resultKey()] {
			continue
		}
		seen[a.resultKey()] = true
		spec := a.spec(nil)
		if err := spec.Validate(); err != nil {
			return err
		}
		d, err := spans.timed("meshgen.job_mesh", -1, func() error {
			_, err := spec.BuildMeshes()
			return err
		})
		if err != nil {
			return err
		}
		meshMS = append(meshMS, ms(d))
	}
	m["meshgen.job_mesh_ms"] = median(meshMS)

	m["loadgen.late_ms.max"] = maxOf(late)
	m["loadgen.hash_named_share"] = hashShareOf(arr)
	m["loadgen.error_rate"] = ratio(float64(o.failed), float64(o.attempted))
	refP50 := median(ref.lat)
	m["trace.overhead_frac"] = ratio(median(lr.lat)-refP50, refP50)
	runSum, runCount := total(nodes, "eul3dd_job_run_seconds_sum"), total(nodes, "eul3dd_job_run_seconds_count")
	if runCount > 0 && reconciled > 0 {
		m["reconcile.solve_residue"] = residue(runSum/runCount, runSpanSum/float64(reconciled))
	}
	m["reconcile.job_residue"] = ratio(unattrSum, latSum)
	fmt.Printf("job latency traced p50 %.1f ms vs untraced %.1f ms\n", median(lr.lat), refP50)
	fmt.Printf("median unattributed job time %.3f ms\n", m["serve.unattributed_ms"])
	checkReconciled(m)
	return nil
}
