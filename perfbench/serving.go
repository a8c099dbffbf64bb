package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"time"

	"eul3d/internal/cluster"
	"eul3d/internal/euler"
	"eul3d/internal/flops"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/serve"
	"eul3d/internal/smsolver"
	"eul3d/internal/trace"
)

// Topology of the serving workloads. node-mix is one eul3dd (two runners
// sharing a worker budget of two); cluster-mix is an eul3dc coordinator,
// with its default heartbeat and fetch intervals, over two eul3dd nodes of
// one runner each with periodic checkpointing on. Both serve the same
// number of concurrent jobs, so the cluster's extra cost shows against the
// same traffic.
const (
	nodeRunners            = 2
	clusterNodes           = 2
	clusterRunners         = 1
	clusterCheckpointEvery = 25
	servingSetups          = 5

	// latencyLimit is the fixed limit a job must meet to count toward
	// goodput: well above a lone job's latency (about 0.1-0.3 s on a node,
	// plus up to one 250 ms completion poll on the cluster) and well below
	// what a growing backlog produces.
	latencyLimit = 2 * time.Second
	// loadTimeout bounds how long the run waits for accepted jobs to reach
	// a terminal state; a job still live after it fails the gate.
	loadTimeout = 60 * time.Second
)

// server is one loopback HTTP front door.
type server struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*server, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s := &server{srv: &http.Server{Handler: h}, url: "http://" + ln.Addr().String(), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		s.srv.Serve(ln)
	}()
	return s, nil
}

func (s *server) close() {
	s.srv.Close()
	<-s.done
}

type node struct {
	name  string
	sched *serve.Scheduler
	http  *server
	tr    *trace.Tracer
}

// env is one running serving topology.
type env struct {
	nodes  []*node
	coord  *cluster.Coordinator
	front  *server // the coordinator's front door (cluster only)
	ctr    *trace.Tracer
	url    string // where clients submit
	client *http.Client
	dir    string
	hashes map[meshDims]string
	putMS  []float64
}

// newTracer returns a flight recorder sized for one run's per-job tracks,
// or nil when untraced.
func newTracer(traced bool) *trace.Tracer {
	if !traced {
		return nil
	}
	tr := trace.New(256)
	tr.SetMaxTracks(1 << 14)
	return tr
}

// startEnv brings a topology up and returns it with its set-up seconds:
// servers listening, nodes healthy, and every job mesh uploaded once.
func startEnv(isCluster, traced bool, spans *spanLog) (*env, float64, error) {
	e := &env{
		hashes: make(map[meshDims]string),
		client: &http.Client{
			// At most one client connection per CPU.
			Transport: &http.Transport{MaxConnsPerHost: workers, MaxIdleConnsPerHost: workers},
			Timeout:   30 * time.Second,
		},
	}
	root := spans.begin("setup", -1, "")
	defer spans.end(root)
	t0 := time.Now()
	_, err := spans.timed("serve.start", root, func() error {
		n, runners, ckpt := 1, nodeRunners, 0
		if isCluster {
			n, runners, ckpt = clusterNodes, clusterRunners, clusterCheckpointEvery
			// Checkpoints need a state directory; keep it in the checkout.
			root := filepath.Join(".bench_build", "state")
			if err := os.MkdirAll(root, 0o755); err != nil {
				return err
			}
			var err error
			if e.dir, err = os.MkdirTemp(root, "cluster-"); err != nil {
				return err
			}
		}
		for i := 0; i < n; i++ {
			nd := &node{name: fmt.Sprintf("n%d", i+1), tr: newTracer(traced)}
			cfg := serve.Config{Runners: runners, WorkerBudget: workers, Trace: nd.tr}
			if ckpt > 0 {
				cfg.StateDir = filepath.Join(e.dir, nd.name)
				cfg.CheckpointEvery = ckpt
				if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
					return err
				}
			}
			nd.sched = serve.NewScheduler(cfg)
			var err error
			if nd.http, err = listen(serve.NewAPI(nd.sched).Handler()); err != nil {
				nd.sched.Stop()
				return err
			}
			e.nodes = append(e.nodes, nd)
		}
		e.url = e.nodes[0].http.url
		if !isCluster {
			return nil
		}
		e.ctr = newTracer(traced)
		e.coord = cluster.New(cluster.Config{Trace: e.ctr})
		for _, nd := range e.nodes {
			if err := e.coord.AddNode(nd.name, nd.http.url); err != nil {
				return err
			}
		}
		var err error
		if e.front, err = listen(cluster.NewAPI(e.coord).Handler()); err != nil {
			return err
		}
		e.url = e.front.url
		return nil
	})
	if err == nil {
		_, err = spans.timed("serve.ready", root, e.waitReady)
	}
	if err == nil {
		_, err = spans.timed("store.upload", root, e.upload)
	}
	if err != nil {
		e.stop()
		return nil, 0, err
	}
	return e, time.Since(t0).Seconds(), nil
}

// waitReady polls until the front door answers and, on a cluster, every
// node is healthy.
func (e *env) waitReady() error {
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := e.client.Get(e.url + "/healthz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err == nil && resp.StatusCode == http.StatusOK && e.nodesHealthy() {
			return nil
		}
		time.Sleep(time.Millisecond)
	}
	return errors.New("serving topology not ready within 10s")
}

func (e *env) nodesHealthy() bool {
	if e.coord == nil {
		return true
	}
	for _, v := range e.coord.NodeViews() {
		if v.Status != "healthy" {
			return false
		}
	}
	return true
}

// upload generates every job mesh and uploads its bytes once through the
// front door, timing each PUT.
func (e *env) upload() error {
	for _, d := range jobMeshes {
		m, err := meshgen.Channel(meshgen.DefaultChannel(d.NX, d.NY, d.NZ, d.Seed))
		if err != nil {
			return err
		}
		raw, err := meshio.EncodeMesh(m)
		if err != nil {
			return err
		}
		t0 := time.Now()
		resp, err := e.client.Do(mustRequest(http.MethodPut, e.url+"/v1/artifacts", raw))
		if err != nil {
			return err
		}
		var out struct {
			Hash string `json:"hash"`
		}
		err = json.NewDecoder(resp.Body).Decode(&out)
		resp.Body.Close()
		e.putMS = append(e.putMS, ms(time.Since(t0)))
		if err != nil || resp.StatusCode/100 != 2 || out.Hash == "" {
			return fmt.Errorf("uploading mesh %s: status %d: %v", d, resp.StatusCode, err)
		}
		e.hashes[d] = out.Hash
	}
	return nil
}

func mustRequest(method, url string, body []byte) *http.Request {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		panic(err) // the URL is built from a listener address
	}
	return req
}

// stop shuts the topology down and waits for every server and runner.
func (e *env) stop() {
	if e.front != nil {
		e.front.close()
	}
	if e.coord != nil {
		e.coord.Close()
	}
	for _, nd := range e.nodes {
		nd.http.close()
		nd.sched.Stop()
	}
	e.client.CloseIdleConnections()
	if e.dir != "" {
		os.RemoveAll(e.dir)
	}
}

// jobRec is one job of a load, from its scheduled send to completion.
type jobRec struct {
	a                               arrival
	spec                            serve.JobSpec
	id                              string
	code                            int
	err                             error
	scheduled, sent, accepted, done time.Time
	view                            serve.JobView
}

func (r *jobRec) latency() time.Duration { return r.done.Sub(r.scheduled) }

type completion struct {
	r  *jobRec
	at time.Time
}

// runLoad plays the schedule open-loop: a pacer releases each job at its
// scheduled time to at most `workers` sending connections, and each
// accepted job's completion is observed on its Done channel.
func (e *env) runLoad(arr []arrival) []*jobRec {
	recs := make([]*jobRec, len(arr))
	start := time.Now().Add(20 * time.Millisecond)
	due := make(chan *jobRec, len(arr))            // sized to the number of sends
	completions := make(chan completion, len(arr)) // one per accepted job
	var senders sync.WaitGroup
	for i := 0; i < workers; i++ {
		senders.Add(1)
		go func() {
			defer senders.Done()
			for r := range due {
				e.submit(r, completions)
			}
		}()
	}
	for i, a := range arr {
		r := &jobRec{a: a, spec: a.spec(e.hashes), scheduled: start.Add(a.at)}
		recs[i] = r
		time.Sleep(time.Until(r.scheduled))
		due <- r
	}
	close(due)
	senders.Wait()

	accepted := 0
	for _, r := range recs {
		if r.id != "" {
			accepted++
		}
	}
	timeout := time.After(loadTimeout)
wait:
	for got := 0; got < accepted; got++ {
		select {
		case c := <-completions:
			c.r.done = c.at
		case <-timeout:
			break wait
		}
	}
	for _, r := range recs {
		if r.id != "" && !r.done.IsZero() {
			r.view = e.view(r.id)
		}
	}
	return recs
}

// submit posts one job and arranges for its completion to be reported.
func (e *env) submit(r *jobRec, completions chan<- completion) {
	body, err := json.Marshal(r.spec)
	if err != nil {
		r.err = err
		return
	}
	r.sent = time.Now()
	resp, err := e.client.Post(e.url+"/v1/solve", "application/json", bytes.NewReader(body))
	r.accepted = time.Now()
	if err != nil {
		r.err = err
		return
	}
	defer resp.Body.Close()
	r.code = resp.StatusCode
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusAccepted {
		r.err = fmt.Errorf("status %d: %s", resp.StatusCode, strings.TrimSpace(string(raw)))
		return
	}
	var v struct {
		ID string `json:"id"`
	}
	if err := json.Unmarshal(raw, &v); err != nil || v.ID == "" {
		r.err = fmt.Errorf("decoding submit response: %v", err)
		return
	}
	done, err := e.doneChan(v.ID)
	if err != nil {
		r.err = err
		return
	}
	r.id = v.ID
	go func() {
		<-done
		completions <- completion{r, time.Now()}
	}()
}

func (e *env) doneChan(id string) (<-chan struct{}, error) {
	if e.coord != nil {
		j, err := e.coord.Job(id)
		if err != nil {
			return nil, err
		}
		return j.Done(), nil
	}
	j, err := e.nodes[0].sched.Job(id)
	if err != nil {
		return nil, err
	}
	return j.Done(), nil
}

func (e *env) view(id string) serve.JobView {
	if e.coord != nil {
		if j, err := e.coord.Job(id); err == nil {
			return j.View().JobView
		}
		return serve.JobView{}
	}
	if j, err := e.nodes[0].sched.Job(id); err == nil {
		return j.View()
	}
	return serve.JobView{}
}

// scrape reads a Prometheus text endpoint into series -> value.
func (e *env) scrape(url string) (map[string]float64, error) {
	resp, err := e.client.Get(url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out := make(map[string]float64)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out, sc.Err()
}

// nodeMetrics scrapes every node.
func (e *env) nodeMetrics() ([]map[string]float64, error) {
	var out []map[string]float64
	for _, nd := range e.nodes {
		m, err := e.scrape(nd.http.url)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

func total(ms []map[string]float64, series string) float64 {
	t := 0.0
	for _, m := range ms {
		t += m[series]
	}
	return t
}

// cycleFlops counts the analytic flops of one cycle for every (mesh, kind)
// the schedule names: a five-stage step on the mesh for the single-grid
// kinds, the pooled engine's cycle count for the multigrid kinds (the
// serial multigrid runs the same cycle).
func cycleFlops(arr []arrival) (map[string]float64, error) {
	out := make(map[string]float64)
	for _, a := range arr {
		key := a.resultKey()
		if _, ok := out[key]; ok {
			continue
		}
		a.byHash = false
		spec := a.spec(nil)
		if err := spec.Validate(); err != nil {
			return nil, err
		}
		ms, err := spec.BuildMeshes()
		if err != nil {
			return nil, err
		}
		p := spec.Params()
		if singleGrid(spec.Engine) {
			m := ms[0]
			out[key] = float64(flops.Step(int64(m.NV()), int64(m.NE()), int64(len(m.BFaces)),
				len(p.Stages), euler.DissipStages, p.NSmooth))
			continue
		}
		gamma := 2
		if spec.Cycle == "v" {
			gamma = 1
		}
		mg, err := smsolver.NewMultigrid(ms, p, gamma, 1)
		if err != nil {
			return nil, err
		}
		out[key] = float64(mg.CycleFlops())
		mg.Close()
	}
	return out, nil
}

// loadResult is a finished load with its gates applied.
type loadResult struct {
	recs    []*jobRec
	start   time.Time
	lat     []float64 // ms, jobs that passed every gate
	good    int       // of those, within latencyLimit
	passed  []bool
	metrics []map[string]float64
}

// check applies the correctness gates to a load and counts attempts and
// failures.
func check(o *outcome, recs []*jobRec) []bool {
	passed := make([]bool, len(recs))
	results := make(map[string]string) // resultKey -> first result hash
	owner := make(map[string]string)   // resultKey -> job holding that hash
	for i, r := range recs {
		o.attempted++
		switch {
		case r.err != nil && (r.code == http.StatusTooManyRequests || r.code == http.StatusServiceUnavailable):
			o.failed++ // refused: an error, not a wrong answer
		case r.err != nil:
			o.fail("job %d (%s): submit: %v", i, r.a.resultKey(), r.err)
		case r.done.IsZero():
			o.fail("job %s (%s) did not reach a terminal state within %s", r.id, r.a.resultKey(), loadTimeout)
		case r.view.State != serve.StateCompleted:
			o.fail("job %s (%s) ended %s: %s", r.id, r.a.resultKey(), r.view.State, r.view.Error)
		case r.view.ResultHash == "":
			o.fail("job %s (%s) completed without a result hash", r.id, r.a.resultKey())
		default:
			k := r.a.resultKey()
			if h, ok := results[k]; ok && h != r.view.ResultHash {
				o.fail("job %s (%s) result %.12s differs from job %s's %.12s", r.id, k, r.view.ResultHash, owner[k], h)
				break
			}
			results[k], owner[k] = r.view.ResultHash, r.id
			passed[i] = true
		}
	}
	return passed
}

func (e *env) load(o *outcome, arr []arrival) (*loadResult, error) {
	recs := e.runLoad(arr)
	lr := &loadResult{recs: recs, passed: check(o, recs)}
	lr.start = recs[0].scheduled.Add(-recs[0].a.at)
	for i, r := range recs {
		if !lr.passed[i] {
			continue
		}
		l := r.latency()
		lr.lat = append(lr.lat, ms(l))
		if l <= latencyLimit {
			lr.good++
		}
	}
	var err error
	lr.metrics, err = e.nodeMetrics()
	return lr, err
}

func runServing(cfg config, isCluster bool) (*outcome, error) {
	o := newOutcome()
	label := "node-mix"
	if isCluster {
		label = "cluster-mix"
	}
	var e *env
	var setups []float64
	for i := 0; i < servingSetups; i++ {
		if e != nil {
			e.stop()
		}
		var s float64
		var err error
		if e, s, err = startEnv(isCluster, false, nil); err != nil {
			return nil, err
		}
		setups = append(setups, s)
	}
	o.metrics["setup_s"] = median(setups)
	o.metrics["heap_mb"] = liveHeapMiB()
	for _, d := range jobMeshes {
		m, err := meshgen.Channel(meshgen.DefaultChannel(d.NX, d.NY, d.NZ, d.Seed))
		if err != nil {
			e.stop()
			return nil, err
		}
		fmt.Printf("mesh %s %s: V=%d E=%d T=%d\n", label, d, m.NV(), m.NE(), m.NT())
	}

	arr := schedule(cfg.seed, float64(cfg.seconds))
	printShares(arr)
	lr, err := e.load(o, arr)
	e.stop()
	if err != nil {
		return nil, err
	}
	printLoad(lr)
	if cfg.trace {
		return o, traceServing(cfg, o, isCluster, arr, lr)
	}

	t := tailOf(lr.lat)
	fmt.Printf("job latency: p50=%.1f ms, tail %s, %d of %d within %s\n", median(lr.lat), t, lr.good, len(lr.lat), latencyLimit)
	runSum, runCount := total(lr.metrics, "eul3dd_job_run_seconds_sum"), total(lr.metrics, "eul3dd_job_run_seconds_count")
	cycles := 0.0
	completed := 0
	last := lr.start
	for i, r := range lr.recs {
		if lr.passed[i] {
			cycles += float64(r.view.Cycles)
			completed++
			if r.done.After(last) {
				last = r.done
			}
		}
	}
	if completed == 0 || runCount == 0 {
		return o, nil
	}
	o.metrics["solve_s"] = runSum / runCount
	o.metrics["cycles"] = cycles / float64(completed)
	perCycle, err := cycleFlops(arr)
	if err != nil {
		return nil, err
	}
	fl := 0.0
	for i, r := range lr.recs {
		if lr.passed[i] && r.view.CoalescedWith == "" {
			fl += perCycle[r.a.resultKey()] * float64(r.view.Cycles)
		}
	}
	o.metrics["mflops"] = fl / runSum / 1e6
	o.metrics["job_p50_ms"] = median(lr.lat)
	o.metrics["job_tail_ms"] = t.Value
	o.metrics["goodput_jobs_s"] = float64(lr.good) / last.Sub(lr.start).Seconds()
	return o, nil
}

// printLoad prints the measured traffic shares of one load: cache hits,
// coalesced jobs, evictions and how late the generator ran.
func printLoad(lr *loadResult) {
	var hits, ran, coalesced, done int
	var late []float64
	for _, r := range lr.recs {
		if !r.sent.IsZero() {
			late = append(late, ms(r.sent.Sub(r.scheduled)))
		}
		if r.done.IsZero() {
			continue
		}
		done++
		if r.view.CoalescedWith != "" {
			coalesced++
			continue
		}
		if r.view.CacheHit != nil {
			ran++
			if *r.view.CacheHit {
				hits++
			}
		}
	}
	fmt.Printf("shares: cache hits %.3f of %d runs, coalesced %.3f of %d jobs, evictions %g, rejected %g\n",
		ratio(float64(hits), float64(ran)), ran, ratio(float64(coalesced), float64(done)), done,
		total(lr.metrics, "eul3dd_engine_evictions_total"), total(lr.metrics, "eul3dd_jobs_rejected_total"))
	fmt.Printf("generator lateness: p50 %.3f ms, max %.3f ms\n", median(late), maxOf(late))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for _, x := range xs {
		if x > m {
			m = x
		}
	}
	return m
}
