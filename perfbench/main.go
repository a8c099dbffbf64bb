// Command perfbench is the repository benchmark. It runs one named
// workload on inputs generated from a seed, checks that the program's
// outputs are correct, and prints as the last line of standard output one
// JSON object:
//
//	{"correct": true, "attempted": 3, "failed": 0, "metrics": {...}}
//
// An untraced run (--trace 0) reports the end-to-end metrics; a traced run
// (--trace 1) reports the per-layer breakdown, reconciles it against wall
// clock, and writes its spans to .bench_build/spans/. README.md explains
// the workloads, the metrics and which layer metric should move which
// end-to-end metric.
//
// Usage (from the repository root; run.sh builds the binary first):
//
//	bash perfbench/run.sh --workload channel-w --seed 1 --seconds 20 --trace 0
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// workers is the solver worker count of every workload, and GOMAXPROCS is
// pinned to it: a parallel series is only honest when each worker can have
// a CPU of its own.
const workers = 2

type config struct {
	seed    int64
	seconds int
	trace   bool
	spans   *spanLog // nil unless traced
}

// outcome is what a workload measured.
type outcome struct {
	attempted, failed int
	gateFailures      []string // correctness gates that did not hold
	metrics           map[string]float64
}

func newOutcome() *outcome { return &outcome{metrics: make(map[string]float64)} }

// fail records a failed correctness gate for one attempted unit.
func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.gateFailures = append(o.gateFailures, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(config) (*outcome, error){
	"channel-w":   runChannel,
	"sod-adapt":   runSodAdapt,
	"node-mix":    func(c config) (*outcome, error) { return runServing(c, false) },
	"cluster-mix": func(c config) (*outcome, error) { return runServing(c, true) },
}

type metricDef struct{ name, unit string }

// endToEnd lists the untraced metrics, printed on every workload. Each
// workload defines them over its own unit of work; README.md has the
// table.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"solve_s", "s"},
	{"cycles", "count"},
	{"mflops", "Mflop/s"},
	{"heap_mb", "MiB"},
	{"job_p50_ms", "ms"},
	{"job_tail_ms", "ms"},
	{"goodput_jobs_s", "1/s"},
}

var eulerPhases = []string{"timestep", "convective", "dissipation", "residual", "smoothing", "update"}
var mgPhases = []string{"steps", "residuals", "transfers", "corrections"}

// mgLevelPhases lists the (level, phase) pairs of the channel-w engine's
// per-level stats. The coarsest level takes no transfers or corrections.
var mgLevelPhases = func() (lp [][2]string) {
	for l := 0; l < 3; l++ {
		for _, p := range mgPhases {
			if l == 2 && (p == "transfers" || p == "corrections") {
				continue
			}
			lp = append(lp, [2]string{fmt.Sprint(l), p})
		}
	}
	return lp
}()

var adaptPhases = []string{"solve", "indicator", "refine", "transfer", "rebuild"}
var jobKinds = []string{"single", "sm", "mg", "smmg"}

// perLayer lists the traced metrics, named by module. A traced run prints
// all of them; a layer the workload does not exercise reads 0.
var perLayer = func() []metricDef {
	d := []metricDef{
		{"meshgen.sequence_s", "s"},
		{"meshgen.job_mesh_ms", "ms"},
		{"color.edges_s", "s"},
		{"multigrid.transfer_build_s", "s"},
		{"smsolver.build_s", "s"},
	}
	for _, p := range eulerPhases {
		d = append(d, metricDef{"euler." + p + "_s", "s"})
	}
	for _, p := range eulerPhases {
		d = append(d, metricDef{"euler." + p + ".mflops", "Mflop/s"})
	}
	for _, p := range eulerPhases {
		d = append(d, metricDef{"euler." + p + ".bytes_computed", "B"})
	}
	d = append(d, metricDef{"smsolver.cycle_ms.p50", "ms"}, metricDef{"smsolver.cycle_ms.tail", "ms"})
	for _, lp := range mgLevelPhases {
		d = append(d, metricDef{"smsolver.L" + lp[0] + "." + lp[1] + "_s", "s"})
	}
	d = append(d,
		metricDef{"smsolver.speedup_vs_1w", "x"},
		metricDef{"euler.serial_step_ms", "ms"},
		metricDef{"multigrid.serial_cycle_ms", "ms"},
		metricDef{"smsolver.speedup_vs_serial", "x"},
	)
	for _, p := range adaptPhases {
		d = append(d, metricDef{"adapt." + p + "_s", "s"})
	}
	d = append(d,
		metricDef{"adapt.cells_refined", "count"},
		metricDef{"adapt.colors_reused_frac", "fraction"},
		metricDef{"scenario.l1_error", "1"},
		metricDef{"serve.http_submit_ms.p50", "ms"},
		metricDef{"serve.http_submit_ms.tail", "ms"},
		metricDef{"serve.queue_wait_ms.p50", "ms"},
		metricDef{"serve.queue_wait_ms.tail", "ms"},
	)
	for _, k := range jobKinds {
		d = append(d, metricDef{"serve.run_ms." + k, "ms"})
	}
	d = append(d,
		metricDef{"serve.cache_hit_ratio", "fraction"},
		metricDef{"serve.engine_builds", "count"},
		metricDef{"serve.evictions", "count"},
		metricDef{"serve.coalesced_share", "fraction"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.workers_peak", "count"},
		metricDef{"serve.unattributed_ms", "ms"},
		metricDef{"store.put_ms", "ms"},
		metricDef{"store.hit_ratio", "fraction"},
		metricDef{"cluster.http_submit_ms", "ms"},
		metricDef{"cluster.completion_lag_ms.p50", "ms"},
		metricDef{"cluster.completion_lag_ms.tail", "ms"},
		metricDef{"cluster.dispatches", "count"},
		metricDef{"cluster.dispatch_retries", "count"},
		metricDef{"cluster.hash_placements", "count"},
		metricDef{"cluster.coalesced_share", "fraction"},
		metricDef{"cluster.checkpoint_pulls", "count"},
		metricDef{"cluster.artifact_pushes", "count"},
		metricDef{"loadgen.late_ms.max", "ms"},
		metricDef{"loadgen.hash_named_share", "fraction"},
		metricDef{"loadgen.error_rate", "fraction"},
		metricDef{"trace.overhead_frac", "fraction"},
		metricDef{"reconcile.setup_residue", "fraction"},
		metricDef{"reconcile.solve_residue", "fraction"},
		metricDef{"reconcile.job_residue", "fraction"},
	)
	return d
}()

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	var (
		name    = flag.String("workload", "", "workload: channel-w, sod-adapt, node-mix or cluster-mix")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 20, "measured seconds per run")
		traced  = flag.Int("trace", 0, "1 for the traced per-layer run")
	)
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: want --workload %s, --seconds >= 1, --trace 0|1\n", strings.Join(workloadNames(), "|"))
		os.Exit(2)
	}
	ncpu := runtime.NumCPU()
	if workers > ncpu {
		fmt.Fprintf(os.Stderr, "perfbench: refusing a %d-worker series on a %d-CPU host: its parallel numbers would be time-sliced\n", workers, ncpu)
		os.Exit(2)
	}
	runtime.GOMAXPROCS(workers)
	fmt.Printf("host: nproc=%d gomaxprocs=%d go=%s workers=%d\n", ncpu, runtime.GOMAXPROCS(0), runtime.Version(), workers)
	fmt.Printf("run: workload=%s seed=%d seconds=%d trace=%d\n", *name, *seed, *seconds, *traced)

	cfg := config{seed: *seed, seconds: *seconds, trace: *traced == 1}
	if cfg.trace {
		cfg.spans = newSpanLog()
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		os.Exit(1)
	}
	if cfg.trace {
		cfg.spans.printSelfTimes()
		path := filepath.Join(".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", *name, *seed))
		if err := cfg.spans.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Printf("spans written to %s\n", path)
	}

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	res := result{
		Correct:   len(out.gateFailures) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		// A metric may be missing only when failed gates left nothing to
		// measure; the result then reports it as 0 with correct false.
		v, ok := out.metrics[d.name]
		if !ok && !cfg.trace && res.Correct {
			fmt.Fprintf(os.Stderr, "perfbench: %s did not measure %s\n", *name, d.name)
			os.Exit(1)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: %s measured a non-finite %s\n", *name, d.name)
			os.Exit(1)
		}
		res.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
		fmt.Printf("metric %-34s %14.6g %s\n", d.name, v, d.unit)
	}
	for _, g := range out.gateFailures {
		fmt.Printf("GATE FAILED: %s\n", g)
	}
	line, err := json.Marshal(&res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// liveHeapMiB is the live heap after a full collection.
func liveHeapMiB() float64 {
	runtime.GC()
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return float64(m.HeapAlloc) / (1 << 20)
}
