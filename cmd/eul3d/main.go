// Command eul3d is the end-to-end flow solver: it generates the transonic
// bump-channel mesh sequence, runs the selected solution strategy (single
// grid, multigrid V-cycle or W-cycle) and reports the convergence history
// and flow-field summary. With -nproc it runs the distributed-memory
// solver on simulated nodes instead, with optional fault injection
// (-faults), periodic checkpointing (-checkpoint) and restart (-resume).
//
// Usage:
//
//	eul3d -nx 32 -ny 16 -nz 12 -levels 4 -strategy w -mach 0.768 -alpha 1.116 -cycles 300
//	eul3d -nproc 8 -faults seed=7,drop=2,corrupt=1,crash=3@40 -checkpoint run.ckpt -checkpoint-every 25
//	eul3d -resume run.ckpt
package main

import (
	"flag"
	"fmt"
	"log"
	"math"
	"os"
	"strings"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/meshio"
	"eul3d/internal/partition"
	"eul3d/internal/scenario"
	"eul3d/internal/simnet"
	"eul3d/internal/solver"
	"eul3d/internal/tables"
	"eul3d/internal/trace"
)

func main() {
	var (
		nx       = flag.Int("nx", 32, "fine-mesh cells in x")
		ny       = flag.Int("ny", 16, "fine-mesh cells in y")
		nz       = flag.Int("nz", 12, "fine-mesh cells in z")
		levels   = flag.Int("levels", 4, "multigrid levels (ignored for -strategy single)")
		strategy = flag.String("strategy", "w", "solution strategy: single, v or w")
		scenName = flag.String("scenario", "", "run a named verification preset from internal/scenario (\"list\" prints them); replaces the mesh and flow flags")
		mach     = flag.Float64("mach", 0.768, "freestream Mach number")
		alpha    = flag.Float64("alpha", 1.116, "angle of attack in degrees")
		cycles   = flag.Int("cycles", 300, "maximum solver cycles")
		tol      = flag.Float64("tol", 1e-6, "relative residual tolerance (0 = run all cycles)")
		seed     = flag.Int64("seed", 17, "mesh jitter seed")
		logEvery = flag.Int("log-every", 25, "cycles between progress lines (0 = silent)")
		contours = flag.Bool("contours", false, "print ASCII Mach contours of the final solution")
		workers  = flag.Int("workers", 0, "shared-memory worker-pool solver with this many workers (0 = sequential); works with every strategy")
		stats    = flag.Bool("stats", false, "print the per-phase wall-clock / Mflops breakdown after the run")
		meshPfx  = flag.String("mesh-prefix", "", "load meshes from <prefix>.L<level>.mesh (see cmd/meshgen) instead of generating")
		saveSol  = flag.String("save-solution", "", "write the converged fine-grid solution to this file")
		saveVTK  = flag.String("save-vtk", "", "write mesh + solution as a legacy VTK file (ParaView)")
		initSol  = flag.String("init-solution", "", "warm-start from a saved solution file")
		fmg      = flag.Int("fmg", 0, "full-multigrid initialization: cycles per coarse level (0 = off)")
		history  = flag.String("history", "", "write the residual history as CSV to this file")
		tracePth = flag.String("trace", "", "write a Chrome trace-event JSON timeline of the run to this file (load in Perfetto or chrome://tracing)")

		adaptOn   = flag.Bool("adapt", false, "adaptive solve: refine the mesh during the run driven by an error indicator (single-grid; -workers selects the pooled engine)")
		adaptBud  = flag.Int("adapt-budget", 0, "with -adapt: cell budget (0 = 4x the starting cell count)")
		adaptIntv = flag.Int("adapt-interval", 50, "with -adapt: steps between adaptation epochs")
		adaptEp   = flag.Int("adapt-epochs", 2, "with -adapt: maximum refinement epochs")
		adaptInd  = flag.String("adapt-indicator", "density", "with -adapt: error indicator (density, pressure or residual)")
		adaptFrac = flag.Float64("adapt-frac", 0.1, "with -adapt: fraction of cells marked per epoch")

		nproc     = flag.Int("nproc", 0, "simulated processors for the distributed solver (0 = in-process sequential solver)")
		faultSpec = flag.String("faults", "", "with -nproc: seeded fault-injection spec, e.g. seed=7,drop=2,dup=1,corrupt=1,delay=1,reorder=1,crash=2@40")
		ckptPath  = flag.String("checkpoint", "", "write periodic atomic checkpoints to this file")
		ckptEvery = flag.Int("checkpoint-every", 25, "cycles between checkpoints (with -checkpoint)")
		resume    = flag.String("resume", "", "restart from a checkpoint file written by -checkpoint")
	)
	flag.Parse()

	p := euler.DefaultParams(*mach, *alpha)
	spec := meshgen.DefaultChannel(*nx, *ny, *nz, *seed)

	var sc *scenario.Scenario
	if *scenName != "" {
		if *scenName == "list" {
			for _, n := range scenario.Names() {
				s, _ := scenario.Get(n)
				fmt.Printf("%-8s %s\n", n, s.Description)
			}
			return
		}
		var err error
		if sc, err = scenario.Get(*scenName); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		for flagName, on := range map[string]bool{
			"-nproc":         *nproc > 0,
			"-mesh-prefix":   *meshPfx != "",
			"-resume":        *resume != "",
			"-init-solution": *initSol != "",
			"-fmg":           *fmg > 0,
		} {
			if on {
				log.Fatalf("eul3d: -scenario fixes the mesh and initial state and is incompatible with %s", flagName)
			}
		}
		p = sc.Params()
		// The preset's step count and tolerance are defaults, not law:
		// explicit -cycles/-tol still win.
		explicit := map[string]bool{}
		flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
		if !explicit["cycles"] {
			*cycles = sc.Steps
		}
		if !explicit["tol"] {
			*tol = sc.Tol
		}
		if sc.Unsteady && *strategy != "single" {
			if explicit["strategy"] {
				fmt.Printf("scenario %s is time-accurate; forcing -strategy single\n", sc.Name)
			}
			*strategy = "single"
		}
		if *levels > sc.MaxLevels {
			*levels = sc.MaxLevels
		}
		fmt.Printf("scenario %s: %s\n", sc.Name, sc.Description)
	}

	loadSeq := func(levels int) ([]*mesh.Mesh, error) {
		if sc != nil {
			return sc.Meshes(levels)
		}
		if *meshPfx == "" {
			return meshgen.Sequence(spec, levels)
		}
		out := make([]*mesh.Mesh, levels)
		for l := 0; l < levels; l++ {
			m, err := meshio.LoadMesh(fmt.Sprintf("%s.L%d.mesh", *meshPfx, l))
			if err != nil {
				return nil, err
			}
			out[l] = m
		}
		return out, nil
	}

	var ck *meshio.Checkpoint
	if *resume != "" {
		var err error
		ck, err = meshio.LoadCheckpoint(*resume)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		if ck.Mach != *mach || ck.AlphaDeg != *alpha {
			fmt.Printf("resume: checkpoint was run at mach %g alpha %g; using those\n", ck.Mach, ck.AlphaDeg)
			*mach, *alpha = ck.Mach, ck.AlphaDeg
			p = euler.DefaultParams(*mach, *alpha)
		}
		fmt.Printf("resuming from %s at cycle %d\n", *resume, ck.Cycle)
	}

	if *faultSpec != "" && *nproc <= 0 {
		log.Fatalf("eul3d: -faults requires the distributed solver (-nproc)")
	}
	var tracer *trace.Tracer
	if *tracePth != "" {
		tracer = trace.New(1 << 14)
	}
	if *adaptOn {
		for flagName, on := range map[string]bool{
			"-nproc":         *nproc > 0,
			"-fmg":           *fmg > 0,
			"-resume":        *resume != "",
			"-init-solution": *initSol != "",
			"-contours":      *contours,
		} {
			if on {
				log.Fatalf("eul3d: -adapt is incompatible with %s", flagName)
			}
		}
		if *strategy != "single" {
			explicit := map[string]bool{}
			flag.Visit(func(f *flag.Flag) { explicit[f.Name] = true })
			if explicit["strategy"] {
				log.Fatalf("eul3d: -adapt runs on a single grid; use -strategy single (-workers selects the pooled engine)")
			}
			*strategy = "single"
		}
		runAdaptive(p, sc, loadSeq, adaptOpts{
			budget: *adaptBud, interval: *adaptIntv, epochs: *adaptEp,
			indicator: *adaptInd, frac: *adaptFrac,
			workers: *workers, cycles: *cycles, tol: *tol, logEvery: *logEvery,
			scenName: *scenName, stats: *stats,
			history: *history, saveSol: *saveSol, saveVTK: *saveVTK,
			mach: *mach, alpha: *alpha,
			tracer: tracer, tracePath: *tracePth,
		})
		return
	}
	if *nproc > 0 {
		runDistributed(p, loadSeq, ck, distOpts{
			strategy: *strategy, levels: *levels, nproc: *nproc,
			faults: *faultSpec, cycles: *cycles, tol: *tol, logEvery: *logEvery,
			ckptPath: *ckptPath, ckptEvery: *ckptEvery,
			mach: *mach, alpha: *alpha,
			history: *history, saveSol: *saveSol, saveVTK: *saveVTK,
			tracer: tracer, tracePath: *tracePth,
		})
		return
	}

	var st *solver.Steady
	var fineMesh *mesh.Mesh
	switch *strategy {
	case "single":
		seq, err := loadSeq(1)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		m := seq[0]
		fineMesh = m
		fmt.Printf("mesh: %d points, %d tetrahedra, %d edges\n", m.NV(), m.NT(), m.NE())
		if *workers > 0 {
			st, err = solver.NewSharedMemory(m, p, *workers)
			if err != nil {
				log.Fatalf("eul3d: %v", err)
			}
			defer st.Close()
			fmt.Printf("shared-memory solver: %d workers\n", *workers)
		} else {
			st = solver.NewSingleGrid(m, p)
		}
	case "v", "w":
		seq, err := loadSeq(*levels)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fineMesh = seq[0]
		for l, m := range seq {
			fmt.Printf("level %d: %d points, %d tetrahedra, %d edges\n", l, m.NV(), m.NT(), m.NE())
		}
		gamma := 1
		if *strategy == "w" {
			gamma = 2
		}
		if *workers > 0 {
			st, err = solver.NewSharedMemoryMultigrid(seq, p, gamma, *workers)
			if err != nil {
				log.Fatalf("eul3d: %v", err)
			}
			defer st.Close()
			fmt.Printf("pooled multigrid: %d levels, %s-cycle, %d workers\n", *levels, *strategy, *workers)
		} else {
			st, err = solver.NewMultigrid(seq, p, gamma)
			if err != nil {
				log.Fatalf("eul3d: %v", err)
			}
			fmt.Printf("multigrid: %d levels, %s-cycle, %.2f work units per cycle, %.0f%% memory overhead\n",
				*levels, *strategy, st.MG.WorkUnits(), 100*st.MG.MemoryOverhead())
		}
	default:
		log.Fatalf("eul3d: unknown strategy %q (want single, v or w)", *strategy)
	}

	if *fmg > 0 {
		if st.MG == nil {
			if *workers > 0 {
				log.Fatalf("eul3d: -fmg is not supported by the pooled multigrid; drop -workers")
			}
			log.Fatalf("eul3d: -fmg requires a multigrid strategy")
		}
		st.MG.FMGInit(*fmg)
		fmt.Printf("full-multigrid initialization: %d cycles per coarse level\n", *fmg)
	}
	if *initSol != "" {
		_, _, w0, err := meshio.LoadSolution(*initSol)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		if err := st.SetInitial(w0); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("warm start from %s\n", *initSol)
	}
	if ck != nil {
		if err := st.Restore(ck); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
	}
	if sc != nil {
		if err := st.SetInitial(sc.InitialState(fineMesh)); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
	}
	if tracer != nil {
		if st.SetTrace(tracer) {
			fmt.Printf("flight recorder armed; trace goes to %s\n", *tracePth)
		} else {
			fmt.Printf("(-trace: strategy %q without -workers has no traced stepper; trace will be empty)\n", *strategy)
		}
	}

	res, err := st.Run(solver.Options{
		MaxCycles: *cycles,
		Tolerance: *tol,
		LogEvery:  *logEvery,
		Log:       os.Stdout,

		CheckpointEvery: *ckptEvery,
		CheckpointPath:  *ckptPath,
		Mach:            *mach,
		AlphaDeg:        *alpha,
	})
	if err != nil {
		writeTrace(tracer, *tracePth)
		log.Fatalf("eul3d: %v", err)
	}
	writeTrace(tracer, *tracePth)
	checkDivergence(*scenName, res.History, res.FineSolution)
	fmt.Printf("\nfinished after %d cycles: residual %.3e -> %.3e (%.1f orders)",
		res.Cycles, res.InitialNorm, res.FinalNorm, res.Ordersof10)
	if res.Converged {
		fmt.Printf(" [converged]")
	}
	fmt.Println()

	g := p.Gas
	maxM := 0.0
	for _, w := range res.FineSolution {
		if m := g.Mach(w); m > maxM {
			maxM = m
		}
	}
	fmt.Printf("max local Mach number: %.3f\n", maxM)

	if sc != nil {
		d := sc.Diagnose(fineMesh, res.FineSolution, res.FinalNorm)
		fmt.Printf("\nscenario %s diagnostics:\n", sc.Name)
		if d.L1Density >= 0 {
			fmt.Printf("  L1 density error vs exact solution: %.6g (tolerance %.3g)\n", d.L1Density, sc.L1Tol)
		}
		fmt.Printf("  min density %.6g, min pressure %.6g\n", d.Min[0], d.MinPressure)
		if d.ProbeLabel != "" {
			fmt.Printf("  %s: %.6g (analytic %.6g)\n", d.ProbeLabel, d.ProbeGot, d.ProbeWant)
		}
		if err := sc.Check(d); err != nil {
			log.Fatalf("eul3d: scenario check failed: %v", err)
		}
		fmt.Println("scenario check passed")
	}

	if *stats {
		fmt.Printf("\nper-phase breakdown (analytic flop counts):\n%s", st.Stats())
	}

	writeHistory(*history, res.History)
	if *saveSol != "" {
		if err := meshio.SaveSolution(*saveSol, *mach, *alpha, res.FineSolution); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("solution written to %s\n", *saveSol)
	}
	if *saveVTK != "" {
		if err := meshio.SaveVTK(*saveVTK, fineMesh, p.Gas, res.FineSolution, "", nil); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("VTK written to %s\n", *saveVTK)
	}

	if *contours && st.MG != nil {
		f := tables.Figure4(st.MG, 78, 24)
		fmt.Println("\nMach contours on the mid-span plane:")
		fmt.Print(f.ASCII())
	} else if *contours {
		fmt.Println("(-contours requires the sequential multigrid strategy)")
	}
}

type distOpts struct {
	strategy  string
	levels    int
	nproc     int
	faults    string
	cycles    int
	tol       float64
	logEvery  int
	ckptPath  string
	ckptEvery int
	mach      float64
	alpha     float64
	history   string
	saveSol   string
	saveVTK   string
	tracer    *trace.Tracer
	tracePath string
}

// runDistributed is the fault-tolerant distributed path: spectral
// partition per level, PARTI schedules, and the recovery orchestrator
// around the simulated-interconnect solve.
func runDistributed(p euler.Params, loadSeq func(int) ([]*mesh.Mesh, error), ck *meshio.Checkpoint, o distOpts) {
	nlev := o.levels
	gamma := 0
	switch o.strategy {
	case "single":
		nlev = 1
	case "v":
		gamma = 1
	case "w":
		gamma = 2
	default:
		log.Fatalf("eul3d: unknown strategy %q (want single, v or w)", o.strategy)
	}
	seq, err := loadSeq(nlev)
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	parts := make([][]int32, nlev)
	for l, m := range seq {
		g, err := graph.FromEdges(m.NV(), m.Edges)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		parts[l], err = partition.Partition(g, m.X, o.nproc, partition.Spectral, 1)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		q := partition.Evaluate(parts[l], m.Edges, o.nproc)
		fmt.Printf("level %d: %d points over %d processors, %v\n", l, m.NV(), o.nproc, q)
	}

	var s *dmsolver.Solver
	if nlev == 1 {
		s, err = dmsolver.NewSingle(seq[0], parts[0], o.nproc, p)
	} else {
		s, err = dmsolver.NewMultigrid(seq, parts, o.nproc, p, gamma)
	}
	if err != nil {
		log.Fatalf("eul3d: %v", err)
	}

	var plan *simnet.FaultPlan
	if o.faults != "" {
		plan, err = simnet.ParseFaultSpec(o.faults)
		if err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		s.Fabric.SetFaultPlan(plan)
		fmt.Printf("fault injection armed: %s\n", o.faults)
	}

	fmt.Printf("distributed solve: %d simulated processors, one goroutine each\n", o.nproc)

	incident := ""
	if o.tracer != nil {
		s.SetTrace(o.tracer)
		incident = incidentPath(o.tracePath)
		fmt.Printf("flight recorder armed; trace goes to %s, incident dumps to %s\n", o.tracePath, incident)
	}

	res, err := s.Run(dmsolver.RunOptions{
		MaxCycles:       o.cycles,
		Tolerance:       o.tol,
		LogEvery:        o.logEvery,
		Log:             os.Stdout,
		CheckpointEvery: o.ckptEvery,
		CheckpointPath:  o.ckptPath,
		Mach:            o.mach,
		AlphaDeg:        o.alpha,
		Resume:          ck,
		IncidentPath:    incident,
	})
	if err != nil {
		writeTrace(o.tracer, o.tracePath)
		log.Fatalf("eul3d: %v", err)
	}
	writeTrace(o.tracer, o.tracePath)
	checkDivergence("", res.History, res.FineSolution)

	fmt.Printf("\nfinished after %d cycles: residual %.3e -> %.3e (%.1f orders)",
		res.Cycles, res.InitialNorm, res.FinalNorm, res.Ordersof10)
	if res.Converged {
		fmt.Printf(" [converged]")
	}
	fmt.Println()
	msgs, bytes := s.Fabric.TotalStats()
	fmt.Printf("traffic: %d messages, %.2f MB, %d healed by retransmission\n",
		msgs, float64(bytes)/1e6, s.Fabric.Resends())
	if res.Recoveries > 0 || res.CFLBackoffs > 0 {
		fmt.Printf("recovery: %d checkpoint restores after node crashes, %d CFL backoffs\n",
			res.Recoveries, res.CFLBackoffs)
	}
	if plan != nil {
		st := plan.Stats()
		fmt.Printf("faults injected: %d drops, %d duplicates, %d corruptions, %d delays, %d reorders, %d crashes (%d scheduled never fired)\n",
			st.Drops, st.Duplicates, st.Corruptions, st.Delays, st.Reorders, st.Crashes, plan.Unfired())
	}

	writeHistory(o.history, res.History)
	if o.saveSol != "" {
		if err := meshio.SaveSolution(o.saveSol, o.mach, o.alpha, res.FineSolution); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("solution written to %s\n", o.saveSol)
	}
	if o.saveVTK != "" {
		if err := meshio.SaveVTK(o.saveVTK, seq[0], p.Gas, res.FineSolution, "", nil); err != nil {
			log.Fatalf("eul3d: %v", err)
		}
		fmt.Printf("VTK written to %s\n", o.saveVTK)
	}
}

// writeTrace dumps the flight recorder to path as Chrome trace JSON.
func writeTrace(tr *trace.Tracer, path string) {
	if tr == nil || path == "" {
		return
	}
	if err := tr.WriteChromeFile(path); err != nil {
		log.Fatalf("eul3d: writing trace: %v", err)
	}
	fmt.Printf("trace written to %s (%d tracks); load it in Perfetto or chrome://tracing\n",
		path, len(tr.Tracks()))
}

// incidentPath derives the flight-recorder incident dump path from the
// -trace path: out.json -> out.incident.json. Keeping them separate means
// a crash dump survives even after the final trace overwrites nothing.
func incidentPath(tracePath string) string {
	if ext := ".json"; strings.HasSuffix(tracePath, ext) {
		return strings.TrimSuffix(tracePath, ext) + ".incident" + ext
	}
	return tracePath + ".incident"
}

// divergeFields names the conserved variables for divergence reports.
var divergeFields = [euler.NVar]string{"rho", "rho-u", "rho-v", "rho-w", "rho-E"}

// firstNonFinite locates the first NaN/Inf value in the solution, in
// vertex-major order; (-1, -1) when every value is finite.
func firstNonFinite(w []euler.State) (vertex, field int) {
	for i, s := range w {
		for k := 0; k < euler.NVar; k++ {
			if math.IsNaN(s[k]) || math.IsInf(s[k], 0) {
				return i, k
			}
		}
	}
	return -1, -1
}

// checkDivergence aborts with a nonzero exit when the residual history
// contains a NaN or Inf: the run has blown up and the flow-field summary
// that would follow is meaningless. The report names the first offending
// field and vertex in the final solution (and the scenario, when one is
// running) so the blow-up can be localized; the usual culprits are a
// freestream condition outside the scheme's stable range, a time step
// past the stability limit or a badly distorted mesh.
func checkDivergence(scenarioName string, hist []float64, w []euler.State) {
	for c, n := range hist {
		if !math.IsNaN(n) && !math.IsInf(n, 0) {
			continue
		}
		what := "solution"
		if scenarioName != "" {
			what = fmt.Sprintf("scenario %q", scenarioName)
		}
		msg := fmt.Sprintf("eul3d: %s diverged: residual norm %g at cycle %d", what, n, c+1)
		if i, k := firstNonFinite(w); i >= 0 {
			msg += fmt.Sprintf("; first non-finite value is %s at vertex %d", divergeFields[k], i)
		}
		fmt.Fprintf(os.Stderr, "%s; try a lower -mach or -alpha, a smaller time step, or a less distorted mesh (-seed)\n", msg)
		os.Exit(1)
	}
}

func writeHistory(path string, hist []float64) {
	if path == "" {
		return
	}
	var b strings.Builder
	b.WriteString("cycle,residual\n")
	for c, n := range hist {
		fmt.Fprintf(&b, "%d,%.8e\n", c, n)
	}
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		log.Fatalf("eul3d: %v", err)
	}
	fmt.Printf("history written to %s\n", path)
}
