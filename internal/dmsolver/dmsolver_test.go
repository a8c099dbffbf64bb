package dmsolver

import (
	"math"
	"testing"
	"time"

	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/mesh"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
)

func channelAndPartition(t *testing.T, nx, ny, nz, nproc int) (*mesh.Mesh, []int32) {
	t.Helper()
	m, err := meshgen.Channel(meshgen.DefaultChannel(nx, ny, nz, 17))
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Partition(g, m.X, nproc, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	return m, part
}

// maxRelDiff returns the max relative difference between two solutions.
func maxRelDiff(a, b []euler.State) float64 {
	worst := 0.0
	for i := range a {
		for k := 0; k < euler.NVar; k++ {
			d := math.Abs(a[i][k]-b[i][k]) / (1 + math.Abs(a[i][k]))
			if d > worst {
				worst = d
			}
		}
	}
	return worst
}

func TestSingleGridMatchesSequential(t *testing.T) {
	m, part := channelAndPartition(t, 10, 6, 4, 4)
	p := euler.DefaultParams(0.675, 0)

	// Sequential reference.
	seq := euler.NewDisc(m, p)
	wseq := make([]euler.State, m.NV())
	seq.InitUniform(wseq)
	ws := euler.NewStepWorkspace(m.NV())
	var seqNorms []float64
	for c := 0; c < 10; c++ {
		seqNorms = append(seqNorms, seq.Step(wseq, nil, ws))
	}

	// Distributed on 4 simulated processors.
	dm, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 10; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(norm-seqNorms[c]) / (1e-30 + seqNorms[c]); rel > 1e-9 {
			t.Errorf("cycle %d: norm %g vs sequential %g", c, norm, seqNorms[c])
		}
	}
	if d := maxRelDiff(dm.GatherSolution(), wseq); d > 1e-9 {
		t.Errorf("solutions diverge: max rel diff %g", d)
	}
}

func TestSingleGridNProc1(t *testing.T) {
	m, _ := channelAndPartition(t, 6, 4, 3, 2)
	part := make([]int32, m.NV()) // everything on processor 0
	p := euler.DefaultParams(0.5, 0)
	dm, err := NewSingle(m, part, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := dm.Cycle(); err != nil {
		t.Fatal(err)
	}
	// No communication at all on one processor.
	if msgs, _ := dm.Fabric.TotalStats(); msgs != 0 {
		t.Errorf("1-proc run sent %d messages", msgs)
	}
}

func TestMultigridMatchesSequential(t *testing.T) {
	spec := meshgen.DefaultChannel(12, 8, 6, 17)
	meshes, err := meshgen.Sequence(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)

	smg, err := multigrid.New(meshes, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	var seqNorms []float64
	for c := 0; c < 6; c++ {
		seqNorms = append(seqNorms, smg.Cycle())
	}

	g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
	if err != nil {
		t.Fatal(err)
	}
	finePart, err := partition.Partition(g, meshes[0].X, 4, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	dm, err := NewMultigrid(meshes, [][]int32{finePart, nil, nil}, 4, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 6; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if rel := math.Abs(norm-seqNorms[c]) / (1e-30 + seqNorms[c]); rel > 1e-8 {
			t.Errorf("cycle %d: norm %g vs sequential %g", c, norm, seqNorms[c])
		}
	}
	if d := maxRelDiff(dm.GatherSolution(), smg.Fine().W); d > 1e-8 {
		t.Errorf("multigrid solutions diverge: max rel diff %g", d)
	}
}

func TestFreestreamNoDrift(t *testing.T) {
	spec := meshgen.DefaultChannel(8, 6, 4, 17)
	spec.BumpHeight = 0
	m, err := meshgen.Channel(spec)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		t.Fatal(err)
	}
	part, err := partition.Partition(g, m.X, 3, partition.Inertial, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.6, 0)
	dm, err := NewSingle(m, part, 3, p)
	if err != nil {
		t.Fatal(err)
	}
	for c := 0; c < 3; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if norm > 1e-11 {
			t.Errorf("cycle %d: freestream residual %g", c, norm)
		}
	}
}

// TestCommCountersAdvance pins the traffic of one cycle on four
// processors — the exchange counters and the fabric's message and byte
// totals — for a single-grid step and a three-level W-cycle. Table 2's
// communication model is computed from exactly these figures.
func TestCommCountersAdvance(t *testing.T) {
	m, part := channelAndPartition(t, 8, 5, 4, 4)
	p := euler.DefaultParams(0.6, 0)
	single, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	meshes, err := meshgen.Sequence(meshgen.DefaultChannel(8, 5, 4, 17), 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
	if err != nil {
		t.Fatal(err)
	}
	finePart, err := partition.Partition(g, meshes[0].X, 4, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	wcycle, err := NewMultigrid(meshes, [][]int32{finePart, nil, nil}, 4, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name        string
		s           *Solver
		want        CommCounters
		msgs, bytes int64
	}{
		// Per 5-stage step: 5 flow gathers, 5 convective scatters, 2
		// dissipation rounds (2 state and 3 float exchanges each), 1
		// spectral-radius scatter and 2 smoothing sweeps per stage.
		{"single-grid", single, CommCounters{GatherState: 17, ScatterState: 19, GatherFloat: 2, ScatterFloat: 5}, 473, 197472},
		{"W-cycle", wcycle, CommCounters{GatherState: 115, ScatterState: 125, GatherFloat: 16, ScatterFloat: 37}, 3155, 537504},
	} {
		if _, err := tc.s.Cycle(); err != nil {
			t.Fatal(err)
		}
		if tc.s.Comm != tc.want {
			t.Errorf("%s: counters %+v, want %+v", tc.name, tc.s.Comm, tc.want)
		}
		if msgs, bytes := tc.s.Fabric.TotalStats(); msgs != tc.msgs || bytes != tc.bytes {
			t.Errorf("%s: fabric moved %d msgs, %d bytes; want %d, %d", tc.name, msgs, bytes, tc.msgs, tc.bytes)
		}
	}
}

func TestBuildValidation(t *testing.T) {
	m, part := channelAndPartition(t, 5, 4, 3, 2)
	p := euler.DefaultParams(0.5, 0)
	if _, err := NewSingle(m, part, 0, p); err == nil {
		t.Error("accepted nproc=0")
	}
	if _, err := NewSingle(m, part[:5], 2, p); err == nil {
		t.Error("accepted short partition")
	}
	if _, err := build(nil, nil, 2, p, 1); err == nil {
		t.Error("accepted empty mesh list")
	}
	// A processor owning nothing is legal (the paper's coarsest grids had
	// fewer points than the Delta had nodes): the run must still be
	// correct, with processor 1 idle.
	idle := make([]int32, m.NV()) // all on proc 0 out of 2
	dmIdle, err := NewSingle(m, idle, 2, p)
	if err != nil {
		t.Fatalf("empty processor rejected: %v", err)
	}
	if _, err := dmIdle.Cycle(); err != nil {
		t.Errorf("cycle with idle processor: %v", err)
	}
	if _, err := NewMultigrid([]*mesh.Mesh{m}, [][]int32{nil}, 2, p, 1); err == nil {
		t.Error("accepted nil fine partition")
	}
}

// TestConcurrentMultigridMatchesSequential runs the W-cycle on one
// goroutine, where partition-local order is mesh order and the result must
// equal the sequential FAS multigrid bitwise, and on five goroutines (an
// odd count over an inherited coarse partition) twice, where the two runs
// must agree bitwise: goroutine scheduling never reaches the arithmetic.
func TestConcurrentMultigridMatchesSequential(t *testing.T) {
	spec := meshgen.DefaultChannel(10, 6, 4, 17)
	meshes, err := meshgen.Sequence(spec, 3)
	if err != nil {
		t.Fatal(err)
	}
	g, err := graph.FromEdges(meshes[0].NV(), meshes[0].Edges)
	if err != nil {
		t.Fatal(err)
	}
	part5, err := partition.Partition(g, meshes[0].X, 5, partition.Spectral, 1)
	if err != nil {
		t.Fatal(err)
	}
	p := euler.DefaultParams(0.675, 0)
	smg, err := multigrid.New(meshes, p, 2)
	if err != nil {
		t.Fatal(err)
	}
	mk := func(part []int32, nproc int) *Solver {
		dm, err := NewMultigrid(meshes, [][]int32{part, nil, nil}, nproc, p, 2)
		if err != nil {
			t.Fatal(err)
		}
		return dm
	}
	one := mk(make([]int32, meshes[0].NV()), 1)
	a, b := mk(append([]int32(nil), part5...), 5), mk(append([]int32(nil), part5...), 5)
	for c := 0; c < 4; c++ {
		var norms [3]float64
		for i, s := range []*Solver{one, a, b} {
			if norms[i], err = s.Cycle(); err != nil {
				t.Fatal(err)
			}
		}
		if ns := smg.Cycle(); norms[0] != ns {
			t.Fatalf("cycle %d: one-processor norm %v, sequential %v", c, norms[0], ns)
		}
		if norms[1] != norms[2] {
			t.Fatalf("cycle %d: repeated five-processor runs differ: %v vs %v", c, norms[1], norms[2])
		}
	}
	for i, w := range one.GatherSolution() {
		if w != smg.Fine().W[i] {
			t.Fatalf("vertex %d: one-processor %v, sequential %v", i, w, smg.Fine().W[i])
		}
	}
	wa, wb := a.GatherSolution(), b.GatherSolution()
	for i := range wa {
		if wa[i] != wb[i] {
			t.Fatalf("vertex %d differs between repeated five-processor runs", i)
		}
	}
}

// TestConcurrentSingleProc runs the goroutine-per-processor cycle with a
// single goroutine: partition-local order is mesh order, so it must
// reproduce the sequential stepper bitwise, without sending a message.
func TestConcurrentSingleProc(t *testing.T) {
	m, _ := channelAndPartition(t, 6, 4, 3, 2)
	part := make([]int32, m.NV()) // everything on processor 0
	p := euler.DefaultParams(0.5, 0)
	dm, err := NewSingle(m, part, 1, p)
	if err != nil {
		t.Fatal(err)
	}
	seq := euler.NewDisc(m, p)
	wseq := make([]euler.State, m.NV())
	seq.InitUniform(wseq)
	ws := euler.NewStepWorkspace(m.NV())
	for c := 0; c < 3; c++ {
		norm, err := dm.Cycle()
		if err != nil {
			t.Fatal(err)
		}
		if want := seq.Step(wseq, nil, ws); norm != want {
			t.Fatalf("cycle %d: norm %v, sequential %v", c, norm, want)
		}
	}
	for i, w := range dm.GatherSolution() {
		if w != wseq[i] {
			t.Fatalf("vertex %d: %v, sequential %v", i, w, wseq[i])
		}
	}
	// No communication at all on one processor.
	if msgs, _ := dm.Fabric.TotalStats(); msgs != 0 {
		t.Errorf("1-proc run sent %d messages", msgs)
	}
}

func TestConcurrentErrorPropagatesWithoutDeadlock(t *testing.T) {
	m, part := channelAndPartition(t, 8, 5, 4, 4)
	p := euler.DefaultParams(0.6, 0)
	dm, err := NewSingle(m, part, 4, p)
	if err != nil {
		t.Fatal(err)
	}
	// Inject a stray runt message into a communicating pair: the first
	// gather's receive pops it, fails the length check, and every
	// processor must bail out at the next barrier instead of deadlocking.
	var from, to int
	for pair := range dm.Levels[0].SchedW.PairVolumes() {
		from, to = pair[0], pair[1]
		break
	}
	if err := dm.Fabric.Send(from, to, []float64{42}); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := dm.Cycle()
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Error("corrupted traffic did not surface an error")
		}
	case <-timeAfter():
		t.Fatal("Cycle deadlocked on error")
	}
}

func timeAfter() <-chan time.Time { return time.After(30 * time.Second) }
