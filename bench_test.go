// Package eul3d's root benchmark suite: one benchmark per table and figure
// of the paper's evaluation section. Each benchmark regenerates its
// experiment end to end (mesh generation, preprocessing, solver or machine
// model) at a reduced scale so that `go test -bench=.` completes in
// minutes; cmd/benchtables runs the same experiments at the full default
// scale and beyond (-scale).
package eul3d

import (
	"sync"
	"testing"

	"eul3d/internal/dmsolver"
	"eul3d/internal/euler"
	"eul3d/internal/graph"
	"eul3d/internal/machine"
	"eul3d/internal/meshgen"
	"eul3d/internal/multigrid"
	"eul3d/internal/partition"
	"eul3d/internal/smsolver"
	"eul3d/internal/tables"
)

// benchConfig is the reduced-scale workload for the root benchmarks.
func benchConfig() tables.Config {
	return tables.Config{
		NX: 24, NY: 12, NZ: 8,
		Levels:   3,
		Mach:     0.768,
		AlphaDeg: 1.116,
		Seed:     17,
		Cycles:   100,
		Stages:   5, DissStages: 2, NSmooth: 2,
	}
}

func benchTable1(b *testing.B, strategy tables.Strategy) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := tables.Table1(cfg, strategy, &machine.C90)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 5 {
			b.Fatal("bad table")
		}
		if i == 0 {
			b.Logf("\n%s", t.String())
		}
	}
}

// BenchmarkTable1a regenerates Table 1a: Y-MP C90 speeds, single grid.
func BenchmarkTable1a(b *testing.B) { benchTable1(b, tables.SingleGrid) }

// BenchmarkTable1b regenerates Table 1b: Y-MP C90 speeds, V-cycle.
func BenchmarkTable1b(b *testing.B) { benchTable1(b, tables.VCycle) }

// BenchmarkTable1c regenerates Table 1c: Y-MP C90 speeds, W-cycle.
func BenchmarkTable1c(b *testing.B) { benchTable1(b, tables.WCycle) }

func benchTable2(b *testing.B, strategy tables.Strategy) {
	cfg := benchConfig()
	nodes := []int{16, 32}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		t, err := tables.Table2(cfg, strategy, nodes, partition.Spectral, &machine.Delta)
		if err != nil {
			b.Fatal(err)
		}
		if len(t.Rows) != 2 {
			b.Fatal("bad table")
		}
		if i == 0 {
			b.Logf("\n%s", t.String())
		}
	}
}

// BenchmarkTable2a regenerates Table 2a: Touchstone Delta speeds, single
// grid (reduced node counts; cmd/benchtables runs 256/512).
func BenchmarkTable2a(b *testing.B) { benchTable2(b, tables.SingleGrid) }

// BenchmarkTable2b regenerates Table 2b: Delta speeds, V-cycle.
func BenchmarkTable2b(b *testing.B) { benchTable2(b, tables.VCycle) }

// BenchmarkTable2c regenerates Table 2c: Delta speeds, W-cycle.
func BenchmarkTable2c(b *testing.B) { benchTable2(b, tables.WCycle) }

// BenchmarkFigure1 regenerates the multigrid cycle diagrams of Figure 1.
func BenchmarkFigure1(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(tables.Figure1()) == 0 {
			b.Fatal("empty figure")
		}
	}
}

// BenchmarkFigure2 runs the convergence-history experiment of Figure 2
// (single grid vs V vs W) for a short horizon per iteration.
func BenchmarkFigure2(b *testing.B) {
	cfg := benchConfig()
	cfg.Cycles = 20
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := tables.Figure2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Series) != 3 {
			b.Fatal("missing series")
		}
	}
}

// BenchmarkFigure3 regenerates the mesh-sequence statistics of Figure 3.
func BenchmarkFigure3(b *testing.B) {
	cfg := benchConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		s, err := tables.Figure3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if len(s) == 0 {
			b.Fatal("empty figure")
		}
	}
}

var fig4Once struct {
	sync.Once
	mg  *multigrid.Solver
	err error
}

// BenchmarkFigure4 extracts the Mach-contour raster of Figure 4 from a
// converged W-cycle solution (computed once, outside the timed loop).
func BenchmarkFigure4(b *testing.B) {
	fig4Once.Do(func() {
		cfg := benchConfig()
		meshes, err := cfg.Meshes(tables.WCycle)
		if err != nil {
			fig4Once.err = err
			return
		}
		mg, err := multigrid.New(meshes, euler.DefaultParams(cfg.Mach, cfg.AlphaDeg), 2)
		if err != nil {
			fig4Once.err = err
			return
		}
		for c := 0; c < 60; c++ {
			mg.Cycle()
		}
		fig4Once.mg = mg
	})
	if fig4Once.err != nil {
		b.Fatal(fig4Once.err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		f := tables.Figure4(fig4Once.mg, 78, 24)
		if f.MaxM <= 0 {
			b.Fatal("bad Mach field")
		}
	}
}

// BenchmarkSolverCycle measures the raw cost of one W-cycle on the bench
// mesh — the unit of work behind every table.
func BenchmarkSolverCycle(b *testing.B) {
	cfg := benchConfig()
	meshes, err := cfg.Meshes(tables.WCycle)
	if err != nil {
		b.Fatal(err)
	}
	mg, err := multigrid.New(meshes, euler.DefaultParams(cfg.Mach, cfg.AlphaDeg), 2)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg.Cycle()
	}
}

// BenchmarkEdgeLoop measures the core convective edge kernel in isolation:
// the loop the whole paper is about vectorizing and distributing.
func BenchmarkEdgeLoop(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		b.Fatal(err)
	}
	p := euler.DefaultParams(0.768, 1.116)
	d := euler.NewDisc(m, p)
	w := make([]euler.State, m.NV())
	d.InitUniform(w)
	res := make([]euler.State, m.NV())
	b.SetBytes(int64(m.NE()) * 16) // two endpoint indices per edge
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d.Residual(w, res)
	}
}

// BenchmarkSharedMemoryStep measures one colored-parallel time step (the
// shared-memory port's unit of work) at GOMAXPROCS workers.
func BenchmarkSharedMemoryStep(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		b.Fatal(err)
	}
	s, err := smsolver.New(m, euler.DefaultParams(0.768, 1.116), 0)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	w := make([]euler.State, m.NV())
	s.InitUniform(w)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Step(w, nil)
	}
}

// BenchmarkDistributedCycle measures one distributed single-grid cycle on
// 16 simulated nodes (one goroutine each), including all PARTI exchanges
// and the barriers between their send and receive halves.
func BenchmarkDistributedCycle(b *testing.B) {
	m, err := meshgen.Channel(meshgen.DefaultChannel(24, 12, 8, 17))
	if err != nil {
		b.Fatal(err)
	}
	g, err := graph.FromEdges(m.NV(), m.Edges)
	if err != nil {
		b.Fatal(err)
	}
	part, err := partition.Partition(g, m.X, 16, partition.Spectral, 1)
	if err != nil {
		b.Fatal(err)
	}
	dm, err := dmsolver.NewSingle(m, part, 16, euler.DefaultParams(0.768, 1.116))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dm.Cycle(); err != nil {
			b.Fatal(err)
		}
	}
}
