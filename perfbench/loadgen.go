package main

import (
	"fmt"
	"math/rand"
	"sort"
	"time"

	"eul3d/internal/serve"
)

// The traffic of node-mix and cluster-mix: an open loop of seeded Poisson
// arrivals at a fixed absolute rate. The seed fixes the arrival times and
// every job's spec; the program only ever sees the generated specs.
const (
	// offeredRate is about 35% of one node's measured capacity for this
	// mix (14 jobs/s saturated, with runners 2 and worker budget 2 on a
	// 2-CPU host); nearer saturation, queueing amplified the host's own
	// run-to-run noise into the latency median. It is an absolute
	// constant, not re-measured per run, so a faster program shows as
	// lower latency at the same load.
	offeredRate = 5.0 // jobs per second

	// Single-grid jobs run 30 cycles, multigrid jobs 45, so that on the
	// 16x8x6 mesh a multigrid job takes clearly longer than the cluster
	// coordinator's 250 ms completion poll and a single-grid job clearly
	// less. Latency through the coordinator is quantized by that poll; with
	// the jobs straddling it, the tail percentile jumped between one and
	// two poll periods from seed to seed.
	singleGridCycles = 30
	multigridCycles  = 45
	jobMach          = 0.768
	jobAlpha         = 1.116

	// zipfS shapes the popularity of the three meshes of each size
	// (P(rank k) ∝ (1+k)^-s, so about 0.67, 0.22, 0.11). Over the 18
	// engine keys (the 6 (size, kind) pairs of jobRound x 3 meshes) against
	// a cache of 4, the hot keys hit the cache, the cold ones miss and
	// evict, and repeats of a hot key that arrive while it runs coalesce.
	zipfS = 1.6

	// hashShare of single-grid jobs name their mesh by the hash of bytes
	// uploaded once at set-up, instead of by generator parameters.
	hashShare = 0.3
)

// meshDims names a generated bump-channel mesh.
type meshDims struct {
	NX, NY, NZ int
	Seed       int64
}

func (d meshDims) String() string { return fmt.Sprintf("%dx%dx%d/s%d", d.NX, d.NY, d.NZ, d.Seed) }

// The two mesh sizes, each in three meshes (jitter seeds 1-3). Set-up
// uploads all six, so every single-grid key can be named by hash.
var smallMesh, largeMesh = meshDims{NX: 12, NY: 6, NZ: 4}, meshDims{NX: 16, NY: 8, NZ: 6}

var jobMeshes = func() []meshDims {
	var ms []meshDims
	for _, d := range []meshDims{smallMesh, largeMesh} {
		for seed := int64(1); seed <= 3; seed++ {
			d.Seed = seed
			ms = append(ms, d)
		}
	}
	return ms
}()

// jobKey is one engine key: a mesh and an engine kind.
type jobKey struct {
	mesh meshDims
	kind string
}

// jobRound is one round of the (mesh size, kind) pairs the schedule deals
// in shuffled order. Half the jobs are large single-grid jobs, a quarter
// large multigrid jobs and a quarter small ones. Sorted by latency, the
// median then falls in the middle of the large single-grid jobs and the
// tail among the large multigrid jobs, not on a boundary between two such
// groups, where it jumped from seed to seed.
var jobRound = []jobKey{
	{smallMesh, serve.KindSingle}, {smallMesh, serve.KindMG},
	{largeMesh, serve.KindSingle}, {largeMesh, serve.KindSingle},
	{largeMesh, serve.KindSM}, {largeMesh, serve.KindSM},
	{largeMesh, serve.KindMG}, {largeMesh, serve.KindSMMG},
}

// arrival is one scheduled job.
type arrival struct {
	at     time.Duration // offset from the start of the load
	entry  jobKey
	byHash bool // the mesh is named by its uploaded hash
}

func singleGrid(kind string) bool { return kind == serve.KindSingle || kind == serve.KindSM }

// schedule draws the arrivals of one run. The count is fixed at
// round(offeredRate*seconds) and the times are that many sorted uniform
// draws over the window, which is a Poisson process conditioned on its
// count: the run offers the same number of jobs for every seed, so sample
// counts (and the tail percentile they support) do not vary with it. For
// the same reason jobs are dealt in shuffled rounds of jobRound, so each
// seed offers the same kind and size shares; which mesh of the size a job
// names follows the Zipf popularity.
func schedule(seed int64, seconds float64) []arrival {
	rng := rand.New(rand.NewSource(seed))
	n := int(offeredRate*seconds + 0.5)
	zipf := rand.NewZipf(rng, zipfS, 1, 2)
	times := make([]float64, n)
	for i := range times {
		times[i] = rng.Float64() * seconds
	}
	sort.Float64s(times)
	out := make([]arrival, n)
	var deck []jobKey
	for i := range out {
		if len(deck) == 0 {
			deck = append(deck, jobRound...)
			rng.Shuffle(len(deck), func(a, b int) { deck[a], deck[b] = deck[b], deck[a] })
		}
		e := deck[0]
		deck = deck[1:]
		e.mesh.Seed = 1 + int64(zipf.Uint64())
		out[i] = arrival{
			at:     time.Duration(times[i] * float64(time.Second)),
			entry:  e,
			byHash: singleGrid(e.kind) && rng.Float64() < hashShare,
		}
	}
	return out
}

// spec builds the job request; hashes maps each uploaded mesh to its
// artifact hash.
func (a arrival) spec(hashes map[meshDims]string) serve.JobSpec {
	s := serve.JobSpec{
		Mach:     jobMach,
		AlphaDeg: jobAlpha,
		Engine:   a.entry.kind,
		Cycles:   singleGridCycles,
	}
	if a.byHash {
		s.Mesh.Hash = hashes[a.entry.mesh]
	} else {
		d := a.entry.mesh
		s.Mesh = serve.MeshSpec{NX: d.NX, NY: d.NY, NZ: d.NZ, Seed: d.Seed}
	}
	if !singleGrid(a.entry.kind) {
		s.Cycles = multigridCycles
	}
	if a.entry.kind == serve.KindSM || a.entry.kind == serve.KindSMMG {
		// One worker per pooled job: two runners then never ask for more
		// solver threads than the host has CPUs.
		s.Workers = 1
	}
	return s
}

// resultKey identifies what a job computes: jobs with equal keys must
// return bitwise-identical results, whether the mesh was named by
// generator parameters or by the hash of the same mesh's bytes.
func (a arrival) resultKey() string { return a.entry.mesh.String() + "/" + a.entry.kind }

// printShares prints the measured shares of the traffic properties later
// claims may depend on.
func printShares(arr []arrival) {
	kinds := make(map[string]int)
	hashed := 0
	keys := make(map[string]bool)
	for _, a := range arr {
		kinds[a.entry.kind]++
		keys[a.resultKey()] = true
		if a.byHash {
			hashed++
		}
	}
	n := float64(len(arr))
	fmt.Printf("traffic: %d jobs at %.2f jobs/s over %d distinct engine keys;", len(arr), offeredRate, len(keys))
	for _, k := range jobKinds {
		fmt.Printf(" %s %.3f", k, float64(kinds[k])/n)
	}
	fmt.Printf("; hash-named %.3f\n", float64(hashed)/n)
}

func hashShareOf(arr []arrival) float64 {
	h := 0
	for _, a := range arr {
		if a.byHash {
			h++
		}
	}
	return float64(h) / float64(len(arr))
}
