package main

import (
	"reflect"
	"testing"
	"time"

	"eul3d/internal/serve"
)

// One seed always draws the same arrival times and the same job specs.
func TestScheduleSeedDeterminism(t *testing.T) {
	hashes := map[meshDims]string{}
	for _, d := range jobMeshes {
		hashes[d] = "h-" + d.String()
	}
	a, b := schedule(7, 20), schedule(7, 20)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("seed 7 drew two different schedules")
	}
	for i := range a {
		if !reflect.DeepEqual(a[i].spec(hashes), b[i].spec(hashes)) {
			t.Fatalf("job %d: seed 7 drew two different specs", i)
		}
	}
	if reflect.DeepEqual(a, schedule(8, 20)) {
		t.Fatal("seeds 7 and 8 drew the same schedule")
	}
}

// Every seed offers the same number of jobs, in time order inside the
// window, with the same kind and size shares.
func TestScheduleShape(t *testing.T) {
	const seconds = 20
	want := len(schedule(0, seconds))
	if rate := float64(want) / seconds; rate < offeredRate-0.05 || rate > offeredRate+0.05 {
		t.Fatalf("%d arrivals in %ds, want the offered rate %g/s", want, seconds, offeredRate)
	}
	perRound := map[jobKey]int{}
	for _, e := range jobRound {
		perRound[e]++
	}
	rounds := want / len(jobRound) // full rounds; the last round may be partial
	for seed := int64(1); seed <= 5; seed++ {
		arr := schedule(seed, seconds)
		if len(arr) != want {
			t.Fatalf("seed %d: %d arrivals, want %d", seed, len(arr), want)
		}
		pairs := map[jobKey]int{}
		for i, a := range arr {
			if a.at < 0 || a.at >= seconds*time.Second || (i > 0 && a.at < arr[i-1].at) {
				t.Fatalf("seed %d: arrival %d at %v out of order or outside the window", seed, i, a.at)
			}
			if a.byHash && !singleGrid(a.entry.kind) {
				t.Fatalf("seed %d: a %s job names its mesh by hash", seed, a.entry.kind)
			}
			if a.entry.mesh.Seed < 1 || a.entry.mesh.Seed > 3 {
				t.Fatalf("seed %d: mesh seed %d outside the three uploaded meshes", seed, a.entry.mesh.Seed)
			}
			e := a.entry
			e.mesh.Seed = 0
			pairs[e]++
		}
		for e, k := range perRound {
			if n := pairs[e]; n < rounds*k || n > (rounds+1)*k {
				t.Errorf("seed %d: %d %s jobs on %s, want %d to %d", seed, n, e.kind, e.mesh, rounds*k, (rounds+1)*k)
			}
		}
	}
}

// Specs carry the drawn mesh either by generator parameters or by hash,
// and jobs sharing a result key ask for the same computation.
func TestArrivalSpec(t *testing.T) {
	hashes := map[meshDims]string{{16, 8, 6, 2}: "abc"}
	gen := arrival{entry: jobKey{meshDims{16, 8, 6, 2}, serve.KindSM}}
	byHash := gen
	byHash.byHash = true
	g, h := gen.spec(hashes), byHash.spec(hashes)
	if g.Mesh != (serve.MeshSpec{NX: 16, NY: 8, NZ: 6, Seed: 2}) || h.Mesh != (serve.MeshSpec{Hash: "abc"}) {
		t.Fatalf("meshes: generated %+v, by hash %+v", g.Mesh, h.Mesh)
	}
	if g.Workers != 1 || g.Cycles != singleGridCycles || g.Engine != serve.KindSM {
		t.Fatalf("spec %+v", g)
	}
	if gen.resultKey() != byHash.resultKey() {
		t.Fatal("a mesh named by hash must share the generated mesh's result key")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}
