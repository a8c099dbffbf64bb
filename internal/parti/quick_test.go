package parti

import (
	"math/rand"
	"testing"
	"testing/quick"

	"eul3d/internal/euler"
	"eul3d/internal/simnet"
)

// TestQuickGatherAlwaysDeliversOwnerValues drives random distributions and
// reference patterns through the inspector/executor and checks the
// fundamental contract: after a gather, every localized reference reads
// the owner's value.
func TestQuickGatherAlwaysDeliversOwnerValues(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(60)
		nproc := 1 + rng.Intn(6)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(nproc))
		}
		d, err := NewDist(part, nproc)
		if err != nil {
			return false
		}
		gs := NewGhostSpace(d)
		refs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for k := rng.Intn(3 * n); k > 0; k-- {
				refs[p] = append(refs[p], int32(rng.Intn(n)))
			}
		}
		sch := BuildSchedule(gs, refs)
		fab := simnet.New(nproc)
		data := make([][]euler.State, nproc)
		for p := 0; p < nproc; p++ {
			data[p] = make([]euler.State, gs.TotalSize(p))
			for li, g := range d.L2G[p] {
				data[p][li][0] = float64(g)
			}
		}
		if err := exchange(sch, fab, data, sch.SendGatherStates, sch.RecvGatherStates); err != nil {
			return false
		}
		for p := 0; p < nproc; p++ {
			for _, g := range refs[p] {
				if data[p][gs.Localize(p, g)][0] != float64(g) {
					return false
				}
			}
			if fab.Pending(p) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickScatterAddConserves checks that scatter-add moves mass without
// creating or destroying it, for random distributions and patterns.
func TestQuickScatterAddConserves(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(50)
		nproc := 1 + rng.Intn(5)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(nproc))
		}
		d, err := NewDist(part, nproc)
		if err != nil {
			return false
		}
		gs := NewGhostSpace(d)
		refs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for k := rng.Intn(2 * n); k > 0; k-- {
				refs[p] = append(refs[p], int32(rng.Intn(n)))
			}
		}
		sch := BuildSchedule(gs, refs)
		fab := simnet.New(nproc)
		data := make([][]float64, nproc)
		want := 0.0
		for p := 0; p < nproc; p++ {
			data[p] = make([]float64, gs.TotalSize(p))
			for li := range data[p] {
				data[p][li] = rng.NormFloat64()
				want += data[p][li]
			}
		}
		if err := exchange(sch, fab, data, sch.SendScatterFloats, sch.RecvScatterFloats); err != nil {
			return false
		}
		got := 0.0
		for p := 0; p < nproc; p++ {
			for _, v := range data[p] {
				got += v
			}
		}
		diff := got - want
		if diff < 0 {
			diff = -diff
		}
		return diff < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Error(err)
	}
}

// TestQuickIncrementalNeverRefetches: building a schedule twice from the
// same references must yield an empty incremental schedule.
func TestQuickIncrementalNeverRefetches(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(40)
		nproc := 2 + rng.Intn(4)
		part := make([]int32, n)
		for i := range part {
			part[i] = int32(rng.Intn(nproc))
		}
		d, err := NewDist(part, nproc)
		if err != nil {
			return false
		}
		gs := NewGhostSpace(d)
		refs := make([][]int32, nproc)
		for p := 0; p < nproc; p++ {
			for k := rng.Intn(2 * n); k > 0; k-- {
				refs[p] = append(refs[p], int32(rng.Intn(n)))
			}
		}
		first := BuildSchedule(gs, refs)
		second, reused := BuildIncremental(gs, refs)
		return second.Items() == 0 && reused == first.Items()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}
