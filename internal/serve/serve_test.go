package serve

import (
	"testing"
	"time"
)

// chanSpec builds a small bump-channel job spec used across the tests.
// Identical (nx,ny,nz,seed,mach,alpha,engine,workers) specs share a cached
// engine; varying any of them forces a distinct engine key.
func chanSpec(nx, ny, nz int, seed int64, engine string, workers, cycles int) JobSpec {
	return JobSpec{
		Mesh:    MeshSpec{NX: nx, NY: ny, NZ: nz, Seed: seed},
		Mach:    0.5,
		Engine:  engine,
		Workers: workers,
		Cycles:  cycles,
	}
}

// waitState polls until the job reaches one of the given states.
func waitState(t *testing.T, j *Job, want ...JobState) JobState {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		st := j.State()
		for _, w := range want {
			if st == w {
				return st
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s stuck in %s, want one of %v", j.ID, j.State(), want)
	return ""
}

// waitDone blocks on the job's terminal state with a timeout.
func waitDone(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish (state %s)", j.ID, j.State())
	}
}

// waitCycles polls until the job has recorded at least n residual norms.
func waitCycles(t *testing.T, j *Job, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		if j.View().Cycles >= n {
			return
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("job %s reached only %d cycles, want >= %d", j.ID, j.View().Cycles, n)
}

// waitAnyCycles polls until one of the jobs has recorded at least n
// residual norms.
func waitAnyCycles(t *testing.T, js []*Job, n int) {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for time.Now().Before(deadline) {
		for _, j := range js {
			if j.View().Cycles >= n {
				return
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("no job reached %d cycles", n)
}
