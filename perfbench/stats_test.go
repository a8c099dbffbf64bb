package main

import (
	"encoding/json"
	"math"
	"os"
	"testing"
	"time"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

// The tail is the highest ladder percentile that leaves at least ten
// samples after its nearest-rank position.
func TestTailRule(t *testing.T) {
	cases := []struct {
		n      int
		pct    float64
		value  float64
		beyond int
	}{
		{n: 5, pct: 50, value: 3, beyond: 2},       // too few for any: median, shortfall recorded
		{n: 20, pct: 50, value: 10, beyond: 10},    // the median just qualifies
		{n: 40, pct: 75, value: 30, beyond: 10},    // p90 would leave 4
		{n: 100, pct: 90, value: 90, beyond: 10},   // p95 would leave 5
		{n: 140, pct: 90, value: 126, beyond: 14},  // p95 would leave 7
		{n: 1000, pct: 99, value: 990, beyond: 10}, // p99.5 would leave 5
		{n: 4296, pct: 99.5, value: 4275, beyond: 21},
	}
	for _, c := range cases {
		got := tailOf(seq(c.n))
		if got.Pct != c.pct || got.Value != c.value || got.Beyond != c.beyond || got.N != c.n {
			t.Errorf("n=%d: got %+v, want p%g=%g with %d beyond", c.n, got, c.pct, c.value, c.beyond)
		}
	}
	if got := tailOf(nil); got.N != 0 || got.Value != 0 {
		t.Errorf("empty: got %+v", got)
	}
}

// The tail ignores input order.
func TestTailUnsorted(t *testing.T) {
	xs := seq(100)
	for i, j := 0, len(xs)-1; i < j; i, j = i+1, j-1 {
		xs[i], xs[j] = xs[j], xs[i]
	}
	if got := tailOf(xs); got.Value != 90 {
		t.Fatalf("got %+v, want p90=90", got)
	}
}

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{nil, 0}, {[]float64{3}, 3}, {[]float64{3, 1, 2}, 2}, {[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); got != c.want {
			t.Errorf("median(%v) = %g, want %g", c.xs, got, c.want)
		}
	}
}

func TestResidue(t *testing.T) {
	if got := residue(10, 4, 5); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("residue(10; 4, 5) = %g, want 0.1", got)
	}
	if got := residue(10, 6, 5); math.Abs(got+0.1) > 1e-12 {
		t.Errorf("overlapping parts: residue = %g, want -0.1", got)
	}
	if got := residue(0, 1); got != 0 {
		t.Errorf("zero total: residue = %g, want 0", got)
	}
	if !withinTol(-0.04, 0.05) || withinTol(0.06, 0.05) {
		t.Error("withinTol misjudges the tolerance")
	}
}

var t0 = time.Unix(1000, 0)

func at(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }

// covered takes the union of the intervals, clipped to the window.
func TestCovered(t *testing.T) {
	iv := [][2]time.Time{
		{at(10), at(30)},
		{at(20), at(40)}, // overlaps the first
		{at(50), at(60)},
		{at(90), at(120)}, // runs past the window
		{at(70), at(70)},  // empty
	}
	if got, want := covered(at(0), at(100), iv), 50*time.Millisecond; got != want {
		t.Fatalf("covered = %v, want %v", got, want)
	}
}

// Self time is a span's duration minus what its children cover, and an
// unattributed job remainder is the same arithmetic over its parts.
func TestSelfTimesAndUnattributed(t *testing.T) {
	spans := []span{
		{name: "job", start: at(0), end: at(100), parent: -1},
		{name: "submit", start: at(0), end: at(10), parent: 0},
		{name: "queue", start: at(5), end: at(30), parent: 0}, // overlaps submit
		{name: "run", start: at(40), end: at(90), parent: 0},
		{name: "kernel", start: at(50), end: at(70), parent: 3},
	}
	st := selfTimes(spans)
	want := map[string]time.Duration{
		"job": 20 * time.Millisecond, "submit": 10 * time.Millisecond,
		"queue": 25 * time.Millisecond, "run": 30 * time.Millisecond, "kernel": 20 * time.Millisecond,
	}
	for k, v := range want {
		if st[k] != v {
			t.Errorf("self(%s) = %v, want %v", k, st[k], v)
		}
	}
	ps := []part{{"submit", at(0), at(10)}, {"queue", at(5), at(30)}, {"run", at(40), at(90)}}
	if got := unattributed(at(0), at(100), ps); got != 20*time.Millisecond {
		t.Errorf("unattributed = %v, want 20ms", got)
	}
}

// A nil span log records nothing and still times the call.
func TestNilSpanLog(t *testing.T) {
	var l *spanLog
	id := l.begin("x", -1, "")
	l.end(id)
	d, err := l.timed("y", -1, func() error { time.Sleep(time.Millisecond); return nil })
	if id != -1 || err != nil || d < time.Millisecond || l.selfTimes() != nil {
		t.Fatalf("nil log: id %d, d %v, err %v", id, d, err)
	}
}

// The metric tables here and the declarations in BENCHMARK.json name the
// same metrics with the same units.
func TestMetricsMatchBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, decl []struct{ Name, Unit string }, defs []metricDef) {
		if len(decl) != len(defs) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", kind, len(decl), len(defs))
		}
		for i := range decl {
			if i < len(defs) && (decl[i].Name != defs[i].name || decl[i].Unit != defs[i].unit) {
				t.Errorf("%s[%d]: BENCHMARK.json has %s (%s), the benchmark %s (%s)",
					kind, i, decl[i].Name, decl[i].Unit, defs[i].name, defs[i].unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer)
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json has %d workloads, the benchmark %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q is not implemented", w.Name)
		}
	}
}
