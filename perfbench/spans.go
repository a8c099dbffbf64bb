package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanLog is the benchmark's own tracer. Traced runs wrap each call the
// benchmark makes into a module in a span (name, start, end, parent span,
// job id), keep the spans in memory, and write them out when the run
// ends. A nil *spanLog records nothing, so untraced runs pay a nil check
// per call and nothing else.
type spanLog struct {
	origin time.Time
	mu     sync.Mutex
	spans  []span
}

type span struct {
	name       string
	start, end time.Time
	parent     int // index of the enclosing span, -1 at the root
	job        string
}

func newSpanLog() *spanLog { return &spanLog{origin: time.Now()} }

// begin opens a span now and returns its id (-1 on a nil log).
func (l *spanLog) begin(name string, parent int, job string) int {
	if l == nil {
		return -1
	}
	return l.record(name, time.Now(), time.Time{}, parent, job)
}

// end closes a span opened by begin.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := time.Now()
	l.mu.Lock()
	l.spans[id].end = now
	l.mu.Unlock()
}

// record adds a span whose bounds were measured elsewhere (a callback's
// timestamps, or a lifecycle span read from the program's flight
// recorder).
func (l *spanLog) record(name string, start, end time.Time, parent int, job string) int {
	if l == nil {
		return -1
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{name: name, start: start, end: end, parent: parent, job: job})
	return len(l.spans) - 1
}

// timed runs f inside a span and returns f's wall-clock duration, which is
// measured whether or not the log is nil.
func (l *spanLog) timed(name string, parent int, f func() error) (time.Duration, error) {
	id := l.begin(name, parent, "")
	t0 := time.Now()
	err := f()
	d := time.Since(t0)
	l.end(id)
	return d, err
}

// selfTimes sums, per span name, each span's duration minus the part of
// its interval that its children cover.
func (l *spanLog) selfTimes() map[string]time.Duration {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return selfTimes(l.spans)
}

func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int][]int)
	for i, s := range spans {
		if s.parent >= 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	for i, s := range spans {
		if s.end.IsZero() {
			continue
		}
		var iv [][2]time.Time
		for _, c := range children[i] {
			cs := spans[c]
			if cs.end.IsZero() {
				continue
			}
			iv = append(iv, [2]time.Time{cs.start, cs.end})
		}
		out[s.name] += s.end.Sub(s.start) - covered(s.start, s.end, iv)
	}
	return out
}

// covered is the length of the union of intervals iv clipped to [lo, hi].
func covered(lo, hi time.Time, iv [][2]time.Time) time.Duration {
	sort.Slice(iv, func(a, b int) bool { return iv[a][0].Before(iv[b][0]) })
	var total time.Duration
	var curLo, curHi time.Time
	open := false
	for _, x := range iv {
		a, b := x[0], x[1]
		if a.Before(lo) {
			a = lo
		}
		if b.After(hi) {
			b = hi
		}
		if !b.After(a) {
			continue
		}
		if open && !a.After(curHi) {
			if b.After(curHi) {
				curHi = b
			}
			continue
		}
		if open {
			total += curHi.Sub(curLo)
		}
		curLo, curHi, open = a, b, true
	}
	if open {
		total += curHi.Sub(curLo)
	}
	return total
}

// write stores the spans as JSON lines, times in nanoseconds from the
// log's origin.
func (l *spanLog) write(path string) error {
	if l == nil {
		return nil
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	l.mu.Lock()
	for _, s := range l.spans {
		rec := struct {
			Name   string `json:"name"`
			Start  int64  `json:"start_ns"`
			End    int64  `json:"end_ns"`
			Parent int    `json:"parent"`
			Job    string `json:"job,omitempty"`
		}{s.name, int64(s.start.Sub(l.origin)), int64(s.end.Sub(l.origin)), s.parent, s.job}
		if err := enc.Encode(&rec); err != nil {
			l.mu.Unlock()
			f.Close()
			return err
		}
	}
	l.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printSelfTimes lists self time per span name, largest first.
func (l *spanLog) printSelfTimes() {
	st := l.selfTimes()
	names := make([]string, 0, len(st))
	for n := range st {
		names = append(names, n)
	}
	sort.Slice(names, func(a, b int) bool { return st[names[a]] > st[names[b]] })
	fmt.Println("self time by span:")
	for _, n := range names {
		fmt.Printf("  %-32s %10.3f ms\n", n, ms(st[n]))
	}
}
