package main

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one host-time interval recorded by the traced run around a call
// into a layer of the program. Spans of one workload step share Step;
// Parent is the ID of the span that caused it (0 for a step's roots).
type span struct {
	ID      int64  `json:"id"`
	Parent  int64  `json:"parent"`
	Name    string `json:"name"`
	Step    int    `json:"step"`
	StartNS int64  `json:"start_ns"`
	EndNS   int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: do runs the function and records nothing. It is safe for
// concurrent use, since simulated ranks record from their own goroutines.
type tracer struct {
	t0     time.Time
	nextID atomic.Int64
	mu     sync.Mutex
	spans  []span
	step   int
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// setStep tags the spans recorded from now on with workload step i.
func (t *tracer) setStep(i int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.step = i
	t.mu.Unlock()
}

// do runs fn inside a span named name under parent and records it; fn
// receives the span's ID so that nested calls can name it as their parent.
func (t *tracer) do(parent int64, name string, fn func(id int64)) {
	if t == nil {
		fn(0)
		return
	}
	id := t.nextID.Add(1)
	start := time.Since(t.t0)
	fn(id)
	end := time.Since(t.t0)
	t.mu.Lock()
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Step: t.step,
		StartNS: int64(start), EndNS: int64(end)})
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// spanStats aggregates recorded spans by name: total duration, self time
// (each span minus the union of its children's intervals, so concurrent
// children such as simulated ranks are not double-subtracted), count, and
// the number of distinct workload steps the name was recorded in.
type spanStats struct {
	total, self map[string]time.Duration
	count       map[string]int
	steps       map[string]int
}

func aggregate(spans []span) spanStats {
	st := spanStats{total: map[string]time.Duration{}, self: map[string]time.Duration{},
		count: map[string]int{}, steps: map[string]int{}}
	seen := map[string]map[int]bool{}
	children := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	for _, s := range spans {
		st.total[s.Name] += s.dur()
		st.count[s.Name]++
		if seen[s.Name] == nil {
			seen[s.Name] = map[int]bool{}
		}
		if !seen[s.Name][s.Step] {
			seen[s.Name][s.Step] = true
			st.steps[s.Name]++
		}
		st.self[s.Name] += s.dur() - covered(s, children[s.ID])
	}
	return st
}

// covered returns the length of the union of the children's intervals,
// clipped to the parent's.
func covered(parent span, kids []span) time.Duration {
	if len(kids) == 0 {
		return 0
	}
	iv := make([][2]int64, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(k.StartNS, parent.StartNS), min(k.EndNS, parent.EndNS)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
	var sum, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range iv {
		if v[0] > curHi {
			sum += curHi - curLo
			curLo, curHi = v[0], v[1]
		} else if v[1] > curHi {
			curHi = v[1]
		}
	}
	sum += curHi - curLo
	return time.Duration(sum)
}
