package main

import (
	"sync"
	"time"

	"xmoe/internal/netsim"
	"xmoe/internal/topology"
)

// countingEngine is a transparent netsim.CostEngine: it forwards every
// call to Inner unchanged and counts, around it, the calls, the host time
// they took, how many repeat the arguments of an earlier call, and the
// intra- and inter-node bytes of the returned Cost. Installed on
// simrt.Cluster.Engine it times the analytic model (wrapping c.Net) or the
// event engine (wrapping a devent.Engine) from outside the program. Group
// leaders of different groups price collectives concurrently, so the
// counters sit behind a mutex.
type countingEngine struct {
	Inner netsim.CostEngine

	mu     sync.Mutex
	seen   map[uint64]struct{}
	counts engineCounts
}

// engineCounts is a snapshot of a countingEngine's counters.
type engineCounts struct {
	Calls, Repeats int64
	Host           time.Duration
	IntraBytes     int64
	InterBytes     int64
}

func newCountingEngine(inner netsim.CostEngine) *countingEngine {
	return &countingEngine{Inner: inner, seen: map[uint64]struct{}{}}
}

// take returns the counters accumulated since the last take and resets
// them; the repeat set is kept, so repeats count against the engine's
// whole lifetime, as a memo would.
func (e *countingEngine) take() engineCounts {
	e.mu.Lock()
	defer e.mu.Unlock()
	c := e.counts
	e.counts = engineCounts{}
	return c
}

func (e *countingEngine) note(key uint64, start time.Time, c netsim.Cost) {
	d := time.Since(start)
	e.mu.Lock()
	e.counts.Calls++
	e.counts.Host += d
	if _, ok := e.seen[key]; ok {
		e.counts.Repeats++
	} else {
		e.seen[key] = struct{}{}
	}
	e.counts.IntraBytes += c.BytesByClass[topology.LinkGCDPair] + c.BytesByClass[topology.LinkIntraNode]
	e.counts.InterBytes += c.InterNodeBytes()
	e.mu.Unlock()
}

// argHash is an FNV-1a style hash of a call's kind and arguments, the key
// of the repeat count.
type argHash uint64

func newArgHash(kind uint64, ranks []int) argHash {
	h := argHash(14695981039346656037)
	h = h.mix(kind).mix(uint64(len(ranks)))
	for _, r := range ranks {
		h = h.mix(uint64(r))
	}
	return h
}

func (h argHash) mix(v uint64) argHash { return (h ^ argHash(v)) * 1099511628211 }

func (e *countingEngine) AlltoAllV(ranks []int, sendBytes [][]int64) netsim.Cost {
	h := newArgHash(1, ranks)
	for _, row := range sendBytes {
		for _, b := range row {
			h = h.mix(uint64(b))
		}
	}
	start := time.Now()
	c := e.Inner.AlltoAllV(ranks, sendBytes)
	e.note(uint64(h), start, c)
	return c
}

func (e *countingEngine) AllReduce(ranks []int, bytes int64) netsim.Cost {
	h := newArgHash(2, ranks).mix(uint64(bytes))
	start := time.Now()
	c := e.Inner.AllReduce(ranks, bytes)
	e.note(uint64(h), start, c)
	return c
}

func (e *countingEngine) AllGather(ranks []int, perRankBytes []int64) netsim.Cost {
	h := newArgHash(3, ranks)
	for _, b := range perRankBytes {
		h = h.mix(uint64(b))
	}
	start := time.Now()
	c := e.Inner.AllGather(ranks, perRankBytes)
	e.note(uint64(h), start, c)
	return c
}

func (e *countingEngine) ReduceScatter(ranks []int, bytes int64) netsim.Cost {
	h := newArgHash(4, ranks).mix(uint64(bytes))
	start := time.Now()
	c := e.Inner.ReduceScatter(ranks, bytes)
	e.note(uint64(h), start, c)
	return c
}

func (e *countingEngine) Broadcast(ranks []int, bytes int64) netsim.Cost {
	h := newArgHash(5, ranks).mix(uint64(bytes))
	start := time.Now()
	c := e.Inner.Broadcast(ranks, bytes)
	e.note(uint64(h), start, c)
	return c
}

func (e *countingEngine) Barrier(ranks []int) netsim.Cost {
	h := newArgHash(6, ranks)
	start := time.Now()
	c := e.Inner.Barrier(ranks)
	e.note(uint64(h), start, c)
	return c
}

// EngineName reports the wrapped engine's name, so the "engine:" marks the
// cluster stamps on every rank trace are unchanged by the wrapper.
func (e *countingEngine) EngineName() string { return e.Inner.EngineName() }

func (e *countingEngine) SetLinkDerate(d map[topology.LinkClass]float64) { e.Inner.SetLinkDerate(d) }

var _ netsim.CostEngine = (*countingEngine)(nil)
