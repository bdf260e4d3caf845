package main

import (
	"strings"

	"xmoe/internal/simrt"
)

// layerAcc sums per-layer observations; the runner divides each sum by
// the number of steps it was gathered over.
type layerAcc struct {
	sum map[string]float64
}

func newLayerAcc() *layerAcc { return &layerAcc{sum: map[string]float64{}} }

func (a *layerAcc) add(name string, v float64) { a.sum[name] += v }

// addEngine records a countingEngine's counters under prefix ("netsim" or
// "devent"). Repeats are kept as a count so the share can be formed over
// the whole traced run.
func (a *layerAcc) addEngine(prefix string, c engineCounts) {
	a.add(prefix+".calls", float64(c.Calls))
	a.add(prefix+".repeats", float64(c.Repeats))
	a.add(prefix+".ms", float64(c.Host)/1e6)
	if prefix == "netsim" {
		a.add("netsim.bytes_mb.intra", float64(c.IntraBytes)/1e6)
		a.add("netsim.bytes_mb.inter", float64(c.InterBytes)/1e6)
	}
}

// isCommStage classifies a simulated trace stage by name: the program
// names its collectives after their kind (a2a_dispatch, rbd_s1_a2a,
// tp_allreduce, param_allgather, barrier) or after the gradient sync that
// issues them (egrad_sync, grad_sync); every other stage is compute.
func isCommStage(name string) bool {
	for _, s := range []string{"a2a", "allreduce", "allgather", "barrier", "sync"} {
		if strings.Contains(name, s) {
			return true
		}
	}
	return false
}

// addSimBreakdown splits the ranks' simulated time into compute, exposed
// communication (charged on the clock) and hidden communication (in
// flight behind compute), averaged over ranks, in milliseconds.
func addSimBreakdown(a *layerAcc, transport string, ranks []*simrt.Rank) {
	n := float64(len(ranks))
	for _, rk := range ranks {
		charged := rk.Trace.Breakdown()
		var compute, exposed, hidden float64
		for name, d := range charged {
			if isCommStage(name) {
				exposed += d
			} else {
				compute += d
			}
		}
		for name, d := range rk.Trace.OverlapBreakdown() {
			// An async collective's waiter records the uncovered remainder
			// under the collective's own name; the rest was hidden.
			hidden += max(d-charged[name], 0)
		}
		a.add("sim.compute_ms."+transport, compute*1e3/n)
		a.add("sim.comm_exposed_ms."+transport, exposed*1e3/n)
		a.add("sim.comm_hidden_ms."+transport, hidden*1e3/n)
	}
}

// addSimBreakdownMap is addSimBreakdown for a rank-averaged breakdown, as
// DistTrainer.Step returns it: inFlight is the rank-averaged physical
// duration of the non-blocking collectives, of which the part not charged
// under an async stage was hidden. Without per-stage in-flight times, the
// charged remainder of every communication stage is taken as exposed and
// subtracted, a lower bound on the hidden time.
func addSimBreakdownMap(a *layerAcc, transport string, breakdown map[string]float64, inFlight float64) {
	var compute, exposed float64
	for name, d := range breakdown {
		if isCommStage(name) {
			exposed += d
		} else {
			compute += d
		}
	}
	a.add("sim.compute_ms."+transport, compute*1e3)
	a.add("sim.comm_exposed_ms."+transport, exposed*1e3)
	a.add("sim.comm_hidden_ms."+transport, max(inFlight-exposed, 0)*1e3)
}
