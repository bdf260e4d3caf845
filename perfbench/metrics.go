package main

import (
	"math"
	"sort"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// endToEnd lists the end-to-end metrics every untraced run reports, in
// BENCHMARK.json order. The padded transport's simulated step time is not
// among them: padding makes it independent of routing, so it reads the same
// for every seed; the traced run reports it with the per-layer metrics.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"host_steps_per_s", "1/s"},
	{"host_step_ms.p50", "ms"},
	{"host_step_ms.p90", "ms"},
	{"host_alloc_mb_per_step", "MB"},
	{"host_peak_rss_mb", "MB"},
	{"sim_step_ms.pft", "ms"},
	{"sim_step_ms.rbd", "ms"},
}

// perLayer lists the metrics every traced run reports, in BENCHMARK.json
// order. A layer a workload never enters reads 0.
var perLayer = []struct{ name, unit string }{
	{"sim_step_ms.padded", "ms"},
	{"baselines.simulate_step_ms.pft", "ms"},
	{"baselines.simulate_step_ms.padded", "ms"},
	{"baselines.simulate_step_ms.rbd", "ms"},
	{"train.step_ms.pft", "ms"},
	{"train.step_ms.padded", "ms"},
	{"train.step_ms.rbd", "ms"},
	{"moe.routing_ms", "ms"},
	{"moe.pft_build_ms", "ms"},
	{"moe.pft_build_mb", "MB"},
	{"moe.fwd_ms.pft", "ms"},
	{"moe.fwd_ms.padded", "ms"},
	{"moe.bwd_ms.pft", "ms"},
	{"moe.bwd_ms.padded", "ms"},
	{"rbd.fwd_ms", "ms"},
	{"rbd.bwd_ms", "ms"},
	{"moe.drop_frac.pft", "ratio"},
	{"moe.drop_frac.padded", "ratio"},
	{"moe.drop_frac.rbd", "ratio"},
	{"rbd.redundancy_rate", "ratio"},
	{"simrt.run_ms", "ms"},
	{"simrt.peak_mem_gib.pft", "GiB"},
	{"simrt.peak_mem_gib.padded", "GiB"},
	{"simrt.peak_mem_gib.rbd", "GiB"},
	{"netsim.calls", "count"},
	{"netsim.ms", "ms"},
	{"netsim.repeat_frac", "ratio"},
	{"netsim.bytes_mb.intra", "MB"},
	{"netsim.bytes_mb.inter", "MB"},
	{"devent.calls", "count"},
	{"devent.ms", "ms"},
	{"devent.repeat_frac", "ratio"},
	{"zero.sync_ms", "ms"},
	{"tensor.gemm_gflops", "GFLOP/s"},
	{"tensor.gemm_est_ms", "ms"},
	{"kernels.gather_ms", "ms"},
	{"kernels.scatter_combine_ms", "ms"},
	{"kernels.seq_gemm_ms", "ms"},
	{"sim.compute_ms.pft", "ms"},
	{"sim.compute_ms.padded", "ms"},
	{"sim.compute_ms.rbd", "ms"},
	{"sim.comm_exposed_ms.pft", "ms"},
	{"sim.comm_exposed_ms.padded", "ms"},
	{"sim.comm_exposed_ms.rbd", "ms"},
	{"sim.comm_hidden_ms.pft", "ms"},
	{"sim.comm_hidden_ms.padded", "ms"},
	{"sim.comm_hidden_ms.rbd", "ms"},
	{"host_share.moe_routing", "ratio"},
	{"host_share.moe_fwd_bwd", "ratio"},
	{"host_share.rbd_fwd_bwd", "ratio"},
	{"host_share.zero_sync", "ratio"},
	{"host_share.netsim", "ratio"},
	{"host_share.devent", "ratio"},
	{"host_share.tensor_gemm", "ratio"},
	{"runtime.gc_pause_ms_per_step", "ms"},
	{"runtime.gc_cycles_per_step", "count"},
	{"runtime.allocs_per_step", "count"},
	{"trace.overhead_ms", "ms"},
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks.
func quantile(xs []float64, q float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(s)-1)
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
