// Command perfbench is the repository benchmark: it drives the simulator's
// packages through their exported API on one of three closed-loop
// workloads and prints the end-to-end metrics (untraced run) or the
// per-layer metrics (traced run) as one JSON object on its last line.
//
//	perfbench --workload sweep-symbolic --seed 1 --seconds 20 --trace 0
//
// See README.md for the workloads, metrics and output checks.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"syscall"
	"time"

	"xmoe/internal/tensor"
)

// transports is the fixed order in which a workload step runs one
// training step of each transport.
var transports = [3]string{"pft", "padded", "rbd"}

// stepOut is what one workload step produced, per transport.
type stepOut struct {
	sim        [3]float64 // simulated step time, seconds
	peakMemGiB [3]float64
	loss       [3]float64
}

// sameOut requires two runs of one step to agree bit for bit.
func sameOut(wl string, a, b stepOut) error {
	for t := range transports {
		if a.sim[t] != b.sim[t] || a.peakMemGiB[t] != b.peakMemGiB[t] || a.loss[t] != b.loss[t] {
			return fmt.Errorf("%s %s: re-run gives sim %v s / mem %v GiB / loss %v, first run %v s / %v GiB / %v",
				wl, transports[t], b.sim[t], b.peakMemGiB[t], b.loss[t], a.sim[t], a.peakMemGiB[t], a.loss[t])
		}
	}
	return nil
}

// workload is one benchmark workload. A workload step runs one training
// step of each transport, in transports order.
type workload interface {
	// setup builds the workload's persistent state from the seed and
	// warms it up.
	setup(seed uint64) error
	// step runs workload step i. tr and acc are nil in the untraced run;
	// in the traced run the step records spans in tr and per-layer
	// observations in acc.
	step(i int, tr *tracer, acc *layerAcc) (stepOut, error)
	// verify runs after the timed region and re-derives the first
	// steps' outputs, which must match bit for bit.
	verify(first []stepOut) error
	// analyze gathers the traced run's extra per-layer observations for
	// step i (replays and probes outside the timed steps).
	analyze(i int, tr *tracer, acc *layerAcc) error
}

// rewinder is a workload with persistent training state, which the traced
// run rewinds so its steps repeat the untraced ones.
type rewinder interface{ rewind() error }

var workloads = map[string]func() workload{
	"sweep-symbolic": func() workload { return newSweepSymbolic() },
	"train-numeric":  func() workload { return newTrainNumeric() },
	"overlap-event":  func() workload { return newOverlapEvent() },
}

const (
	setupReps = 5   // set-ups per run; setup_s is their median
	minSteps  = 100 // timed steps per untraced run, at least; sim metrics average these
	hardCap   = 150 * time.Second
	analyzed  = 3 // steps the traced run analyzes
)

type config struct {
	workload string
	seed     uint64
	seconds  float64
	trace    int
	outDir   string
}

func main() {
	var c config
	flag.StringVar(&c.workload, "workload", "", "sweep-symbolic, train-numeric or overlap-event")
	flag.Uint64Var(&c.seed, "seed", 1, "workload seed; step i uses seed+i")
	flag.Float64Var(&c.seconds, "seconds", 20, "length of the timed region")
	flag.IntVar(&c.trace, "trace", 0, "1 runs the traced run and reports per-layer metrics")
	flag.StringVar(&c.outDir, "out", filepath.Join(".bench_build", "perfbench"), "directory for the run record")
	flag.Parse()
	newW, ok := workloads[c.workload]
	if !ok || (c.trace != 0 && c.trace != 1) || c.seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, trace %d, seconds %v)\n", c.workload, c.trace, c.seconds)
		os.Exit(2)
	}
	if err := run(c, newW); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

// result is the last line of the benchmark's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// phase is one timed closed loop: host time per workload step and what
// each step produced. Host time is process CPU time (user plus system, all
// threads): unlike wall-clock time it does not count the time the
// machine's virtual CPUs are stolen by other tenants or left idle, which
// on shared virtual machines varies far more from run to run than the
// program's own work. Wall-clock times are kept for the run record.
type phase struct {
	cpuMs   []float64 // host CPU time per step
	wallMs  []float64 // wall-clock time per step
	cpu     time.Duration
	outs    []stepOut
	failed  int
	elapsed time.Duration
	mem     runtime.MemStats // delta over the loop: TotalAlloc, Mallocs, NumGC, PauseTotalNs
}

// loop runs workload steps back to back until seconds have passed and at
// least atLeast steps ran.
func loop(w workload, seconds float64, atLeast int, tr *tracer, acc *layerAcc) phase {
	var p phase
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	limit := time.Duration(seconds * float64(time.Second))
	cpu0 := cpuTime()
	start := time.Now()
	for i := 0; ; i++ {
		if el := time.Since(start); (el >= limit && i >= atLeast) || el >= hardCap {
			break
		}
		tr.setStep(i)
		t0, c0 := time.Now(), cpuTime()
		out, err := w.step(i, tr, acc)
		p.cpuMs = append(p.cpuMs, float64(cpuTime()-c0)/1e6)
		p.wallMs = append(p.wallMs, float64(time.Since(t0))/1e6)
		if err != nil {
			p.failed++
			fmt.Fprintln(os.Stderr, "perfbench: step", i, err)
		}
		p.outs = append(p.outs, out)
	}
	p.elapsed = time.Since(start)
	p.cpu = cpuTime() - cpu0
	runtime.ReadMemStats(&m1)
	p.mem.TotalAlloc = m1.TotalAlloc - m0.TotalAlloc
	p.mem.Mallocs = m1.Mallocs - m0.Mallocs
	p.mem.NumGC = m1.NumGC - m0.NumGC
	p.mem.PauseTotalNs = m1.PauseTotalNs - m0.PauseTotalNs
	return p
}

func run(c config, newW func() workload) error {
	procs := runtime.NumCPU()
	runtime.GOMAXPROCS(procs)
	tensor.SetMaxWorkers(procs)

	var w workload
	var setups []float64
	for rep := 0; rep < setupReps; rep++ {
		w = nil // the previous set-up is garbage before the next starts
		runtime.GC()
		start := cpuTime()
		w = newW()
		if err := w.setup(c.seed); err != nil {
			return fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, (cpuTime() - start).Seconds())
	}

	prov := map[string]any{
		"workload": c.workload, "seed": c.seed, "commit": commit,
		"go": runtime.Version(), "nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0),
		"tensor_max_workers": tensor.MaxWorkers(), "traced": c.trace == 1,
		"setup_s": setups,
	}
	var res result
	var record any
	if c.trace == 0 {
		res, record = untraced(c, w, setups, prov)
	} else {
		var err error
		res, record, err = traced(c, w, prov)
		if err != nil {
			return err
		}
	}
	pj, _ := json.Marshal(prov)
	fmt.Println("provenance:", string(pj))
	if err := writeRecord(c, record); err != nil {
		return err
	}
	last, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(last))
	return nil
}

// commit is set at build time (-ldflags "-X main.commit=...").
var commit = "unknown"

func untraced(c config, w workload, setups []float64, prov map[string]any) (result, any) {
	p := loop(w, c.seconds, minSteps, nil, nil)
	rss := peakRSSMB() // before verify builds its own state
	res := result{Attempted: len(p.cpuMs), Failed: p.failed}
	if err := w.verify(p.outs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench: verify:", err)
		res.Attempted++
		res.Failed++
	}
	res.Correct = res.Failed == 0
	steps := float64(len(p.cpuMs))
	m := map[string]metric{
		"setup_s":                {median(setups), "s"},
		"host_steps_per_s":       {steps / p.cpu.Seconds(), "1/s"},
		"host_step_ms.p50":       {median(p.cpuMs), "ms"},
		"host_step_ms.p90":       {quantile(p.cpuMs, 0.9), "ms"},
		"host_alloc_mb_per_step": {float64(p.mem.TotalAlloc) / steps / 1e6, "MB"},
		"host_peak_rss_mb":       {rss, "MB"},
	}
	n := min(minSteps, len(p.outs))
	m["sim_step_ms.pft"] = metric{meanSimMs(p.outs[:n], 0), "ms"}
	m["sim_step_ms.rbd"] = metric{meanSimMs(p.outs[:n], 2), "ms"}
	res.Metrics = m
	prov["samples"] = len(p.cpuMs)
	prov["sim_seeds"] = n
	prov["wall_step_ms_p50"] = median(p.wallMs)
	prov["wall_step_ms_p90"] = quantile(p.wallMs, 0.9)
	prov["wall_steps_per_s"] = steps / p.elapsed.Seconds()
	return res, map[string]any{"provenance": prov, "host_step_ms": p.cpuMs, "wall_step_ms": p.wallMs, "metrics": m}
}

// meanSimMs averages transport t's simulated step time over outs, in ms.
func meanSimMs(outs []stepOut, t int) float64 {
	var sum float64
	for _, o := range outs {
		sum += o.sim[t]
	}
	return sum / float64(len(outs)) * 1e3
}

// traced runs an untraced reference loop and then a traced loop over the
// same steps for half the time each, then analyzes the first steps. The
// traced loop must reproduce the reference loop's simulated numbers.
func traced(c config, w workload, prov map[string]any) (result, any, error) {
	ref := loop(w, c.seconds/2, 1, nil, nil)
	if rw, ok := w.(rewinder); ok {
		if err := rw.rewind(); err != nil {
			return result{}, nil, err
		}
	}
	tr := newTracer()
	acc := newLayerAcc()
	tp := loop(w, c.seconds/2, 1, tr, acc)
	cpuMsPerStep := float64(tp.cpu) / 1e6 / float64(len(tp.cpuMs))
	res := result{Attempted: len(ref.cpuMs) + len(tp.cpuMs), Failed: ref.failed + tp.failed}
	for i := 0; i < min(len(ref.outs), len(tp.outs)); i++ {
		if err := sameOut(c.workload+" traced", ref.outs[i], tp.outs[i]); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: step", i, err)
			res.Failed++
		}
	}
	ana := newLayerAcc()
	for i := 0; i < analyzed; i++ {
		tr.setStep(i)
		res.Attempted++
		if err := w.analyze(i, tr, ana); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench: analyze step", i, err)
			res.Failed++
		}
	}
	res.Correct = res.Failed == 0
	spans := tr.snapshot()
	overhead := median(tp.cpuMs) - median(ref.cpuMs)
	res.Metrics = layerMetrics(spans, acc, len(tp.cpuMs), ana, analyzed, ref, cpuMsPerStep, overhead)
	prov["samples"] = len(tp.cpuMs)
	prov["reference_samples"] = len(ref.cpuMs)
	prov["trace_overhead_ms"] = overhead
	prov["reference_step_ms_p50"] = median(ref.cpuMs)
	prov["traced_step_ms_p50"] = median(tp.cpuMs)
	st := aggregate(spans)
	self := map[string]float64{}
	for name, d := range st.self {
		self[name] = float64(d) / 1e6
	}
	return res, map[string]any{"provenance": prov, "metrics": res.Metrics, "self_ms": self, "spans": spans}, nil
}

// layerMetrics turns the traced run's spans and accumulators into the
// per-layer metrics, each per workload step.
func layerMetrics(spans []span, acc *layerAcc, steps int, ana *layerAcc, nAna int, ref phase, cpuMsPerStep, overhead float64) map[string]metric {
	vals := map[string]float64{}
	for name, v := range acc.sum {
		vals[name] = v / float64(steps)
	}
	for name, v := range ana.sum {
		vals[name] = v / float64(nAna)
	}
	// Span totals are per workload step they were recorded in: the timed
	// loop's steps, or the analyzed steps for replays and probes.
	st := aggregate(spans)
	ms := func(name string) float64 { return float64(st.total[name]) / 1e6 }
	perStep := func(name string) float64 {
		if st.steps[name] == 0 {
			return 0
		}
		return ms(name) / float64(st.steps[name])
	}
	for _, t := range transports {
		vals["baselines.simulate_step_ms."+t] = perStep("baselines.simulate_step." + t)
		vals["train.step_ms."+t] = perStep("train.step." + t)
		for _, pass := range []string{"fwd", "bwd"} {
			vals["moe."+pass+"_ms."+t] = perStep("moe." + pass + "." + t)
		}
	}
	vals["rbd.fwd_ms"] = perStep("rbd.fwd")
	vals["rbd.bwd_ms"] = perStep("rbd.bwd")
	vals["moe.routing_ms"] = perStep("moe.routing")
	vals["moe.pft_build_ms"] = perStep("moe.pft_build")
	vals["simrt.run_ms"] = perStep("simrt.run")
	vals["zero.sync_ms"] = perStep("zero.sync")
	for _, eng := range []string{"netsim", "devent"} {
		if calls := acc.sum[eng+".calls"] + ana.sum[eng+".calls"]; calls > 0 {
			vals[eng+".repeat_frac"] = (acc.sum[eng+".repeats"] + ana.sum[eng+".repeats"]) / calls
		}
		if run := vals["simrt.run_ms"]; run > 0 {
			vals["host_share."+eng] = vals[eng+".ms"] / run
		}
	}
	if body := ms("rank.body"); body > 0 {
		vals["host_share.moe_routing"] = ms("moe.routing") / body
		vals["host_share.moe_fwd_bwd"] = (ms("moe.fwd.pft") + ms("moe.fwd.padded") + ms("moe.bwd.pft") + ms("moe.bwd.padded")) / body
		vals["host_share.rbd_fwd_bwd"] = (ms("rbd.fwd") + ms("rbd.bwd")) / body
		vals["host_share.zero_sync"] = ms("zero.sync") / body
	}
	if gemm := vals["tensor.gemm_est_ms"]; gemm > 0 && cpuMsPerStep > 0 {
		vals["host_share.tensor_gemm"] = gemm / cpuMsPerStep
	}
	rs := float64(len(ref.cpuMs))
	vals["runtime.gc_pause_ms_per_step"] = float64(ref.mem.PauseTotalNs) / 1e6 / rs
	vals["runtime.gc_cycles_per_step"] = float64(ref.mem.NumGC) / rs
	vals["runtime.allocs_per_step"] = float64(ref.mem.Mallocs) / rs
	vals["trace.overhead_ms"] = overhead
	vals["sim_step_ms.padded"] = meanSimMs(ref.outs[:min(minSteps, len(ref.outs))], 1)

	out := map[string]metric{}
	for _, m := range perLayer {
		v := vals[m.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out[m.name] = metric{v, m.unit}
	}
	return out
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB.
func peakRSSMB() float64 {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	var kb float64
	for _, line := range strings.Split(string(b), "\n") {
		if n, _ := fmt.Sscanf(line, "VmHWM: %f kB", &kb); n == 1 {
			return kb * 1024 / 1e6
		}
	}
	return math.NaN()
}

// cpuTime returns the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// writeRecord writes the run record (provenance, samples, metrics and,
// for the traced run, every span) as JSON under the output directory.
func writeRecord(c config, record any) error {
	if err := os.MkdirAll(c.outDir, 0o755); err != nil {
		return err
	}
	name := fmt.Sprintf("%s-seed%d-trace%d.json", c.workload, c.seed, c.trace)
	b, err := json.Marshal(record)
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(c.outDir, name), b, 0o644)
}
