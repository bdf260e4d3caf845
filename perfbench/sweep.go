package main

import (
	"fmt"
	"math"
	"runtime"

	"xmoe/internal/baselines"
	"xmoe/internal/memmodel"
	"xmoe/internal/model"
	"xmoe/internal/moe"
	"xmoe/internal/parallel"
	"xmoe/internal/perfmodel"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
	"xmoe/internal/trace"
	"xmoe/internal/zero"
)

// sweepSymbolic is the Fig. 9/10 sweep path: one workload step is
// baselines.SimulateStep once per transport, each building fresh
// clusters, on symbolic (timing-only) pipelines with blocking exchanges.
type sweepSymbolic struct {
	machine     *topology.Machine
	shape       model.Shape
	world       int
	microBatch  int
	globalBatch int
	systems     [3]baselines.Config // in transports order
	seed        uint64
}

func newSweepSymbolic() *sweepSymbolic {
	m := topology.Frontier()
	xm := baselines.For(baselines.XMoE, m)
	pft := xm
	pft.RBD = false
	// The sequence-reduced Small model at micro-batch 1 keeps a step near
	// 120 ms, so at least 100 steps fit one run; routing, PFT construction
	// and RBD dispatch still dominate its host time.
	return &sweepSymbolic{
		machine:     m,
		shape:       model.SmallSR(),
		world:       16,
		microBatch:  1,
		globalBatch: 128,
		systems:     [3]baselines.Config{pft, baselines.For(baselines.DeepSpeedMoE, m), xm},
	}
}

func (w *sweepSymbolic) spec(sys baselines.Config, seed uint64) baselines.RunSpec {
	return baselines.RunSpec{
		Shape: w.shape, Machine: w.machine, World: w.world,
		Plan: parallel.Plan{World: w.world, TP: 1, EP: w.world,
			Placement: sys.Placement, SSMB: sys.SSMB, ZeROStage: 1},
		MicroBatch: w.microBatch, GlobalBatch: w.globalBatch,
		Seed: seed, Congestion: true,
	}
}

// setup has nothing persistent to build: every SimulateStep builds its own
// clusters. Warm-up runs one step so lazily built runtime state is paid
// before the timed region.
func (w *sweepSymbolic) setup(seed uint64) error {
	w.seed = seed
	_, err := w.step(-1, nil, nil)
	return err
}

func (w *sweepSymbolic) stepSeed(i int) uint64 { return w.seed + uint64(i) }

func (w *sweepSymbolic) step(i int, tr *tracer, acc *layerAcc) (stepOut, error) {
	var out stepOut
	for t, sys := range w.systems {
		var res baselines.StepResult
		tr.do(0, "baselines.simulate_step."+transports[t], func(int64) {
			res = baselines.SimulateStep(sys, w.spec(sys, w.stepSeed(i)))
		})
		if err := checkSweepResult(transports[t], res); err != nil {
			return out, err
		}
		out.sim[t] = res.IterSeconds
		out.peakMemGiB[t] = res.PeakMemGB
		if acc != nil {
			acc.add("simrt.peak_mem_gib."+transports[t], res.PeakMemGB)
		}
	}
	return out, nil
}

func checkSweepResult(transport string, res baselines.StepResult) error {
	switch {
	case res.Err != nil:
		return fmt.Errorf("sweep-symbolic %s: %w", transport, res.Err)
	case res.OOM:
		return fmt.Errorf("sweep-symbolic %s: out of memory (%.1f GiB)", transport, res.PeakMemGB)
	case math.IsNaN(res.IterSeconds) || math.IsInf(res.IterSeconds, 0) || res.IterSeconds <= 0:
		return fmt.Errorf("sweep-symbolic %s: IterSeconds %v not finite and positive", transport, res.IterSeconds)
	}
	return nil
}

// verify re-runs the first timed step, which must reproduce its simulated
// numbers bit for bit.
func (w *sweepSymbolic) verify(first []stepOut) error {
	again, err := w.step(0, nil, nil)
	if err != nil {
		return err
	}
	return sameOut("sweep-symbolic", first[0], again)
}

// analyze replays each transport's MoE layer of step i on a cluster the
// benchmark builds itself, with the seeds and options SimulateStep uses,
// and times routing, PFT construction, forward, backward, gradient sync
// and cost-engine calls from outside the program. It checks that the
// replay's forward stages equal the step's LayerForward (replay
// fidelity) and accumulates per-layer metrics into acc.
func (w *sweepSymbolic) analyze(i int, tr *tracer, acc *layerAcc) error {
	for t, sys := range w.systems {
		spec := w.spec(sys, w.stepSeed(i))
		res := baselines.SimulateStep(sys, spec)
		if err := checkSweepResult(transports[t], res); err != nil {
			return err
		}
		rep, err := replayLayer(sys, spec, tr, transports[t], acc)
		if err != nil {
			return err
		}
		if err := sameStages(rep.fwd, res.LayerForward); err != nil {
			return fmt.Errorf("sweep-symbolic %s replay fidelity: %w", transports[t], err)
		}
		addSimBreakdown(acc, transports[t], rep.ranks)
	}
	return nil
}

// sameStages requires two per-stage breakdowns to hold the same stages
// with bit-identical times.
func sameStages(got, want map[string]float64) error {
	if len(got) != len(want) {
		return fmt.Errorf("replay has %d forward stages, step has %d", len(got), len(want))
	}
	for name, v := range want {
		g, ok := got[name]
		if !ok {
			return fmt.Errorf("stage %q missing from replay", name)
		}
		if g != v {
			return fmt.Errorf("stage %q: replay %v s, step %v s", name, g, v)
		}
	}
	return nil
}

type replayed struct {
	fwd   map[string]float64
	ranks []*simrt.Rank
}

// replayLayer re-runs the primary (gradient-synchronising) layer of
// baselines.SimulateStep for a TP=1 plan: dense block forward, MoE forward
// with state capture, MoE backward with the bucketed ZeRO sync issued from
// OnDWReady, gate and dense backward, sync wait. Only exported calls are
// used, in the order the step makes them, so the simulated stages match.
func replayLayer(sys baselines.Config, spec baselines.RunSpec, tr *tracer, transport string, acc *layerAcc) (replayed, error) {
	if spec.Plan.TP != 1 {
		return replayed{}, fmt.Errorf("replay supports TP=1 plans only, got TP=%d", spec.Plan.TP)
	}
	cluster := simrt.NewCluster(spec.Machine, spec.World, spec.Seed)
	cluster.Net.DisableCongestion = !spec.Congestion
	cluster.Net.ExpectedCongestion = true
	eng := newCountingEngine(cluster.Net)
	cluster.Engine = eng

	epOfRank := make([]*simrt.Group, spec.World)
	var epGroups []*simrt.Group
	for _, ranks := range spec.Plan.EPGroups() {
		g := cluster.NewGroup(ranks)
		epGroups = append(epGroups, g)
		for _, r := range ranks {
			epOfRank[r] = g
		}
	}
	dpOfRank := make([]*simrt.Group, spec.World)
	if gs := spec.Plan.DPGroups(); len(gs) > 0 && len(gs[0]) > 1 {
		for _, ranks := range gs {
			g := cluster.NewGroup(ranks)
			for _, r := range ranks {
				dpOfRank[r] = g
			}
		}
	}
	edpOfRank := make([]*simrt.Group, spec.World)
	if gs := spec.Plan.ExpertDPGroups(); len(gs) > 0 && len(gs[0]) > 1 {
		for _, ranks := range gs {
			g := cluster.NewGroup(ranks)
			for _, r := range ranks {
				edpOfRank[r] = g
			}
		}
	}
	cfg := moe.Config{
		NumExperts: spec.Shape.NumExperts, TopK: spec.Shape.TopK,
		HModel: spec.Shape.HModel, HFFN: spec.Shape.HFFN,
		CapacityFactor: 1.25, BytesPerElem: 2,
	}
	var dispatchers map[*simrt.Group]*rbd.Dispatcher
	if sys.RBD {
		dispatchers = map[*simrt.Group]*rbd.Dispatcher{}
		for _, g := range epGroups {
			dispatchers[g] = rbd.NewDispatcher(cluster, g, cfg)
		}
	}
	opts := sys.PipelineOpts()
	opts.SaveForBackward = true
	sTokens := spec.MicroBatch * spec.Shape.SeqLen
	h := spec.Shape.HModel
	expertPerLayer := spec.Shape.ExpertParamsPerLayer() / int64(spec.Plan.EP) * 2
	densePerLayer := (spec.Shape.AttentionParamsPerLayer()/int64(spec.Plan.TP) + spec.Shape.RouterParamsPerLayer()) * 2
	zcfg := zero.Config{Stage: spec.Plan.ZeROStage, BucketBytes: spec.BucketBytes}
	fwdName, bwdName := "moe.fwd."+transport, "moe.bwd."+transport
	if sys.RBD {
		fwdName, bwdName = "rbd.fwd", "rbd.bwd"
	}

	fwdBds := make([]map[string]float64, spec.World)
	lay := make([]rankLayer, spec.World)
	var ranks []*simrt.Rank
	var err error
	tr.do(0, "simrt.run", func(runID int64) {
		ranks, err = cluster.RunCollect(func(r *simrt.Rank) error {
			tr.do(runID, "rank.body", func(parent int64) {
				ep, l := epOfRank[r.ID], &lay[r.ID]
				comp := r.C.Comp
				denseGemm := comp.GEMM(sTokens, h, 4*h) +
					comp.GEMM(sTokens, h, spec.Shape.SeqLen) +
					comp.GEMM(sTokens, spec.Shape.SeqLen, h)
				r.Compute("dense_gemm", denseGemm)
				r.Kernel("dense_elemwise", perfmodel.ClassVendor, 6*int64(sTokens)*int64(h)*2)

				tr.do(parent, "moe.routing", func(int64) {
					l.routing = moe.SyntheticRouting(tensor.NewRNG(spec.Seed+uint64(r.ID)*31+7),
						sTokens, cfg.NumExperts, cfg.TopK, 0.6)
				})
				var pftState *moe.PFTFwdState
				var padState *moe.PaddedFwdState
				var rbdState *rbd.FwdState
				tr.do(parent, fwdName, func(int64) {
					switch {
					case sys.RBD:
						lr := rbd.Forward(r, dispatchers[ep], cfg, sTokens, nil, l.routing, nil,
							tensor.NewRNG(spec.Seed^uint64(r.ID)), opts)
						rbdState, l.dropped = lr.State, lr.Dropped
					case sys.Pipeline == memmodel.PipelinePFT:
						lr := moe.PFTForward(r, ep, cfg, sTokens, nil, l.routing, nil, opts)
						pftState, l.dropped = lr.State, lr.Dropped
					default:
						lr := moe.PaddedForward(r, ep, cfg, sTokens, nil, l.routing, nil, opts)
						padState, l.dropped = lr.PaddedState, lr.Dropped
					}
				})
				l.assigned = sTokens * cfg.TopK
				if sys.RBD {
					l.redundancy = rbd.AnalyzeRedundancy(l.routing, dispatchers[ep].NodeOfExpert,
						r.C.Machine.NodeOf(r.ID)).Rate()
				}
				fwdBds[r.ID] = r.Trace.Breakdown() // before any backward charge

				var esync, dsync *zero.Syncer
				if g := edpOfRank[r.ID]; g != nil {
					esync = zero.NewSyncer(r, g, "egrad_sync", zcfg)
				}
				if g := dpOfRank[r.ID]; g != nil {
					dsync = zero.NewSyncer(r, g, "dgrad_sync", zcfg)
				}
				bopts := opts
				bopts.OnDWReady = func() {
					tr.do(parent, "zero.sync", func(int64) {
						if esync != nil {
							esync.Add(nil, expertPerLayer)
							esync.Flush()
						}
						if dsync != nil {
							dsync.Add(nil, densePerLayer)
							dsync.Flush()
						}
					})
				}
				tr.do(parent, bwdName, func(int64) {
					switch {
					case sys.RBD:
						rbd.Backward(r, dispatchers[ep], cfg, rbdState, nil, nil, bopts)
					case sys.Pipeline == memmodel.PipelinePFT:
						moe.PFTBackward(r, ep, cfg, pftState, nil, nil, bopts)
					default:
						moe.PaddedBackward(r, ep, cfg, padState, nil, nil, bopts)
					}
				})
				r.Compute("bwd_gate", 2*comp.GEMM(sTokens, h, cfg.NumExperts))
				r.Compute("dense_bwd_gemm", 2*denseGemm)
				r.Kernel("dense_bwd_elemwise", perfmodel.ClassVendor, 6*int64(sTokens)*int64(h)*2)
				tr.do(parent, "zero.sync", func(int64) {
					if esync != nil {
						esync.Wait()
					}
					if dsync != nil {
						dsync.Wait()
					}
				})
			})
			return nil
		})
	})
	if err != nil {
		return replayed{}, fmt.Errorf("sweep-symbolic %s replay: %w", transport, err)
	}
	for _, l := range lay {
		acc.add("moe.drop_frac."+transport, float64(l.dropped)/float64(l.assigned)/float64(spec.World))
		if sys.RBD {
			acc.add("rbd.redundancy_rate", l.redundancy/float64(spec.World))
		}
	}
	if transport == "pft" {
		// The PFT each forward builds internally, built once more per rank
		// on the same routing, sequentially on this goroutine, so its host
		// time and allocation show on their own.
		for _, l := range lay {
			var ms0, ms1 runtime.MemStats
			runtime.ReadMemStats(&ms0)
			tr.do(0, "moe.pft_build", func(int64) { moe.RoutedPFT(l.routing, cfg, sTokens, opts) })
			runtime.ReadMemStats(&ms1)
			acc.add("moe.pft_build_mb", float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		}
	}
	acc.addEngine("netsim", eng.take())
	return replayed{fwd: trace.MergeMaps(fwdBds, true), ranks: ranks}, nil
}

// rankLayer holds one simulated rank's routing-side observations.
type rankLayer struct {
	dropped, assigned int
	redundancy        float64
	routing           moe.Routing
}
