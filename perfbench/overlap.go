package main

import (
	"fmt"
	"math"

	"xmoe/internal/devent"
	"xmoe/internal/moe"
	"xmoe/internal/netsim"
	"xmoe/internal/rbd"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
	"xmoe/internal/topology"
)

// overlapEvent runs a symbolic fwd+bwd of one MoE layer per transport,
// composed with the same calls as bench.StepClock, with chunked
// comm/compute overlap in both passes and every collective priced by the
// discrete-event engine on the rail graph. The cluster, engine and RBD
// dispatcher persist across steps.
type overlapEvent struct {
	cfg    moe.Config
	world  int
	tokens int
	chunks int

	seed    uint64
	cluster *simrt.Cluster
	engine  netsim.CostEngine // the devent engine, unwrapped
	disp    *rbd.Dispatcher
}

func newOverlapEvent() *overlapEvent {
	// 128 tokens per rank keeps a step near 150 ms. The event engine's cost
	// grows with the flows of EP 32 and four chunks, not with the token
	// count, so it stays the dominant layer.
	return &overlapEvent{
		cfg: moe.Config{NumExperts: 256, TopK: 8, HModel: 7168, HFFN: 2048,
			CapacityFactor: 1.25, BytesPerElem: 2},
		world:  32,
		tokens: 128,
		chunks: 4,
	}
}

func (w *overlapEvent) setup(seed uint64) error {
	w.seed = seed
	m := topology.Frontier()
	w.cluster = simrt.NewCluster(m, w.world, seed)
	w.cluster.Net.DisableCongestion = true
	w.engine = devent.New(topology.RailGraph(m, w.world, 0))
	w.cluster.Engine = w.engine
	w.disp = rbd.NewDispatcher(w.cluster, w.cluster.WorldGroup(), w.cfg)
	_, err := w.step(-1, nil, nil)
	return err
}

// rewind rebuilds the cluster, engine and dispatcher, so the event
// engine's memo is as cold as after setup when the traced run repeats the
// untraced steps.
func (w *overlapEvent) rewind() error { return w.setup(w.seed) }

func (w *overlapEvent) stepSeed(i int) uint64 { return w.seed + uint64(i) }

// step runs one fwd+bwd per transport. When acc is set (the traced run),
// the cluster's engine is wrapped in a countingEngine for the step and the
// per-layer observations go to acc.
func (w *overlapEvent) step(i int, tr *tracer, acc *layerAcc) (stepOut, error) {
	var out stepOut
	var eng *countingEngine
	if acc != nil {
		eng = newCountingEngine(w.engine)
		w.cluster.Engine = eng
		defer func() { w.cluster.Engine = w.engine }()
	}
	for t := range transports {
		ranks, err := w.runTransport(t, w.stepSeed(i), tr, acc)
		if err != nil {
			return out, err
		}
		out.sim[t] = simrt.MaxClock(ranks)
		out.peakMemGiB[t] = float64(w.cluster.PeakMemory()) / (1 << 30)
		if acc != nil {
			acc.add("simrt.peak_mem_gib."+transports[t], out.peakMemGiB[t])
		}
	}
	if acc != nil {
		acc.addEngine("devent", eng.take())
	}
	return out, nil
}

// runTransport runs one symbolic fwd+bwd of transport t on the persistent
// cluster and checks that every rank's charged spans sum to its clock.
func (w *overlapEvent) runTransport(t int, seed uint64, tr *tracer, acc *layerAcc) ([]*simrt.Rank, error) {
	transport := transports[t]
	g := w.cluster.WorldGroup()
	s, cfg := w.tokens, w.cfg
	w.cluster.ResetMemory()
	lay := make([]rankLayer, w.world)
	fwdName, bwdName := "moe.fwd."+transport, "moe.bwd."+transport
	if transport == "rbd" {
		fwdName, bwdName = "rbd.fwd", "rbd.bwd"
	}
	var ranks []*simrt.Rank
	var err error
	tr.do(0, "simrt.run", func(runID int64) {
		ranks, err = w.cluster.RunCollect(func(r *simrt.Rank) error {
			tr.do(runID, "rank.body", func(parent int64) {
				var rt moe.Routing
				tr.do(parent, "moe.routing", func(int64) {
					rt = moe.SyntheticRouting(tensor.NewRNG(seed+uint64(r.ID)), s, cfg.NumExperts, cfg.TopK, 0)
				})
				fwdOpts := moe.PipelineOpts{DropPolicy: moe.DropByCapacityWeight,
					SaveForBackward: true, OverlapChunks: w.chunks}
				bwdOpts := moe.PipelineOpts{OverlapChunks: w.chunks}
				l := &lay[r.ID]
				l.assigned = s * cfg.TopK
				switch transport {
				case "pft":
					var res moe.LayerResult
					tr.do(parent, fwdName, func(int64) { res = moe.PFTForward(r, g, cfg, s, nil, rt, nil, fwdOpts) })
					tr.do(parent, bwdName, func(int64) { moe.PFTBackward(r, g, cfg, res.State, nil, nil, bwdOpts) })
					l.dropped = res.Dropped
				case "padded":
					fwdOpts.DropPolicy = moe.DropNegativeThenPosition
					var res moe.LayerResult
					tr.do(parent, fwdName, func(int64) { res = moe.PaddedForward(r, g, cfg, s, nil, rt, nil, fwdOpts) })
					tr.do(parent, bwdName, func(int64) { moe.PaddedBackward(r, g, cfg, res.PaddedState, nil, nil, bwdOpts) })
					l.dropped = res.Dropped
				case "rbd":
					var res rbd.LayerResult
					tr.do(parent, fwdName, func(int64) {
						res = rbd.Forward(r, w.disp, cfg, s, nil, rt, nil, tensor.NewRNG(seed^uint64(r.ID)), fwdOpts)
					})
					tr.do(parent, bwdName, func(int64) { rbd.Backward(r, w.disp, cfg, res.State, nil, nil, bwdOpts) })
					l.dropped = res.Dropped
					if acc != nil {
						l.redundancy = rbd.AnalyzeRedundancy(rt, w.disp.NodeOfExpert, r.C.Machine.NodeOf(r.ID)).Rate()
					}
				}
			})
			return nil
		})
	})
	if err != nil {
		// Run reports leaked CommHandles as errors, so a clean return
		// also checks that every async collective was waited on.
		return nil, fmt.Errorf("overlap-event %s: %w", transport, err)
	}
	for _, rk := range ranks {
		if d := math.Abs(rk.Trace.ChargedTotal() - rk.Clock); d > 1e-9 {
			return nil, fmt.Errorf("overlap-event %s: rank %d charged spans %v s, clock %v s", transport, rk.ID, rk.Trace.ChargedTotal(), rk.Clock)
		}
	}
	if acc != nil {
		for _, l := range lay {
			acc.add("moe.drop_frac."+transport, float64(l.dropped)/float64(l.assigned)/float64(w.world))
			if transport == "rbd" {
				acc.add("rbd.redundancy_rate", l.redundancy/float64(w.world))
			}
		}
		addSimBreakdown(acc, transport, ranks)
	}
	return ranks, nil
}

// verify re-runs the first timed step, which must reproduce its simulated
// numbers bit for bit on the persistent cluster and engine.
func (w *overlapEvent) verify(first []stepOut) error {
	again, err := w.step(0, nil, nil)
	if err != nil {
		return err
	}
	return sameOut("overlap-event", first[0], again)
}

// analyze has nothing to add: the traced steps already wrap the engine.
func (w *overlapEvent) analyze(int, *tracer, *layerAcc) error { return nil }
