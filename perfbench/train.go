package main

import (
	"fmt"
	"math"
	"time"

	"xmoe/internal/kernels"
	"xmoe/internal/moe"
	"xmoe/internal/tensor"
	"xmoe/internal/train"
)

// trainNumeric runs real float32 training steps: one DistTrainer.Step on
// each of three persistent trainers (pft, padded, rbd), the only path on
// which tensor and kernels do arithmetic.
type trainNumeric struct {
	world, tokens, chunks, warmup, replay int
	moeCfg                                moe.Config

	cfgs     [3]train.DistConfig
	trainers [3]*train.DistTrainer
	ckpt     [3]*train.Checkpoint
}

func newTrainNumeric() *trainNumeric {
	// 96 tokens per rank keeps a step near 200 ms; the expert GEMMs still
	// take most of the host CPU.
	return &trainNumeric{
		world: 8, tokens: 96, chunks: 4, warmup: 8, replay: 3,
		moeCfg: moe.Config{NumExperts: 64, TopK: 6, HModel: 96, HFFN: 48,
			CapacityFactor: 1.25, BytesPerElem: 2},
	}
}

// setup builds the trainers, seeded from the workload seed, runs the
// warm-up steps (step time settles only after several steps, as pools and
// the cost memo fill) and checkpoints the warmed-up state.
func (w *trainNumeric) setup(seed uint64) error {
	for t, transport := range transports {
		w.cfgs[t] = train.DistConfig{
			MoE: w.moeCfg, World: w.world, Tokens: w.tokens, LR: 1e-2, Seed: seed,
			Transport: transport, ZeROStage: 1, Momentum: 0.9,
			Opts: moe.PipelineOpts{OverlapChunks: w.chunks},
		}
		tr, err := train.NewDistTrainer(w.cfgs[t])
		if err != nil {
			return err
		}
		w.trainers[t] = tr
	}
	for i := 0; i < w.warmup; i++ {
		if _, err := w.step(-1, nil, nil); err != nil {
			return err
		}
	}
	for t, tr := range w.trainers {
		w.ckpt[t] = tr.Checkpoint()
	}
	return nil
}

// rewind restores the warm-up checkpoint into the live trainers, so the
// next steps replay the timed region's first steps.
func (w *trainNumeric) rewind() error {
	for t, tr := range w.trainers {
		if err := tr.Restore(w.ckpt[t]); err != nil {
			return err
		}
	}
	return nil
}

// step trains each trainer once. The trainers own their input streams, so
// step i is the i-th draw after warm-up, not a function of i.
func (w *trainNumeric) step(_ int, tr *tracer, acc *layerAcc) (stepOut, error) {
	var out stepOut
	for t, trainer := range w.trainers {
		var st train.DistStepStats
		var err error
		tr.do(0, "train.step."+transports[t], func(int64) { st, err = trainer.Step() })
		if err := checkTrainStep(transports[t], st, err); err != nil {
			return out, err
		}
		out.sim[t] = st.WallClock
		out.loss[t] = st.Loss
		if acc != nil {
			assigned := float64(w.world * w.tokens * w.moeCfg.TopK)
			acc.add("moe.drop_frac."+transports[t], float64(st.Dropped)/assigned)
			addSimBreakdownMap(acc, transports[t], st.Breakdown, st.CommInFlight)
		}
	}
	return out, nil
}

func checkTrainStep(transport string, st train.DistStepStats, err error) error {
	switch {
	case err != nil:
		return fmt.Errorf("train-numeric %s: %w", transport, err)
	case math.IsNaN(st.Loss) || math.IsInf(st.Loss, 0):
		return fmt.Errorf("train-numeric %s: loss %v not finite", transport, st.Loss)
	case st.MaxImbalance > 1e-9:
		return fmt.Errorf("train-numeric %s: breakdown off wall-clock by %v s", transport, st.MaxImbalance)
	}
	return nil
}

// verify restores the warm-up checkpoint into fresh trainers and replays
// the first timed steps: losses and simulated step times must be bit
// identical to the ones recorded in the timed region.
func (w *trainNumeric) verify(first []stepOut) error {
	n := min(w.replay, len(first))
	for t := range w.trainers {
		fresh, err := train.NewDistTrainer(w.cfgs[t])
		if err != nil {
			return err
		}
		if err := fresh.Restore(w.ckpt[t]); err != nil {
			return err
		}
		for j := 0; j < n; j++ {
			st, err := fresh.Step()
			if err := checkTrainStep(transports[t], st, err); err != nil {
				return err
			}
			if st.Loss != first[j].loss[t] || st.WallClock != first[j].sim[t] {
				return fmt.Errorf("train-numeric %s: restored step %d gives loss %v / %v s, timed run %v / %v s",
					transports[t], j, st.Loss, st.WallClock, first[j].loss[t], first[j].sim[t])
			}
		}
	}
	return nil
}

// analyze times the trainer's GEMM and kernel shapes directly through the
// tensor and kernels APIs: the trainer's cluster is private, so these
// layers cannot be wrapped from outside. Shapes follow the pipelines:
// pft and rbd experts see about world*tokens*k/E rows, padded experts
// world*capacity rows; forward and dX GEMMs run per overlap chunk, dW
// GEMMs on the full segment.
func (w *trainNumeric) analyze(_ int, tr *tracer, acc *layerAcc) error {
	cfg := w.moeCfg
	h, f := cfg.HModel, cfg.HFFN
	epr := cfg.NumExperts / w.world
	rng := tensor.NewRNG(1)
	var flops int64
	var gemm time.Duration
	for t := range transports {
		rows := w.world * w.tokens * cfg.TopK / cfg.NumExperts
		if transports[t] == "padded" {
			rows = w.world * cfg.Capacity(w.tokens)
		}
		cr := max(rows/w.chunks, 1)
		xc, hc := tensor.Randn(rng, 1, cr, h), tensor.Randn(rng, 1, cr, f)
		xf, hf := tensor.Randn(rng, 1, rows, h), tensor.Randn(rng, 1, rows, f)
		w1, w2 := tensor.Randn(rng, 1, h, f), tensor.Randn(rng, 1, f, h)
		outHF, outFH := tensor.New(h, f), tensor.New(f, h)
		outCF, outCH := tensor.New(cr, f), tensor.New(cr, h)
		per := time.Duration(0)
		tr.do(0, "tensor.gemm."+transports[t], func(int64) {
			start := time.Now()
			for c := 0; c < w.chunks; c++ {
				tensor.MatMulInto(outCF, xc, w1)  // forward up-projection
				tensor.MatMulInto(outCH, hc, w2)  // forward down-projection
				tensor.MatMulTInto(outCF, xc, w2) // dHid = dY W2^T
				tensor.MatMulTInto(outCH, hc, w1) // dX = dHid W1^T
			}
			tensor.TMatMulInto(outFH, hf, xf) // dW2 = Hact^T dY
			tensor.TMatMulInto(outHF, xf, hf) // dW1 = X^T dHid
			per = time.Since(start)
		})
		calls := int64(w.world * epr)
		flops += calls * (4*int64(w.chunks)*tensor.MatMulFLOPs(cr, h, f) + 2*tensor.MatMulFLOPs(rows, h, f))
		gemm += time.Duration(calls) * per
	}
	acc.add("tensor.gemm_gflops", float64(flops)/gemm.Seconds()/1e9)
	acc.add("tensor.gemm_est_ms", float64(gemm)/1e6)

	// Kernels at one rank's forward shapes: the gather and scatter-combine
	// of its own routed tokens, the sequential GEMM over its local experts.
	s := w.tokens
	rt := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 0.6)
	pft := moe.BuildPFT(rt, cfg.NumExperts, cfg.Capacity(s), moe.DropByCapacityWeight)
	x := tensor.Randn(rng, 1, s, h)
	disp := tensor.New(pft.B(), h)
	comb := tensor.New(s, h)
	rows := make([]int, epr)
	for e := range rows {
		rows[e] = w.world * w.tokens * cfg.TopK / cfg.NumExperts
	}
	nRows := epr * rows[0]
	seqIn := tensor.Randn(rng, 1, nRows, h)
	seqOut := tensor.New(nRows, f)
	ws := make([]*tensor.Tensor, epr)
	for e := range ws {
		ws[e] = tensor.Randn(rng, 1, h, f)
	}
	timeIt(tr, acc, "kernels.gather_ms", func() { kernels.GatherInto(disp, x, pft.TokenIDs) })
	timeIt(tr, acc, "kernels.scatter_combine_ms", func() { kernels.ScatterCombineInto(comb, disp, pft.TokenIDs, pft.CombineWeights) })
	timeIt(tr, acc, "kernels.seq_gemm_ms", func() { kernels.SequentialGEMMInto(seqOut, seqIn, rows, ws) })
	return nil
}

// timeIt records fn's host time in milliseconds as metric name, under a
// span of the same name.
func timeIt(tr *tracer, acc *layerAcc, name string, fn func()) {
	var d time.Duration
	tr.do(0, name, func(int64) {
		start := time.Now()
		fn()
		d = time.Since(start)
	})
	acc.add(name, float64(d)/1e6)
}
