package moe

import (
	"math"
	"sync"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// chunkFuzzCase is one decoded input of FuzzChunkedMatchesSingleChunk.
type chunkFuzzCase struct {
	seed     uint64
	world, s int
	cfg      Config
	chunks   int
	policy   DropPolicy
	skew     float64
	// perExpert draws random per-expert capacities for the PFT runs (the
	// padded pipeline requires one uniform capacity).
	perExpert bool
}

// run executes one fwd+bwd of transport ("pft" or "padded") at the given
// chunk count on a fresh cluster. In numeric mode it returns every rank's
// output and gradients; in symbolic mode it checks that each rank's
// charged trace spans sum to its clock.
func (fc chunkFuzzCase) run(t *testing.T, transport string, chunks int, numeric bool) map[int]fwdBwdPass {
	t.Helper()
	c := newMoECluster(t, fc.world)
	g := c.WorldGroup()
	epr := fc.cfg.NumExperts / fc.world
	h := fc.cfg.HModel
	var caps []int
	if fc.perExpert && transport == "pft" {
		rng := tensor.NewRNG(fc.seed ^ 0x9e3779b97f4a7c15)
		caps = make([]int, fc.cfg.NumExperts)
		for i := range caps {
			caps[i] = 1 + rng.Intn(fc.s*fc.cfg.TopK/fc.cfg.NumExperts+4)
		}
	}
	results := make(map[int]fwdBwdPass)
	var mu sync.Mutex
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(fc.seed + 7919*uint64(r.ID+1))
		x := tensor.Randn(rng, 1, fc.s, h)
		routing := SyntheticRouting(rng, fc.s, fc.cfg.NumExperts, fc.cfg.TopK, fc.skew)
		opts := PipelineOpts{Numeric: numeric, DropPolicy: fc.policy, SaveForBackward: true,
			OverlapChunks: chunks, CapacityByExpert: caps}
		var params *ExpertParams
		var dOut *tensor.Tensor
		if numeric {
			params = localParams(g.IndexOf(r.ID), epr, h, fc.cfg.HFFN)
			dOut = tensor.Randn(rng, 1, fc.s, h)
		}
		var pass fwdBwdPass
		var bwd BackwardResult
		if transport == "pft" {
			res := PFTForward(r, g, fc.cfg, fc.s, x, routing, params, opts)
			pass.out = res.Output
			bwd = PFTBackward(r, g, fc.cfg, res.State, dOut, params, opts)
		} else {
			res := PaddedForward(r, g, fc.cfg, fc.s, x, routing, params, opts)
			pass.out = res.Output
			bwd = PaddedBackward(r, g, fc.cfg, res.PaddedState, dOut, params, opts)
		}
		pass.dx, pass.dw1, pass.dw2, pass.dcw = bwd.DX, bwd.DW1, bwd.DW2, bwd.DCombineWeights
		if charged := r.Trace.ChargedTotal(); math.Abs(charged-r.Clock) > 1e-9*r.Clock {
			t.Errorf("%s C=%d rank %d: charged spans %v s, clock %v s", transport, chunks, r.ID, charged, r.Clock)
		}
		mu.Lock()
		results[r.ID] = pass
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// FuzzChunkedMatchesSingleChunk checks the chunk-count invariance of both
// transports on generated shapes: for random EP sizes, expert counts,
// widths, chunk counts 2..9, both drop policies and (PFT) per-expert
// capacities, the forward output, DX, DW1/DW2 and DCombineWeights equal
// the C=1 run bit for bit, and every run's charged trace spans sum to the
// rank clock.
func FuzzChunkedMatchesSingleChunk(f *testing.F) {
	f.Add(uint64(1), 4, 2, 32, 12+16*8, 3, 2, 0)
	f.Fuzz(func(t *testing.T, seed uint64, ep, epr, tokens, width, topK, chunks, flags int) {
		world := 1 + bounded(ep, 8)
		e := world * (1 + bounded(epr, 3))
		fc := chunkFuzzCase{
			seed:  seed,
			world: world,
			s:     1 + bounded(tokens, 48),
			cfg: Config{
				NumExperts:     e,
				TopK:           1 + bounded(topK, min(e, 4)),
				HModel:         1 + bounded(width, 16),
				HFFN:           1 + bounded(width/16, 16),
				CapacityFactor: []float64{0.5, 1, 1.25, 2}[bounded(flags>>2, 4)],
				BytesPerElem:   2,
			},
			chunks:    2 + bounded(chunks, 8),
			policy:    DropPolicy(flags & 1),
			perExpert: flags&2 != 0,
			skew:      []float64{0, 0.6, 1.5}[bounded(flags>>4, 3)],
		}
		for _, transport := range []string{"pft", "padded"} {
			comparePasses(t, transport+" chunked vs C=1",
				fc.run(t, transport, 1, true), fc.run(t, transport, fc.chunks, true))
			fc.run(t, transport, 1, false)
			fc.run(t, transport, fc.chunks, false)
		}
	})
}
