package moe

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"sort"
	"sync"
	"testing"

	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// c1Case is one symbolic blocking (C=1) run of the pricing pin.
type c1Case struct {
	name      string
	world, s  int
	cfg       Config
	transport string // "pft" or "padded"
	policy    DropPolicy
	kernels   KernelProfile
}

// c1Cases enumerates the pinned runs: two shapes, both drop policies, PFT
// under its Triton kernels and the padded forward under all three kernel
// profiles.
func c1Cases() []c1Case {
	shapes := []struct {
		name     string
		world, s int
		cfg      Config
	}{
		{"small", 4, 32, distConfig(8, 3)},
		{"wide", 8, 96, Config{NumExperts: 16, TopK: 2, HModel: 256, HFFN: 512, CapacityFactor: 1.0, BytesPerElem: 2}},
	}
	policies := []struct {
		name   string
		policy DropPolicy
	}{{"weight", DropByCapacityWeight}, {"position", DropNegativeThenPosition}}
	profiles := []struct {
		name    string
		kernels KernelProfile
	}{{"triton", KernelsTriton}, {"fallback", KernelsFallback}, {"vendor", KernelsVendor}}
	var out []c1Case
	for _, sh := range shapes {
		for _, pol := range policies {
			out = append(out, c1Case{sh.name + "/pft/" + pol.name, sh.world, sh.s, sh.cfg, "pft", pol.policy, KernelsTriton})
			for _, pr := range profiles {
				out = append(out, c1Case{sh.name + "/padded/" + pol.name + "/" + pr.name, sh.world, sh.s, sh.cfg, "padded", pol.policy, pr.kernels})
			}
		}
	}
	return out
}

// c1Result is what the pin compares: the forward's per-rank clocks and
// breakdowns (folded into a digest of their exact bits, plus the max
// clock for readable failures) and, for PFT, the backward's per-rank
// breakdowns.
type c1Result struct {
	fwdClock  float64
	fwdDigest uint64
	bwd       []map[string]float64 // per rank; nil for padded
}

// runC1Case executes one case's forward (and, for PFT, backward) at the
// default chunk count.
func runC1Case(t *testing.T, tc c1Case) c1Result {
	t.Helper()
	c := newMoECluster(t, tc.world)
	g := c.WorldGroup()
	fwdClocks := make([]float64, tc.world)
	fwdBreak := make([]map[string]float64, tc.world)
	var bwd []map[string]float64
	if tc.transport == "pft" {
		bwd = make([]map[string]float64, tc.world)
	}
	var mu sync.Mutex
	err := c.Run(func(r *simrt.Rank) error {
		routing := SyntheticRouting(tensor.NewRNG(uint64(7300+r.ID)), tc.s, tc.cfg.NumExperts, tc.cfg.TopK, 0.6)
		opts := PipelineOpts{DropPolicy: tc.policy, Kernels: tc.kernels, SaveForBackward: true}
		var res LayerResult
		if tc.transport == "pft" {
			res = PFTForward(r, g, tc.cfg, tc.s, nil, routing, nil, opts)
		} else {
			res = PaddedForward(r, g, tc.cfg, tc.s, nil, routing, nil, opts)
		}
		clock, fb := r.Clock, r.Trace.Breakdown()
		var bb map[string]float64
		if tc.transport == "pft" {
			r.Trace.Reset()
			PFTBackward(r, g, tc.cfg, res.State, nil, nil, opts)
			bb = r.Trace.Breakdown()
			// The blocking schedule: the dW GEMMs (the last bwd_experts
			// span) follow the reverse dispatch's charged span.
			lastExperts, lastDispatch := -1, -1
			for i, ev := range r.Trace.Events() {
				switch {
				case ev.Overlap:
				case ev.Name == StageBwdExperts:
					lastExperts = i
				case ev.Name == StageBwdDispA2A:
					lastDispatch = i
				}
			}
			if lastDispatch < 0 || lastExperts < lastDispatch {
				t.Errorf("rank %d: dW GEMMs ran before the reverse dispatch at C=1", r.ID)
			}
		}
		mu.Lock()
		fwdClocks[r.ID], fwdBreak[r.ID] = clock, fb
		if bwd != nil {
			bwd[r.ID] = bb
		}
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return c1Result{fwdClock: maxOf(fwdClocks), fwdDigest: timingDigest(fwdClocks, fwdBreak), bwd: bwd}
}

// timingDigest folds per-rank clocks and breakdowns, in rank and sorted
// stage order, into an FNV-64a hash of their exact float64 bits.
func timingDigest(clocks []float64, breakdowns []map[string]float64) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	put := func(v float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(v))
		h.Write(buf[:])
	}
	for i, clock := range clocks {
		put(clock)
		keys := make([]string, 0, len(breakdowns[i]))
		for k := range breakdowns[i] {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h.Write([]byte(k))
			put(breakdowns[i][k])
		}
	}
	return h.Sum64()
}

func maxOf(xs []float64) float64 {
	m := math.Inf(-1)
	for _, x := range xs {
		m = math.Max(m, x)
	}
	return m
}

// c1Pin holds the values of the blocking pipelines measured before
// blocking became the chunked body at C=1.
type c1Pin struct {
	fwdClock  float64
	fwdDigest uint64
	// bwdCombine, bwdExperts, bwdDispatch are the PFT backward's compute
	// stages summed over ranks (zero for padded cases).
	bwdCombine, bwdExperts, bwdDispatch float64
}

var c1Pins = map[string]c1Pin{
	"small/pft/weight":               {fwdClock: 0.00011712417756042044, fwdDigest: 0xfd93779d30536588, bwdCombine: 2.401835e-05, bwdExperts: 0.00028036626640557, bwdDispatch: 2.401835e-05},
	"small/padded/weight/triton":     {fwdClock: 0.0006255875993198101, fwdDigest: 0x5021205393706ef1},
	"small/padded/weight/fallback":   {fwdClock: 0.0006255875993198101, fwdDigest: 0x5021205393706ef1},
	"small/padded/weight/vendor":     {fwdClock: 0.00014516454929370021, fwdDigest: 0x34c8e739fe0f6e91},
	"small/pft/position":             {fwdClock: 0.00011711178877552388, fwdDigest: 0xe41de70a264e158d, bwdCombine: 2.40161e-05, bwdExperts: 0.00028035072985204524, bwdDispatch: 2.40161e-05},
	"small/padded/position/triton":   {fwdClock: 0.0006255875993198101, fwdDigest: 0x5021205393706ef1},
	"small/padded/position/fallback": {fwdClock: 0.0006255875993198101, fwdDigest: 0x5021205393706ef1},
	"small/padded/position/vendor":   {fwdClock: 0.00014516454929370021, fwdDigest: 0x34c8e739fe0f6e91},
	"wide/pft/weight":                {fwdClock: 0.00013864259883510747, fwdDigest: 0xbe94b4408aadbd2a, bwdCombine: 4.926506666666667e-05, bwdExperts: 0.000605548946678271, bwdDispatch: 4.926506666666667e-05},
	"wide/padded/weight/triton":      {fwdClock: 0.0006538935951219122, fwdDigest: 0xd10cca9c9856d33d},
	"wide/padded/weight/fallback":    {fwdClock: 0.0006538935951219122, fwdDigest: 0xd10cca9c9856d33d},
	"wide/padded/weight/vendor":      {fwdClock: 0.0001686929524482828, fwdDigest: 0x47205fa06bc2140d},
	"wide/pft/position":              {fwdClock: 0.00013835519103255897, fwdDigest: 0xe33aa6965914a2c8, bwdCombine: 4.9165866666666676e-05, bwdExperts: 0.0006038807635625181, bwdDispatch: 4.9165866666666676e-05},
	"wide/padded/position/triton":    {fwdClock: 0.0006538935951219122, fwdDigest: 0xd10cca9c9856d33d},
	"wide/padded/position/fallback":  {fwdClock: 0.0006538935951219122, fwdDigest: 0xd10cca9c9856d33d},
	"wide/padded/position/vendor":    {fwdClock: 0.0001686929524482828, fwdDigest: 0x47205fa06bc2140d},
}

// TestSingleChunkPricingPinned pins C=1 pricing to the retired blocking
// bodies: the forwards reproduce every rank's clock and stage breakdown
// bit for bit, and the PFT backward's compute stages match within 1e-12
// relative (its dX and dW GEMM times are summed in a different order)
// while charging nothing to StageOthers, because at C=1 every
// destination's rows are one contiguous block, and runs its dW GEMMs
// after the reverse dispatch.
func TestSingleChunkPricingPinned(t *testing.T) {
	for _, tc := range c1Cases() {
		t.Run(tc.name, func(t *testing.T) {
			want, ok := c1Pins[tc.name]
			if !ok {
				t.Fatalf("no pinned values for %s", tc.name)
			}
			got := runC1Case(t, tc)
			if got.fwdClock != want.fwdClock {
				t.Fatalf("forward clock %v, pinned %v", got.fwdClock, want.fwdClock)
			}
			if got.fwdDigest != want.fwdDigest {
				t.Fatalf("forward clocks/breakdowns digest %#x, pinned %#x", got.fwdDigest, want.fwdDigest)
			}
			if got.bwd == nil {
				return
			}
			var sums [3]float64
			for rank, b := range got.bwd {
				if v := b[StageOthers]; v != 0 {
					t.Errorf("rank %d: backward charged %v s to %s at C=1", rank, v, StageOthers)
				}
				for i, stage := range []string{StageBwdCombine, StageBwdExperts, StageBwdDispatch} {
					sums[i] += b[stage]
				}
			}
			for i, w := range []float64{want.bwdCombine, want.bwdExperts, want.bwdDispatch} {
				if math.Abs(sums[i]-w) > 1e-12*math.Abs(w) {
					t.Errorf("backward compute stage %d: %v, pinned %v", i, sums[i], w)
				}
			}
		})
	}
}
