package moe

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"xmoe/internal/tensor"
)

// fuzzRouting draws a routing of s tokens over e experts with k distinct
// experts per token. Weights are quantised to levels+1 values so capacity
// drops meet ties; about a third of the logits are negative.
func fuzzRouting(rng *tensor.RNG, s, e, k, levels int, withLogits bool) Routing {
	r := Routing{S: s, TopExperts: make([][]int, s), Weights: make([][]float32, s)}
	if withLogits {
		r.Logits = make([][]float32, s)
	}
	for t := 0; t < s; t++ {
		r.TopExperts[t] = rng.Perm(e)[:k]
		r.Weights[t] = make([]float32, k)
		for j := range r.Weights[t] {
			r.Weights[t][j] = float32(rng.Intn(levels+1)) / float32(levels)
		}
		if withLogits {
			r.Logits[t] = make([]float32, k)
			for j := range r.Logits[t] {
				r.Logits[t][j] = float32(rng.Float64()*3 - 1)
			}
		}
	}
	return r
}

// referencePFT is Listing 1 spelled out naively: flatten, drop negative
// logits under the DeepSpeed policy, stable-sort expert-major, then per
// expert keep the first cap entries by (weight desc, flat order) or by
// flat order.
func referencePFT(r Routing, numExperts int, capFor func(int) int, policy DropPolicy) *PFT {
	type ent struct {
		flat, token, expert int
		weight              float32
	}
	var entries []ent
	for t := 0; t < r.S; t++ {
		for j, ex := range r.TopExperts[t] {
			if policy == DropNegativeThenPosition && r.Logits != nil && r.Logits[t][j] < 0 {
				continue
			}
			entries = append(entries, ent{flat: t*r.K() + j, token: t, expert: ex, weight: r.Weights[t][j]})
		}
	}
	sort.SliceStable(entries, func(a, b int) bool { return entries[a].expert < entries[b].expert })
	p := &PFT{TokensPerExpert: make([]int, numExperts)}
	for e := 0; e < numExperts; e++ {
		var seg []ent
		for _, en := range entries {
			if en.expert == e {
				seg = append(seg, en)
			}
		}
		if c := capFor(e); c > 0 && len(seg) > c {
			if policy == DropByCapacityWeight {
				sort.SliceStable(seg, func(a, b int) bool { return seg[a].weight > seg[b].weight })
				seg = seg[:c]
				sort.SliceStable(seg, func(a, b int) bool { return seg[a].flat < seg[b].flat })
			} else {
				seg = seg[:c]
			}
		}
		for _, en := range seg {
			p.TokenIDs = append(p.TokenIDs, en.token)
			p.ExpertIDs = append(p.ExpertIDs, en.expert)
			p.CombineWeights = append(p.CombineWeights, en.weight)
			p.TokensPerExpert[e]++
		}
	}
	p.Dropped = r.S*r.K() - len(p.TokenIDs)
	return p
}

// FuzzBuildPFT checks BuildPFT (scalar capacity) and BuildPFTCaps
// (per-expert capacity) against referencePFT under both drop policies,
// with PFT.Validate as a second oracle.
func FuzzBuildPFT(f *testing.F) {
	f.Add(uint64(1), 64, 8, 3, 20, 4, 0)
	f.Fuzz(func(t *testing.T, seed uint64, tokens, experts, topK, capacity, levels, flags int) {
		s := bounded(tokens, 97)
		e := 1 + bounded(experts, 24)
		k := 1 + bounded(topK, min(e, 8))
		levels = 1 + bounded(levels, 16)
		perExpert := flags&1 != 0
		policy := DropPolicy(flags >> 1 & 1)
		withLogits := flags&4 == 0
		rng := tensor.NewRNG(seed)
		r := fuzzRouting(rng, s, e, k, levels, withLogits)

		var got *PFT
		var caps []int
		scalar := bounded(capacity, s*k/e+8) // 0 = unlimited
		if perExpert {
			caps = make([]int, e)
			for i := range caps {
				caps[i] = rng.Intn(s*k/e+8) - 1 // -1 and 0 = unlimited
			}
			got = BuildPFTCaps(r, e, caps, policy)
		} else {
			got = BuildPFT(r, e, scalar, policy)
		}
		capFor := func(ex int) int {
			if caps != nil {
				return caps[ex]
			}
			return scalar
		}
		want := referencePFT(r, e, capFor, policy)

		validateCap := scalar
		if perExpert {
			validateCap = 0
		}
		if err := got.Validate(s, e, validateCap); err != nil {
			t.Fatal(err)
		}
		for ex, c := range got.TokensPerExpert {
			if lim := capFor(ex); lim > 0 && c > lim {
				t.Fatalf("expert %d holds %d rows over capacity %d", ex, c, lim)
			}
		}
		if err := samePFT(got, want); err != nil {
			t.Fatalf("s=%d e=%d k=%d policy=%d caps=%v scalar=%d: %v", s, e, k, policy, caps, scalar, err)
		}
	})
}

func samePFT(got, want *PFT) error {
	switch {
	case !slices.Equal(got.TokenIDs, want.TokenIDs):
		return fmt.Errorf("TokenIDs %v, want %v", got.TokenIDs, want.TokenIDs)
	case !slices.Equal(got.ExpertIDs, want.ExpertIDs):
		return fmt.Errorf("ExpertIDs %v, want %v", got.ExpertIDs, want.ExpertIDs)
	case !slices.Equal(got.CombineWeights, want.CombineWeights):
		return fmt.Errorf("CombineWeights %v, want %v", got.CombineWeights, want.CombineWeights)
	case !slices.Equal(got.TokensPerExpert, want.TokensPerExpert):
		return fmt.Errorf("TokensPerExpert %v, want %v", got.TokensPerExpert, want.TokensPerExpert)
	case got.Dropped != want.Dropped:
		return fmt.Errorf("Dropped %d, want %d", got.Dropped, want.Dropped)
	}
	return nil
}

// bounded maps any fuzzed int onto [0, n).
func bounded(x, n int) int { return int(uint(x) % uint(n)) }
