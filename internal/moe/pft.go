package moe

import (
	"cmp"
	"fmt"
	"slices"
)

// DropPolicy selects the token-dropping semantics of PFT construction.
// The paper's §5.6 traces the small loss-curve gap between X-MoE and
// DeepSpeed-MoE to exactly this difference.
type DropPolicy int

const (
	// DropByCapacityWeight is X-MoE's policy (Listing 1): a token is
	// dropped from an expert only when the expert's capacity is
	// exceeded, keeping the highest-combine-weight assignments.
	DropByCapacityWeight DropPolicy = iota
	// DropNegativeThenPosition is DeepSpeed-MoE's policy: assignments
	// with a negative raw routing score are dropped regardless of
	// capacity, then capacity overflow drops by token position
	// (first-come-first-served).
	DropNegativeThenPosition
)

// PFT is the Padding-Free Token buffer (paper §4.1.1): a dense token
// buffer holding only valid routed tokens, plus the Expert Routing
// Information arrays (ERI-arrays) that drive every later stage. Entries
// are ordered expert-major (ascending ExpertIDs), so per-expert segments
// are contiguous — the property the uneven all-to-all and sequential GEMM
// rely on.
type PFT struct {
	// TokenIDs[i] is the original token index of buffer row i.
	TokenIDs []int
	// ExpertIDs[i] is the destination expert of buffer row i.
	ExpertIDs []int
	// TokensPerExpert[e] is the number of rows routed to expert e.
	TokensPerExpert []int
	// CombineWeights[i] scales row i's expert output in the combine
	// stage.
	CombineWeights []float32
	// Dropped is the number of (token, expert) assignments removed by
	// the drop policy.
	Dropped int
}

// B returns the number of retained routed-token rows.
func (p *PFT) B() int { return len(p.TokenIDs) }

// pftEntry is one flattened (token, expert) assignment during
// construction.
type pftEntry struct {
	flat   int // t*k + j, the stable tiebreaker
	token  int
	expert int
	weight float32
	logit  float32
}

// BuildPFT constructs the PFT from a routing per Listing 1: flatten the
// [S, K] assignment array, order entries expert-major, apply the drop
// policy against maxTokenCount (the expert capacity), and emit the
// ERI-arrays. A maxTokenCount <= 0 means unlimited capacity.
func BuildPFT(r Routing, numExperts, maxTokenCount int, policy DropPolicy) *PFT {
	return buildPFT(r, numExperts, nil, maxTokenCount, policy)
}

// BuildPFTCaps is BuildPFT with a per-expert capacity vector: caps[e]
// bounds expert e's retained rows (entries <= 0 mean unlimited). The
// straggler-aware capacity rebalance (RebalanceCapacity) uses it to
// shift rows away from slow ranks' experts; the flat uneven all-to-all
// and the RBD hierarchy carry uneven segments natively, so only the
// padded pipeline (whose even exchange requires uniform capacity)
// rejects it.
func BuildPFTCaps(r Routing, numExperts int, caps []int, policy DropPolicy) *PFT {
	if len(caps) != numExperts {
		panic(fmt.Sprintf("moe: capacity vector has %d entries for %d experts", len(caps), numExperts))
	}
	return buildPFT(r, numExperts, caps, 0, policy)
}

func buildPFT(r Routing, numExperts int, caps []int, maxTokenCount int, policy DropPolicy) *PFT {
	capFor := func(e int) int {
		if caps != nil {
			return caps[e]
		}
		return maxTokenCount
	}
	k := r.K()
	entries := make([]pftEntry, 0, r.S*k)
	for t := 0; t < r.S; t++ {
		for j := 0; j < k; j++ {
			ent := pftEntry{
				flat:   t*k + j,
				token:  t,
				expert: r.TopExperts[t][j],
				weight: r.Weights[t][j],
			}
			if r.Logits != nil {
				ent.logit = r.Logits[t][j]
			} else {
				ent.logit = 1 // treat unknown logits as positive
			}
			entries = append(entries, ent)
		}
	}

	if policy == DropNegativeThenPosition {
		kept := entries[:0]
		for _, e := range entries {
			if e.logit >= 0 {
				kept = append(kept, e)
			}
		}
		entries = kept
	}

	// Expert-major, stable in flat order (Listing 1 lines 20-21). A
	// counting sort over the expert bins keeps the flat order within each
	// expert segment — identical to a stable comparison sort — in
	// O(B + E) with no comparator indirection; BuildPFT runs once per
	// rank per simulated layer, so this is sweep-critical.
	{
		counts := make([]int, numExperts)
		for i := range entries {
			counts[entries[i].expert]++
		}
		off := make([]int, numExperts)
		run := 0
		for e, c := range counts {
			off[e] = run
			run += c
		}
		sorted := make([]pftEntry, len(entries))
		for i := range entries {
			e := entries[i].expert
			sorted[off[e]] = entries[i]
			off[e]++
		}
		entries = sorted
	}

	// Capacity dropping per expert segment.
	retained := make([]pftEntry, 0, len(entries))
	dropped := r.S*k - len(entries) // negatives already dropped
	var idx []int32                 // DropByCapacityWeight scratch, reused across segments
	for lo := 0; lo < len(entries); {
		hi := lo
		for hi < len(entries) && entries[hi].expert == entries[lo].expert {
			hi++
		}
		seg := entries[lo:hi]
		limit := capFor(entries[lo].expert)
		if limit > 0 && len(seg) > limit {
			switch policy {
			case DropByCapacityWeight:
				// Keep the limit highest-weight entries (Listing 1 lines
				// 24-33), then restore flat order. (weight desc, flat asc)
				// is a total order, so the unstable sort yields exactly the
				// permutation a stable one would.
				idx = idx[:0]
				for i := range seg {
					idx = append(idx, int32(i))
				}
				slices.SortFunc(idx, func(a, b int32) int {
					if wa, wb := seg[a].weight, seg[b].weight; wa != wb {
						if wa > wb {
							return -1
						}
						return 1
					}
					return cmp.Compare(seg[a].flat, seg[b].flat)
				})
				kept := idx[:limit]
				slices.Sort(kept)
				for _, i := range kept {
					retained = append(retained, seg[i])
				}
			case DropNegativeThenPosition:
				// First-come-first-served: seg is already flat-ordered.
				retained = append(retained, seg[:limit]...)
			}
			dropped += len(seg) - limit
		} else {
			retained = append(retained, seg...)
		}
		lo = hi
	}

	p := &PFT{
		TokenIDs:        make([]int, len(retained)),
		ExpertIDs:       make([]int, len(retained)),
		CombineWeights:  make([]float32, len(retained)),
		TokensPerExpert: make([]int, numExperts),
		Dropped:         dropped,
	}
	for i, e := range retained {
		p.TokenIDs[i] = e.token
		p.ExpertIDs[i] = e.expert
		p.CombineWeights[i] = e.weight
		p.TokensPerExpert[e.expert]++
	}
	return p
}

// Validate checks the PFT's structural invariants: expert-major ordering,
// histogram consistency, and index ranges.
func (p *PFT) Validate(numTokens, numExperts, maxTokenCount int) error {
	if len(p.ExpertIDs) != len(p.TokenIDs) || len(p.CombineWeights) != len(p.TokenIDs) {
		return fmt.Errorf("moe: PFT ERI-array lengths disagree")
	}
	if len(p.TokensPerExpert) != numExperts {
		return fmt.Errorf("moe: TokensPerExpert has %d bins, want %d", len(p.TokensPerExpert), numExperts)
	}
	hist := make([]int, numExperts)
	prev := -1
	for i, e := range p.ExpertIDs {
		if e < 0 || e >= numExperts {
			return fmt.Errorf("moe: entry %d routed to expert %d outside range", i, e)
		}
		if e < prev {
			return fmt.Errorf("moe: PFT not expert-major at entry %d", i)
		}
		prev = e
		if tid := p.TokenIDs[i]; tid < 0 || tid >= numTokens {
			return fmt.Errorf("moe: entry %d token %d outside range", i, tid)
		}
		hist[e]++
	}
	for e, c := range hist {
		if c != p.TokensPerExpert[e] {
			return fmt.Errorf("moe: TokensPerExpert[%d]=%d but %d entries", e, p.TokensPerExpert[e], c)
		}
		if maxTokenCount > 0 && c > maxTokenCount {
			return fmt.Errorf("moe: expert %d holds %d > capacity %d", e, c, maxTokenCount)
		}
	}
	return nil
}

// ERIBytes returns the memory footprint of the ERI-arrays (int32 ids and
// counts, float32 weights), for activation accounting.
func (p *PFT) ERIBytes() int64 {
	return int64(len(p.TokenIDs))*(4+4+4) + int64(len(p.TokensPerExpert))*4
}

// ExpertSegments returns the start offset of each expert's contiguous
// segment in the buffer (exclusive prefix sums of TokensPerExpert).
func (p *PFT) ExpertSegments() []int {
	off := make([]int, len(p.TokensPerExpert))
	run := 0
	for e, c := range p.TokensPerExpert {
		off[e] = run
		run += c
	}
	return off
}
