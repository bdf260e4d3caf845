package rbd

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"xmoe/internal/moe"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// The Stage-2 send buffer of each destination slot is ascending by expert
// id, and rows of one expert keep their (src, ri) arrival order: exactly
// what a stable sort by expert of the (src, ri)-ordered replicas gives.
func TestStageReplicasOrderOnSkewedRouting(t *testing.T) {
	cfg := rbdConfig(64, 6)
	const s = 96
	c := newCluster(16) // 2 Frontier nodes, 4 experts per rank
	g := c.WorldGroup()
	d := NewDispatcher(c, g, cfg)
	var mu sync.Mutex
	var staged int
	err := c.Run(func(r *simrt.Rank) error {
		rng := tensor.NewRNG(4100 + uint64(r.ID))
		routing := moe.SyntheticRouting(rng, s, cfg.NumExperts, cfg.TopK, 1.8)
		pft := moe.BuildPFT(routing, cfg.NumExperts, 0, moe.DropByCapacityWeight)
		st, _ := d.Dispatch(r, pft, nil, tensor.NewRNG(9100+uint64(r.ID)), Opts{})

		type row struct{ src, ri, expert int }
		myNode := d.nodeOfMember[g.IndexOf(r.ID)]
		n := 0
		for slot, got := range st.s2SentByMember {
			var want []row
			for src, m := range st.recvMetas {
				for ri, rm := range m.replicas {
					if d.nodeMembers[myNode][slot] == d.memberOfExpert(rm.expert) {
						want = append(want, row{src, ri, rm.expert})
					}
				}
			}
			sort.SliceStable(want, func(a, b int) bool { return want[a].expert < want[b].expert })
			if len(got) != len(want) {
				return fmt.Errorf("rank %d slot %d: %d staged rows, want %d", r.ID, slot, len(got), len(want))
			}
			for pos, w := range want {
				gs := got[pos]
				rm := st.recvMetas[w.src].replicas[w.ri]
				if gs.src != w.src || gs.ri != w.ri {
					return fmt.Errorf("rank %d slot %d pos %d: staged (src %d, ri %d), want (%d, %d)",
						r.ID, slot, pos, gs.src, gs.ri, w.src, w.ri)
				}
				if gs.pilotAbs != st.pilotPartOff[w.src]+rm.pilotRel || gs.weight != rm.weight {
					return fmt.Errorf("rank %d slot %d pos %d: pilot/weight mismatch", r.ID, slot, pos)
				}
			}
			n += len(got)
		}
		mu.Lock()
		staged += n
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if staged == 0 {
		t.Fatal("skewed routing staged no replicas; the test exercises nothing")
	}
}
