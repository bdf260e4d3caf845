package rbd

// Native backward pass of the hierarchical RBD transport. The forward
// moved every (token, destination-node) group as one pilot row over the
// inter-node fabric (S1), reconstructed replicas intra-node (S2), and
// reversed the process on the combine side (C2 intra-node, weight-scaled
// merge onto pilots, C1 inter-node return). The backward reverses the
// reversal, stage by stage and link class by link class:
//
//	reverse CScatter  - dOut rows fan back out over the sent pilots
//	reverse C1 (inter)- merged-row gradients return to the pilot holder
//	merge backward    - pilot scaling + replica weighting differentiate;
//	                    combine-weight gradients are dot products against
//	                    the saved expert outputs
//	reverse C2 (intra)- replica-output gradients travel to the expert rank
//	FFN backward      - dX chain + dW over the forward's exact segments
//	reverse S2 (intra)- replica-input gradients return to the pilot holder
//	pilot reduction   - replica gradients accumulate onto their pilot row
//	reverse S1 (inter)- pilot-input gradients + combine-weight gradients
//	                    return to the source rank
//	scatter backward  - pilot gradients accumulate into dX rows
//
// Only pilot rows cross the inter-node links in either direction — the
// backward keeps RBD's redundancy bypass instead of pricing itself as the
// mirrored flat transport. Wire volumes are charged with the same
// integer-exact per-part expressions as the forward (netsim's aggregate
// per-link-class convention); the combine-weight gradients ride the
// reverse-S1 metadata at 4 bytes per pilot and replica, mirroring the
// forward's s1Meta weights.

import (
	"fmt"

	"xmoe/internal/kernels"
	"xmoe/internal/moe"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Backward trace stage names, mirrored against the forward RBD stages.
const (
	StageBwdCScatter = "rbd_bwd_comb_scatter" // dOut fan-out over sent pilots
	StageBwdC1A2A    = "rbd_bwd_comb_s1_a2a"  // inter-node merged-grad return
	StageBwdCMerge   = "rbd_bwd_comb_merge"   // merge backward + weight-grad dots
	StageBwdC2A2A    = "rbd_bwd_comb_s2_a2a"  // intra-node replica-grad return
	StageBwdS2A2A    = "rbd_bwd_s2_a2a"       // intra-node replica dX return
	StageBwdS2Red    = "rbd_bwd_s2_reduce"    // replica-grad reduction onto pilots
	StageBwdS1A2A    = "rbd_bwd_s1_a2a"       // inter-node pilot dX return
	StageBwdS1Scat   = "rbd_bwd_s1_scatter"   // pilot-grad scatter into dX
)

// FwdState is the saved forward state the RBD backward consumes: the
// dispatch geometry plus, in numeric mode, the expert-FFN intermediates in
// the blocking full layout (per local expert: pilot rows src-ascending,
// then replica rows (part, pos)-ascending — the overlapped forward
// scatters its split buffers into this layout so the backward is
// chunk-count-agnostic) and the pre-scaling expert outputs the
// combine-weight gradients dot against. In symbolic mode the tensors are
// nil and only the geometry is populated.
type FwdState struct {
	S  int
	St *State
	// ExpertIn/HidPre/HidAct are [BExp, H/F/F] in the blocking layout.
	ExpertIn, HidPre, HidAct *tensor.Tensor
	// PilotOut is the [pilotRowsTotal, H] expert output of every pilot
	// row held by this rank, absolute-indexed.
	PilotOut *tensor.Tensor
	// S2Back[slot] is the replica expert-output payload returned through
	// C2 in the forward, aligned with State.s2SentByMember[slot].
	S2Back [][]float32
}

// bwdS1Meta carries the combine-weight gradients back to the source rank
// alongside the reverse-S1 pilot-gradient rows: one float per pilot row of
// the part and one per replica the source announced in its s1Meta.
type bwdS1Meta struct {
	pilotWG   []float32
	replicaWG []float32
}

// bwdS1MetaBytes is the wire charge for the part's weight-gradient
// metadata, mirroring the forward s1Meta convention (4 bytes per float).
func bwdS1MetaBytes(nPilot, nReplica int) int64 {
	return int64(nPilot+nReplica) * 4
}

// ensureRowRefs populates the split row maps (pilotAbs, replicaRef,
// ReplicaRowsPerLE) when the forward ran the blocking path, which tracks
// rows through expertRows instead. The enumeration is the overlapped
// forward's exact order — per local expert: pilots source-ascending, then
// replicas (part, pos)-ascending — which is also the blocking buffer
// order, so both forwards produce one canonical backward layout.
func (d *Dispatcher) ensureRowRefs(r *simrt.Rank, st *State) {
	me := d.EP.IndexOf(r.ID)
	p := d.EP.Size()
	if st.pilotAbs == nil {
		nPilot := 0
		for _, c := range st.PilotRowsPerLE {
			nPilot += c
		}
		st.pilotAbs = make([]int, 0, nPilot)
		posOfLE := make([]int, p)
		for le := 0; le < d.EPR; le++ {
			for src := 0; src < p; src++ {
				c := st.recvPilotCounts[src][le]
				for i := 0; i < c; i++ {
					st.pilotAbs = append(st.pilotAbs, st.pilotPartOff[src]+posOfLE[src]+i)
				}
				posOfLE[src] += c
			}
		}
	}
	if st.ReplicaRowsPerLE == nil {
		st.ReplicaRowsPerLE = make([]int, d.EPR)
		for src := range st.s2RecvMeta {
			for _, rm := range st.s2RecvMeta[src] {
				st.ReplicaRowsPerLE[rm.expert-me*d.EPR]++
			}
		}
	}
	if st.replicaRef == nil {
		nReplica := 0
		for _, c := range st.ReplicaRowsPerLE {
			nReplica += c
		}
		st.replicaRef = make([]rowRef, nReplica)
		refOff := make([]int, d.EPR+1)
		for le := 0; le < d.EPR; le++ {
			refOff[le+1] = refOff[le] + st.ReplicaRowsPerLE[le]
		}
		cursor := make([]int, d.EPR)
		for src := range st.s2RecvMeta {
			for pos, rm := range st.s2RecvMeta[src] {
				le := rm.expert - me*d.EPR
				st.replicaRef[refOff[le]+cursor[le]] = rowRef{part: src, pos: pos}
				cursor[le]++
			}
		}
	}
}

// bwdGeom bundles the derived index maps shared by the blocking and
// overlapped backward paths.
type bwdGeom struct {
	bExp       int
	rowsOff    []int // full-layout offset per local expert
	pilotFull  []int // pilotAbs index -> full-layout row
	replFull   []int // replicaRef index -> full-layout row
	wByAbs     []float32
	sentTo     []int   // pilots this rank sent to each EP member
	partStart  []int   // pilot send-order boundaries per member
	fullOfPart [][]int // (s2 part, pos) -> full-layout row
}

func (d *Dispatcher) backwardGeom(r *simrt.Rank, st *State) *bwdGeom {
	p := d.EP.Size()
	d.ensureRowRefs(r, st)
	g := &bwdGeom{}
	g.rowsOff = make([]int, d.EPR+1)
	for le := 0; le < d.EPR; le++ {
		g.rowsOff[le+1] = g.rowsOff[le] + st.RowsPerLE[le]
	}
	g.bExp = g.rowsOff[d.EPR]
	g.pilotFull = make([]int, len(st.pilotAbs))
	g.replFull = make([]int, len(st.replicaRef))
	{
		i, j := 0, 0
		for le := 0; le < d.EPR; le++ {
			for k := 0; k < st.PilotRowsPerLE[le]; k++ {
				g.pilotFull[i] = g.rowsOff[le] + k
				i++
			}
			for k := 0; k < st.ReplicaRowsPerLE[le]; k++ {
				g.replFull[j] = g.rowsOff[le] + st.PilotRowsPerLE[le] + k
				j++
			}
		}
	}
	g.wByAbs = make([]float32, st.pilotRowsTotal)
	for src := 0; src < p; src++ {
		for pos, w := range st.recvPilotW[src] {
			g.wByAbs[st.pilotPartOff[src]+pos] = w
		}
	}
	g.sentTo = make([]int, p)
	for _, ent := range st.pilotEntry {
		g.sentTo[d.memberOfExpert(st.pft.ExpertIDs[ent])]++
	}
	g.partStart = make([]int, p+1)
	for dst := 0; dst < p; dst++ {
		g.partStart[dst+1] = g.partStart[dst] + g.sentTo[dst]
	}
	g.fullOfPart = make([][]int, len(st.s2RecvCount))
	for part := range g.fullOfPart {
		g.fullOfPart[part] = make([]int, st.s2RecvCount[part])
	}
	for i, ref := range st.replicaRef {
		g.fullOfPart[ref.part][ref.pos] = g.replFull[i]
	}
	return g
}

// Backward runs the distributed backward pass of the RBD-transport MoE
// layer, reversing every forward stage over the same link classes (see
// the package comment above). Given the forward state saved by Forward
// with opts.SaveForBackward and the output gradient dOut [S, H], it
// returns dX, the per-local-expert weight gradients, and the per-PFT-entry
// combine-weight gradients. In symbolic mode (opts.Numeric false) the pass
// charges its modeled times and integer-exact wire volumes only.
//
// opts.OverlapChunks selects the chunked overlapped backward: the
// reverse-C1 merged-gradient return is chunked so per-chunk merge backward
// hides the transfers, the intra-node reverse C2/S2 exchanges fly
// non-blocking under the pilot/replica dX GEMM chains, dW GEMMs are
// deferred to the complete segments (the blocking summation order), and
// the reverse-S1 chunks drain under the final scatter staging. Gradients
// are bit-identical to the blocking backward for any chunk count.
//
// opts.OnDWReady, when set, fires exactly once: on the blocking path right
// after the reverse-S1 all-to-all (the last blocking collective) retires;
// on the overlapped path after dW completes and every reverse-S1 chunk is
// in flight.
func Backward(r *simrt.Rank, d *Dispatcher, cfg moe.Config, fwd *FwdState,
	dOut *tensor.Tensor, params *moe.ExpertParams, opts moe.PipelineOpts) moe.BackwardResult {

	if err := CheckOpts(opts); err != nil {
		panic(err.Error())
	}
	if fwd == nil || fwd.St == nil {
		panic("rbd: Backward requires the forward state saved by Forward with SaveForBackward")
	}
	if opts.Numeric && fwd.ExpertIn == nil {
		panic((&moe.OptionError{Opt: "Numeric", Detail: "rbd: numeric Backward, but the forward state was captured symbolically (SaveForBackward ran without Numeric)"}).Error())
	}
	if opts.OverlapChunks > 1 {
		return backwardOverlap(r, d, cfg, fwd, dOut, params, opts)
	}

	st := fwd.St
	pft := st.pft
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	p := d.EP.Size()
	comp := r.C.Comp
	pool := r.Pool()
	nodeGroup := st.nodeGroup
	g := d.backwardGeom(r, st)
	nPilotSent := len(st.pilotEntry)

	// --- Reverse CScatter: fan dOut back out over the sent pilots ----------
	// The forward scatter-added each returned merged row into its token's
	// output row unscaled, so the row gradient is a pure gather of dOut.
	r.Compute(StageBwdCScatter, comp.MemBound(perfmodel.ClassTriton, 2*int64(nPilotSent)*int64(h)*elem))
	var dRet *tensor.Tensor
	if opts.Numeric {
		// Crosses the collective below: allocate fresh. Rows are already
		// destination-contiguous (pilot send order is expert-major).
		dRet = tensor.New(nPilotSent, h)
		for i, ent := range st.pilotEntry {
			copy(dRet.Row(i), dOut.Row(pft.TokenIDs[ent]))
		}
	}

	// --- Reverse C1 (inter-node): merged-row gradients to pilot holders ----
	send := make([]simrt.Part, p)
	for dst := 0; dst < p; dst++ {
		lo, hi := g.partStart[dst], g.partStart[dst+1]
		part := simrt.Part{Bytes: int64(hi-lo) * int64(h) * elem}
		if opts.Numeric && hi > lo {
			part.Data = dRet.Data[lo*h : hi*h]
		}
		send[dst] = part
	}
	recv := r.AlltoAllV(d.EP, StageBwdC1A2A, send)

	var dMerged *tensor.Tensor
	if opts.Numeric {
		dMerged = pool.Get(st.pilotRowsTotal, h)
		for src, part := range recv {
			if len(part.Data) > 0 {
				copy(dMerged.Data[st.pilotPartOff[src]*h:], part.Data)
			}
		}
	}

	// --- Merge backward + combine-weight gradients --------------------------
	nMerge := 0
	for _, sent := range st.s2SentByMember {
		nMerge += len(sent)
	}
	// Two passes over every merged row and replica row: the gradient
	// scaling and the weight-gradient dot against the saved outputs.
	r.Compute(StageBwdCMerge, comp.MemBoundN(perfmodel.ClassTriton, 2,
		2*int64(st.pilotRowsTotal+nMerge)*int64(h)*elem))
	var dExpertOut *tensor.Tensor
	var wgAbs []float32
	var wgRepBySlot [][]float32
	dRepRet := make([][]float32, len(st.s2SentByMember))
	if opts.Numeric {
		dExpertOut = pool.Get(g.bExp, h)
		wgAbs = make([]float32, st.pilotRowsTotal)
		for i, abs := range st.pilotAbs {
			w := g.wByAbs[abs]
			gRow := dMerged.Row(abs)
			oRow := fwd.PilotOut.Row(abs)
			dRow := dExpertOut.Row(g.pilotFull[i])
			var dot float32
			for j, v := range gRow {
				dRow[j] = w * v
				dot += v * oRow[j]
			}
			wgAbs[abs] = dot
		}
		wgRepBySlot = make([][]float32, len(st.s2SentByMember))
		for slot, sent := range st.s2SentByMember {
			// Crosses reverse C2: allocate fresh.
			buf := make([]float32, len(sent)*h)
			wg := make([]float32, len(sent))
			back := fwd.S2Back[slot]
			for pos, sRec := range sent {
				gRow := dMerged.Row(sRec.pilotAbs)
				oRow := back[pos*h : (pos+1)*h]
				dst := buf[pos*h : (pos+1)*h]
				var dot float32
				for j, v := range gRow {
					dst[j] = sRec.weight * v
					dot += v * oRow[j]
				}
				wg[pos] = dot
			}
			dRepRet[slot] = buf
			wgRepBySlot[slot] = wg
		}
		pool.Put(dMerged)
	}

	// --- Reverse C2 (intra-node): replica-output gradients to expert ranks -
	c2Send := make([]simrt.Part, nodeGroup.Size())
	for slot := range c2Send {
		n := len(st.s2SentByMember[slot])
		part := simrt.Part{Bytes: int64(n) * int64(h) * elem}
		if opts.Numeric {
			part.Data = dRepRet[slot]
		}
		c2Send[slot] = part
	}
	c2Recv := r.AlltoAllV(nodeGroup, StageBwdC2A2A, c2Send)
	if opts.Numeric {
		for i, ref := range st.replicaRef {
			copy(dExpertOut.Row(g.replFull[i]), c2Recv[ref.part].Data[ref.pos*h:(ref.pos+1)*h])
		}
	}

	// --- Expert FFN backward ------------------------------------------------
	r.Compute(moe.StageBwdExperts, comp.SequentialGEMM(st.RowsPerLE, h, f)*2+
		comp.SequentialGEMM(st.RowsPerLE, f, h)*2+
		comp.MemBound(perfmodel.ClassTriton, 2*int64(g.bExp)*int64(f)*elem))
	var dW1, dW2 []*tensor.Tensor
	var dExpertIn *tensor.Tensor
	if opts.Numeric {
		dW2 = newGradTensors(params.W2)
		dHidAct := pool.Get(g.bExp, f)
		kernels.SequentialGEMMBackwardInto(dHidAct, dW2, dExpertOut, fwd.HidAct, st.RowsPerLE, params.W2)
		pool.Put(dExpertOut)
		dHidPre := pool.Get(g.bExp, f)
		tensor.GeLUBackwardInto(dHidPre, dHidAct, fwd.HidPre)
		pool.Put(dHidAct)
		dW1 = newGradTensors(params.W1)
		dExpertIn = pool.Get(g.bExp, h)
		kernels.SequentialGEMMBackwardInto(dExpertIn, dW1, dHidPre, fwd.ExpertIn, st.RowsPerLE, params.W1)
		pool.Put(dHidPre)
	}

	// --- Reverse S2 (intra-node): replica-input gradients to pilot holders -
	s2Send := make([]simrt.Part, nodeGroup.Size())
	for src := range s2Send {
		n := st.s2RecvCount[src]
		part := simrt.Part{Bytes: int64(n) * int64(h) * elem}
		if opts.Numeric && n > 0 {
			buf := make([]float32, n*h)
			for pos := 0; pos < n; pos++ {
				copy(buf[pos*h:(pos+1)*h], dExpertIn.Row(g.fullOfPart[src][pos]))
			}
			part.Data = buf
		}
		s2Send[src] = part
	}
	s2Grad := r.AlltoAllV(nodeGroup, StageBwdS2A2A, s2Send)

	// --- Replica-gradient reduction onto pilot rows -------------------------
	r.Compute(StageBwdS2Red, comp.MemBound(perfmodel.ClassTriton,
		2*int64(st.pilotRowsTotal+nMerge)*int64(h)*elem))
	var dPilotIn *tensor.Tensor
	if opts.Numeric {
		// Crosses reverse S1 (sent as per-part views): allocate fresh.
		dPilotIn = tensor.New(st.pilotRowsTotal, h)
		for i, abs := range st.pilotAbs {
			copy(dPilotIn.Row(abs), dExpertIn.Row(g.pilotFull[i]))
		}
		for slot, sent := range st.s2SentByMember {
			data := s2Grad[slot].Data
			for pos, sRec := range sent {
				gRow := data[pos*h : (pos+1)*h]
				dst := dPilotIn.Row(sRec.pilotAbs)
				for j, v := range gRow {
					dst[j] += v
				}
			}
		}
		pool.Put(dExpertIn)
	}

	// --- Reverse S1 (inter-node): pilot gradients + weight grads home ------
	backSend := make([]simrt.Part, p)
	for src := 0; src < p; src++ {
		n := len(st.recvPilotW[src])
		nRep := len(st.recvMetas[src].replicas)
		part := simrt.Part{Bytes: int64(n)*int64(h)*elem + bwdS1MetaBytes(n, nRep)}
		if opts.Numeric {
			if n > 0 {
				lo := st.pilotPartOff[src]
				part.Data = dPilotIn.Data[lo*h : (lo+n)*h]
			}
			repWG := make([]float32, nRep)
			part.Meta = bwdS1Meta{pilotWG: wgAbs[st.pilotPartOff[src] : st.pilotPartOff[src]+n], replicaWG: repWG}
		}
		backSend[src] = part
	}
	if opts.Numeric {
		// Replica weight gradients route to the source that announced the
		// replica in its s1Meta, indexed by its position there.
		for slot, sent := range st.s2SentByMember {
			for pos, sRec := range sent {
				backSend[sRec.src].Meta.(bwdS1Meta).replicaWG[sRec.ri] = wgRepBySlot[slot][pos]
			}
		}
	}
	back := r.AlltoAllV(d.EP, StageBwdS1A2A, backSend)
	if opts.OnDWReady != nil {
		// dW is complete and the backward's last blocking collective has
		// retired: gradient sync issued here overlaps the scatter backward
		// and every earlier layer's backward compute.
		opts.OnDWReady()
	}

	// --- Scatter backward into dX + combine-weight gradient mapping --------
	r.Compute(StageBwdS1Scat, comp.MemBound(perfmodel.ClassTriton, 2*int64(nPilotSent)*int64(h)*elem))
	var dx *tensor.Tensor
	var dWeights []float32
	if opts.Numeric {
		dx = tensor.New(fwd.S, h)
		dWeights = make([]float32, pft.B())
		pos := make([]int, p)
		for _, ent := range st.pilotEntry {
			dst := d.memberOfExpert(pft.ExpertIDs[ent])
			m := back[dst].Meta.(bwdS1Meta)
			row := back[dst].Data[pos[dst]*h : (pos[dst]+1)*h]
			dWeights[ent] = m.pilotWG[pos[dst]]
			pos[dst]++
			dstRow := dx.Row(pft.TokenIDs[ent])
			for j, v := range row {
				dstRow[j] += v
			}
		}
		for dst := 0; dst < p; dst++ {
			if len(st.replicaEntry) == 0 {
				break
			}
			var m bwdS1Meta
			if back[dst].Meta != nil {
				m = back[dst].Meta.(bwdS1Meta)
			}
			for ri, ent := range st.replicaEntry[dst] {
				dWeights[ent] = m.replicaWG[ri]
			}
		}
		// The forward state is consumed: its saved intermediates return to
		// the arena for the next layer's pass.
		pool.PutAll(fwd.ExpertIn, fwd.HidPre, fwd.HidAct, fwd.PilotOut)
		fwd.ExpertIn, fwd.HidPre, fwd.HidAct, fwd.PilotOut = nil, nil, nil, nil
		fwd.S2Back = nil
	}

	return moe.BackwardResult{DX: dx, DW1: dW1, DW2: dW2, DCombineWeights: dWeights}
}

// backwardOverlap is the chunked overlapped RBD backward. The reverse-C1
// merged-gradient all-to-alls are issued non-blocking up front (chunked by
// the same per-part ChunkRange split as the forward C1 return), each
// chunk's merge backward runs while the next chunk is in flight, the
// intra-node reverse C2 and reverse S2 exchanges fly non-blocking under
// the pilot and replica dX GEMM chains, the dW GEMMs are deferred to the
// complete blocking-layout segments (bit-identical summation order), and
// the reverse-S1 chunks drain into a staging buffer before one scatter
// pass in pilot send order — the blocking accumulation order, so the
// gradients are bit-identical for any chunk count.
func backwardOverlap(r *simrt.Rank, d *Dispatcher, cfg moe.Config, fwd *FwdState,
	dOut *tensor.Tensor, params *moe.ExpertParams, opts moe.PipelineOpts) moe.BackwardResult {

	st := fwd.St
	pft := st.pft
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	p := d.EP.Size()
	comp := r.C.Comp
	pool := r.Pool()
	nodeGroup := st.nodeGroup
	chunks := opts.OverlapChunks
	g := d.backwardGeom(r, st)
	nPilotSent := len(st.pilotEntry)

	// --- Chunked reverse CScatter + non-blocking reverse C1 -----------------
	var dRet *tensor.Tensor
	if opts.Numeric {
		dRet = tensor.New(nPilotSent, h)
	}
	c1H := make([]*simrt.CommHandle, chunks)
	sendFlat := make([]simrt.Part, chunks*p)
	for c := 0; c < chunks; c++ {
		send := sendFlat[c*p : (c+1)*p]
		chunkRows := 0
		for dst := 0; dst < p; dst++ {
			lo := g.partStart[dst]
			clo, chi := simrt.ChunkRange(g.sentTo[dst], chunks, c)
			chunkRows += chi - clo
			part := simrt.Part{Bytes: int64(chi-clo) * int64(h) * elem}
			if opts.Numeric && chi > clo {
				for i := lo + clo; i < lo+chi; i++ {
					copy(dRet.Row(i), dOut.Row(pft.TokenIDs[st.pilotEntry[i]]))
				}
				part.Data = dRet.Data[(lo+clo)*h : (lo+chi)*h]
			}
			send[dst] = part
		}
		r.Compute(StageBwdCScatter, comp.MemBound(perfmodel.ClassTriton, 2*int64(chunkRows)*int64(h)*elem))
		c1H[c] = r.AlltoAllVAsync(d.EP, StageBwdC1A2A, send)
	}

	// --- Per-chunk merge backward while later chunks are in flight ----------
	// Replica work lists per chunk preserve (slot, pos) order, as the
	// forward's chunked merge did; each replica's gradient is a single
	// write, so chunk partitioning never reorders arithmetic.
	type mergeRef struct{ slot, pos int }
	chunkOf := make([]int, st.pilotRowsTotal)
	for src := 0; src < p; src++ {
		n := len(st.recvPilotW[src])
		for c := 0; c < chunks; c++ {
			clo, chi := simrt.ChunkRange(n, chunks, c)
			for pos := clo; pos < chi; pos++ {
				chunkOf[st.pilotPartOff[src]+pos] = c
			}
		}
	}
	mergeByChunk := make([][]mergeRef, chunks)
	for slot, sent := range st.s2SentByMember {
		for pos, sRec := range sent {
			c := chunkOf[sRec.pilotAbs]
			mergeByChunk[c] = append(mergeByChunk[c], mergeRef{slot: slot, pos: pos})
		}
	}
	// pilotFullOfAbs maps an absolute pilot row to its full-layout row (the
	// per-chunk merge visits rows abs-major).
	pilotFullOfAbs := make([]int, st.pilotRowsTotal)
	for i, abs := range st.pilotAbs {
		pilotFullOfAbs[abs] = g.pilotFull[i]
	}

	nMerge := 0
	for _, sent := range st.s2SentByMember {
		nMerge += len(sent)
	}
	var dMerged, dExpertOut *tensor.Tensor
	var wgAbs []float32
	var wgRepBySlot [][]float32
	dRepRet := make([][]float32, len(st.s2SentByMember))
	if opts.Numeric {
		dMerged = pool.Get(st.pilotRowsTotal, h)
		dExpertOut = pool.Get(g.bExp, h)
		wgAbs = make([]float32, st.pilotRowsTotal)
		wgRepBySlot = make([][]float32, len(st.s2SentByMember))
		for slot, sent := range st.s2SentByMember {
			dRepRet[slot] = make([]float32, len(sent)*h)
			wgRepBySlot[slot] = make([]float32, len(sent))
		}
	}
	for c := 0; c < chunks; c++ {
		recv := c1H[c].Wait()
		chunkRows := 0
		for src := 0; src < p; src++ {
			n := len(st.recvPilotW[src])
			clo, chi := simrt.ChunkRange(n, chunks, c)
			chunkRows += chi - clo
			if opts.Numeric && chi > clo {
				copy(dMerged.Data[(st.pilotPartOff[src]+clo)*h:(st.pilotPartOff[src]+chi)*h], recv[src].Data)
				for pos := clo; pos < chi; pos++ {
					abs := st.pilotPartOff[src] + pos
					w := g.wByAbs[abs]
					gRow := dMerged.Row(abs)
					oRow := fwd.PilotOut.Row(abs)
					dRow := dExpertOut.Row(pilotFullOfAbs[abs])
					var dot float32
					for j, v := range gRow {
						dRow[j] = w * v
						dot += v * oRow[j]
					}
					wgAbs[abs] = dot
				}
			}
		}
		if opts.Numeric {
			for _, mr := range mergeByChunk[c] {
				sRec := st.s2SentByMember[mr.slot][mr.pos]
				gRow := dMerged.Row(sRec.pilotAbs)
				oRow := fwd.S2Back[mr.slot][mr.pos*h : (mr.pos+1)*h]
				dst := dRepRet[mr.slot][mr.pos*h : (mr.pos+1)*h]
				var dot float32
				for j, v := range gRow {
					dst[j] = sRec.weight * v
					dot += v * oRow[j]
				}
				wgRepBySlot[mr.slot][mr.pos] = dot
			}
		}
		r.Compute(StageBwdCMerge, comp.MemBoundN(perfmodel.ClassTriton, 2,
			2*int64(chunkRows+len(mergeByChunk[c]))*int64(h)*elem))
	}
	if opts.Numeric {
		pool.Put(dMerged)
	}

	// --- Reverse C2 non-blocking under the pilot dX chain -------------------
	c2Send := make([]simrt.Part, nodeGroup.Size())
	for slot := range c2Send {
		n := len(st.s2SentByMember[slot])
		part := simrt.Part{Bytes: int64(n) * int64(h) * elem}
		if opts.Numeric {
			part.Data = dRepRet[slot]
		}
		c2Send[slot] = part
	}
	c2H := r.AlltoAllVAsync(nodeGroup, StageBwdC2A2A, c2Send)

	// Pilot dX chain: per-le pilot blocks are contiguous in the full
	// layout, and the chain is row-independent, so computing them ahead of
	// the replica rows is bit-identical to the blocking pass.
	var dHidAct, dHidPre, dExpertIn *tensor.Tensor
	if opts.Numeric {
		dHidAct = pool.Get(g.bExp, f)
		dHidPre = pool.Get(g.bExp, f)
		dExpertIn = pool.Get(g.bExp, h)
	}
	nPilot := 0
	for _, c := range st.PilotRowsPerLE {
		nPilot += c
	}
	r.Compute(moe.StageBwdExperts, comp.SequentialGEMM(st.PilotRowsPerLE, h, f)+
		comp.SequentialGEMM(st.PilotRowsPerLE, f, h)+
		comp.MemBound(perfmodel.ClassTriton, 2*int64(nPilot)*int64(f)*elem))
	dxChain := func(lo, n, le int) {
		dyBlk := tensor.FromSlice(dExpertOut.Data[lo*h:(lo+n)*h], n, h)
		daBlk := tensor.FromSlice(dHidAct.Data[lo*f:(lo+n)*f], n, f)
		tensor.MatMulTInto(daBlk, dyBlk, params.W2[le])
		dpBlk := tensor.FromSlice(dHidPre.Data[lo*f:(lo+n)*f], n, f)
		preBlk := tensor.FromSlice(fwd.HidPre.Data[lo*f:(lo+n)*f], n, f)
		tensor.GeLUBackwardInto(dpBlk, daBlk, preBlk)
		dxBlk := tensor.FromSlice(dExpertIn.Data[lo*h:(lo+n)*h], n, h)
		tensor.MatMulTInto(dxBlk, dpBlk, params.W1[le])
	}
	if opts.Numeric {
		for le := 0; le < d.EPR; le++ {
			if n := st.PilotRowsPerLE[le]; n > 0 {
				dxChain(g.rowsOff[le], n, le)
			}
		}
	}

	// --- Collect reverse C2, replica dX chain -------------------------------
	c2Recv := c2H.Wait()
	if opts.Numeric {
		for i, ref := range st.replicaRef {
			copy(dExpertOut.Row(g.replFull[i]), c2Recv[ref.part].Data[ref.pos*h:(ref.pos+1)*h])
		}
	}
	nReplica := 0
	for _, c := range st.ReplicaRowsPerLE {
		nReplica += c
	}
	r.Compute(moe.StageBwdExperts, comp.SequentialGEMM(st.ReplicaRowsPerLE, h, f)+
		comp.SequentialGEMM(st.ReplicaRowsPerLE, f, h)+
		comp.MemBound(perfmodel.ClassTriton, 2*int64(nReplica)*int64(f)*elem))
	if opts.Numeric {
		for le := 0; le < d.EPR; le++ {
			if n := st.ReplicaRowsPerLE[le]; n > 0 {
				dxChain(g.rowsOff[le]+st.PilotRowsPerLE[le], n, le)
			}
		}
	}

	// --- Reverse S2 non-blocking under the deferred dW GEMMs ----------------
	s2Send := make([]simrt.Part, nodeGroup.Size())
	for src := range s2Send {
		n := st.s2RecvCount[src]
		part := simrt.Part{Bytes: int64(n) * int64(h) * elem}
		if opts.Numeric && n > 0 {
			buf := make([]float32, n*h)
			for pos := 0; pos < n; pos++ {
				copy(buf[pos*h:(pos+1)*h], dExpertIn.Row(g.fullOfPart[src][pos]))
			}
			part.Data = buf
		}
		s2Send[src] = part
	}
	s2H := r.AlltoAllVAsync(nodeGroup, StageBwdS2A2A, s2Send)

	// Deferred dW GEMMs over the complete segments: the blocking backward's
	// exact summation order, hiding the in-flight reverse S2 transfer.
	r.Compute(moe.StageBwdExperts, comp.SequentialGEMM(st.RowsPerLE, h, f)+
		comp.SequentialGEMM(st.RowsPerLE, f, h))
	var dW1, dW2 []*tensor.Tensor
	if opts.Numeric {
		dW1 = newGradTensors(params.W1)
		dW2 = newGradTensors(params.W2)
		for le, rows := range st.RowsPerLE {
			if rows == 0 {
				continue
			}
			off := g.rowsOff[le]
			segAct := tensor.FromSlice(fwd.HidAct.Data[off*f:(off+rows)*f], rows, f)
			segDY := tensor.FromSlice(dExpertOut.Data[off*h:(off+rows)*h], rows, h)
			tensor.TMatMulInto(dW2[le], segAct, segDY)
			segIn := tensor.FromSlice(fwd.ExpertIn.Data[off*h:(off+rows)*h], rows, h)
			segDP := tensor.FromSlice(dHidPre.Data[off*f:(off+rows)*f], rows, f)
			tensor.TMatMulInto(dW1[le], segIn, segDP)
		}
		pool.PutAll(dExpertOut, dHidAct, dHidPre)
	}

	// --- Collect reverse S2, reduce replica gradients onto pilots -----------
	s2Grad := s2H.Wait()
	nMergeRows := nMerge
	r.Compute(StageBwdS2Red, comp.MemBound(perfmodel.ClassTriton,
		2*int64(st.pilotRowsTotal+nMergeRows)*int64(h)*elem))
	var dPilotIn *tensor.Tensor
	if opts.Numeric {
		dPilotIn = tensor.New(st.pilotRowsTotal, h)
		for i, abs := range st.pilotAbs {
			copy(dPilotIn.Row(abs), dExpertIn.Row(g.pilotFull[i]))
		}
		for slot, sent := range st.s2SentByMember {
			data := s2Grad[slot].Data
			for pos, sRec := range sent {
				gRow := data[pos*h : (pos+1)*h]
				dst := dPilotIn.Row(sRec.pilotAbs)
				for j, v := range gRow {
					dst[j] += v
				}
			}
		}
		pool.Put(dExpertIn)
	}

	// --- Chunked reverse S1; weight-grad metadata rides chunk 0 -------------
	var wgMeta []bwdS1Meta
	if opts.Numeric {
		wgMeta = make([]bwdS1Meta, p)
		for src := 0; src < p; src++ {
			n := len(st.recvPilotW[src])
			wgMeta[src] = bwdS1Meta{
				pilotWG:   wgAbs[st.pilotPartOff[src] : st.pilotPartOff[src]+n],
				replicaWG: make([]float32, len(st.recvMetas[src].replicas)),
			}
		}
		for slot, sent := range st.s2SentByMember {
			for pos, sRec := range sent {
				wgMeta[sRec.src].replicaWG[sRec.ri] = wgRepBySlot[slot][pos]
			}
		}
	}
	s1H := make([]*simrt.CommHandle, chunks)
	backFlat := make([]simrt.Part, chunks*p)
	for c := 0; c < chunks; c++ {
		send := backFlat[c*p : (c+1)*p]
		for src := 0; src < p; src++ {
			n := len(st.recvPilotW[src])
			clo, chi := simrt.ChunkRange(n, chunks, c)
			part := simrt.Part{Bytes: int64(chi-clo) * int64(h) * elem}
			if c == 0 {
				part.Bytes += bwdS1MetaBytes(n, len(st.recvMetas[src].replicas))
				if opts.Numeric {
					part.Meta = wgMeta[src]
				}
			}
			if opts.Numeric && chi > clo {
				lo := st.pilotPartOff[src] + clo
				part.Data = dPilotIn.Data[lo*h : (lo+chi-clo)*h]
			}
			send[src] = part
		}
		s1H[c] = r.AlltoAllVAsync(d.EP, StageBwdS1A2A, send)
	}
	if opts.OnDWReady != nil {
		// dW is complete; the only remaining collectives are the already
		// in-flight reverse-S1 chunks, so gradient sync issued here queues
		// behind them on the comm stream and overlaps the drain and the
		// scatter backward.
		opts.OnDWReady()
	}

	// --- Drain the reverse-S1 chunks, then one blocking-order scatter -------
	retData := make([][]float32, p)
	retMeta := make([]bwdS1Meta, p)
	for c, hnd := range s1H {
		backParts := hnd.Wait()
		for dst := 0; dst < p; dst++ {
			if c == 0 && backParts[dst].Meta != nil {
				retMeta[dst] = backParts[dst].Meta.(bwdS1Meta)
			}
			if !opts.Numeric {
				continue
			}
			n := g.sentTo[dst]
			if retData[dst] == nil && n > 0 {
				retData[dst] = make([]float32, n*h)
			}
			clo, _ := simrt.ChunkRange(n, chunks, c)
			if len(backParts[dst].Data) > 0 {
				copy(retData[dst][clo*h:], backParts[dst].Data)
			}
		}
	}

	r.Compute(StageBwdS1Scat, comp.MemBound(perfmodel.ClassTriton, 2*int64(nPilotSent)*int64(h)*elem))
	var dx *tensor.Tensor
	var dWeights []float32
	if opts.Numeric {
		dx = tensor.New(fwd.S, h)
		dWeights = make([]float32, pft.B())
		pos := make([]int, p)
		for _, ent := range st.pilotEntry {
			dst := d.memberOfExpert(pft.ExpertIDs[ent])
			row := retData[dst][pos[dst]*h : (pos[dst]+1)*h]
			dWeights[ent] = retMeta[dst].pilotWG[pos[dst]]
			pos[dst]++
			dstRow := dx.Row(pft.TokenIDs[ent])
			for j, v := range row {
				dstRow[j] += v
			}
		}
		for dst := 0; dst < p && len(st.replicaEntry) > 0; dst++ {
			for ri, ent := range st.replicaEntry[dst] {
				dWeights[ent] = retMeta[dst].replicaWG[ri]
			}
		}
		pool.PutAll(fwd.ExpertIn, fwd.HidPre, fwd.HidAct, fwd.PilotOut)
		fwd.ExpertIn, fwd.HidPre, fwd.HidAct, fwd.PilotOut = nil, nil, nil, nil
		fwd.S2Back = nil
	}

	return moe.BackwardResult{DX: dx, DW1: dW1, DW2: dW2, DCombineWeights: dWeights}
}

// CheckOpts validates a PipelineOpts combination against what the RBD
// transport supports, beyond the generic PipelineOpts.Check. It returns a
// typed *moe.OptionError so callers (DistConfig.Check, the CLIs) can
// reject the configuration up front instead of silently falling back to
// the flat transport.
func CheckOpts(opts moe.PipelineOpts) error {
	if err := opts.Check(); err != nil {
		return err
	}
	if opts.CombineBytes != 0 {
		return &moe.OptionError{Opt: "CombineBytes",
			Detail: fmt.Sprintf("rbd: the hierarchical combine has no element-size override (got %d); CombineBytes models Tutel's fp32 combine on the padded pipeline only", opts.CombineBytes)}
	}
	return nil
}

// newGradTensors allocates one zero gradient tensor per weight tensor
// (mirror of the moe package helper, which is unexported).
func newGradTensors(ws []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for e, w := range ws {
		out[e] = tensor.New(w.Rows(), w.Cols())
	}
	return out
}
