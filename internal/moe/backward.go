package moe

import (
	"xmoe/internal/kernels"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Backward trace stage names; mirrored against the forward stages.
const (
	StageBwdCombine    = "bwd_combine"
	StageBwdCombineA2A = "bwd_a2a_combine"
	StageBwdExperts    = "bwd_experts"
	StageBwdDispA2A    = "bwd_a2a_dispatch"
	StageBwdDispatch   = "bwd_dispatch"
)

// BackwardResult carries the gradients of one distributed MoE layer.
// In symbolic mode (opts.Numeric false) all fields are nil: the backward
// pass charges its modeled times and wire volumes without payloads.
type BackwardResult struct {
	// DX is the [S, H] gradient with respect to the layer input (the
	// data-path component through the experts; the router's gating
	// gradient flows through DCombineWeights).
	DX *tensor.Tensor
	// DW1 and DW2 are the per-local-expert weight gradients.
	DW1, DW2 []*tensor.Tensor
	// DCombineWeights[i] is the loss gradient of PFT entry i's combine
	// weight; the caller feeds it into the router's softmax backward
	// (per-token weights are routing metadata, so they stay local). For
	// the padded pipeline the index is the slot index e*C + c (zero for
	// empty slots).
	DCombineWeights []float32
}

// PFTBackward runs the distributed backward pass of the padding-free MoE
// layer (paper §4.3: "expert-specific gradient computation and alltoall
// communications, mirroring the forward process"). Given the forward
// state and the output gradient dOut [S, H], it reverses every forward
// stage: scatter-combine backward, the combine all-to-all in reverse
// (gradients travel source→experts, the same direction as dispatch),
// sequential-GEMM and activation backward per expert segment, the
// dispatch all-to-all in reverse (experts→source), and the gather
// backward into dX. The wire volumes match the forward pass exactly —
// the property the paper's four-alltoalls-per-layer accounting relies on.
//
// opts selects the execution mode: Numeric moves real gradients (dOut and
// params must be set), otherwise the pass is timing-only. OverlapChunks
// splits the combine gradient along the same per-expert ChunkRange
// boundaries as the forward: all C combine-gradient all-to-alls are
// issued non-blocking up front, and each chunk's dX GEMM chain runs while
// the next chunk's transfer is in flight. The dW GEMMs run once over the
// complete segments after the last chunk — the same reduction for every
// C, so the gradients are bit-identical for any chunk count (per-chunk
// partial dW accumulation would reorder the float summation). For C >= 2
// they hide the tail of the in-flight reverse dispatch all-to-alls; at
// C=1 the backward waits for its single reverse dispatch first, the
// blocking schedule.
func PFTBackward(r *simrt.Rank, g *simrt.Group, cfg Config, st *PFTFwdState,
	dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {

	chunks := opts.chunks()
	epr := epCheck(cfg, g)
	p := g.Size()
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	comp := r.C.Comp
	pool := r.Pool()
	pft := st.PFT
	b := pft.B()
	bExp := st.bExp()
	segStart := pft.ExpertSegments()

	// --- Per-chunk scatter-combine backward + non-blocking reverse combine
	// Chunk c covers rows ChunkRange(cnt_e, chunks, c) of every expert
	// segment, the same split as the overlapped forward dispatch, so both
	// ends agree without extra metadata on the wire.
	var dCombineIn *tensor.Tensor
	var dWeights []float32
	if opts.Numeric {
		dCombineIn = pool.Get(b, h)
		dWeights = make([]float32, b)
	}
	sendFlat := make([]simrt.Part, chunks*p)
	combineH := make([]*simrt.CommHandle, chunks)
	for c := 0; c < chunks; c++ {
		send := sendFlat[c*p : (c+1)*p]
		chunkRows := 0
		for dst := 0; dst < p; dst++ {
			rows := 0
			for le := 0; le < epr; le++ {
				e := dst*epr + le
				lo, hi := simrt.ChunkRange(pft.TokensPerExpert[e], chunks, c)
				rows += hi - lo
				if opts.Numeric {
					for i := segStart[e] + lo; i < segStart[e]+hi; i++ {
						// Row i of the combine backward, exactly
						// kernels.ScatterCombineBackward's per-row
						// arithmetic.
						gRow := dOut.Row(pft.TokenIDs[i])
						xRow := st.CombineIn.Row(i)
						w := pft.CombineWeights[i]
						dRow := dCombineIn.Row(i)
						var dot float32
						for j := range gRow {
							dRow[j] = gRow[j] * w
							dot += gRow[j] * xRow[j]
						}
						dWeights[i] = dot
					}
				}
			}
			chunkRows += rows
			part := simrt.Part{Bytes: int64(rows) * int64(h) * elem}
			if opts.Numeric && rows > 0 {
				part.Data = packPFTChunk(dCombineIn.Data, pft, segStart, dst, epr, h, chunks, c, rows)
			}
			send[dst] = part
		}
		r.Compute(StageBwdCombine, comp.MemBound(perfmodel.ClassTriton, 2*int64(chunkRows)*int64(h)*elem))
		if chunks > 1 {
			// Charge the strided chunk pack; at C=1 each destination's
			// rows are one contiguous block.
			r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(chunkRows)*int64(h)*elem))
		}
		combineH[c] = r.AlltoAllVAsync(g, StageBwdCombineA2A, send)
	}

	// --- Per-chunk dX GEMM chain, reverse dispatch issued per chunk ------
	// Gradients land directly in full expert-major buffers so the dW GEMMs
	// see complete segments; the dX chain runs per (src, le) sub-block —
	// contiguous in the full layout — and is row-independent, hence
	// bit-identical for every chunk count.
	var dExpertOut, dHidAct, dHidPre, dExpertIn *tensor.Tensor
	if opts.Numeric {
		dExpertOut = pool.Get(bExp, h)
		dHidAct = pool.Get(bExp, f)
		dHidPre = pool.Get(bExp, f)
		dExpertIn = pool.Get(bExp, h)
	}
	chunkRowsPerLE := make([]int, epr)
	backFlat := make([]simrt.Part, chunks*p)
	dispatchH := make([]*simrt.CommHandle, chunks)
	for c := 0; c < chunks; c++ {
		recv := combineH[c].Wait()
		bc := 0
		for le := 0; le < epr; le++ {
			chunkRowsPerLE[le] = 0
			for src := 0; src < p; src++ {
				lo, hi := simrt.ChunkRange(st.RecvCounts[src][le], chunks, c)
				chunkRowsPerLE[le] += hi - lo
			}
			bc += chunkRowsPerLE[le]
		}

		// Reorder this chunk's received rows into the full expert-major
		// gradient buffer (charged when chunks > 1: the chunk lands
		// strided sub-blocks; at C=1 each block is contiguous).
		if chunks > 1 {
			r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(h)*elem))
		}
		if opts.Numeric {
			for src := 0; src < p; src++ {
				data := recv[src].Data
				pos := 0
				for le := 0; le < epr; le++ {
					lo, hi := simrt.ChunkRange(st.RecvCounts[src][le], chunks, c)
					if hi > lo {
						o := st.BlockOff[le][src] + lo
						copy(dExpertOut.Data[o*h:(o+hi-lo)*h], data[pos*h:(pos+hi-lo)*h])
						pos += hi - lo
					}
				}
			}
		}

		// dX chain over this chunk's sub-blocks: dHidAct = dY·W2ᵀ, GeLU
		// backward, dExpertIn = dHidPre·W1ᵀ — all row-independent.
		r.Compute(StageBwdExperts, comp.SequentialGEMM(chunkRowsPerLE, h, f)+
			comp.SequentialGEMM(chunkRowsPerLE, f, h)+
			comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(f)*elem))
		if opts.Numeric {
			for le := 0; le < epr; le++ {
				for src := 0; src < p; src++ {
					lo, hi := simrt.ChunkRange(st.RecvCounts[src][le], chunks, c)
					n := hi - lo
					if n == 0 {
						continue
					}
					o := st.BlockOff[le][src] + lo
					dyBlk := tensor.FromSlice(dExpertOut.Data[o*h:(o+n)*h], n, h)
					daBlk := tensor.FromSlice(dHidAct.Data[o*f:(o+n)*f], n, f)
					tensor.MatMulTInto(daBlk, dyBlk, params.W2[le])
					dpBlk := tensor.FromSlice(dHidPre.Data[o*f:(o+n)*f], n, f)
					preBlk := tensor.FromSlice(st.HidPre.Data[o*f:(o+n)*f], n, f)
					tensor.GeLUBackwardInto(dpBlk, daBlk, preBlk)
					dxBlk := tensor.FromSlice(dExpertIn.Data[o*h:(o+n)*h], n, h)
					tensor.MatMulTInto(dxBlk, dpBlk, params.W1[le])
				}
			}
		}

		// Pack this chunk's input gradients src-major and send them home
		// non-blocking; for C >= 2 the transfer hides behind the remaining
		// chunks' GEMMs and the dW computation.
		sendBack := backFlat[c*p : (c+1)*p]
		for src := 0; src < p; src++ {
			rows := 0
			for le := 0; le < epr; le++ {
				lo, hi := simrt.ChunkRange(st.RecvCounts[src][le], chunks, c)
				rows += hi - lo
			}
			part := simrt.Part{Bytes: int64(rows) * int64(h) * elem}
			if opts.Numeric && rows > 0 {
				buf := make([]float32, rows*h)
				pos := 0
				for le := 0; le < epr; le++ {
					lo, hi := simrt.ChunkRange(st.RecvCounts[src][le], chunks, c)
					if hi > lo {
						o := st.BlockOff[le][src] + lo
						copy(buf[pos*h:(pos+hi-lo)*h], dExpertIn.Data[o*h:(o+hi-lo)*h])
						pos += hi - lo
					}
				}
				part.Data = buf
			}
			sendBack[src] = part
		}
		if chunks > 1 {
			r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(h)*elem))
		}
		dispatchH[c] = r.AlltoAllVAsync(g, StageBwdDispA2A, sendBack)
	}
	if chunks == 1 {
		// The blocking schedule: with one chunk the dW GEMMs run after
		// the reverse dispatch, not hidden under it.
		dispatchH[0].Wait()
	}

	// --- dW GEMMs over the complete segments ------------------------------
	// One TMatMul per expert over the full segment, the same summation
	// order for every chunk count.
	r.Compute(StageBwdExperts, comp.SequentialGEMM(st.RowsPerLE, h, f)+
		comp.SequentialGEMM(st.RowsPerLE, f, h))
	var dW1, dW2 []*tensor.Tensor
	if opts.Numeric {
		dW1 = newGradTensors(params.W1)
		dW2 = newGradTensors(params.W2)
		off := 0
		for le, rows := range st.RowsPerLE {
			if rows == 0 {
				continue
			}
			segAct := tensor.FromSlice(st.HidAct.Data[off*f:(off+rows)*f], rows, f)
			segDY := tensor.FromSlice(dExpertOut.Data[off*h:(off+rows)*h], rows, h)
			tensor.TMatMulInto(dW2[le], segAct, segDY)
			segIn := tensor.FromSlice(st.ExpertIn.Data[off*h:(off+rows)*h], rows, h)
			segDP := tensor.FromSlice(dHidPre.Data[off*f:(off+rows)*f], rows, f)
			tensor.TMatMulInto(dW1[le], segIn, segDP)
			off += rows
		}
		// At C=1 peers read dCombineIn through views until they land it,
		// which every peer has done once the reverse dispatch rendezvous
		// above completed, so it can return to the arena only now.
		pool.PutAll(dExpertOut, dHidAct, dHidPre, dExpertIn, dCombineIn)
	}
	if opts.OnDWReady != nil {
		// dW is complete; the only remaining collectives are the already
		// issued reverse dispatch chunks (retired at C=1), so gradient
		// sync issued here queues behind them on the comm stream and
		// overlaps the drain and gather backward.
		opts.OnDWReady()
	}

	// --- Drain the reverse dispatch chunks into dDispIn -------------------
	var dDispIn *tensor.Tensor
	if opts.Numeric {
		dDispIn = pool.Get(b, h)
	}
	for c := 0; c < chunks; c++ {
		back := dispatchH[c].Wait()
		if !opts.Numeric {
			continue
		}
		for dst := 0; dst < p; dst++ {
			data := back[dst].Data
			pos := 0
			for le := 0; le < epr; le++ {
				e := dst*epr + le
				lo, hi := simrt.ChunkRange(pft.TokensPerExpert[e], chunks, c)
				if hi > lo {
					copy(dDispIn.Data[(segStart[e]+lo)*h:(segStart[e]+hi)*h],
						data[pos*h:(pos+hi-lo)*h])
					pos += hi - lo
				}
			}
		}
	}

	// --- Gather backward ----------------------------------------------------
	r.Compute(StageBwdDispatch, comp.MemBound(perfmodel.ClassTriton, 2*int64(b)*int64(h)*elem))
	var dx *tensor.Tensor
	if opts.Numeric {
		dx = kernels.GatherBackward(dDispIn, pft.TokenIDs, st.S)
		pool.Put(dDispIn)
		// The forward state is consumed: its saved intermediates return to
		// the arena so the next layer's forward pass reuses them.
		pool.PutAll(st.ExpertIn, st.HidPre, st.HidAct, st.CombineIn)
		st.ExpertIn, st.HidPre, st.HidAct, st.CombineIn = nil, nil, nil, nil
	}

	return BackwardResult{DX: dx, DW1: dW1, DW2: dW2, DCombineWeights: dWeights}
}

// newGradTensors allocates one zero gradient tensor per weight tensor.
func newGradTensors(ws []*tensor.Tensor) []*tensor.Tensor {
	out := make([]*tensor.Tensor, len(ws))
	for e, w := range ws {
		out[e] = tensor.New(w.Rows(), w.Cols())
	}
	return out
}
