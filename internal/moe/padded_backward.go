package moe

import (
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// PaddedBackward runs the distributed backward pass of the conventional
// zero-padded MoE layer, mirroring PaddedForward stage for stage: the
// mask-einsum combine backward over the full padded buffer, the even
// all-to-all in reverse (gradients travel source→experts, carrying the
// padding exactly like the forward dispatch), the batched padded expert
// GEMM backward, the reverse even all-to-all, and the dispatch backward
// that accumulates occupied slots into dX. Wire volumes match the
// forward pass exactly — including the zero-padding waste, which is the
// point of the baseline.
//
// opts mirrors PFTBackward: Numeric selects real gradient math (dOut and
// params required), OverlapChunks the chunk count C of one body for
// every C (per-chunk dX chain over capacity-slot ranges, full-segment dW
// GEMMs after the last chunk), whose gradients are bit-identical for any
// chunk count. At C=1 the two exchanges are blocking and the dW GEMMs
// follow the reverse dispatch, the same schedule as PFTBackward.
func PaddedBackward(r *simrt.Rank, g *simrt.Group, cfg Config, st *PaddedFwdState,
	dOut *tensor.Tensor, params *ExpertParams, opts PipelineOpts) BackwardResult {

	epr := epCheck(cfg, g)
	p := g.Size()
	h, f, e := cfg.HModel, cfg.HFFN, cfg.NumExperts
	capTokens := st.PA.Capacity
	elem := int64(cfg.BytesPerElem)
	vendor := opts.Kernels == KernelsVendor
	kernelClass := perfmodel.ClassFallback
	if vendor {
		kernelClass = perfmodel.ClassVendor
	}
	comp := r.C.Comp
	pool := r.Pool()
	rowsPerExpert := p * capTokens
	chunks := opts.chunks()

	// combineBwdTime returns the modeled combine-backward time over cl
	// capacity slots per expert (the mask einsum's gradient is another
	// einsum for the fallback frameworks, a bandwidth pass for Tutel).
	combineBwdTime := func(cl int) float64 {
		if vendor {
			return comp.MemBound(perfmodel.ClassVendor, 2*int64(e)*int64(cl)*int64(h)*elem)
		}
		return comp.MaskEinsum(st.S, e, cl, h)
	}

	// --- Combine backward + reverse combine all-to-all --------------------
	// dFull[slot] = w_slot * dOut[token]; dWeights[slot] = <dOut[token],
	// combineFull[slot]>. Empty slots stay zero. The blocking path does
	// one pass over all capTokens slots and one blocking exchange; the
	// chunked path processes ChunkRange slot ranges and issues every
	// chunk's exchange non-blocking up front.
	var dFull *tensor.Tensor
	var dWeights []float32
	if opts.Numeric {
		dFull = pool.Get(e*capTokens, h)
		dWeights = make([]float32, e*capTokens)
	}
	combineBwdChunk := func(slo, shi int) {
		if !opts.Numeric {
			return
		}
		for exp := 0; exp < e; exp++ {
			for c := slo; c < shi; c++ {
				tok := st.PA.SlotToken[exp][c]
				if tok < 0 {
					continue
				}
				slot := exp*capTokens + c
				gRow := dOut.Row(tok)
				xRow := st.CombineFull.Data[slot*h : (slot+1)*h]
				w := st.PA.SlotWeight[exp][c]
				dRow := dFull.Data[slot*h : (slot+1)*h]
				var dot float32
				for j := range gRow {
					dRow[j] = gRow[j] * w
					dot += gRow[j] * xRow[j]
				}
				dWeights[slot] = dot
			}
		}
	}

	sendFlat := make([]simrt.Part, chunks*p)
	combineH := make([]*simrt.CommHandle, chunks)
	var recvBlocking []simrt.Part
	for c := 0; c < chunks; c++ {
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		combineBwdChunk(slo, shi)
		r.Compute(StageBwdCombine, combineBwdTime(cl))
		send := sendFlat[c*p : (c+1)*p]
		for dst := 0; dst < p; dst++ {
			part := simrt.Part{Bytes: int64(epr) * int64(cl) * int64(h) * elem}
			if opts.Numeric && cl > 0 {
				if chunks == 1 {
					// Contiguous view: dst's experts' full slot range.
					lo := dst * epr * capTokens * h
					part.Data = dFull.Data[lo : lo+epr*capTokens*h]
				} else {
					buf := make([]float32, epr*cl*h)
					for le := 0; le < epr; le++ {
						base := ((dst*epr+le)*capTokens + slo) * h
						copy(buf[le*cl*h:(le+1)*cl*h], dFull.Data[base:base+cl*h])
					}
					part.Data = buf
				}
			}
			send[dst] = part
		}
		if chunks == 1 {
			recvBlocking = r.AlltoAllV(g, StageBwdCombineA2A, send)
		} else {
			// Charge the strided slot-chunk pack the blocking path's
			// contiguous view avoids.
			r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
			combineH[c] = r.AlltoAllVAsync(g, StageBwdCombineA2A, send)
		}
	}

	// --- Per-chunk expert backward ----------------------------------------
	// Received layout per chunk: [P, EPR, cl, H] reordered into the full
	// expert-major gradient buffer; the dX GEMM chain runs per chunk, the
	// dW GEMMs once over the complete segments after the last chunk (see
	// PFTBackward for the bit-identity argument).
	var dExpertOut, dHidAct, dHidPre, dExpertIn *tensor.Tensor
	if opts.Numeric {
		dExpertOut = pool.Get(epr*rowsPerExpert, h)
		dHidAct = pool.Get(epr*rowsPerExpert, f)
		dHidPre = pool.Get(epr*rowsPerExpert, f)
		dExpertIn = pool.Get(epr*rowsPerExpert, h)
	}
	chunkRows := make([]int, epr)
	backFlat := make([]simrt.Part, chunks*p)
	dispatchH := make([]*simrt.CommHandle, chunks)
	var backBlocking []simrt.Part
	for c := 0; c < chunks; c++ {
		var recv []simrt.Part
		if chunks == 1 {
			recv = recvBlocking
		} else {
			recv = combineH[c].Wait()
		}
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo

		// Reorder [P, EPR, cl, H] -> expert-major sub-blocks.
		r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		if opts.Numeric {
			for src := 0; src < p; src++ {
				data := recv[src].Data
				for le := 0; le < epr; le++ {
					o := ((le*p+src)*capTokens + slo) * h
					copy(dExpertOut.Data[o:o+cl*h], data[le*cl*h:(le+1)*cl*h])
				}
			}
		}

		// dX chain over this chunk's slot range of every (le, src) block.
		for i := range chunkRows {
			chunkRows[i] = p * cl
		}
		r.Compute(StageBwdExperts, comp.BatchedPaddedGEMM(epr, p*cl, h, f)+
			comp.BatchedPaddedGEMM(epr, p*cl, f, h)+
			comp.MemBound(perfmodel.ClassVendor, 2*int64(epr*p*cl)*int64(f)*elem))
		if opts.Numeric && cl > 0 {
			for le := 0; le < epr; le++ {
				for src := 0; src < p; src++ {
					o := (le*p+src)*capTokens + slo
					dyBlk := tensor.FromSlice(dExpertOut.Data[o*h:(o+cl)*h], cl, h)
					daBlk := tensor.FromSlice(dHidAct.Data[o*f:(o+cl)*f], cl, f)
					tensor.MatMulTInto(daBlk, dyBlk, params.W2[le])
					dpBlk := tensor.FromSlice(dHidPre.Data[o*f:(o+cl)*f], cl, f)
					preBlk := tensor.FromSlice(st.HidPre.Data[o*f:(o+cl)*f], cl, f)
					tensor.GeLUBackwardInto(dpBlk, daBlk, preBlk)
					dxBlk := tensor.FromSlice(dExpertIn.Data[o*h:(o+cl)*h], cl, h)
					tensor.MatMulTInto(dxBlk, dpBlk, params.W1[le])
				}
			}
		}

		// Pack src-major and send this chunk's input gradients home.
		r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		sendBack := backFlat[c*p : (c+1)*p]
		for dst := 0; dst < p; dst++ {
			part := simrt.Part{Bytes: int64(epr) * int64(cl) * int64(h) * elem}
			if opts.Numeric && cl > 0 {
				buf := make([]float32, epr*cl*h)
				for le := 0; le < epr; le++ {
					o := ((le*p+dst)*capTokens + slo) * h
					copy(buf[le*cl*h:(le+1)*cl*h], dExpertIn.Data[o:o+cl*h])
				}
				part.Data = buf
			}
			sendBack[dst] = part
		}
		if chunks == 1 {
			backBlocking = r.AlltoAllV(g, StageBwdDispA2A, sendBack)
		} else {
			dispatchH[c] = r.AlltoAllVAsync(g, StageBwdDispA2A, sendBack)
		}
	}

	// --- dW GEMMs over the complete segments ------------------------------
	// The blocking path runs them here trivially (everything has
	// arrived); the chunked path runs them here deliberately — one
	// TMatMul per expert over the full contiguous segment, the blocking
	// reduction order, hiding the in-flight reverse transfers.
	r.Compute(StageBwdExperts, comp.BatchedPaddedGEMM(epr, rowsPerExpert, h, f)+
		comp.BatchedPaddedGEMM(epr, rowsPerExpert, f, h))
	var dW1, dW2 []*tensor.Tensor
	if opts.Numeric {
		dW1 = newGradTensors(params.W1)
		dW2 = newGradTensors(params.W2)
		for le := 0; le < epr; le++ {
			o := le * rowsPerExpert
			segAct := tensor.FromSlice(st.HidAct.Data[o*f:(o+rowsPerExpert)*f], rowsPerExpert, f)
			segDY := tensor.FromSlice(dExpertOut.Data[o*h:(o+rowsPerExpert)*h], rowsPerExpert, h)
			tensor.TMatMulInto(dW2[le], segAct, segDY)
			segIn := tensor.FromSlice(st.ExpertIn.Data[o*h:(o+rowsPerExpert)*h], rowsPerExpert, h)
			segDP := tensor.FromSlice(dHidPre.Data[o*f:(o+rowsPerExpert)*f], rowsPerExpert, f)
			tensor.TMatMulInto(dW1[le], segIn, segDP)
		}
		pool.PutAll(dExpertOut, dHidAct, dHidPre, dExpertIn, dFull)
	}
	if opts.OnDWReady != nil {
		// dW is complete and the last blocking collective has retired
		// (chunks == 1: the reverse dispatch already exchanged above;
		// chunked: only async chunk transfers remain in flight), so
		// gradient sync issued here overlaps the drain and the unpad
		// backward.
		opts.OnDWReady()
	}

	// --- Drain reverse chunks into the dispatch-buffer gradient -----------
	var dDispBuf *tensor.Tensor
	if opts.Numeric {
		dDispBuf = pool.Get(e*capTokens, h)
	}
	drain := func(c int, back []simrt.Part) {
		if !opts.Numeric {
			return
		}
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		for dst := 0; dst < p; dst++ {
			data := back[dst].Data
			for le := 0; le < epr; le++ {
				base := ((dst*epr+le)*capTokens + slo) * h
				copy(dDispBuf.Data[base:base+cl*h], data[le*cl*h:(le+1)*cl*h])
			}
		}
	}
	if chunks == 1 {
		drain(0, backBlocking)
	} else {
		for c := 0; c < chunks; c++ {
			drain(c, dispatchH[c].Wait())
		}
	}

	// --- Dispatch backward -------------------------------------------------
	// Occupied slots accumulate into their token's row, in slot order
	// (global expert ascending, capacity position ascending) — done once
	// over the fully drained buffer, so the order is chunk-invariant.
	if vendor {
		r.Compute(StageBwdDispatch, comp.MemBound(perfmodel.ClassVendor,
			2*int64(e)*int64(capTokens)*int64(h)*elem))
	} else {
		r.Compute(StageBwdDispatch, comp.MaskEinsum(st.S, e, capTokens, h))
	}
	var dx *tensor.Tensor
	if opts.Numeric {
		dx = tensor.New(st.S, h)
		for exp := 0; exp < e; exp++ {
			for c := 0; c < capTokens; c++ {
				tok := st.PA.SlotToken[exp][c]
				if tok < 0 {
					continue
				}
				src := dDispBuf.Data[(exp*capTokens+c)*h : (exp*capTokens+c+1)*h]
				dst := dx.Row(tok)
				for j, v := range src {
					dst[j] += v
				}
			}
		}
		pool.Put(dDispBuf)
		// The forward state is consumed.
		pool.PutAll(st.ExpertIn, st.HidPre, st.HidAct, st.CombineFull)
		st.ExpertIn, st.HidPre, st.HidAct, st.CombineFull = nil, nil, nil, nil
	}

	return BackwardResult{DX: dx, DW1: dW1, DW2: dW2, DCombineWeights: dWeights}
}
