package moe

// The MoE middle section (dispatch all-to-all -> expert GEMMs -> combine
// all-to-all) of PFTForward and PaddedForward, run in C = opts.chunks()
// chunks. C = 1 is the blocking pipeline; C >= 2 is the chunked
// comm/compute overlap FastMoE's smart scheduling and Megatron Core's MoE
// overlap apply to hide the paper's dominant all-to-all cost (Fig. 11)
// behind the expert computation:
//
//   - The routed tokens are split into C chunks along each (destination
//     rank, local expert) segment, using the same ChunkRange split on both
//     ends so no extra metadata crosses the wire (full per-expert counts
//     ride with chunk 0 only, exactly the single-chunk volume).
//   - All C dispatch all-to-alls are issued non-blocking up front; they
//     serialise on the rank's communication stream, so chunk i+1's
//     transfer flies while chunk i's expert GEMMs run on the device.
//   - Each chunk's combine all-to-all is issued non-blocking right after
//     its GEMMs, overlapping the remaining chunks' compute; the waits at
//     the end charge only the uncovered tail.
//
// Pricing is chunk-count aware: for C >= 2 a destination's chunk rows are
// strided across its experts' segments, so packing them into a send
// buffer is a memory-bound pass charged to StageOthers. At C = 1 every
// destination's rows are one contiguous block, sent as a zero-copy view
// and charged nothing. The §5.4.1 expert-major reorders are charged at
// every C.
//
// Numeric output is bit-identical for every C: the expert FFN is
// row-independent, chunking only re-times row groups without reordering
// any per-row arithmetic, and every returned row is written to the same
// position.
//
// With SaveForBackward, each chunk's intermediates (expert input,
// pre-activation, post-GeLU activation) are scattered into full-layout
// expert-major buffers — chunk rows of block (src, le) land at the
// block's offset plus the chunk's ChunkRange start — so PFTBackward /
// PaddedBackward consume an identical state regardless of the forward
// chunk count.

import (
	"xmoe/internal/kernels"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// pftForwardMiddle continues PFTForward after gating, PFT construction
// and the dispatch gather, executing the exchange and expert stages in
// opts.chunks() chunks.
func pftForwardMiddle(r *simrt.Rank, g *simrt.Group, cfg Config, s int, pft *PFT,
	dispIn *tensor.Tensor, params *ExpertParams, opts PipelineOpts) LayerResult {

	chunks := opts.chunks()
	p := g.Size()
	epr := cfg.NumExperts / p
	h, f := cfg.HModel, cfg.HFFN
	elem := int64(cfg.BytesPerElem)
	combElem := int64(opts.combineBytes(cfg))
	mem := &r.Dev().Mem
	comp := r.C.Comp
	pool := r.Pool()
	b := pft.B()
	segStart := pft.ExpertSegments()

	// --- Issue every dispatch chunk non-blocking -------------------------
	// Chunk c of global expert e covers rows ChunkRange(cnt_e, chunks, c)
	// of e's contiguous PFT segment; a chunk part concatenates the
	// destination rank's experts' chunk rows in expert order. The full
	// per-expert counts ride with chunk 0 (the C=1 wire volume), later
	// chunks are derived by both ends from the same split. Part slices
	// for all chunks view one flat backing array so the steady-state
	// allocation count stays independent of the chunk count.
	countsFlat := make([]int, p*epr)
	copy(countsFlat, pft.TokensPerExpert)
	sendFlat := make([]simrt.Part, chunks*p)
	dispatchH := make([]*simrt.CommHandle, chunks)
	for c := 0; c < chunks; c++ {
		send := sendFlat[c*p : (c+1)*p]
		chunkRows := 0
		for dst := 0; dst < p; dst++ {
			rows := 0
			for le := 0; le < epr; le++ {
				lo, hi := simrt.ChunkRange(pft.TokensPerExpert[dst*epr+le], chunks, c)
				rows += hi - lo
			}
			chunkRows += rows
			part := simrt.Part{Bytes: int64(rows) * int64(h) * elem}
			if c == 0 {
				part.Meta = countsFlat[dst*epr : (dst+1)*epr]
				part.Bytes += int64(epr) * 8
			}
			if opts.Numeric && rows > 0 {
				part.Data = packPFTChunk(dispIn.Data, pft, segStart, dst, epr, h, chunks, c, rows)
			}
			send[dst] = part
		}
		if chunks > 1 {
			// Packing strided per-expert chunk rows is a real
			// memory-bound pass; C=1 sends contiguous views instead.
			r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(chunkRows)*int64(h)*elem))
		}
		dispatchH[c] = r.AlltoAllVAsync(g, StageDispatchA2A, send)
	}

	// --- Per-chunk expert stage, combine issued as soon as a chunk ends --
	var recvCounts [][]int // [src][localExpert] full totals, from chunk 0
	bExp := 0
	combineH := make([]*simrt.CommHandle, chunks)
	rowsPerLE := make([]int, epr)
	// Per-chunk geometry scratch, reused across chunks: chunkLen[src*epr+le]
	// is the (src, le) sub-block's row count, chunkLo its ChunkRange start
	// within the block, partPos[src*epr+le] its offset within src's part
	// (send and receive sides share the layout: local experts ascending),
	// blockOff[le*p+src] its offset within the chunk's expert-major
	// buffer. Precomputed prefix sums keep packing O(p*epr) per chunk.
	chunkLen := make([]int, p*epr)
	chunkLo := make([]int, p*epr)
	partPos := make([]int, p*epr)
	blockOff := make([]int, epr*p)
	backFlat := make([]simrt.Part, chunks*p)
	// Full-layout saved state (SaveForBackward): blockOffFull holds the
	// full [le][src] expert-major offsets; the chunk intermediates are
	// scattered into full-size buffers at those offsets.
	var blockOffFull [][]int
	var fullRowsPerLE []int
	var expertIn, hidPre, hidAct *tensor.Tensor
	for c := 0; c < chunks; c++ {
		recv := dispatchH[c].Wait()
		if c == 0 {
			recvCounts = make([][]int, p)
			for src, part := range recv {
				recvCounts[src] = part.Meta.([]int)
				for _, n := range recvCounts[src] {
					bExp += n
				}
			}
			mem.Alloc("A_dispatch", int64(bExp)*int64(h)*elem)
			mem.Alloc("A0_interm", int64(bExp)*int64(f)*elem)
			mem.Alloc("A1_interm", int64(bExp)*int64(f)*elem)
			if opts.SaveForBackward {
				blockOffFull = make([][]int, epr)
				fullRowsPerLE = make([]int, epr)
				flat := make([]int, epr*p)
				off := 0
				for le := 0; le < epr; le++ {
					blockOffFull[le] = flat[le*p : (le+1)*p]
					for src := 0; src < p; src++ {
						blockOffFull[le][src] = off
						off += recvCounts[src][le]
						fullRowsPerLE[le] += recvCounts[src][le]
					}
				}
				if opts.Numeric {
					expertIn = pool.Get(bExp, h)
					hidPre = pool.Get(bExp, f)
					hidAct = pool.Get(bExp, f)
				}
			}
		}

		// Chunk geometry: sub-block lengths, then prefix offsets.
		bc := 0
		for le := 0; le < epr; le++ {
			rowsPerLE[le] = 0
			for src := 0; src < p; src++ {
				lo, hi := simrt.ChunkRange(recvCounts[src][le], chunks, c)
				chunkLen[src*epr+le] = hi - lo
				chunkLo[src*epr+le] = lo
				rowsPerLE[le] += hi - lo
			}
			bc += rowsPerLE[le]
		}
		{
			off := 0
			for le := 0; le < epr; le++ {
				for src := 0; src < p; src++ {
					blockOff[le*p+src] = off
					off += chunkLen[src*epr+le]
				}
			}
			for src := 0; src < p; src++ {
				pos := 0
				for le := 0; le < epr; le++ {
					partPos[src*epr+le] = pos
					pos += chunkLen[src*epr+le]
				}
			}
		}

		// Expert-major reorder of this chunk (paper §5.4.1 overhead,
		// charged proportionally to the chunk's rows).
		r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(h)*elem))
		var chunkIn *tensor.Tensor
		if opts.Numeric {
			chunkIn = pool.Get(bc, h)
			for le := 0; le < epr; le++ {
				for src := 0; src < p; src++ {
					n := chunkLen[src*epr+le]
					if n == 0 {
						continue
					}
					off, pos := blockOff[le*p+src], partPos[src*epr+le]
					copy(chunkIn.Data[off*h:(off+n)*h],
						recv[src].Data[pos*h:(pos+n)*h])
				}
			}
		}

		// Sequential GEMM experts over the chunk's uneven segments.
		expertTime := comp.SequentialGEMM(rowsPerLE, h, f) +
			comp.SequentialGEMM(rowsPerLE, f, h) +
			comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(f)*elem)
		r.Compute(StageExperts, expertTime)
		var chunkOut *tensor.Tensor
		if opts.Numeric {
			interm := pool.Get(bc, f)
			kernels.SequentialGEMMInto(interm, chunkIn, rowsPerLE, params.W1)
			if opts.SaveForBackward {
				// Scatter this chunk's intermediates into the full
				// expert-major layout before/after the activation so
				// the saved state is chunk-count invariant.
				scatterChunkRows(expertIn.Data, chunkIn.Data, h, epr, p, blockOffFull, blockOff, chunkLen, chunkLo)
				scatterChunkRows(hidPre.Data, interm.Data, f, epr, p, blockOffFull, blockOff, chunkLen, chunkLo)
			}
			tensor.GeLU(interm)
			if opts.SaveForBackward {
				scatterChunkRows(hidAct.Data, interm.Data, f, epr, p, blockOffFull, blockOff, chunkLen, chunkLo)
			}
			chunkOut = pool.Get(bc, h)
			kernels.SequentialGEMMInto(chunkOut, interm, rowsPerLE, params.W2)
			pool.PutAll(chunkIn, interm)
		}

		// Reverse reorder to src-major and issue this chunk's combine.
		r.Compute(StageOthers, comp.MemBound(perfmodel.ClassTriton, 2*int64(bc)*int64(h)*elem))
		sendBack := backFlat[c*p : (c+1)*p]
		for src := 0; src < p; src++ {
			rows := 0
			for le := 0; le < epr; le++ {
				rows += chunkLen[src*epr+le]
			}
			part := simrt.Part{Bytes: int64(rows) * int64(h) * combElem}
			if opts.Numeric && rows > 0 {
				buf := make([]float32, rows*h)
				for le := 0; le < epr; le++ {
					n := chunkLen[src*epr+le]
					if n == 0 {
						continue
					}
					off, pos := blockOff[le*p+src], partPos[src*epr+le]
					copy(buf[pos*h:(pos+n)*h], chunkOut.Data[off*h:(off+n)*h])
				}
				part.Data = buf
			}
			sendBack[src] = part
		}
		combineH[c] = r.AlltoAllVAsync(g, StageCombineA2A, sendBack)
		if opts.Numeric {
			pool.Put(chunkOut) // fully staged into the send-back buffers
		}
	}

	// --- Drain combine chunks into the PFT-ordered combine buffer --------
	mem.Alloc("A_combine", int64(b)*int64(h)*combElem)
	var combineIn *tensor.Tensor
	if opts.Numeric {
		combineIn = pool.Get(b, h)
	}
	for c := 0; c < chunks; c++ {
		back := combineH[c].Wait()
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
					copy(combineIn.Data[(segStart[e]+lo)*h:(segStart[e]+hi)*h],
						data[pos*h:(pos+hi-lo)*h])
					pos += hi - lo
				}
			}
		}
	}

	// --- Scatter combine --------------------------------------------------
	r.Compute(StageCombine, comp.MemBound(perfmodel.ClassTriton, 2*int64(b)*int64(h)*combElem))
	var out *tensor.Tensor
	if opts.Numeric {
		out = kernels.ScatterCombine(combineIn, pft.TokenIDs, pft.CombineWeights, s)
		if !opts.SaveForBackward {
			pool.Put(combineIn)
		}
	}
	mem.Alloc("output", int64(s)*int64(h)*elem)

	if !opts.RetainActivations {
		mem.Free("dispatch_in", int64(b)*int64(h)*elem)
		mem.Free("A_dispatch", int64(bExp)*int64(h)*elem)
		mem.Free("A0_interm", int64(bExp)*int64(f)*elem)
		mem.Free("A1_interm", int64(bExp)*int64(f)*elem)
		mem.Free("A_combine", int64(b)*int64(h)*combElem)
		mem.Free("eri", pft.ERIBytes())
	}

	res := LayerResult{
		Output:       out,
		PFT:          pft,
		RoutedTokens: b,
		RecvTokens:   bExp,
		Dropped:      pft.Dropped,
	}
	if opts.SaveForBackward {
		res.State = &PFTFwdState{
			S:          s,
			PFT:        pft,
			RecvCounts: recvCounts,
			BlockOff:   blockOffFull,
			RowsPerLE:  fullRowsPerLE,
			ExpertIn:   expertIn,
			HidPre:     hidPre,
			HidAct:     hidAct,
			CombineIn:  combineIn,
		}
	}
	return res
}

// packPFTChunk returns destination dst's rows of chunk c from the
// PFT-ordered rows in data: at C=1 a view of dst's contiguous block (the
// caller keeps data intact until every peer has landed it), otherwise a
// fresh buffer packing dst's experts' strided chunk rows in expert order.
func packPFTChunk(data []float32, pft *PFT, segStart []int, dst, epr, h, chunks, c, rows int) []float32 {
	if chunks == 1 {
		lo := segStart[dst*epr]
		return data[lo*h : (lo+rows)*h]
	}
	buf := make([]float32, rows*h)
	pos := 0
	for le := 0; le < epr; le++ {
		e := dst*epr + le
		lo, hi := simrt.ChunkRange(pft.TokensPerExpert[e], chunks, c)
		copy(buf[pos*h:(pos+hi-lo)*h], data[(segStart[e]+lo)*h:(segStart[e]+hi)*h])
		pos += hi - lo
	}
	return buf
}

// scatterChunkRows copies the (src, le) sub-blocks of a chunk-contiguous
// buffer into the full expert-major layout: chunk rows of block (src, le)
// land at the block's full offset plus the chunk's ChunkRange start.
// width is the row width of both buffers.
func scatterChunkRows(full, chunk []float32, width, epr, p int,
	blockOffFull [][]int, blockOff, chunkLen, chunkLo []int) {
	for le := 0; le < epr; le++ {
		for src := 0; src < p; src++ {
			n := chunkLen[src*epr+le]
			if n == 0 {
				continue
			}
			src0 := blockOff[le*p+src] * width
			dst0 := (blockOffFull[le][src] + chunkLo[src*epr+le]) * width
			copy(full[dst0:dst0+n*width], chunk[src0:src0+n*width])
		}
	}
}

// paddedForwardMiddle continues PaddedForward after gating, plan
// construction and the padded dispatch, executing the even exchanges and
// the batched expert GEMMs in opts.chunks() chunks of capacity slots.
func paddedForwardMiddle(r *simrt.Rank, g *simrt.Group, cfg Config, s int,
	pa *PaddedAssignment, dispBuf *tensor.Tensor, params *ExpertParams,
	opts PipelineOpts, kernelClass perfmodel.KernelClass, maskBytes, intermBytes int64) LayerResult {

	chunks := opts.chunks()
	p := g.Size()
	e := cfg.NumExperts
	epr := e / p
	h, f := cfg.HModel, cfg.HFFN
	capTokens := cfg.Capacity(s)
	elem := int64(cfg.BytesPerElem)
	combElem := int64(opts.combineBytes(cfg))
	vendor := kernelClass == perfmodel.ClassVendor
	mem := &r.Dev().Mem
	comp := r.C.Comp
	pool := r.Pool()
	pairBytes := int64(epr) * int64(capTokens) * int64(h) * elem

	// --- Issue every dispatch chunk non-blocking -------------------------
	// Chunk c covers capacity slots ChunkRange(capTokens, chunks, c) of
	// every expert buffer; both ends derive the same slot split, so the
	// even exchange needs no metadata at all. Part slices for all chunks
	// view one flat backing array (constant allocation count in C).
	sendFlat := make([]simrt.Part, chunks*p)
	dispatchH := make([]*simrt.CommHandle, chunks)
	for c := 0; c < chunks; c++ {
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		send := sendFlat[c*p : (c+1)*p]
		for dst := 0; dst < p; dst++ {
			part := simrt.Part{Bytes: int64(epr) * int64(cl) * int64(h) * elem}
			if opts.Numeric && cl > 0 && chunks == 1 {
				// dst's experts' full slot ranges are contiguous.
				part.Data = dispBuf.Data[dst*epr*capTokens*h : (dst+1)*epr*capTokens*h]
			} else if opts.Numeric && cl > 0 {
				buf := make([]float32, epr*cl*h)
				for le := 0; le < epr; le++ {
					base := ((dst*epr+le)*capTokens + slo) * h
					copy(buf[le*cl*h:(le+1)*cl*h], dispBuf.Data[base:base+cl*h])
				}
				part.Data = buf
			}
			send[dst] = part
		}
		if chunks > 1 {
			// Charge the strided slot-chunk pack; C=1 sends views.
			r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		}
		dispatchH[c] = r.AlltoAllVAsync(g, StageDispatchA2A, send)
	}
	mem.Alloc("A_dispatch", int64(p)*pairBytes)
	rowsPerExpert := p * capTokens
	mem.Alloc("A0_interm", int64(epr*rowsPerExpert)*int64(f)*elem)
	mem.Alloc("A1_interm", int64(epr*rowsPerExpert)*int64(f)*elem)

	// Full-layout saved state (SaveForBackward), expert-major padded rows
	// ((le*P + src)*C + slot), independent of the chunk count.
	var expertIn, hidPre, hidAct *tensor.Tensor
	if opts.SaveForBackward && opts.Numeric {
		expertIn = pool.Get(epr*rowsPerExpert, h)
		hidPre = pool.Get(epr*rowsPerExpert, f)
		hidAct = pool.Get(epr*rowsPerExpert, f)
	}

	// --- Per-chunk padded expert stage ------------------------------------
	combineH := make([]*simrt.CommHandle, chunks)
	backFlat := make([]simrt.Part, chunks*p)
	rows := make([]int, epr)
	for c := 0; c < chunks; c++ {
		recv := dispatchH[c].Wait()
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		chunkRows := p * cl

		// saveChunk scatters this chunk's [EPR, P*cl] buffer into the
		// full [EPR, P*C] layout at slot offset slo.
		saveChunk := func(full, chunk []float32, width int) {
			for le := 0; le < epr; le++ {
				for src := 0; src < p; src++ {
					src0 := ((le*p + src) * cl) * width
					dst0 := ((le*p+src)*capTokens + slo) * width
					copy(full[dst0:dst0+cl*width], chunk[src0:src0+cl*width])
				}
			}
		}

		// Reshape [P, EPR, cl, H] -> [EPR, P*cl, H].
		r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		var chunkOut *tensor.Tensor
		if opts.Numeric {
			chunkIn := pool.Get(epr*chunkRows, h)
			for src := 0; src < p; src++ {
				data := recv[src].Data
				for le := 0; le < epr; le++ {
					srcBlock := data[le*cl*h : (le+1)*cl*h]
					dstOff := (le*p + src) * cl * h
					copy(chunkIn.Data[dstOff:dstOff+cl*h], srcBlock)
				}
			}
			for i := range rows {
				rows[i] = chunkRows
			}
			interm := pool.Get(epr*chunkRows, f)
			kernels.SequentialGEMMInto(interm, chunkIn, rows, params.W1)
			if opts.SaveForBackward {
				saveChunk(expertIn.Data, chunkIn.Data, h)
				saveChunk(hidPre.Data, interm.Data, f)
			}
			tensor.GeLU(interm)
			if opts.SaveForBackward {
				saveChunk(hidAct.Data, interm.Data, f)
			}
			chunkOut = pool.Get(epr*chunkRows, h)
			kernels.SequentialGEMMInto(chunkOut, interm, rows, params.W2)
			pool.PutAll(chunkIn, interm)
		}
		expertTime := comp.BatchedPaddedGEMM(epr, chunkRows, h, f) +
			comp.BatchedPaddedGEMM(epr, chunkRows, f, h) +
			comp.MemBound(perfmodel.ClassVendor, 2*int64(epr*chunkRows)*int64(f)*elem)
		r.Compute(StageExperts, expertTime)

		// Reverse reshape and issue this chunk's combine.
		r.Compute(StageOthers, comp.MemBound(kernelClass, 2*int64(p*epr*cl)*int64(h)*elem))
		sendBack := backFlat[c*p : (c+1)*p]
		for dst := 0; dst < p; dst++ {
			part := simrt.Part{Bytes: int64(epr) * int64(cl) * int64(h) * elem}
			if opts.Numeric && cl > 0 {
				buf := make([]float32, epr*cl*h)
				for le := 0; le < epr; le++ {
					srcOff := (le*p + dst) * cl * h
					copy(buf[le*cl*h:(le+1)*cl*h], chunkOut.Data[srcOff:srcOff+cl*h])
				}
				part.Data = buf
			}
			sendBack[dst] = part
		}
		combineH[c] = r.AlltoAllVAsync(g, StageCombineA2A, sendBack)
		if opts.Numeric {
			pool.Put(chunkOut) // fully staged into the send-back buffers
		}
	}

	// --- Drain combine chunks into the padded combine buffer -------------
	mem.Alloc("A_combine", int64(e)*int64(capTokens)*int64(h)*combElem)
	var full *tensor.Tensor
	if opts.Numeric {
		full = pool.Get(e*capTokens, h)
	}
	for c := 0; c < chunks; c++ {
		back := combineH[c].Wait()
		if !opts.Numeric {
			continue
		}
		slo, shi := simrt.ChunkRange(capTokens, chunks, c)
		cl := shi - slo
		for dst := 0; dst < p; dst++ {
			data := back[dst].Data
			for le := 0; le < epr; le++ {
				base := ((dst*epr+le)*capTokens + slo) * h
				copy(full.Data[base:base+cl*h], data[le*cl*h:(le+1)*cl*h])
			}
		}
	}

	// --- Buffer combine ---------------------------------------------------
	if vendor {
		r.Compute(StageCombine, comp.MemBound(perfmodel.ClassVendor,
			2*int64(e)*int64(capTokens)*int64(h)*combElem))
	} else {
		r.Compute(StageCombine, comp.MaskEinsum(s, e, capTokens, h))
	}
	var out *tensor.Tensor
	if opts.Numeric {
		out = kernels.PaddedCombine(full.Reshape(e, capTokens, h), pa.SlotToken, pa.SlotWeight, capTokens, s)
		if !opts.SaveForBackward {
			pool.Put(full)
		}
	}
	mem.Alloc("output", int64(s)*int64(h)*elem)

	if !opts.RetainActivations {
		mem.Free("mask", maskBytes)
		mem.Free("mask_interm", intermBytes)
		mem.Free("disp_buffer", int64(e)*int64(capTokens)*int64(h)*elem)
		mem.Free("A_dispatch", int64(p)*pairBytes)
		mem.Free("A0_interm", int64(epr*rowsPerExpert)*int64(f)*elem)
		mem.Free("A1_interm", int64(epr*rowsPerExpert)*int64(f)*elem)
		mem.Free("A_combine", int64(e)*int64(capTokens)*int64(h)*combElem)
	}

	res := LayerResult{
		Output:       out,
		RoutedTokens: pa.Occupied,
		RecvTokens:   epr * rowsPerExpert,
		Dropped:      pa.Dropped,
	}
	if opts.SaveForBackward {
		res.PaddedState = &PaddedFwdState{
			S:           s,
			PA:          pa,
			ExpertIn:    expertIn,
			HidPre:      hidPre,
			HidAct:      hidAct,
			CombineFull: full,
		}
	}
	return res
}
