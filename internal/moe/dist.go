package moe

import (
	"fmt"

	"xmoe/internal/kernels"
	"xmoe/internal/perfmodel"
	"xmoe/internal/simrt"
	"xmoe/internal/tensor"
)

// Trace stage names shared by both pipelines; the Fig. 11 layer-breakdown
// experiment aggregates these.
const (
	StageGate        = "gate"
	StageDispatch    = "dispatch" // buffer dispatch: gather kernel or mask einsum
	StageDispatchA2A = "a2a_dispatch"
	StageExperts     = "experts"
	StageCombineA2A  = "a2a_combine"
	StageCombine     = "combine" // buffer combine: scatter kernel or mask einsum
	StageOthers      = "others"  // reorders, metadata exchange
)

// KernelProfile selects the implementation quality of the non-GEMM stages,
// distinguishing the frameworks the paper compares.
type KernelProfile int

const (
	// KernelsTriton is X-MoE's portable kernel suite (§4.1.2).
	KernelsTriton KernelProfile = iota
	// KernelsFallback is the PyTorch-level dense mask pipeline used by
	// DeepSpeed-MoE / DeepSpeed-TED / GShard-style frameworks.
	KernelsFallback
	// KernelsVendor is Tutel's tuned (but CUDA-centric) kernel path,
	// which runs on ROCm via slower ports.
	KernelsVendor
)

// PipelineOpts configures one MoE layer execution.
type PipelineOpts struct {
	// Numeric executes real float math; otherwise the pipeline is
	// metadata-only (symbolic) and charges time/memory without payloads.
	Numeric bool
	// DropPolicy selects the token-dropping semantics.
	DropPolicy DropPolicy
	// Kernels selects the gating/dispatch/combine kernel quality.
	Kernels KernelProfile
	// CombineBytes overrides the element size of the combine-side
	// buffers (Tutel forces float32 A_combine on AMD GPUs, Table 4);
	// zero means Config.BytesPerElem.
	CombineBytes int
	// RetainActivations keeps all activation buffers allocated after the
	// forward pass (training semantics) so peak-memory measurements see
	// them; otherwise transient buffers are freed as the pipeline
	// proceeds.
	RetainActivations bool
	// SaveForBackward captures the intermediate state needed by
	// PFTBackward / PaddedBackward: in numeric mode the forward
	// activations (with RetainActivations semantics for the captured
	// tensors), in symbolic mode the exchange geometry only, so a
	// timing-only backward pass can mirror the forward volumes.
	SaveForBackward bool
	// OverlapChunks is the chunk count C of the dispatch -> experts ->
	// combine middle section: the routed tokens are split into C
	// per-expert chunks, chunk i+1's dispatch all-to-all overlaps chunk
	// i's expert GEMMs on the communication stream, and chunk i's combine
	// all-to-all overlaps chunk i+1's GEMMs (FastMoE smart scheduling /
	// Megatron Core MoE overlap). Values <= 1 mean C=1, the blocking
	// schedule of the same pipeline body. Numeric output is bit-identical
	// for any chunk count (the expert FFN is row-independent and chunking
	// never reorders the per-row arithmetic). Composes with
	// SaveForBackward: the forward scatters its per-chunk intermediates
	// into chunk-count independent full-layout buffers, and the backward
	// passes accept the same chunk count to overlap their mirrored
	// all-to-alls (see PFTBackward).
	OverlapChunks int
	// CapacityByExpert, when non-nil, overrides the uniform
	// Config.Capacity with a per-expert capacity vector (one entry per
	// global expert, each >= 1) during PFT construction — the
	// straggler-aware rebalance computed by RebalanceCapacity. The PFT
	// and RBD transports carry the resulting uneven segments natively;
	// the padded pipeline rejects it (its even all-to-all requires one
	// uniform capacity).
	CapacityByExpert []int
	// OnDWReady, when set, is invoked exactly once per backward pass
	// (PFTBackward / PaddedBackward, at any chunk count) at the point
	// where the layer's weight gradients are complete and the backward's
	// last waited collective has retired — the hook point for issuing
	// bucketed asynchronous gradient synchronisation (internal/zero) so
	// the sync overlaps the remaining backward compute instead of
	// serialising after it. Forward-only calls never invoke it.
	OnDWReady func()
}

// maxOverlapChunks bounds the chunk count: beyond this, per-chunk launch
// and message latencies dwarf any conceivable transfer left to hide.
const maxOverlapChunks = 4096

// OptionError is the typed rejection every option validator returns: Opt
// names the offending PipelineOpts/DistConfig field, Detail explains the
// rejected combination. Callers unwrap it with errors.As to distinguish
// misconfiguration from other failures instead of string-matching (the
// old silent fallback to the flat transport is gone).
type OptionError struct {
	// Opt is the offending option's field name (e.g. "OverlapChunks",
	// "CombineBytes", "Transport").
	Opt string
	// Detail is the human-readable rejection.
	Detail string
}

func (e *OptionError) Error() string { return e.Detail }

// Check validates the option combination, returning a typed *OptionError
// for unsupported or nonsensical settings. The pipelines call it on entry
// (panicking with the error, as misconfiguration inside an SPMD body
// cannot be returned); CLIs call it directly on flag-derived options so
// the user sees the message instead of a rank panic.
func (o PipelineOpts) Check() error {
	if o.OverlapChunks < 0 {
		return &OptionError{Opt: "OverlapChunks", Detail: fmt.Sprintf("moe: OverlapChunks must be >= 0, got %d", o.OverlapChunks)}
	}
	if o.OverlapChunks > maxOverlapChunks {
		return &OptionError{Opt: "OverlapChunks", Detail: fmt.Sprintf("moe: OverlapChunks %d exceeds the supported maximum %d", o.OverlapChunks, maxOverlapChunks)}
	}
	if o.CombineBytes < 0 {
		return &OptionError{Opt: "CombineBytes", Detail: fmt.Sprintf("moe: CombineBytes must be >= 0, got %d", o.CombineBytes)}
	}
	if o.Kernels < KernelsTriton || o.Kernels > KernelsVendor {
		return &OptionError{Opt: "Kernels", Detail: fmt.Sprintf("moe: unknown kernel profile %d", o.Kernels)}
	}
	if o.DropPolicy < DropByCapacityWeight || o.DropPolicy > DropNegativeThenPosition {
		return &OptionError{Opt: "DropPolicy", Detail: fmt.Sprintf("moe: unknown drop policy %d", o.DropPolicy)}
	}
	for e, c := range o.CapacityByExpert {
		if c < 1 {
			return &OptionError{Opt: "CapacityByExpert",
				Detail: fmt.Sprintf("moe: CapacityByExpert[%d] = %d; every per-expert capacity must be >= 1", e, c)}
		}
	}
	return nil
}

// mustCheck panics with the descriptive Check error; pipeline entry
// points run inside SPMD rank bodies and cannot return errors.
func (o PipelineOpts) mustCheck() {
	if err := o.Check(); err != nil {
		panic(err.Error())
	}
}

func (o PipelineOpts) combineBytes(cfg Config) int {
	if o.CombineBytes > 0 {
		return o.CombineBytes
	}
	return cfg.BytesPerElem
}

// chunks returns the effective chunk count C (C=1 is the blocking schedule).
func (o PipelineOpts) chunks() int {
	if o.OverlapChunks > 1 {
		return o.OverlapChunks
	}
	return 1
}

// ExpertParams holds the weights of this rank's local experts: W1[e] is
// [H, HFFN] and W2[e] is [HFFN, H]. Nil in symbolic mode.
type ExpertParams struct {
	W1, W2 []*tensor.Tensor
}

// NewExpertParams initialises numLocal experts' weights deterministically.
func NewExpertParams(rng *tensor.RNG, numLocal, h, f int) *ExpertParams {
	p := &ExpertParams{W1: make([]*tensor.Tensor, numLocal), W2: make([]*tensor.Tensor, numLocal)}
	std1 := float32(0.02)
	for e := 0; e < numLocal; e++ {
		p.W1[e] = tensor.Randn(rng, std1, h, f)
		p.W2[e] = tensor.Randn(rng, std1, f, h)
	}
	return p
}

// LayerResult is the outcome of one distributed MoE layer forward pass.
type LayerResult struct {
	// Output is the [S, H] layer output (nil in symbolic mode).
	Output *tensor.Tensor
	// PFT is the routing buffer used (PFT pipeline only).
	PFT *PFT
	// RoutedTokens is the number of retained (token, expert) rows sent.
	RoutedTokens int
	// RecvTokens is the number of rows this rank's experts processed.
	RecvTokens int
	// Dropped is the number of assignments removed by the drop policy.
	Dropped int
	// State carries the saved intermediates for PFTBackward (PFT
	// pipeline, only when opts.SaveForBackward).
	State *PFTFwdState
	// PaddedState carries the saved intermediates for PaddedBackward
	// (padded pipeline, only when opts.SaveForBackward).
	PaddedState *PaddedFwdState
}

// PFTFwdState is the per-rank forward state the distributed backward pass
// consumes: the PFT, the exchange segmentation, and the expert-FFN
// intermediates. In symbolic mode the tensors are nil and only the
// geometry is populated, which is all the timing-only backward needs.
type PFTFwdState struct {
	S          int
	PFT        *PFT
	RecvCounts [][]int // [src][localExpert]
	BlockOff   [][]int // [localExpert][src] expert-major row offsets
	RowsPerLE  []int
	ExpertIn   *tensor.Tensor // [BExp, H] expert-major
	HidPre     *tensor.Tensor // [BExp, F] pre-activation
	HidAct     *tensor.Tensor // [BExp, F] post-GeLU
	CombineIn  *tensor.Tensor // [B, H] returned expert outputs, PFT order
}

// bExp returns the number of expert-input rows this rank processed.
func (st *PFTFwdState) bExp() int {
	n := 0
	for _, c := range st.RowsPerLE {
		n += c
	}
	return n
}

// PaddedFwdState is the padded pipeline's saved forward state for
// PaddedBackward: the dispatch plan plus the expert-FFN intermediates in
// the expert-major padded layout ((le*P + src)*C + slot row order). In
// symbolic mode the tensors are nil; the even geometry is fully
// determined by the config and group size.
type PaddedFwdState struct {
	S  int
	PA *PaddedAssignment
	// ExpertIn, HidPre, HidAct are the [EPR*P*C, H/F] expert-major
	// buffers of the padded expert computation.
	ExpertIn *tensor.Tensor
	HidPre   *tensor.Tensor
	HidAct   *tensor.Tensor
	// CombineFull is the [E*C, H] returned padded buffer in
	// global-expert slot order (the combine einsum's input).
	CombineFull *tensor.Tensor
}

// RoutedPFT builds the PFT a transport dispatches: the uniform
// Config.Capacity unless opts.CapacityByExpert rebalances it per expert.
// Shared by the PFT pipeline and the RBD dispatcher, so both transports
// see identical routing decisions under mitigation.
func RoutedPFT(routing Routing, cfg Config, s int, opts PipelineOpts) *PFT {
	if opts.CapacityByExpert != nil {
		return BuildPFTCaps(routing, cfg.NumExperts, opts.CapacityByExpert, opts.DropPolicy)
	}
	return BuildPFT(routing, cfg.NumExperts, cfg.Capacity(s), opts.DropPolicy)
}

// epCheck validates the expert-parallel layout and returns experts/rank.
func epCheck(cfg Config, g *simrt.Group) int {
	if cfg.NumExperts%g.Size() != 0 {
		panic(fmt.Sprintf("moe: %d experts not divisible by EP size %d", cfg.NumExperts, g.Size()))
	}
	return cfg.NumExperts / g.Size()
}

// PFTForward executes X-MoE's padding-free MoE layer (paper Listing 1) on
// rank r within EP group g: gating, PFT construction, gather-kernel
// dispatch, uneven all-to-all, expert-major reorder, sequential GEMM
// experts, reverse all-to-all, and the weight-scaling scatter combine. s
// is the local token count; x is the [s, H] input (nil in symbolic mode);
// routing is the gate decision for the local tokens.
func PFTForward(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult {
	opts.mustCheck()
	epCheck(cfg, g)
	h := cfg.HModel
	elem := int64(cfg.BytesPerElem)
	mem := &r.Dev().Mem
	comp := r.C.Comp

	// --- Gate + PFT construction ---------------------------------------
	// Router GEMM [s,H]x[H,E], softmax/top-k, then the sort-based PFT
	// construction (Triton-class passes over the flattened assignments).
	gateTime := comp.GEMM(s, h, cfg.NumExperts) +
		comp.MemBoundN(perfmodel.ClassTriton, 6,
			int64(s*cfg.NumExperts)*elem+int64(s*cfg.TopK)*24)
	r.Compute(StageGate, gateTime)
	pft := RoutedPFT(routing, cfg, s, opts)
	b := pft.B()
	mem.Alloc("eri", pft.ERIBytes())

	// --- Buffer dispatch (gather kernel) --------------------------------
	r.Compute(StageDispatch, comp.MemBound(perfmodel.ClassTriton, 2*int64(b)*int64(h)*elem))
	var dispIn *tensor.Tensor
	if opts.Numeric {
		dispIn = kernels.Gather(x, pft.TokenIDs)
	}
	mem.Alloc("dispatch_in", int64(b)*int64(h)*elem)

	return pftForwardMiddle(r, g, cfg, s, pft, dispIn, params, opts)
}

// PaddedForward executes the conventional zero-padded MoE layer used by
// the DeepSpeed-MoE / DeepSpeed-TED / Tutel baselines (paper §3.1,
// Appendix B.1): dispatch-mask construction, einsum dispatch into
// fixed-capacity [E, C, H] buffers, an even all-to-all that carries the
// padding, batched padded expert GEMMs, the reverse all-to-all, and the
// mask-einsum combine.
func PaddedForward(r *simrt.Rank, g *simrt.Group, cfg Config, s int, x *tensor.Tensor, routing Routing, params *ExpertParams, opts PipelineOpts) LayerResult {
	opts.mustCheck()
	if opts.CapacityByExpert != nil {
		panic((&OptionError{Opt: "CapacityByExpert",
			Detail: "moe: the padded pipeline's even all-to-all requires uniform expert capacity; per-expert rebalance needs the pft or rbd transport"}).Error())
	}
	epCheck(cfg, g)
	h, e := cfg.HModel, cfg.NumExperts
	capTokens := cfg.Capacity(s)
	elem := int64(cfg.BytesPerElem)
	mem := &r.Dev().Mem
	comp := r.C.Comp

	// Two baseline flavours share the padded buffers but differ in how
	// they are produced: DeepSpeed-style frameworks build a dense
	// [S, E, C] mask with a chain of fallback ops and dispatch/combine
	// through mask einsums ("SEC,SH->ECH"); Tutel's tuned (vendor-class)
	// kernels use a sparse cursor-based dispatcher, skipping the dense
	// mask but still writing full capacity-padded buffers.
	vendor := opts.Kernels == KernelsVendor
	kernelClass := perfmodel.ClassFallback
	launches := 12
	maskBytes := int64(s) * int64(e) * int64(capTokens) * (elem + 4)
	intermBytes := int64(s*cfg.TopK*e) * 4
	if vendor {
		kernelClass = perfmodel.ClassVendor
		launches = 6
		maskBytes = 0
		intermBytes = int64(s*cfg.TopK) * 16
	}

	// --- Gate + dispatch-plan construction --------------------------------
	gateTime := comp.GEMM(s, h, e) +
		comp.MemBoundN(kernelClass, launches, maskBytes+intermBytes)
	r.Compute(StageGate, gateTime)
	pa := BuildPaddedAssignment(routing, e, capTokens, opts.DropPolicy)
	mem.Alloc("mask", maskBytes)
	mem.Alloc("mask_interm", intermBytes)

	// --- Buffer dispatch ----------------------------------------------------
	bufBytes := int64(e) * int64(capTokens) * int64(h) * elem
	if vendor {
		r.Compute(StageDispatch, comp.MemBound(perfmodel.ClassVendor, 2*bufBytes))
	} else {
		r.Compute(StageDispatch, comp.MaskEinsum(s, e, capTokens, h))
	}
	var dispBuf *tensor.Tensor
	if opts.Numeric {
		dispBuf = kernels.PaddedDispatch(x, pa.SlotToken, capTokens)
	}
	mem.Alloc("disp_buffer", bufBytes)

	return paddedForwardMiddle(r, g, cfg, s, pa, dispBuf, params, opts, kernelClass, maskBytes, intermBytes)
}
