package model

import "repro/internal/tensor"

// The model's step workspace: every activation, gradient and attention
// scratch buffer the forward/backward pass needs, retained across steps so
// the steady-state training loop performs no heap allocation (the same
// discipline ZeRO-R's constant buffers apply to real training runs, §6.3).
// Buffers grow to the high-water mark of the shapes seen and are reused by
// capacity; ReleaseWorkspace hands everything back to the GC at trainer
// teardown so sequential trainers never double-resident their scratch.
//
// Ownership rule: a buffer returned by grow has UNDEFINED contents. Every
// use below either fully overwrites it (matmul/layernorm/softmax forward
// kernels, explicit copies) or zeroes it first when the consuming kernel
// accumulates (see the tensor package's *Backward conventions).

// operand is one tensor as the kernels read it: f holds fp32 values, h a
// binary16 image. Each storage fills and reads only the field it owns
// (fp16.go), except that a staged fp16 d-tensor carries both.
type operand struct {
	f []float32
	h tensor.HalfBuffer
}

func (o operand) bytes() int64 {
	return int64(cap(o.f))*tensor.BytesPerFloat32 + int64(cap(o.h))*tensor.BytesPerHalf
}

// blockActs holds exactly the tensors one block's backward pass reads.
// The inverse standard deviations stay fp32 under either storage: they are
// O(M) and precision-critical.
type blockActs struct {
	xhat1, a, qkv, probs, ctx, xhat2, mlin, h1, g operand
	invStd1, invStd2                              []float32
}

func (a *blockActs) bytes() int64 {
	n := int64(cap(a.invStd1)+cap(a.invStd2)) * tensor.BytesPerFloat32
	for _, o := range [...]operand{a.xhat1, a.a, a.qkv, a.probs, a.ctx, a.xhat2, a.mlin, a.h1, a.g} {
		n += o.bytes()
	}
	return n
}

// workspace holds the per-model scratch. It doubles as the saved forward
// state: Loss fills the activation fields and Backward consumes them.
type workspace struct {
	// saved forward state
	batch, seqLen int
	ids           []int
	targets       []int
	blocks        []blockActs // per-block saved tensors (no Checkpoint)
	shared        blockActs   // the one set Checkpoint recomputes into
	inputs        []operand   // per-block inputs (Checkpoint, no Store)
	xf, xhatF     operand     // final layernorm output and normalized input
	invStdF       []float32
	probs         []float32 // [M,v] logits, probs after Loss, dLogits in Backward

	// One layer's fp32 working set, shared by every block. Forward: x is
	// the residual stream and x2 the post-attention residual; under fp16
	// storage a, qkv, attn, ctx, mlin, h1 and g stage the saved tensors on
	// their way into binary16. Backward reuses them for the d-tensors (see
	// blockBackward); dXa/dXb double-buffer the input gradient.
	x, x2, a, qkv, attn, ctx, mlin, h1, g []float32
	dH1, dXa, dXb                         []float32

	// per-(sample, head) attention scratch, shared by forward and backward
	qh, kh, vh, ctxh []float32
	dctxh, dP, dS    []float32
	dqh, dkh, dvh    []float32

	// fp16 storage only: the binary16 image of the d-tensor feeding the
	// next matmuls, the parameter decode scratch, and the overflow latch
	// (any binary16 store overflowed since TakeOverflow).
	hStage               tensor.HalfBuffer
	pGamma, pBeta, pBias []float32
	overflow             bool
}

// acts returns block i's saved-tensor set: its own, or under checkpointing
// the one shared set every block recomputes into.
func (ws *workspace) acts(i int, checkpoint bool, layers int) *blockActs {
	if checkpoint {
		return &ws.shared
	}
	if len(ws.blocks) != layers {
		ws.blocks = make([]blockActs, layers)
	}
	return &ws.blocks[i]
}

// grow returns a slice of length n backed by buf when its capacity
// suffices, or a fresh allocation that becomes the new high-water buffer.
// Contents are undefined (see the ownership rule above).
func grow(buf []float32, n int) []float32 {
	if cap(buf) >= n {
		return buf[:n]
	}
	return make([]float32, n)
}

// growH is grow for binary16 buffers.
func growH(buf tensor.HalfBuffer, n int) tensor.HalfBuffer {
	if cap(buf) >= n {
		return buf[:n]
	}
	return tensor.NewHalfBuffer(n)
}

// ReleaseWorkspace drops every retained scratch buffer (and any pending
// forward state), returning the memory to the GC — the teardown hook
// zero.Trainer.Close uses so two sequential trainers in one process never
// hold two workspaces at once.
func (m *Model) ReleaseWorkspace() {
	m.ws = workspace{}
	m.fwd = nil
}

// WorkspaceBytes reports the bytes currently retained by the step
// workspace — the measurable form of the pool-hygiene contract.
func (m *Model) WorkspaceBytes() int64 {
	ws := &m.ws
	var n int
	for _, b := range [][]float32{
		ws.invStdF, ws.probs,
		ws.x, ws.x2, ws.a, ws.qkv, ws.attn, ws.ctx, ws.mlin, ws.h1, ws.g,
		ws.dH1, ws.dXa, ws.dXb,
		ws.qh, ws.kh, ws.vh, ws.ctxh, ws.dctxh, ws.dP, ws.dS,
		ws.dqh, ws.dkh, ws.dvh,
		ws.pGamma, ws.pBeta, ws.pBias,
	} {
		n += cap(b)
	}
	total := int64(n)*tensor.BytesPerFloat32 + int64(cap(ws.hStage))*tensor.BytesPerHalf +
		ws.xf.bytes() + ws.xhatF.bytes() + int64(cap(ws.ids)+cap(ws.targets))*8
	for _, in := range ws.inputs {
		total += in.bytes()
	}
	total += ws.shared.bytes()
	for i := range ws.blocks {
		total += ws.blocks[i].bytes()
	}
	return total
}
