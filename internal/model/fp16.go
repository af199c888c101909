package model

import "repro/internal/tensor"

// Operand storage. Loss, Backward, blockForward and blockBackward are
// written once; the only parameter is how operands are stored, f32 or
// binary16 — the GPU mixed-precision contract (§3.1 of the ZeRO paper)
// realized in storage. A storage decides three things:
//
//   - Where a saved activation lives. f32 keeps each saved tensor in its
//     own fp32 buffer and the kernels write it directly. fp16 computes it
//     into one layer's shared fp32 staging buffer and keeps a 2-byte
//     binary16 store (FromFloatsRound, which rounds the staging in place so
//     the fp32 image always equals what the store decodes to).
//   - What a rounding point does: nothing in f32; in fp16, RoundHalfCheck.
//     Every fp16 store and rounding point feeds the overflow latch that
//     TakeOverflow surfaces to the trainer for dynamic loss scaling.
//   - Which matmul and weight view a call uses: MatMul* on Params in f32;
//     the fused half-domain MatMul*H on ParamsH in fp16 (fp16 operands,
//     fp32 accumulation). Elementwise kernels (layernorm, softmax, GELU)
//     and the per-head attention core run on fp32 images in both, with
//     layernorm gains and biases decoded from ParamsH in fp16.
//
// Params stays the fp32 master (the optimizer's domain) and weight
// gradients accumulate in fp32 Grads under either storage. The retention
// rule is the same for both: per block, exactly the tensors backward
// reads; under Checkpoint, only each block's input, with the rest
// recomputed into one shared set.

// storage is the operand storage Loss/Backward compute against.
type storage interface {
	// out returns the fp32 buffer a kernel writes saved tensor t into (n
	// elements): t's own buffer, or the shared staging buffer *stage.
	out(t *operand, stage *[]float32, n int) []float32
	// keep stores x, just computed into out's buffer, as t[lo:lo+len(x)].
	keep(t *operand, lo int, x []float32)
	// load returns saved tensor t's fp32 values: t's own buffer, or its
	// binary16 store decoded into *stage.
	load(t operand, stage *[]float32) []float32
	// round is a rounding point for an fp32 tensor that is not saved.
	round(x []float32)
	// stage rounds a d-tensor into a matmul operand. Its binary16 image
	// is valid until the next stage call.
	stage(x []float32) operand
	// vec returns Params[off:off+n] as fp32: a view, or decoded into *buf.
	vec(buf *[]float32, off, n int) []float32
	// mm computes c[m×n] = a[m×k] · W[k×n] for the weight at offset w.
	mm(c []float32, a operand, w, m, k, n int)
	// mmBT computes c[m×k] = a[m×n] · W[k×n]ᵀ for the weight at offset w.
	mmBT(c []float32, a operand, w, m, n, k int)
	// mmATAdd accumulates c[k×n] += a[m×k]ᵀ · b[m×n].
	mmATAdd(c []float32, a, b operand, m, k, n int)
}

// f32Storage keeps every operand in fp32: rounding points are no-ops and
// every kernel is the plain f32 one.
type f32Storage struct{ m *Model }

func (f32Storage) out(t *operand, _ *[]float32, n int) []float32 {
	t.f = grow(t.f, n)
	return t.f
}
func (f32Storage) keep(*operand, int, []float32)          {}
func (f32Storage) load(t operand, _ *[]float32) []float32 { return t.f }
func (f32Storage) round([]float32)                        {}
func (f32Storage) stage(x []float32) operand              { return operand{f: x} }
func (s f32Storage) vec(_ *[]float32, off, n int) []float32 {
	return s.m.Params[off : off+n]
}
func (s f32Storage) mm(c []float32, a operand, w, m, k, n int) {
	tensor.MatMul(c, a.f, s.m.Params[w:w+k*n], m, k, n)
}
func (s f32Storage) mmBT(c []float32, a operand, w, m, n, k int) {
	tensor.MatMulBT(c, a.f, s.m.Params[w:w+k*n], m, n, k)
}
func (f32Storage) mmATAdd(c []float32, a, b operand, m, k, n int) {
	tensor.MatMulATAdd(c, a.f, b.f, m, k, n)
}

// halfStorage keeps saved tensors, d-tensor matmul operands and the weights
// the kernels read in binary16.
type halfStorage struct{ m *Model }

func (s halfStorage) latch(overflow bool) {
	s.m.ws.overflow = overflow || s.m.ws.overflow
}
func (halfStorage) out(t *operand, stage *[]float32, n int) []float32 {
	t.h = growH(t.h, n)
	*stage = grow(*stage, n)
	return *stage
}
func (s halfStorage) keep(t *operand, lo int, x []float32) {
	s.latch(t.h[lo : lo+len(x)].FromFloatsRound(x))
}
func (halfStorage) load(t operand, stage *[]float32) []float32 {
	*stage = grow(*stage, len(t.h))
	t.h.ToFloats(*stage)
	return *stage
}
func (s halfStorage) round(x []float32) { s.latch(tensor.RoundHalfCheck(x)) }
func (s halfStorage) stage(x []float32) operand {
	ws := &s.m.ws
	ws.hStage = growH(ws.hStage, len(x))
	s.latch(ws.hStage.FromFloatsRound(x))
	return operand{f: x, h: ws.hStage}
}
func (s halfStorage) vec(buf *[]float32, off, n int) []float32 {
	*buf = grow(*buf, n)
	s.m.ParamsH[off : off+n].ToFloats(*buf)
	return *buf
}
func (s halfStorage) mm(c []float32, a operand, w, m, k, n int) {
	tensor.MatMulH(c, a.h, s.m.ParamsH[w:w+k*n], m, k, n)
}
func (s halfStorage) mmBT(c []float32, a operand, w, m, n, k int) {
	tensor.MatMulBTH(c, a.h, s.m.ParamsH[w:w+k*n], m, n, k)
}
func (halfStorage) mmATAdd(c []float32, a, b operand, m, k, n int) {
	tensor.MatMulATAddH(c, a.h, b.h, m, k, n)
}

// SetFP16Compute switches the model onto binary16 operand storage (and
// back). Enabling allocates the ParamsH compute copy and encodes the
// current master into it; callers that mutate Params afterwards must
// RefreshHalfParams the touched range.
func (m *Model) SetFP16Compute(on bool) {
	if !on {
		m.st = f32Storage{m}
		return
	}
	m.st = halfStorage{m}
	if cap(m.ParamsH) < len(m.Params) {
		m.ParamsH = tensor.NewHalfBuffer(len(m.Params))
	}
	m.ParamsH = m.ParamsH[:len(m.Params)]
	m.RefreshHalfParams(0, len(m.Params))
	if m.LossScale == 0 {
		m.LossScale = 1
	}
}

// FP16Compute reports whether binary16 operand storage is active.
func (m *Model) FP16Compute() bool {
	_, half := m.st.(halfStorage)
	return half
}

// RefreshHalfParams re-encodes Params[lo:hi] into the fp16 compute copy —
// the writeback point after the optimizer (or a parameter all-gather)
// changes the fp32 master.
func (m *Model) RefreshHalfParams(lo, hi int) {
	m.ParamsH[lo:hi].FromFloats(m.Params[lo:hi])
}

// TakeOverflow returns and clears the workspace overflow flag: whether any
// fp16 store since the last call overflowed to ±Inf/NaN. The trainer polls
// it per micro-batch to drive dynamic loss scaling.
func (m *Model) TakeOverflow() bool {
	o := m.ws.overflow
	m.ws.overflow = false
	return o
}
