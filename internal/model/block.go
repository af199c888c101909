package model

import (
	"math"

	"repro/internal/tensor"
)

// causalMask is added to attention scores above the diagonal; large enough
// that exp underflows to zero after the softmax max-shift.
const causalMask = -1e9

// blockForward computes one transformer block on the residual stream x
// ([M,h]), overwriting x with the block output and saving into acts exactly
// the tensors blockBackward reads. Every kernel writes its destination in
// full, so stale values from the previous step never leak into the math.
// Saved tensors are computed into st.out's buffer and then kept; under fp16
// storage each stage names the shared fp32 buffer it borrows.
func (m *Model) blockForward(i int, acts *blockActs, x []float32, batch, seqLen int) {
	h := m.Cfg.Hidden
	heads, dh := m.Layout.heads.Len(), m.Layout.dh
	hw := heads * dh
	ffn := m.Layout.ffn.Len()
	mRows := batch * seqLen
	off := m.Layout.blocks[i]
	st := m.st
	ws := &m.ws

	// LN1.
	a := st.out(&acts.a, &ws.a, mRows*h)
	xhat := st.out(&acts.xhat1, &ws.mlin, mRows*h)
	acts.invStd1 = grow(acts.invStd1, mRows)
	tensor.LayerNorm(a, xhat, acts.invStd1, x,
		st.vec(&ws.pGamma, off.ln1Gamma, h), st.vec(&ws.pBeta, off.ln1Beta, h), mRows, h, lnEps)
	st.keep(&acts.xhat1, 0, xhat)
	st.keep(&acts.a, 0, a)

	// QKV projection.
	qkv := st.out(&acts.qkv, &ws.qkv, mRows*3*hw)
	st.mm(qkv, acts.a, off.wQKV, mRows, h, 3*hw)
	tensor.AddBiasRows(qkv, st.vec(&ws.pBias, off.bQKV, 3*hw), mRows, 3*hw)
	st.keep(&acts.qkv, 0, qkv)

	// Multi-head causal self-attention. Each head's softmax is kept before
	// the context matmul reads it, so backward replays the same
	// probabilities.
	allProbs := st.out(&acts.probs, &ws.attn, batch*heads*seqLen*seqLen)
	ctx := st.out(&acts.ctx, &ws.ctx, mRows*hw)
	scale := float32(1 / math.Sqrt(float64(dh)))
	ws.qh = grow(ws.qh, seqLen*dh)
	ws.kh = grow(ws.kh, seqLen*dh)
	ws.vh = grow(ws.vh, seqLen*dh)
	ws.ctxh = grow(ws.ctxh, seqLen*dh)
	qh, kh, vh, ctxh := ws.qh, ws.kh, ws.vh, ws.ctxh
	for b := 0; b < batch; b++ {
		for hd := 0; hd < heads; hd++ {
			m.gatherHead(qkv, qh, kh, vh, b, hd, batch, seqLen)
			lo := (b*heads + hd) * seqLen * seqLen
			probs := allProbs[lo : lo+seqLen*seqLen]
			tensor.MatMulBT(probs, qh, kh, seqLen, dh, seqLen)
			for t := 0; t < seqLen; t++ {
				row := probs[t*seqLen : (t+1)*seqLen]
				for u := range row {
					if u > t {
						row[u] = causalMask
					} else {
						row[u] *= scale
					}
				}
			}
			tensor.SoftmaxRows(probs, probs, seqLen, seqLen)
			st.keep(&acts.probs, lo, probs)
			tensor.MatMul(ctxh, probs, vh, seqLen, seqLen, dh)
			// Scatter the head's context back into [M,h].
			for t := 0; t < seqLen; t++ {
				copy(ctx[(b*seqLen+t)*hw+hd*dh:(b*seqLen+t)*hw+(hd+1)*dh], ctxh[t*dh:(t+1)*dh])
			}
		}
	}
	st.keep(&acts.ctx, 0, ctx)

	// Output projection + residual: x2 = proj(ctx) + x. A shard's wproj
	// (and below its w2) product is a partial sum over its heads (its FFN
	// columns), all-reduced before the replicated bias is added.
	ws.x2 = grow(ws.x2, mRows*h)
	x2 := ws.x2
	st.mm(x2, acts.ctx, off.wProj, mRows, hw, h)
	m.allReduce(x2)
	tensor.AddBiasRows(x2, st.vec(&ws.pBias, off.bProj, h), mRows, h)
	tensor.Add(x2, x)
	st.round(x2)

	// LN2 + MLP + residual.
	mlin := st.out(&acts.mlin, &ws.mlin, mRows*h)
	xhat = st.out(&acts.xhat2, &ws.a, mRows*h)
	acts.invStd2 = grow(acts.invStd2, mRows)
	tensor.LayerNorm(mlin, xhat, acts.invStd2, x2,
		st.vec(&ws.pGamma, off.ln2Gamma, h), st.vec(&ws.pBeta, off.ln2Beta, h), mRows, h, lnEps)
	st.keep(&acts.xhat2, 0, xhat)
	st.keep(&acts.mlin, 0, mlin)

	h1 := st.out(&acts.h1, &ws.h1, mRows*ffn)
	st.mm(h1, acts.mlin, off.wFC1, mRows, h, ffn)
	tensor.AddBiasRows(h1, st.vec(&ws.pBias, off.bFC1, ffn), mRows, ffn)
	st.keep(&acts.h1, 0, h1)
	g := st.out(&acts.g, &ws.g, mRows*ffn)
	tensor.GELU(g, h1)
	st.keep(&acts.g, 0, g)

	st.mm(x, acts.g, off.wFC2, mRows, ffn, h)
	m.allReduce(x)
	tensor.AddBiasRows(x, st.vec(&ws.pBias, off.bFC2, h), mRows, h)
	tensor.Add(x, x2)
	st.round(x)
}

// gatherHead copies one (sample, local head) slice of the packed [Q|K|V]
// activations into contiguous [T,dh] scratch matrices.
func (m *Model) gatherHead(qkv, qh, kh, vh []float32, b, hd, batch, seqLen int) {
	dh := m.Layout.dh
	hw := m.Layout.heads.Len() * dh
	for t := 0; t < seqLen; t++ {
		base := (b*seqLen + t) * 3 * hw
		copy(qh[t*dh:(t+1)*dh], qkv[base+hd*dh:base+(hd+1)*dh])
		copy(kh[t*dh:(t+1)*dh], qkv[base+hw+hd*dh:base+hw+(hd+1)*dh])
		copy(vh[t*dh:(t+1)*dh], qkv[base+2*hw+hd*dh:base+2*hw+(hd+1)*dh])
	}
}

// blockBackward consumes dOut (gradient of the block output) and the
// tensors blockForward saved, accumulates parameter gradients, and writes
// the gradient with respect to the block input into dst (which must not
// alias dOut; the caller double-buffers), returning it as the next block's
// dOut. Scratch reused across steps is either fully overwritten by the
// overwrite-kernels (MatMul/MatMulBT, copies) or explicitly zeroed before
// an accumulating kernel (GELUBackward, SoftmaxRowsBackward).
//
// The d-tensors reuse the layer's fp32 working set: dX2 in x2, dG in g,
// dMlin in mlin, dCtx in ctx, dQKV in h1 and dA in a. Under fp16 storage
// saved tensors decode into the staging buffers that are free at that
// point (h1, a and mlin for the two xhats, qkv, attn).
func (m *Model) blockBackward(i int, acts *blockActs, dOut operand, dst []float32, batch, seqLen int) operand {
	h := m.Cfg.Hidden
	heads, dh := m.Layout.heads.Len(), m.Layout.dh
	hw := heads * dh
	ffn := m.Layout.ffn.Len()
	mRows := batch * seqLen
	off := m.Layout.blocks[i]
	g := m.Grads
	st := m.st
	ws := &m.ws

	// Residual: out = x2 + MLP(LN2(x2)) ⇒ dx2 starts as dOut.
	ws.x2 = grow(ws.x2, mRows*h)
	dX2 := ws.x2
	copy(dX2, dOut.f)

	// MLP backward.
	ws.g = grow(ws.g, mRows*ffn)
	dG := ws.g
	st.mmBT(dG, dOut, off.wFC2, mRows, h, ffn)
	st.mmATAdd(g[off.wFC2:off.wFC2+ffn*h], acts.g, dOut, mRows, ffn, h)
	tensor.BiasGradRows(g[off.bFC2:off.bFC2+h], dOut.f, mRows, h)
	ws.dH1 = grow(ws.dH1, mRows*ffn)
	dH1 := ws.dH1
	tensor.Zero(dH1) // GELUBackward accumulates
	tensor.GELUBackward(dH1, dG, st.load(acts.h1, &ws.h1))
	dh1 := st.stage(dH1)
	ws.mlin = grow(ws.mlin, mRows*h)
	dMlin := ws.mlin
	st.mmBT(dMlin, dh1, off.wFC1, mRows, ffn, h)
	m.allReduce(dMlin) // a shard's dMlin flows through its FFN columns only
	st.mmATAdd(g[off.wFC1:off.wFC1+h*ffn], acts.mlin, dh1, mRows, h, ffn)
	tensor.BiasGradRows(g[off.bFC1:off.bFC1+ffn], dH1, mRows, ffn)
	tensor.LayerNormBackward(dX2, g[off.ln2Gamma:off.ln2Gamma+h], g[off.ln2Beta:off.ln2Beta+h],
		dMlin, st.load(acts.xhat2, &ws.a), acts.invStd2, st.vec(&ws.pGamma, off.ln2Gamma, h), mRows, h)

	// Attention output projection backward (dAttnOut == dX2: x2 = x + attnOut).
	dx2 := st.stage(dX2)
	ws.ctx = grow(ws.ctx, mRows*hw)
	dCtx := ws.ctx
	st.mmBT(dCtx, dx2, off.wProj, mRows, h, hw)
	st.mmATAdd(g[off.wProj:off.wProj+hw*h], acts.ctx, dx2, mRows, hw, h)
	tensor.BiasGradRows(g[off.bProj:off.bProj+h], dX2, mRows, h)

	// Attention core backward, per (sample, head).
	qkv := st.load(acts.qkv, &ws.qkv)
	allProbs := st.load(acts.probs, &ws.attn)
	ws.h1 = grow(ws.h1, mRows*3*hw)
	dQKV := ws.h1
	scale := float32(1 / math.Sqrt(float64(dh)))
	ws.qh = grow(ws.qh, seqLen*dh)
	ws.kh = grow(ws.kh, seqLen*dh)
	ws.vh = grow(ws.vh, seqLen*dh)
	ws.dctxh = grow(ws.dctxh, seqLen*dh)
	ws.dP = grow(ws.dP, seqLen*seqLen)
	ws.dS = grow(ws.dS, seqLen*seqLen)
	ws.dqh = grow(ws.dqh, seqLen*dh)
	ws.dkh = grow(ws.dkh, seqLen*dh)
	ws.dvh = grow(ws.dvh, seqLen*dh)
	qh, kh, vh := ws.qh, ws.kh, ws.vh
	dctxh, dP, dS := ws.dctxh, ws.dP, ws.dS
	dqh, dkh, dvh := ws.dqh, ws.dkh, ws.dvh
	for b := 0; b < batch; b++ {
		for hd := 0; hd < heads; hd++ {
			m.gatherHead(qkv, qh, kh, vh, b, hd, batch, seqLen)
			probs := allProbs[(b*heads+hd)*seqLen*seqLen : (b*heads+hd+1)*seqLen*seqLen]
			for t := 0; t < seqLen; t++ {
				copy(dctxh[t*dh:(t+1)*dh], dCtx[(b*seqLen+t)*hw+hd*dh:(b*seqLen+t)*hw+(hd+1)*dh])
			}
			// ctx = P·V.
			tensor.MatMulBT(dP, dctxh, vh, seqLen, dh, seqLen)
			tensor.MatMulAT(dvh, probs, dctxh, seqLen, seqLen, dh)
			// Softmax.
			tensor.Zero(dS)
			tensor.SoftmaxRowsBackward(dS, dP, probs, seqLen, seqLen)
			// Scale (applied to scores before softmax).
			tensor.Scale(dS, scale)
			// scores = scale·Q·Kᵀ.
			tensor.MatMul(dqh, dS, kh, seqLen, seqLen, dh)
			tensor.MatMulAT(dkh, dS, qh, seqLen, seqLen, dh)
			// Scatter head gradients into packed dQKV.
			for t := 0; t < seqLen; t++ {
				base := (b*seqLen + t) * 3 * hw
				copy(dQKV[base+hd*dh:base+(hd+1)*dh], dqh[t*dh:(t+1)*dh])
				copy(dQKV[base+hw+hd*dh:base+hw+(hd+1)*dh], dkh[t*dh:(t+1)*dh])
				copy(dQKV[base+2*hw+hd*dh:base+2*hw+(hd+1)*dh], dvh[t*dh:(t+1)*dh])
			}
		}
	}

	// QKV projection backward.
	dqkv := st.stage(dQKV)
	ws.a = grow(ws.a, mRows*h)
	dA := ws.a
	st.mmBT(dA, dqkv, off.wQKV, mRows, 3*hw, h)
	m.allReduce(dA) // a shard's dA flows through its heads only
	st.mmATAdd(g[off.wQKV:off.wQKV+h*3*hw], acts.a, dqkv, mRows, h, 3*hw)
	tensor.BiasGradRows(g[off.bQKV:off.bQKV+3*hw], dQKV, mRows, 3*hw)

	// LN1 + residual: dx = dx2 (residual) + LN1-backward(dA).
	copy(dst, dX2)
	tensor.LayerNormBackward(dst, g[off.ln1Gamma:off.ln1Gamma+h], g[off.ln1Beta:off.ln1Beta+h],
		dA, st.load(acts.xhat1, &ws.mlin), acts.invStd1, st.vec(&ws.pGamma, off.ln1Gamma, h), mRows, h)
	return st.stage(dst)
}
