package model

import (
	"math"
	"math/rand"

	"repro/internal/tensor"
)

// Model is a GPT-2-like transformer with parameters and gradients stored in
// flat buffers so data-parallel engines (DDP, ZeRO stages 1-3) can
// partition, bucket and gather them by offset.
type Model struct {
	Cfg    Config
	Layout Layout

	// Params is the flat fp32 parameter buffer (the "fp32 master" copy of
	// mixed-precision training).
	Params []float32
	// Grads is the flat gradient buffer, same layout as Params.
	Grads []float32

	// Checkpoint enables activation checkpointing: the forward pass keeps
	// only each block's input and the backward pass recomputes block
	// internals (§3.2's "activation recomputation", the base ZeRO-R builds
	// Pa on).
	Checkpoint bool

	// Store, when non-nil and Checkpoint is on, receives each block's
	// checkpoint instead of it being held inline. ZeRO-R's Pa plugs in
	// here: a store that partitions the checkpoint across the MP group and
	// all-gathers it back on Get (§6.1), or offloads it to host memory
	// (Pa+cpu).
	Store CheckpointStore

	// ForwardHook, when non-nil, is invoked during Loss immediately before
	// each parameter group's compute begins: layer -1 before the embedding
	// lookup, layer i before block i's forward, layer Layers before the
	// final layernorm + tied head. Stage-3 engines use it as the "params
	// must be resident now" synchronization point of §7.2.2's pipelined
	// schedule: wait for this group's prefetched all-gather, launch the
	// next group's. It is not called for the recomputation forwards that
	// checkpointing runs inside Backward (those are covered by
	// BackwardPreHook).
	ForwardHook func(layer int)

	// BackwardPreHook, when non-nil, is invoked during Backward immediately
	// before each parameter group's weights are read: layer Layers before
	// the head/final-layernorm backward (which also reads the tied token
	// embedding), layer i before block i's recomputation and backward.
	// The symmetric synchronization point to ForwardHook for the second
	// parameter gather of stage 3.
	BackwardPreHook func(layer int)

	// BackwardHook, when non-nil, is invoked during Backward immediately
	// after block `layer`'s parameter gradients are final (blocks are
	// visited in reverse order, so layer L-1 fires first). Data-parallel
	// engines use it to launch per-layer gradient collectives while the
	// remaining blocks are still computing — the ZeRO bucketed
	// communication/computation overlap. The hook is not called for the
	// embeddings or final layernorm: the token-embedding gradient keeps
	// accumulating until Backward returns (tied head at the start plus
	// the embedding lookup at the very end), so that segment is only
	// final afterwards. (The final layernorm's own gradients are written
	// once, before the block loop, but share the post-Backward schedule
	// slot for simplicity — they are 2h elements.)
	BackwardHook func(layer int)

	// ParamsH is the binary16 compute copy of Params the fp16 path's
	// kernels read; Params stays the fp32 master. Valid only while
	// FP16Compute is on, refreshed via RefreshHalfParams (see fp16.go).
	ParamsH tensor.HalfBuffer

	// LossScale multiplies dLogits before the backward sweep (dynamic loss
	// scaling; the trainer folds the inverse into its gradient averaging).
	// Zero means 1.
	LossScale float32

	// mp is the tensor-parallel group of a NewShard model, nil unsharded.
	mp Reducer

	// st is the operand storage, f32 or binary16 (fp16.go); Loss and
	// Backward are written once against it.
	st storage

	// ws is the persistent step workspace (activations, gradients,
	// attention scratch), reused across steps; fwd points at it between a
	// Loss and its Backward. See workspace.go for the ownership rules.
	ws  workspace
	fwd *workspace
}

// New creates a model with Gaussian-initialized weights (std 0.02, GPT-2
// style; residual projections scaled by 1/√(2L)) and unit layernorm gains.
func New(cfg Config, seed int64) *Model { return NewShard(cfg, seed, nil) }

// NewShard creates rank g.Rank()'s tensor-parallel shard of New(cfg, seed)
// (Megatron's split, §10.1; see buildLayout): the full parameters are
// initialized exactly as New does and sliced, so every group size computes
// the same function and a nil or size-1 group is New. Loss and Backward are
// then collective over g: each block all-reduces its two row-parallel
// products forward and its two column-parallel input gradients backward.
// Every rank must feed the same batch; replicated gradients come out
// identical on every rank.
func NewShard(cfg Config, seed int64, g Reducer) *Model {
	full := BuildLayout(cfg)
	params := make([]float32, full.Total)
	r := rand.New(rand.NewSource(seed))
	const std = 0.02
	residStd := std / float32(math.Sqrt(2*float64(cfg.Layers)))
	for _, seg := range full.Segments {
		p := params[seg.Lo:seg.Hi]
		switch {
		case hasSuffix(seg.Name, ".gamma"):
			tensor.Fill(p, 1)
		case hasSuffix(seg.Name, ".wproj") || hasSuffix(seg.Name, ".w2"):
			for i := range p {
				p[i] = float32(r.NormFloat64()) * residStd
			}
		case hasSuffix(seg.Name, ".wqkv") || hasSuffix(seg.Name, ".w1") ||
			seg.Name == "tok_emb" || seg.Name == "pos_emb":
			for i := range p {
				p[i] = float32(r.NormFloat64()) * std
			}
		}
	}
	layout := full
	if g != nil && g.Size() > 1 {
		layout = buildLayout(cfg, g.Rank(), g.Size())
		shard := make([]float32, layout.Total)
		for i, seg := range layout.Segments {
			lo := full.Segments[i].Lo
			layout.shardRuns(seg, func(f, l, n int) {
				copy(shard[seg.Lo+l:seg.Lo+l+n], params[lo+f:lo+f+n])
			})
		}
		params = shard
	} else {
		g = nil
	}
	m := &Model{
		Cfg:    cfg,
		Layout: layout,
		Params: params,
		Grads:  make([]float32, layout.Total),
		mp:     g,
	}
	m.st = f32Storage{m}
	return m
}

func hasSuffix(s, suf string) bool {
	return len(s) >= len(suf) && s[len(s)-len(suf):] == suf
}

// NumParams returns the flat parameter count.
func (m *Model) NumParams() int { return m.Layout.Total }

// ZeroGrads clears the gradient buffer.
func (m *Model) ZeroGrads() { tensor.Zero(m.Grads) }

// Loss runs the forward pass on ids/targets (length batch×seqLen each,
// row-major) and returns the mean cross-entropy. State is retained for a
// following Backward call.
func (m *Model) Loss(ids, targets []int, batch int) float64 {
	if len(ids) == 0 || len(ids)%batch != 0 || len(ids) != len(targets) {
		panic("model: ids/targets must be batch x seqLen")
	}
	seqLen := len(ids) / batch
	if seqLen > m.Cfg.Seq {
		panic("model: sequence longer than configured maximum")
	}
	st := m.st
	h := m.Cfg.Hidden
	v := m.Cfg.Vocab
	mRows := batch * seqLen
	ws := &m.ws
	ws.batch, ws.seqLen = batch, seqLen
	ws.ids = append(ws.ids[:0], ids...)
	ws.targets = append(ws.targets[:0], targets...)

	// Embedding: token + position, into the residual stream.
	if m.ForwardHook != nil {
		m.ForwardHook(-1)
	}
	ws.x = grow(ws.x, mRows*h)
	x := ws.x
	for b := 0; b < batch; b++ {
		for t := 0; t < seqLen; t++ {
			id := ids[b*seqLen+t]
			if id < 0 || id >= v {
				panic("model: token id out of range")
			}
			row := x[(b*seqLen+t)*h : (b*seqLen+t+1)*h]
			copy(row, st.vec(&ws.pGamma, m.Layout.tokEmb+id*h, h))
			tensor.Add(row, st.vec(&ws.pBeta, m.Layout.posEmb+t*h, h))
		}
	}
	st.round(x)

	// Blocks, updating the residual stream in place. Under checkpointing
	// each block's input is kept (by the Store, or as a saved tensor of
	// its own) and its internals go to the one shared set.
	if m.Checkpoint && m.Store == nil && len(ws.inputs) != m.Cfg.Layers {
		ws.inputs = make([]operand, m.Cfg.Layers)
	}
	for i := 0; i < m.Cfg.Layers; i++ {
		if m.ForwardHook != nil {
			m.ForwardHook(i)
		}
		if m.Checkpoint {
			if m.Store != nil {
				m.Store.Put(i, x)
			} else {
				// Under fp16 the staging buffer is x itself, so the copy
				// is a no-op and keep encodes x in place.
				in := &ws.inputs[i]
				copy(st.out(in, &ws.x, mRows*h), x)
				st.keep(in, 0, x)
			}
		}
		m.blockForward(i, ws.acts(i, m.Checkpoint, m.Cfg.Layers), x, batch, seqLen)
	}

	// Final layernorm + tied-embedding head. The softmax writes probs over
	// the logits in place, so one [M,v] buffer carries the head into
	// backward.
	if m.ForwardHook != nil {
		m.ForwardHook(m.Cfg.Layers)
	}
	xf := st.out(&ws.xf, &ws.a, mRows*h)
	xhatF := st.out(&ws.xhatF, &ws.mlin, mRows*h)
	ws.invStdF = grow(ws.invStdF, mRows)
	tensor.LayerNorm(xf, xhatF, ws.invStdF, x,
		st.vec(&ws.pGamma, m.Layout.lnF, h), st.vec(&ws.pBeta, m.Layout.lnF+h, h), mRows, h, lnEps)
	st.keep(&ws.xf, 0, xf)
	st.keep(&ws.xhatF, 0, xhatF)

	ws.probs = grow(ws.probs, mRows*v)
	st.mmBT(ws.probs, ws.xf, m.Layout.tokEmb, mRows, h, v)
	loss := tensor.CrossEntropy(ws.probs, ws.probs, ws.targets, mRows, v)

	m.fwd = ws
	return loss
}

// Backward accumulates gradients of the last Loss call into Grads. Call
// after Loss; panics otherwise.
func (m *Model) Backward() {
	ws := m.fwd
	if ws == nil {
		panic("model: Backward without a preceding Loss")
	}
	m.fwd = nil
	st := m.st
	h := m.Cfg.Hidden
	mRows := ws.batch * ws.seqLen
	v := m.Cfg.Vocab

	// The head reads the tied token embedding and the final layernorm's
	// parameters next.
	if m.BackwardPreHook != nil {
		m.BackwardPreHook(m.Cfg.Layers)
	}
	dTok := m.Grads[m.Layout.tokEmb : m.Layout.tokEmb+v*h]
	dPos := m.Grads[m.Layout.posEmb : m.Layout.posEmb+m.Cfg.Seq*h]

	// Head: dLogits (loss-scaled) overwrites the probs in place —
	// CrossEntropyBackward is element-wise — then flows through the tied
	// embedding.
	dLogits := ws.probs
	tensor.CrossEntropyBackward(dLogits, ws.probs, ws.targets, mRows, v)
	if m.LossScale != 0 && m.LossScale != 1 {
		tensor.Scale(dLogits, m.LossScale)
	}
	dl := st.stage(dLogits)
	ws.a = grow(ws.a, mRows*h)
	dXf := ws.a
	st.mm(dXf, dl, m.Layout.tokEmb, mRows, v, h)
	st.mmATAdd(dTok, dl, ws.xf, mRows, v, h)

	// Final layernorm. LayerNormBackward accumulates into dX, so the reused
	// buffer is zeroed first.
	ws.dXa = grow(ws.dXa, mRows*h)
	ws.dXb = grow(ws.dXb, mRows*h)
	dX := ws.dXa
	tensor.Zero(dX)
	dGammaF := m.Grads[m.Layout.lnF : m.Layout.lnF+h]
	dBetaF := m.Grads[m.Layout.lnF+h : m.Layout.lnF+2*h]
	tensor.LayerNormBackward(dX, dGammaF, dBetaF, dXf, st.load(ws.xhatF, &ws.mlin), ws.invStdF,
		st.vec(&ws.pGamma, m.Layout.lnF, h), mRows, h)
	dOut := st.stage(dX)

	// Blocks in reverse, double-buffering the input gradient (block i reads
	// dOut while writing the other buffer). Under checkpointing, recompute
	// each block's internals from its saved input first.
	next := ws.dXb
	for i := m.Cfg.Layers - 1; i >= 0; i-- {
		if m.BackwardPreHook != nil {
			m.BackwardPreHook(i)
		}
		acts := ws.acts(i, m.Checkpoint, m.Cfg.Layers)
		if m.Checkpoint {
			// Without a Store, the f32 input is its own buffer and the
			// recompute overwrites it in place: it is read exactly once.
			x := ws.x
			if m.Store != nil {
				copy(x, m.Store.Get(i))
			} else {
				x = st.load(ws.inputs[i], &ws.x)
			}
			m.blockForward(i, acts, x, ws.batch, ws.seqLen)
		}
		done := dOut.f
		dOut = m.blockBackward(i, acts, dOut, next, ws.batch, ws.seqLen)
		next = done
		if m.BackwardHook != nil {
			m.BackwardHook(i)
		}
	}

	// Embedding gradients.
	dX = dOut.f
	for b := 0; b < ws.batch; b++ {
		for t := 0; t < ws.seqLen; t++ {
			id := ws.ids[b*ws.seqLen+t]
			row := dX[(b*ws.seqLen+t)*h : (b*ws.seqLen+t+1)*h]
			tensor.Add(dTok[id*h:(id+1)*h], row)
			tensor.Add(dPos[t*h:(t+1)*h], row)
		}
	}
}

const lnEps = 1e-5

// Reducer is the model-parallel group a NewShard model all-reduces over;
// *comm.Comm implements it, as the whole world or a Comm.Split/MPGroup
// slice of an MP × DP grid.
type Reducer interface {
	AllReduce(x []float32)
	Rank() int
	Size() int
}

// allReduce sums a shard's partial products over the tensor-parallel group
// (Megatron's "g" forward, "f" backward); a no-op unsharded.
func (m *Model) allReduce(x []float32) {
	if m.mp != nil {
		m.mp.AllReduce(x)
	}
}

// CheckpointStore abstracts where activation checkpoints live between the
// forward and backward passes. Put is called once per block during forward
// and must copy x: the model reuses the buffer for the next block. Get must
// return the identical values during backward (blocks are fetched in
// reverse order); the model copies them out before computing.
type CheckpointStore interface {
	Put(layer int, x []float32)
	Get(layer int) []float32
}
