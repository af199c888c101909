package model

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"testing"

	"repro/internal/tensor"
)

// The fp16 path must track the f32 path closely at init: same near-uniform
// loss, and gradients that agree to fp16 rounding noise.
func TestFP16LossAndGradsTrackF32(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	ids, targets := SyntheticBatch(7, 2, cfg.Seq, cfg.Vocab)

	ref := New(cfg, 42)
	ref.ZeroGrads()
	lossF := ref.Loss(ids, targets, 2)
	ref.Backward()

	half := New(cfg, 42)
	half.SetFP16Compute(true)
	half.ZeroGrads()
	lossH := half.Loss(ids, targets, 2)
	half.Backward()

	if math.Abs(lossH-lossF) > 0.02*math.Abs(lossF) {
		t.Errorf("fp16 loss %.5f drifts from f32 loss %.5f", lossH, lossF)
	}
	if half.TakeOverflow() {
		t.Error("unexpected overflow on a well-scaled batch")
	}
	// Relative L2 error of the full gradient.
	var num, den float64
	for i := range ref.Grads {
		d := float64(half.Grads[i] - ref.Grads[i])
		num += d * d
		den += float64(ref.Grads[i]) * float64(ref.Grads[i])
	}
	if den == 0 {
		t.Fatal("degenerate reference gradient")
	}
	if rel := math.Sqrt(num / den); rel > 0.05 {
		t.Errorf("fp16 gradient relative L2 error %.4f > 0.05", rel)
	}
}

// The fp16 path is deterministic: two models with the same seed produce
// bitwise-identical losses and gradients.
func TestFP16Deterministic(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(3, 2, cfg.Seq, cfg.Vocab)
	run := func() (float64, []float32) {
		m := New(cfg, 7)
		m.SetFP16Compute(true)
		m.ZeroGrads()
		l := m.Loss(ids, targets, 2)
		m.Backward()
		return l, append([]float32(nil), m.Grads...)
	}
	l1, g1 := run()
	l2, g2 := run()
	if l1 != l2 {
		t.Errorf("same seed, different fp16 loss: %v vs %v", l1, l2)
	}
	if d := tensor.MaxDiff(g1, g2); d != 0 {
		t.Errorf("same seed, different fp16 grads: %g", d)
	}
}

// Loss scaling: the forward loss is unaffected, and gradients computed at
// scale S are S times the unscaled gradients (the backward d-stream is
// linear in dLogits) up to fp16 rounding at the staging boundaries.
func TestFP16LossScaleScalesGradients(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(5, 2, cfg.Seq, cfg.Vocab)

	base := New(cfg, 13)
	base.SetFP16Compute(true)
	base.ZeroGrads()
	lossBase := base.Loss(ids, targets, 2)
	base.Backward()

	scaled := New(cfg, 13)
	scaled.SetFP16Compute(true)
	scaled.LossScale = 1024
	scaled.ZeroGrads()
	lossScaled := scaled.Loss(ids, targets, 2)
	scaled.Backward()

	if lossBase != lossScaled {
		t.Errorf("loss scale leaked into the forward pass: %v vs %v", lossBase, lossScaled)
	}
	var num, den float64
	for i := range base.Grads {
		d := float64(scaled.Grads[i]/1024 - base.Grads[i])
		num += d * d
		den += float64(base.Grads[i]) * float64(base.Grads[i])
	}
	if rel := math.Sqrt(num / den); rel > 0.01 {
		t.Errorf("unscaled gradients drift by relative L2 %.5f", rel)
	}
}

// An absurd loss scale overflows the fp16 gradient stores; TakeOverflow
// must report it once and clear.
func TestFP16OverflowDetection(t *testing.T) {
	cfg := tinyConfig()
	ids, targets := SyntheticBatch(9, 2, cfg.Seq, cfg.Vocab)
	m := New(cfg, 21)
	m.SetFP16Compute(true)
	m.LossScale = 1e30
	m.ZeroGrads()
	m.Loss(ids, targets, 2)
	m.Backward()
	if !m.TakeOverflow() {
		t.Fatal("loss scale 1e30 did not overflow fp16 gradient stores")
	}
	if m.TakeOverflow() {
		t.Error("overflow flag did not clear")
	}
	// A sane scale on the same model recovers cleanly.
	m.LossScale = 1
	m.ZeroGrads()
	m.Loss(ids, targets, 2)
	m.Backward()
	if m.TakeOverflow() {
		t.Error("overflow persisted after backing off the loss scale")
	}
	if tensor.HasNaNOrInf(m.Grads) {
		t.Error("non-finite gradients after recovery")
	}
}

// SGD on the fp16 path (fp32 master update + half-copy refresh every step)
// must learn the synthetic pattern like the f32 path does.
func TestFP16TrainingReducesLoss(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	m := New(cfg, 5)
	m.SetFP16Compute(true)
	ids, targets := SyntheticBatch(21, 4, cfg.Seq, cfg.Vocab)
	first := m.Loss(ids, targets, 4)
	loss := first
	const lr = 0.05
	for step := 0; step < 30; step++ {
		m.ZeroGrads()
		loss = m.Loss(ids, targets, 4)
		m.Backward()
		tensor.AXPY(-lr, m.Grads, m.Params)
		m.RefreshHalfParams(0, len(m.Params))
	}
	if loss >= first-0.3 {
		t.Errorf("fp16 loss did not fall: %.4f -> %.4f", first, loss)
	}
}

// Compute residency (step workspace plus the parameter copy the kernels
// read: fp32 Params on the f32 path, 2-byte ParamsH on the fp16 path —
// the master then counts as optimizer state, per the paper's accounting)
// must come in under 60% of the f32 baseline at a bench-representative
// shape. This is the model-level half of the acceptance gate.
func TestFP16ResidencyUnder60Percent(t *testing.T) {
	cfg := Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 512, Seq: 32}
	ids, targets := SyntheticBatch(3, 2, cfg.Seq, cfg.Vocab)

	ref := New(cfg, 1)
	ref.ZeroGrads()
	ref.Loss(ids, targets, 2)
	ref.Backward()
	f32Bytes := ref.WorkspaceBytes() + int64(len(ref.Params))*tensor.BytesPerFloat32

	half := New(cfg, 1)
	half.SetFP16Compute(true)
	half.ZeroGrads()
	half.Loss(ids, targets, 2)
	half.Backward()
	fp16Bytes := half.WorkspaceBytes() + half.ParamsH.Bytes()

	if fp16Bytes >= f32Bytes*3/5 {
		t.Errorf("fp16 residency %d B is not under 60%% of f32 residency %d B (%.1f%%)",
			fp16Bytes, f32Bytes, 100*float64(fp16Bytes)/float64(f32Bytes))
	}
}

// Backward on the fp16 path requires a preceding Loss, like the f32 path.
func TestFP16BackwardWithoutLossPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("expected panic")
		}
	}()
	m := New(tinyConfig(), 1)
	m.SetFP16Compute(true)
	m.Backward()
}

// gradsHash is an FNV-1a digest of the gradient buffer's exact bits.
func gradsHash(g []float32) uint64 {
	h := fnv.New64a()
	var b [4]byte
	for _, v := range g {
		binary.LittleEndian.PutUint32(b[:], math.Float32bits(v))
		h.Write(b[:])
	}
	return h.Sum64()
}

// Bitwise golden for the fp16 path: one Loss/Backward at loss scale 1024
// must reproduce these exact loss bits, gradient bits and overflow flag.
// Tolerance tests against f32 cannot tell a reordered rounding point from
// an unchanged path; this one can.
func TestFP16BitwiseGolden(t *testing.T) {
	const (
		wantLossBits  = uint64(0x4006ae855aac66ca)
		wantGradsHash = uint64(0xeabf88b4ec1cb8b4)
	)
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	ids, targets := SyntheticBatch(7, 2, cfg.Seq, cfg.Vocab)
	m := New(cfg, 42)
	m.SetFP16Compute(true)
	m.LossScale = 1024
	m.ZeroGrads()
	loss := m.Loss(ids, targets, 2)
	m.Backward()
	if got := math.Float64bits(loss); got != wantLossBits {
		t.Errorf("fp16 loss %.17g (bits %#x), want bits %#x", loss, got, wantLossBits)
	}
	if got := gradsHash(m.Grads); got != wantGradsHash {
		t.Errorf("fp16 grads hash %#x, want %#x", got, wantGradsHash)
	}
	if m.TakeOverflow() {
		t.Error("unexpected overflow at loss scale 1024")
	}
}

// fp16 storage checkpoints like f32: inline checkpoints and a Store both
// recompute exactly the floats the non-checkpointed fp16 pass saves, so
// loss, gradients and the overflow flag are bitwise unchanged.
func TestFP16CheckpointMatchesVanilla(t *testing.T) {
	cfg := Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 17, Seq: 16}
	ids, targets := SyntheticBatch(7, 2, cfg.Seq, cfg.Vocab)
	run := func(ckpt bool, store CheckpointStore) (float64, []float32, bool) {
		m := New(cfg, 42)
		m.SetFP16Compute(true)
		m.LossScale = 1024
		m.Checkpoint = ckpt
		m.Store = store
		m.ZeroGrads()
		l := m.Loss(ids, targets, 2)
		m.Backward()
		return l, m.Grads, m.TakeOverflow()
	}
	lv, gv, ov := run(false, nil)
	for _, tc := range []struct {
		name  string
		store CheckpointStore
	}{{"inline", nil}, {"store", newCopyStore()}} {
		l, g, o := run(true, tc.store)
		if l != lv || o != ov {
			t.Errorf("%s: loss %v overflow %v, want %v %v", tc.name, l, o, lv, ov)
		}
		if d := tensor.MaxDiff(gv, g); d != 0 {
			t.Errorf("%s: gradients differ under checkpointing by %g", tc.name, d)
		}
	}
}
