package zero

import (
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/tensor"
)

// These tests close the loop on §8 with the real Megatron-parallel model
// (model.NewShard over the MP group):
// under activation checkpointing a transformer block's measured MP traffic
// is exactly the 12·B·s·h of the paper's analysis (2 forward + 2 recompute
// + 2 backward all-reduces), and ZeRO-R's Pa — partitioning the block
// inputs across the MP group, which genuinely replicates them — adds
// exactly one all-gather per block, i.e. 1/12 of that.

var paCfg = model.Config{Layers: 2, Hidden: 16, Heads: 4, Vocab: 17, Seq: 8}

const paBatch = 2

// stepGPT runs one forward+backward of the MP-sharded model on an n-rank
// MP group and returns the world for traffic inspection plus rank 0's
// Grads and loss.
func stepGPT(n int, checkpoint, pa bool) (*comm.World, []float32, float64) {
	ids, targets := model.SyntheticBatch(71, paBatch, paCfg.Seq, paCfg.Vocab)
	w := comm.NewWorld(n)
	grads := make([][]float32, n)
	losses := make([]float64, n)
	w.Run(func(c *comm.Comm) {
		m := model.NewShard(paCfg, 23, c)
		m.Checkpoint = checkpoint
		if pa {
			st, closeSched := checkpointStream(c)
			defer closeSched()
			m.Store = NewPartitionedStore(st, false)
		}
		m.ZeroGrads()
		losses[c.Rank()] = m.Loss(ids, targets, paBatch)
		m.Backward()
		grads[c.Rank()] = m.Grads
	})
	return w, grads[0], losses[0]
}

// Checkpointed training of the MP-sharded model is numerically identical
// to vanilla (it recomputes the same floats), with or without Pa.
func TestGPTCheckpointAndPaAreNumericallyNeutral(t *testing.T) {
	_, vanilla, lossV := stepGPT(4, false, false)
	_, ckpt, lossC := stepGPT(4, true, false)
	_, paGrads, lossP := stepGPT(4, true, true)
	if lossV != lossC || lossV != lossP {
		t.Fatalf("losses differ: vanilla %v ckpt %v pa %v", lossV, lossC, lossP)
	}
	if d := tensor.MaxDiff(vanilla, ckpt); d != 0 {
		t.Errorf("checkpointing changed gradients by %g", d)
	}
	if d := tensor.MaxDiff(vanilla, paGrads); d != 0 {
		t.Errorf("Pa changed gradients by %g", d)
	}
}

// §8's block traffic identity, measured exactly at MP=4: without
// checkpointing a block costs 4 all-reduces of M·h (the forward "g" after
// wproj and w2, the backward "f" for the attention and MLP inputs); with
// recompute it is 6 — perfmodel.BlockAllReduceElems, the paper's 12 ×
// batch × seq × hidden — and Pa adds exactly one all-gather of M·h per
// block, perfmodel.PaOverheadElems. A ring moves (N-1)/N of each per rank,
// and nothing else in the model communicates.
func TestSection8TrafficIdentitiesMeasured(t *testing.T) {
	const n = 4
	ring := func(elems int64) int64 { return elems * (n - 1) / n }
	block := perfmodel.BlockAllReduceElems(paBatch, paCfg.Seq, paCfg.Hidden)
	layers := int64(paCfg.Layers)
	for _, tc := range []struct {
		name           string
		checkpoint, pa bool
		want           int64
	}{
		{"vanilla", false, false, layers * ring(block*4/6)},
		{"checkpoint", true, false, layers * ring(block)},
		{"checkpoint+Pa", true, true,
			layers * (ring(block) + ring(perfmodel.PaOverheadElems(paBatch, paCfg.Seq, paCfg.Hidden)))},
	} {
		w, _, _ := stepGPT(n, tc.checkpoint, tc.pa)
		for r := 0; r < n; r++ {
			if got := w.Stats(r).ElemsSent; got != tc.want {
				t.Errorf("%s: rank %d sent %d elems, want %d", tc.name, r, got, tc.want)
			}
		}
	}
}

// Pa's memory claim in its real setting: each MP rank retains only 1/Nm of
// every checkpoint.
func TestPaShrinksCheckpointResidency(t *testing.T) {
	const n = 4
	ids, targets := model.SyntheticBatch(73, paBatch, paCfg.Seq, paCfg.Vocab)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		st, closeSched := checkpointStream(c)
		defer closeSched()
		store := NewPartitionedStore(st, false)
		m := model.NewShard(paCfg, 23, c)
		m.Checkpoint = true
		m.Store = store
		m.ZeroGrads()
		m.Loss(ids, targets, paBatch)
		fullBytes := int64(paCfg.Layers * paBatch * paCfg.Seq * paCfg.Hidden * 2)
		if got := store.DeviceBytes(); got != fullBytes/n {
			t.Errorf("rank %d: resident checkpoint bytes %d, want %d (1/%d of %d)",
				c.Rank(), got, fullBytes/n, n, fullBytes)
		}
		m.Backward()
	})
}
