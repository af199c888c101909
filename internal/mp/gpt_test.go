package mp

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
)

const gptVocab, gptSeq = 19, 8

func gptConfig(layers, hidden, heads int) model.Config {
	return model.Config{Layers: layers, Hidden: hidden, Heads: heads, Vocab: gptVocab, Seq: gptSeq}
}

// sgd is one plain SGD update of a shard's flat buffer.
func sgd(m *model.Model, lr float32) { tensor.AXPY(-lr, m.Grads, m.Params) }

// runGPT trains the full model sharded over an n-rank MP group and returns
// every rank's final loss and rank 0's (replicated) token embedding.
func runGPT(n int, cfg model.Config, seed int64, ids, targets []int,
	batch, steps int, lr float32) (loss []float64, tokEmb []float32) {
	losses := make([]float64, n)
	var mu sync.Mutex
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		m := model.NewShard(cfg, seed, c)
		var l float64
		for s := 0; s < steps; s++ {
			l = step(m, ids, targets, batch)
			sgd(m, lr)
		}
		mu.Lock()
		defer mu.Unlock()
		losses[c.Rank()] = l
		if c.Rank() == 0 {
			tokEmb = append([]float32(nil), params(m, "tok_emb")...)
		}
	})
	return losses, tokEmb
}

// MP-degree invariance for the full model: loss and the replicated
// parameter trajectory are independent of how many ranks the blocks are
// sharded over (MP=1 is the serial reference).
func TestGPTDegreeInvariance(t *testing.T) {
	cfg := gptConfig(2, 16, 4)
	const batch, steps = 2, 3
	ids, targets := model.SyntheticBatch(41, batch, gptSeq, gptVocab)

	refLoss, refEmb := runGPT(1, cfg, 9, ids, targets, batch, steps, 0.01)
	for _, n := range []int{2, 4} {
		loss, emb := runGPT(n, cfg, 9, ids, targets, batch, steps, 0.01)
		for r := 0; r < n; r++ {
			if math.Abs(loss[r]-refLoss[0]) > 1e-4 {
				t.Errorf("n=%d rank %d: loss %v != serial %v", n, r, loss[r], refLoss[0])
			}
		}
		if d := tensor.MaxDiff(emb, refEmb); d > 1e-3 {
			t.Errorf("n=%d: trained embeddings differ from serial by %g", n, d)
		}
	}
}

// Replicated gradients (embeddings, layernorms, the row-parallel biases)
// must come out bitwise identical on every MP rank without any
// synchronization: the "g" all-reduces keep the sub-layer outputs
// replicated, so the backward flows are identical.
func TestGPTReplicatedGradsAgreeAcrossRanks(t *testing.T) {
	cfg := gptConfig(2, 16, 4)
	const n, batch = 4, 2
	ids, targets := model.SyntheticBatch(43, batch, gptSeq, gptVocab)
	grads := make([]map[string][]float32, n)
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		m := model.NewShard(cfg, 7, c)
		step(m, ids, targets, batch)
		rep := map[string][]float32{}
		for _, s := range m.Layout.Segments {
			if !isSharded(s.Name) {
				rep[s.Name] = append([]float32(nil), m.Grads[s.Lo:s.Hi]...)
			}
		}
		grads[c.Rank()] = rep
	})
	if len(grads[0]) != 4+6*cfg.Layers {
		t.Fatalf("%d replicated tensors, want %d", len(grads[0]), 4+6*cfg.Layers)
	}
	for r := 1; r < n; r++ {
		for name, g := range grads[0] {
			if d := tensor.MaxDiff(grads[r][name], g); d != 0 {
				t.Errorf("replicated grad %s differs between ranks 0 and %d by %g", name, r, d)
			}
		}
	}
}

// Full-model gradient check at MP=2: finite differences of the collective
// loss through every replicated tensor (perturbed alike on both ranks), and
// through one element of each sharded tensor of the last block on each
// owning rank.
func TestGPTGradientCheck(t *testing.T) {
	cfg := gptConfig(2, 8, 2)
	const n, batch = 2, 1
	ids, targets := model.SyntheticBatch(47, batch, gptSeq, gptVocab)
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		m := model.NewShard(cfg, 13, c)
		step(m, ids, targets, batch)
		analytic := append([]float32(nil), m.Grads...)
		for _, s := range m.Layout.Segments {
			switch {
			case !isSharded(s.Name):
				gradCheck(t, c, m, analytic, ids, targets, batch, s.Name, -1, s.Len()/2)
			case s.Layer == cfg.Layers-1:
				for owner := 0; owner < n; owner++ {
					gradCheck(t, c, m, analytic, ids, targets, batch, s.Name, owner, s.Len()/2)
				}
			}
		}
	})
}

// The full model learns under MP: loss falls over training.
func TestGPTLearns(t *testing.T) {
	cfg := gptConfig(2, 32, 4)
	const batch = 4
	ids, targets := model.SyntheticBatch(61, batch, gptSeq, gptVocab)
	var first, last float64
	comm.NewWorld(2).Run(func(c *comm.Comm) {
		m := model.NewShard(cfg, 5, c)
		for s := 0; s < 25; s++ {
			l := step(m, ids, targets, batch)
			sgd(m, 0.05)
			if c.Rank() == 0 {
				if s == 0 {
					first = l
				}
				last = l
			}
		}
	})
	if last >= first-0.3 {
		t.Errorf("GPT under MP did not learn: %.4f -> %.4f", first, last)
	}
}

// NumParams agrees with Config.ParamCount at MP=1, and at MP=N the shards
// hold every parameter exactly once beyond the replicated tensors.
func TestGPTNumParams(t *testing.T) {
	cfg := gptConfig(2, 16, 2)
	h := cfg.Hidden
	replicated := (cfg.Vocab+cfg.Seq)*h + 2*h + cfg.Layers*6*h
	for _, n := range []int{1, 2} {
		counts := make([]int, n)
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			counts[c.Rank()] = model.NewShard(cfg, 1, c).NumParams()
		})
		sum := 0
		for _, k := range counts {
			sum += k
		}
		if got, want := sum-(n-1)*replicated, cfg.ParamCount(); got != want {
			t.Errorf("n=%d: shards hold %v params (%d net of replicas), want ParamCount %d", n, counts, got, want)
		}
	}
}

// The flagship integration: data parallelism ACROSS nodes with Megatron MP
// INSIDE — a 2 MP × 2 DP grid training the full GPT, verified against the
// same model at MP=2, DP=1 on the full batch.
func TestGPT2DTrainingMatchesSingleReplica(t *testing.T) {
	const (
		mpSize = 2
		batch  = 4
		steps  = 3
		lr     = 0.01
	)
	cfg := gptConfig(2, 16, 4)
	ids, targets := model.SyntheticBatch(53, batch, gptSeq, gptVocab)

	// Reference: one replica (MP=2), full batch.
	ref := make([][]float32, mpSize)
	comm.NewWorld(mpSize).Run(func(c *comm.Comm) {
		m := model.NewShard(cfg, 17, c)
		for s := 0; s < steps; s++ {
			step(m, ids, targets, batch)
			sgd(m, lr)
		}
		ref[c.Rank()] = m.Params
	})

	// 2×2 grid: each replica trains on half the batch; the flat shard
	// gradients are averaged across the DP groups before the step.
	grid := make([][]float32, 2*mpSize)
	mpRank := make([]int, 2*mpSize)
	comm.NewWorld(2 * mpSize).Run(func(c *comm.Comm) {
		mpGroup := mustGroup(c.MPGroup(mpSize))
		dpGroup := mustGroup(c.DPGroup(mpSize))
		m := model.NewShard(cfg, 17, mpGroup)
		sIDs, sTg, per := model.ShardBatch(ids, targets, batch, 2, dpGroup.Rank())
		for s := 0; s < steps; s++ {
			step(m, sIDs, sTg, per)
			dpGroup.AllReduceAvg(m.Grads)
			sgd(m, lr)
		}
		grid[c.Rank()], mpRank[c.Rank()] = m.Params, mpGroup.Rank()
	})

	for r := range grid {
		if d := tensor.MaxDiff(grid[r], ref[mpRank[r]]); d > 2e-4 {
			t.Errorf("rank %d: 2D-trained shard differs from single-replica full batch by %g", r, d)
		}
	}
}
