package mp

import (
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
)

// blockConfig is a one-block model: the replicated embeddings feed the
// block's input and receive its input gradient (dx).
func blockConfig() model.Config {
	return model.Config{Layers: 1, Hidden: 16, Heads: 4, Vocab: 13, Seq: 6}
}

// blockResult is what one forward+backward of a one-block shard leaves on
// MP rank 0: the loss (a function of the block output), the block input
// gradient as it lands in the position embeddings, and the replicated
// layernorm gradients.
type blockResult struct {
	loss       float64
	dx, dGamma []float32
}

func runBlockOnWorld(n int, cfg model.Config, seed int64, ids, targets []int, batch int) blockResult {
	var res blockResult
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		m := model.NewShard(cfg, seed, c)
		loss := step(m, ids, targets, batch)
		if c.Rank() == 0 {
			res = blockResult{
				loss:   loss,
				dx:     append([]float32(nil), grads(m, "pos_emb")...),
				dGamma: append([]float32(nil), grads(m, "block0.ln1.gamma")...),
			}
		}
	})
	return res
}

// The MP degree must be invisible: running the identical block on 1, 2 and
// 4 ranks computes the same function and the same gradients (the MP=1 run
// is the serial reference).
func TestParallelBlockDegreeInvariance(t *testing.T) {
	cfg := blockConfig()
	const batch = 2
	ids, targets := model.SyntheticBatch(21, batch, cfg.Seq, cfg.Vocab)

	ref := runBlockOnWorld(1, cfg, 33, ids, targets, batch)
	for _, n := range []int{2, 4} {
		got := runBlockOnWorld(n, cfg, 33, ids, targets, batch)
		if d := math.Abs(got.loss - ref.loss); d > 1e-5 {
			t.Errorf("n=%d: forward loss differs from serial by %g", n, d)
		}
		if d := tensor.MaxDiff(got.dx, ref.dx); d > 1e-5 {
			t.Errorf("n=%d: dx differs from serial by %g", n, d)
		}
		if d := tensor.MaxDiff(got.dGamma, ref.dGamma); d > 1e-5 {
			t.Errorf("n=%d: layernorm grads differ from serial by %g", n, d)
		}
	}
}

// gradCheck compares rank c's analytic gradient of tensor `name` at its
// local offset i against a central difference of the collective loss. The
// perturbation is applied on rank `owner` only — one logical parameter of a
// sharded tensor — or on every rank when owner < 0 (a replicated tensor,
// which every rank must perturb alike). Every rank must call it.
func gradCheck(t *testing.T, c *comm.Comm, m *model.Model, analytic []float32,
	ids, targets []int, batch int, name string, owner, i int) {
	s := segment(m, name)
	mine := owner < 0 || owner == c.Rank()
	loss := func(delta float32) float64 {
		orig := m.Params[s.Lo+i]
		if mine {
			m.Params[s.Lo+i] = orig + delta
		}
		l := m.Loss(ids, targets, batch)
		m.Params[s.Lo+i] = orig
		return l
	}
	// A wide step keeps float32 rounding of the loss out of the quotient.
	const eps = 1e-2
	numeric := (loss(eps) - loss(-eps)) / (2 * eps)
	if !mine || (owner < 0 && c.Rank() != 0) {
		return
	}
	got := float64(analytic[s.Lo+i])
	tol := 2e-2*math.Max(math.Abs(numeric), math.Abs(got)) + 2e-4
	if math.Abs(got-numeric) > tol {
		t.Errorf("rank %d %s grad[%d]: analytic %.6f numeric %.6f", c.Rank(), name, i, got, numeric)
	}
}

// Gradient check of the sharded block at MP=3 over 3 heads: every
// column- and row-parallel tensor is probed on every owning rank against
// finite differences of the collective loss, plus a replicated layernorm.
func TestParallelBlockGradientCheck(t *testing.T) {
	cfg := model.Config{Layers: 1, Hidden: 12, Heads: 3, Vocab: 11, Seq: 4}
	const n, batch = 3, 2
	ids, targets := model.SyntheticBatch(31, batch, cfg.Seq, cfg.Vocab)
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		m := model.NewShard(cfg, 44, c)
		step(m, ids, targets, batch)
		analytic := append([]float32(nil), m.Grads...)
		for _, name := range []string{"attn.wqkv", "attn.bqkv", "attn.wproj", "mlp.w1", "mlp.b1", "mlp.w2"} {
			name = "block0." + name
			for owner := 0; owner < n; owner++ {
				s := segment(m, name)
				for _, i := range []int{0, s.Len() / 2, s.Len() - 1} {
					gradCheck(t, c, m, analytic, ids, targets, batch, name, owner, i)
				}
			}
		}
		s := segment(m, "block0.ln1.gamma")
		gradCheck(t, c, m, analytic, ids, targets, batch, s.Name, -1, s.Len()/2)
	})
}

// Head sharding: each rank stores 1/N of the attention weights — its
// heads' Q, K and V columns of WQKV/bQKV and their rows of WProj.
func TestAttentionWeightSharding(t *testing.T) {
	cfg := model.Config{Layers: 1, Hidden: 32, Heads: 8, Vocab: 11, Seq: 4}
	h := cfg.Hidden
	for _, n := range []int{2, 4} {
		var mu sync.Mutex
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			m := model.NewShard(cfg, 1, c)
			mu.Lock()
			defer mu.Unlock()
			for _, want := range []struct {
				name string
				n    int
			}{
				{"block0.attn.wqkv", h * 3 * h / n},
				{"block0.attn.bqkv", 3 * h / n},
				{"block0.attn.wproj", h * h / n},
				{"block0.attn.bproj", h},
			} {
				if got := segment(m, want.name).Len(); got != want.n {
					t.Errorf("n=%d rank %d: %s shard %d, want %d", n, c.Rank(), want.name, got, want.n)
				}
			}
		})
	}
}

// countingGroup records the length of every all-reduce the model issues.
type countingGroup struct {
	*comm.Comm
	calls []int
}

func (g *countingGroup) AllReduce(x []float32) {
	g.calls = append(g.calls, len(x))
	g.Comm.AllReduce(x)
}

// The block performs exactly 2 forward + 2 backward all-reduces of
// batch·seq·hidden elements — the §8 accounting without recompute — and 2
// more in backward under activation checkpointing (the recomputed forward).
func TestBlockAllReduceCount(t *testing.T) {
	cfg := model.Config{Layers: 2, Hidden: 16, Heads: 4, Vocab: 11, Seq: 8}
	const n, batch = 4, 2
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	msg := batch * cfg.Seq * cfg.Hidden
	for _, ckpt := range []bool{false, true} {
		wantBwd := 2
		if ckpt {
			wantBwd = 4
		}
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			g := &countingGroup{Comm: c}
			m := model.NewShard(cfg, 5, g)
			m.Checkpoint = ckpt
			m.ZeroGrads()
			m.Loss(ids, targets, batch)
			fwd := len(g.calls)
			m.Backward()
			bwd := len(g.calls) - fwd
			if fwd != 2*cfg.Layers || bwd != wantBwd*cfg.Layers {
				t.Errorf("ckpt=%v rank %d: %d forward + %d backward all-reduces, want %d + %d",
					ckpt, c.Rank(), fwd, bwd, 2*cfg.Layers, wantBwd*cfg.Layers)
			}
			for i, l := range g.calls {
				if l != msg {
					t.Errorf("ckpt=%v rank %d: all-reduce %d of %d elems, want M·h = %d", ckpt, c.Rank(), i, l, msg)
				}
			}
		})
	}
}
