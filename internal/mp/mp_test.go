// Package mp holds the Megatron tensor-parallelism contract tests (§10.1,
// the paper's model-parallel baseline). The tensor-parallel model itself is
// model.NewShard — the one GPT block split over an MP group — and these
// tests drive it through its public surface only: per-rank shard layouts,
// the collective Loss/Backward, and the traffic the group puts on the
// wire. The package has no code of its own.
package mp

import (
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
)

// segment returns the named tensor of m's (possibly sharded) layout.
func segment(m *model.Model, name string) model.Segment {
	for _, s := range m.Layout.Segments {
		if s.Name == name {
			return s
		}
	}
	panic(fmt.Sprintf("mp test: model has no segment %q", name))
}

func params(m *model.Model, name string) []float32 {
	s := segment(m, name)
	return m.Params[s.Lo:s.Hi]
}

func grads(m *model.Model, name string) []float32 {
	s := segment(m, name)
	return m.Grads[s.Lo:s.Hi]
}

// isSharded reports whether a segment is split over the MP group (the
// attention QKV columns and projection rows, the MLP's FFN columns and
// rows); everything else is replicated on every MP rank.
func isSharded(name string) bool {
	for _, suf := range []string{".wqkv", ".bqkv", ".wproj", ".w1", ".b1", ".w2"} {
		if strings.HasSuffix(name, suf) {
			return true
		}
	}
	return false
}

// columns copies columns cols of a rows×width row-major matrix.
func columns(full []float32, rows, width int, cols comm.Range) []float32 {
	out := make([]float32, 0, rows*cols.Len())
	for i := 0; i < rows; i++ {
		out = append(out, full[i*width+cols.Lo:i*width+cols.Hi]...)
	}
	return out
}

// step runs one forward+backward and returns the loss.
func step(m *model.Model, ids, targets []int, batch int) float64 {
	m.ZeroGrads()
	loss := m.Loss(ids, targets, batch)
	m.Backward()
	return loss
}

// mlpConfig has 5 heads and 4h = 40 FFN columns, so MP degrees 2..4 split
// the heads unevenly and MP=3 splits the FFN columns unevenly too.
func mlpConfig() model.Config {
	return model.Config{Layers: 1, Hidden: 10, Heads: 5, Vocab: 11, Seq: 6}
}

// The MLP of every MP rank holds FFN columns Partition(4h, N)[r]: those
// columns of W1/b1 and those rows of W2, sliced bitwise from the unsharded
// weights. Its gradients assembled back from the shards equal the serial
// MLP's, for every MP degree including ones that do not divide 4h evenly.
func TestParallelMLPMatchesSerial(t *testing.T) {
	cfg := mlpConfig()
	h, ffn := cfg.Hidden, 4*cfg.Hidden
	const batch = 2
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)

	ref := model.New(cfg, 77)
	refLoss := step(ref, ids, targets, batch)

	for _, n := range []int{1, 2, 3, 4} {
		dw1 := make([]float32, h*ffn)
		db1 := make([]float32, ffn)
		dw2 := make([]float32, ffn*h)
		var mu sync.Mutex
		comm.NewWorld(n).Run(func(c *comm.Comm) {
			m := model.NewShard(cfg, 77, c)
			f := comm.Partition(ffn, n)[c.Rank()]
			mu.Lock()
			if d := tensor.MaxDiff(params(m, "block0.mlp.w1"), columns(params(ref, "block0.mlp.w1"), h, ffn, f)); d != 0 {
				t.Errorf("n=%d rank %d: W1 shard is not columns %v of the serial W1 (off by %g)", n, c.Rank(), f, d)
			}
			if d := tensor.MaxDiff(params(m, "block0.mlp.w2"), params(ref, "block0.mlp.w2")[f.Lo*h:f.Hi*h]); d != 0 {
				t.Errorf("n=%d rank %d: W2 shard is not rows %v of the serial W2 (off by %g)", n, c.Rank(), f, d)
			}
			mu.Unlock()

			loss := step(m, ids, targets, batch)

			mu.Lock()
			defer mu.Unlock()
			if d := loss - refLoss; d > 1e-5 || d < -1e-5 {
				t.Errorf("n=%d rank %d: loss %v, serial %v", n, c.Rank(), loss, refLoss)
			}
			g1 := grads(m, "block0.mlp.w1")
			for i := 0; i < h; i++ {
				copy(dw1[i*ffn+f.Lo:i*ffn+f.Hi], g1[i*f.Len():(i+1)*f.Len()])
			}
			copy(db1[f.Lo:f.Hi], grads(m, "block0.mlp.b1"))
			copy(dw2[f.Lo*h:f.Hi*h], grads(m, "block0.mlp.w2"))
		})
		for _, p := range []struct {
			name string
			got  []float32
		}{{"w1", dw1}, {"b1", db1}, {"w2", dw2}} {
			if d := tensor.MaxDiff(p.got, grads(ref, "block0.mlp."+p.name)); d > 1e-5 {
				t.Errorf("n=%d: assembled d%s differs from serial by %g", n, p.name, d)
			}
		}
	}
}

// Each rank stores only its shard: 1/N of each MLP weight matrix (±1 FFN
// column's worth when N does not divide 4h).
func TestWeightSharding(t *testing.T) {
	for _, cfg := range []model.Config{
		{Layers: 1, Hidden: 16, Heads: 4, Vocab: 11, Seq: 6},
		mlpConfig(),
	} {
		h := cfg.Hidden
		full := h * 4 * h
		for _, n := range []int{2, 3, 4} {
			var mu sync.Mutex
			comm.NewWorld(n).Run(func(c *comm.Comm) {
				m := model.NewShard(cfg, 3, c)
				want := h * comm.Partition(4*h, n)[c.Rank()].Len()
				mu.Lock()
				defer mu.Unlock()
				for _, name := range []string{"block0.mlp.w1", "block0.mlp.w2"} {
					got := segment(m, name).Len()
					if got != want || got > full/n+h {
						t.Errorf("h=%d n=%d rank %d: %s shard %d elems, want %d ≈ %d/%d", h, n, c.Rank(), name, got, want, full, n)
					}
				}
			})
		}
	}
}

// MP communication pattern: per block one all-reduce forward after each
// row-parallel product ("g") and one backward before each column-parallel
// input ("f"), each of M×h elements on a ring → per-rank wire volume
// 4·2·M·h·(N-1)/N per block forward+backward, and nothing else.
func TestMPCommVolume(t *testing.T) {
	cfg := model.Config{Layers: 2, Hidden: 8, Heads: 4, Vocab: 11, Seq: 4}
	const n, batch = 4, 2
	ids, targets := model.SyntheticBatch(9, batch, cfg.Seq, cfg.Vocab)
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		step(model.NewShard(cfg, 5, c), ids, targets, batch)
	})
	m := batch * cfg.Seq
	want := int64(cfg.Layers * 4 * 2 * m * cfg.Hidden * (n - 1) / n)
	for r := 0; r < n; r++ {
		if got := w.Stats(r).ElemsSent; got != want {
			t.Errorf("rank %d sent %d elems, want %d", r, got, want)
		}
	}
}
