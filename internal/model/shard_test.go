package model_test

import (
	"fmt"
	"math"
	"strings"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// Tensor-parallel shards (model.NewShard) against the unsharded model. The
// tests sit outside package model so the Pa store is the real ZeRO-R one
// (zero.PartitionedStore over the MP group), and so shard assembly below is
// an oracle written from the Megatron split, not the model's own slicing.

const shardLR = 0.05

func shardConfig() model.Config {
	return model.Config{Layers: 2, Hidden: 16, Heads: 4, Vocab: 19, Seq: 8}
}

// shardCase is one row of the table: MP × DP grid, operand storage and
// where block checkpoints live ("off", "inline", "pa").
type shardCase struct {
	mp, dp int
	fp16   bool
	ckpt   string
}

func (c shardCase) String() string {
	prec := "f32"
	if c.fp16 {
		prec = "fp16"
	}
	return fmt.Sprintf("mp=%d/dp=%d/%s/ckpt=%s", c.mp, c.dp, prec, c.ckpt)
}

// shardRun is what one trajectory leaves behind, indexed by world rank.
type shardRun struct {
	losses  [][]float64 // per rank, per step (DP-averaged)
	grads   [][]float32 // last step's Grads (DP-averaged)
	params  [][]float32 // final Params
	layouts []model.Layout
	mpRank  []int
}

// trainShards runs `steps` steps of plain SGD on a tc.mp × tc.dp world:
// every MP group holds one replica and trains on its 1/dp of the batch, and
// the flat Grads are averaged over the DP group before the update.
func trainShards(t *testing.T, tc shardCase, steps int, ids, targets []int, batch int) shardRun {
	t.Helper()
	cfg := shardConfig()
	n := tc.mp * tc.dp
	run := shardRun{
		losses: make([][]float64, n), grads: make([][]float32, n), params: make([][]float32, n),
		layouts: make([]model.Layout, n), mpRank: make([]int, n),
	}
	var mu sync.Mutex
	comm.NewWorld(n).Run(func(c *comm.Comm) {
		mpg, dpg := c, c
		if tc.dp > 1 {
			var err error
			if mpg, err = c.MPGroup(tc.mp); err == nil {
				dpg, err = c.DPGroup(tc.mp)
			}
			if err != nil {
				t.Error(err)
				return
			}
		}
		m := model.NewShard(cfg, 9, mpg)
		if tc.fp16 {
			m.SetFP16Compute(true)
		}
		m.Checkpoint = tc.ckpt != "off"
		if tc.ckpt == "pa" {
			sched := comm.NewScheduler(mpg)
			defer sched.Close()
			m.Store = zero.NewPartitionedStore(sched.Stream(zero.StreamCheckpoint), false)
		}
		sIDs, sTg, per := ids, targets, batch
		if tc.dp > 1 {
			sIDs, sTg, per = model.ShardBatch(ids, targets, batch, tc.dp, dpg.Rank())
		}
		var losses []float64
		for s := 0; s < steps; s++ {
			m.ZeroGrads()
			loss := m.Loss(sIDs, sTg, per)
			m.Backward()
			if tc.dp > 1 {
				dpg.AllReduceAvg(m.Grads)
				mean := []float32{float32(loss)}
				dpg.AllReduceAvg(mean)
				loss = float64(mean[0])
			}
			losses = append(losses, loss)
			tensor.AXPY(-shardLR, m.Grads, m.Params)
			if tc.fp16 {
				m.RefreshHalfParams(0, len(m.Params))
			}
		}
		mu.Lock()
		defer mu.Unlock()
		r := c.Rank()
		run.losses[r], run.layouts[r], run.mpRank[r] = losses, m.Layout, mpg.Rank()
		run.grads[r] = append([]float32(nil), m.Grads...)
		run.params[r] = append([]float32(nil), m.Params...)
	})
	return run
}

// assemble scatters MP rank shards of a flat buffer back into the full
// layout, from the Megatron split itself: rank r owns heads
// Partition(Heads, mp)[r] — their Q, K and V columns of wqkv/bqkv and their
// rows of wproj — and FFN columns Partition(4h, mp)[r] of w1/b1 and rows of
// w2. Every other segment is replicated and taken from rank 0. It fails the
// test unless the shards tile each full segment exactly once.
func assemble(t *testing.T, cfg model.Config, layouts []model.Layout, shards [][]float32) []float32 {
	t.Helper()
	full := model.BuildLayout(cfg)
	out := make([]float32, full.Total)
	hits := make([]int, full.Total)
	h, mp := cfg.Hidden, len(shards)
	dh := h / cfg.Heads
	put := func(dst int, src []float32) {
		copy(out[dst:], src)
		for i := range src {
			hits[dst+i]++
		}
	}
	for si, fs := range full.Segments {
		_, kind, _ := strings.Cut(fs.Name, ".") // "attn.wqkv" of "block0.attn.wqkv"
		for r, l := range layouts {
			s := l.Segments[si]
			src := shards[r][s.Lo:s.Hi]
			hd := comm.Partition(cfg.Heads, mp)[r]
			q := comm.Range{Lo: hd.Lo * dh, Hi: hd.Hi * dh}
			f := comm.Partition(4*h, mp)[r]
			switch kind {
			case "attn.wqkv", "attn.bqkv":
				rows := 1
				if kind == "attn.wqkv" {
					rows = h
				}
				w := q.Len()
				for i := 0; i < rows; i++ {
					for part := 0; part < 3; part++ {
						put(fs.Lo+i*3*h+part*h+q.Lo, src[(i*3+part)*w:(i*3+part+1)*w])
					}
				}
			case "attn.wproj":
				put(fs.Lo+q.Lo*h, src)
			case "mlp.w1", "mlp.b1":
				rows := 1
				if kind == "mlp.w1" {
					rows = h
				}
				for i := 0; i < rows; i++ {
					put(fs.Lo+i*4*h+f.Lo, src[i*f.Len():(i+1)*f.Len()])
				}
			case "mlp.w2":
				put(fs.Lo+f.Lo*h, src)
			default:
				if r == 0 {
					put(fs.Lo, src)
				}
			}
		}
	}
	for i, c := range hits {
		if c != 1 {
			t.Fatalf("full offset %d covered %d times by the shards", i, c)
		}
	}
	return out
}

// isReplicated reports whether a segment is held whole by every MP rank.
func isReplicated(s model.Segment) bool {
	for _, suf := range []string{".wqkv", ".bqkv", ".wproj", ".w1", ".b1", ".w2"} {
		if strings.HasSuffix(s.Name, suf) {
			return false
		}
	}
	return true
}

// The tensor-parallel shard is the one model block split Megatron-style:
// for every MP degree (including an uneven 4-heads-over-3-ranks split), both
// operand storages and every checkpoint placement, a 3-step SGD trajectory
// matches the unsharded model — bitwise at MP=1, within fp32 (or binary16)
// reassociation above — with the sharded Grads assembled back into the full
// layout. Checkpointing, inline or through Pa, is bitwise neutral at every
// degree; replicated-segment grads agree bitwise across MP ranks; a 2 MP ×
// 2 DP grid that averages the flat Grads over the DP group matches too.
func TestShardMatchesUnsharded(t *testing.T) {
	cfg := shardConfig()
	const steps, batch = 3, 4
	ids, targets := model.SyntheticBatch(41, batch, cfg.Seq, cfg.Vocab)

	var cases []shardCase
	for _, mp := range []int{1, 2, 4, 3} {
		for _, fp16 := range []bool{false, true} {
			for _, ckpt := range []string{"off", "inline", "pa"} {
				cases = append(cases, shardCase{mp, 1, fp16, ckpt})
			}
		}
	}
	cases = append(cases, shardCase{2, 2, false, "off"}, shardCase{2, 2, true, "pa"})

	// The unsharded reference per storage: New itself, no group at all.
	type ref struct {
		losses        []float64
		grads, params []float32
	}
	refs := map[bool]ref{}
	for _, fp16 := range []bool{false, true} {
		m := model.New(cfg, 9)
		m.SetFP16Compute(fp16)
		var r ref
		for s := 0; s < steps; s++ {
			m.ZeroGrads()
			r.losses = append(r.losses, m.Loss(ids, targets, batch))
			m.Backward()
			tensor.AXPY(-shardLR, m.Grads, m.Params)
			if fp16 {
				m.RefreshHalfParams(0, len(m.Params))
			}
		}
		r.grads, r.params = m.Grads, m.Params
		refs[fp16] = r
	}

	noCkpt := map[shardCase]shardRun{}
	for _, tc := range cases {
		t.Run(tc.String(), func(t *testing.T) {
			run := trainShards(t, tc, steps, ids, targets, batch)
			want := refs[tc.fp16]
			// Reassociating the partial sums moves fp32 bits; under fp16
			// a moved bit can flip a binary16 rounding.
			tol := 1e-5
			if tc.fp16 {
				tol = 1e-3
			}
			if tc.mp == 1 && tc.dp == 1 {
				tol = 0
			}
			for r := range run.losses {
				for s, l := range run.losses[r] {
					if d := math.Abs(l - want.losses[s]); d > tol {
						t.Errorf("rank %d step %d: loss %v, unsharded %v (|Δ| %g > %g)", r, s, l, want.losses[s], d, tol)
					}
				}
			}
			// One replica's MP ranks assemble the full buffers; every
			// replica holds the same after the DP average.
			for rep := 0; rep < tc.dp; rep++ {
				ranks := run.layouts[rep*tc.mp : (rep+1)*tc.mp]
				grads := assemble(t, cfg, ranks, run.grads[rep*tc.mp:(rep+1)*tc.mp])
				params := assemble(t, cfg, ranks, run.params[rep*tc.mp:(rep+1)*tc.mp])
				if d := tensor.MaxDiff(grads, want.grads); float64(d) > tol {
					t.Errorf("replica %d: assembled Grads differ from unsharded by %g (> %g)", rep, d, tol)
				}
				if d := tensor.MaxDiff(params, want.params); float64(d) > tol {
					t.Errorf("replica %d: assembled Params differ from unsharded by %g (> %g)", rep, d, tol)
				}
			}
			// Replicated segments: bitwise equal on every MP rank of a
			// replica, with no synchronization of their own.
			for r := range run.grads {
				base := r - run.mpRank[r]
				for si, s := range run.layouts[r].Segments {
					if !isReplicated(s) {
						continue
					}
					s0 := run.layouts[base].Segments[si]
					if d := tensor.MaxDiff(run.grads[r][s.Lo:s.Hi], run.grads[base][s0.Lo:s0.Hi]); d != 0 {
						t.Errorf("rank %d: replicated %s grad differs from MP rank 0 by %g", r, s.Name, d)
					}
				}
			}
			// Checkpointing only moves where the block inputs live.
			if tc.ckpt == "off" {
				noCkpt[tc] = run
			} else if base, ok := noCkpt[shardCase{tc.mp, tc.dp, tc.fp16, "off"}]; ok {
				for r := range run.grads {
					if d := tensor.MaxDiff(run.grads[r], base.grads[r]); d != 0 {
						t.Errorf("rank %d: checkpoint=%s changed Grads by %g", r, tc.ckpt, d)
					}
				}
			}
		})
	}
}

// Each MP rank's flat buffer is the replicated segments plus its own share
// of every sharded tensor: per block 4h layernorm + 2h bias elements,
// 4·h·hw + 3·hw attention elements for its hw = heads·dh columns and
// 2·h·f + f MLP elements for its f FFN columns.
func TestShardLayoutSizes(t *testing.T) {
	cfg := shardConfig()
	h, dh := cfg.Hidden, cfg.Hidden/cfg.Heads
	embed := (cfg.Vocab+cfg.Seq)*h + 2*h
	for _, mp := range []int{1, 2, 3, 4} {
		total := 0
		comm.NewWorld(mp).Run(func(c *comm.Comm) {
			m := model.NewShard(cfg, 1, c)
			hw := comm.Partition(cfg.Heads, mp)[c.Rank()].Len() * dh
			f := comm.Partition(4*h, mp)[c.Rank()].Len()
			want := embed + cfg.Layers*(6*h+4*h*hw+3*hw+2*h*f+f)
			if m.Layout.Total != want || len(m.Params) != want || len(m.Grads) != want {
				t.Errorf("mp=%d rank %d: Layout.Total %d, want %d", mp, c.Rank(), m.Layout.Total, want)
			}
			if c.Rank() == 0 {
				total = m.Layout.Total
			}
		})
		if mp == 1 && total != cfg.ParamCount() {
			t.Errorf("mp=1 holds %d params, want ParamCount %d", total, cfg.ParamCount())
		}
	}
}

// fakeGroup is a Reducer for construction-only checks.
type fakeGroup struct{ rank, size int }

func (fakeGroup) AllReduce([]float32) {}
func (g fakeGroup) Rank() int         { return g.rank }
func (g fakeGroup) Size() int         { return g.size }

// A group larger than the head count would leave a rank with no heads:
// NewShard refuses it instead of building an empty attention shard.
func TestShardMoreRanksThanHeadsPanics(t *testing.T) {
	cfg := shardConfig()
	defer func() {
		if recover() == nil {
			t.Error("NewShard with 5 ranks over 4 heads did not panic")
		}
	}()
	model.NewShard(cfg, 1, fakeGroup{rank: 4, size: cfg.Heads + 1})
}
