// Package ddp holds the data-parallel baseline's contract tests: classic
// PyTorch-DDP-style training, every rank replicating parameters, gradients
// and the full Adam state, is zero.Trainer at zero.StageDDP (the degenerate
// stage-0 case of the one code path). The package has no code of its own.
package ddp

import (
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/optimizer"
	"repro/internal/tensor"
	"repro/internal/zero"
)

// ddpBucketElems mirrors DDP's ~25MB gradient fusion buckets.
const ddpBucketElems = 1 << 22

func testConfig() model.Config {
	return model.Config{Layers: 2, Hidden: 16, Heads: 2, Vocab: 19, Seq: 8}
}

// newDDP builds a rank's replicated-state trainer on an optional node
// topology (nodeSize 0 is flat).
func newDDP(c *comm.Comm, cfg model.Config, seed int64, lr float64, nodeSize int) (*zero.Trainer, error) {
	return zero.New(c, cfg, zero.Options{
		Stage:       zero.StageDDP,
		LR:          lr,
		Seed:        seed,
		BucketElems: ddpBucketElems,
		Topology:    zero.Topology{NodeSize: nodeSize},
	})
}

// mustDDP is newDDP on a flat topology, which cannot fail for a valid cfg.
func mustDDP(c *comm.Comm, cfg model.Config, seed int64, lr float64) *zero.Trainer {
	tr, err := newDDP(c, cfg, seed, lr, 0)
	if err != nil {
		panic(err)
	}
	return tr
}

// singleProcessReference trains the same model on the full batch in one
// process with loss averaged the same way DDP's per-rank mean + all-reduce
// average composes (equal shards → same mean).
func singleProcessReference(cfg model.Config, seed int64, lr float64, ids, targets []int, batch, steps int) []float32 {
	m := model.New(cfg, seed)
	opt := optimizer.NewAdam(cfg.ParamCount(), lr)
	for s := 0; s < steps; s++ {
		m.ZeroGrads()
		m.Loss(ids, targets, batch)
		m.Backward()
		opt.Step(m.Params, m.Grads)
	}
	return m.Params
}

// DDP across N ranks must reproduce single-process full-batch training up
// to float32 reduction rounding — the correctness contract data parallelism
// promises (§2.1) and the reference point for every ZeRO stage.
func TestDDPMatchesSingleProcess(t *testing.T) {
	cfg := testConfig()
	const batch, steps, lr = 4, 5, 1e-3
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	want := singleProcessReference(cfg, 7, lr, ids, targets, batch, steps)

	for _, n := range []int{1, 2, 4} {
		w := comm.NewWorld(n)
		results := make([][]float32, n)
		w.Run(func(c *comm.Comm) {
			tr := mustDDP(c, cfg, 7, lr)
			defer tr.Close()
			for s := 0; s < steps; s++ {
				tr.Step(ids, targets, batch)
			}
			results[c.Rank()] = append([]float32(nil), tr.Model.Params...)
		})
		for r := 0; r < n; r++ {
			if d := tensor.MaxDiff(results[r], want); d > 2e-4 {
				t.Errorf("n=%d rank %d: params differ from single-process by %g", n, r, d)
			}
		}
		// All replicas must agree bitwise (they saw identical reduced grads).
		for r := 1; r < n; r++ {
			if d := tensor.MaxDiff(results[r], results[0]); d != 0 {
				t.Errorf("n=%d: replicas %d and 0 diverged by %g", n, r, d)
			}
		}
	}
}

// Bucketed and unfused all-reduce must be numerically identical: bucketing
// only changes message framing.
func TestBucketingDoesNotChangeResult(t *testing.T) {
	cfg := testConfig()
	ids, targets := model.SyntheticBatch(5, 4, cfg.Seq, cfg.Vocab)

	run := func(bucket int) []float32 {
		w := comm.NewWorld(2)
		var out []float32
		var mu sync.Mutex
		w.Run(func(c *comm.Comm) {
			tr := mustDDP(c, cfg, 11, 1e-3)
			defer tr.Close()
			tr.BucketElems = bucket
			for s := 0; s < 3; s++ {
				tr.Step(ids, targets, 4)
			}
			if c.Rank() == 0 {
				mu.Lock()
				out = append([]float32(nil), tr.Model.Params...)
				mu.Unlock()
			}
		})
		return out
	}
	unfused := run(0)
	bucketed := run(100) // tiny buckets, many waves
	if d := tensor.MaxDiff(unfused, bucketed); d != 0 {
		t.Errorf("bucketed all-reduce changed the result by %g", d)
	}
}

// DDP communication volume: 2Ψ(N-1)/N elements per rank per step (§7.1).
func TestDDPCommunicationVolume(t *testing.T) {
	cfg := testConfig()
	psi := int64(cfg.ParamCount())
	ids, targets := model.SyntheticBatch(9, 4, cfg.Seq, cfg.Vocab)
	const n = 4
	w := comm.NewWorld(n)
	w.Run(func(c *comm.Comm) {
		tr := mustDDP(c, cfg, 1, 1e-3)
		defer tr.Close()
		tr.BucketElems = 0
		tr.Step(ids, targets, 4)
	})
	want := 2 * psi * (n - 1) / n
	for r := 0; r < n; r++ {
		got := w.Stats(r).ElemsSent
		// Partition remainders cost at most a few elements per phase.
		if got < want || got > want+2*int64(n) {
			t.Errorf("rank %d sent %d elems, want %d (= 2Ψ(N-1)/N)", r, got, want)
		}
	}
}

// Replicated model-state accounting: 16 bytes per parameter (§3.1's 16Ψ).
func TestDDPModelStateBytes(t *testing.T) {
	cfg := testConfig()
	w := comm.NewWorld(1)
	w.Run(func(c *comm.Comm) {
		tr := mustDDP(c, cfg, 1, 1e-3)
		defer tr.Close()
		want := int64(cfg.ParamCount()) * 16
		if got := tr.ModelStateBytes(); got != want {
			t.Errorf("ModelStateBytes = %d, want %d", got, want)
		}
	})
}

// Loss must fall under DDP training just as in single-process mode.
func TestDDPLearns(t *testing.T) {
	cfg := model.Config{Layers: 2, Hidden: 32, Heads: 4, Vocab: 13, Seq: 12}
	ids, targets := model.SyntheticBatch(17, 4, cfg.Seq, cfg.Vocab)
	w := comm.NewWorld(2)
	losses := make([]float64, 2)
	w.Run(func(c *comm.Comm) {
		tr := mustDDP(c, cfg, 23, 5e-3)
		defer tr.Close()
		var last float64
		for s := 0; s < 25; s++ {
			last = tr.Step(ids, targets, 4)
		}
		losses[c.Rank()] = last
	})
	first := 0.0
	{
		m := model.New(cfg, 23)
		sIDs, sTg, per := model.ShardBatch(ids, targets, 4, 2, 0)
		first = m.Loss(sIDs, sTg, per)
	}
	for r, l := range losses {
		if l >= first-0.2 {
			t.Errorf("rank %d: loss did not fall (%.4f -> %.4f)", r, first, l)
		}
	}
}

// Hierarchical DDP: the stage-0 trainer on a node topology must still
// match single-process training (the two-level reduction reassociates
// floats but computes the same sums), keep every replica bitwise in
// agreement, and actually cut the inter-node share of the all-reduce by
// the node width.
func TestDDPHierarchicalTopology(t *testing.T) {
	cfg := testConfig()
	const n, nodeSize, batch, steps, lr = 4, 2, 4, 5, 1e-3
	ids, targets := model.SyntheticBatch(3, batch, cfg.Seq, cfg.Vocab)
	want := singleProcessReference(cfg, 7, lr, ids, targets, batch, steps)

	w := comm.NewWorld(n)
	results := make([][]float32, n)
	w.Run(func(c *comm.Comm) {
		tr, err := newDDP(c, cfg, 7, lr, nodeSize)
		if err != nil {
			t.Error(err)
			return
		}
		defer tr.Close()
		tr.BucketElems = 0
		for s := 0; s < steps; s++ {
			tr.Step(ids, targets, batch)
		}
		results[c.Rank()] = append([]float32(nil), tr.Model.Params...)
	})
	for r := 0; r < n; r++ {
		if d := tensor.MaxDiff(results[r], want); d > 2e-4 {
			t.Errorf("rank %d: params differ from single-process by %g", r, d)
		}
	}
	for r := 1; r < n; r++ {
		if d := tensor.MaxDiff(results[r], results[0]); d != 0 {
			t.Errorf("replicas %d and 0 diverged by %g", r, d)
		}
	}
	// Per-rank inter-node volume: 2·(Ψ/S)·(M-1)/M elems per step.
	st := w.Stats(0)
	inter := st.PerGroup["hier-inter"].Elems
	psi := int64(cfg.ParamCount())
	wantInter := int64(steps) * 2 * (psi / nodeSize) * int64(n/nodeSize-1) / int64(n/nodeSize)
	// Partition rounding can shift a rank's share by a few elements.
	if diff := inter - wantInter; diff < -int64(steps*n) || diff > int64(steps*n) {
		t.Errorf("inter-node elems %d, want ≈%d", inter, wantInter)
	}
	if st.PerGroup["hier-intra"].Elems == 0 {
		t.Error("no intra-node traffic recorded")
	}

	// Invalid node widths surface as topology errors from the constructor.
	w2 := comm.NewWorld(4)
	w2.Run(func(c *comm.Comm) {
		if c.Rank() != 0 {
			return
		}
		if _, err := newDDP(c, cfg, 7, lr, 3); err == nil {
			t.Error("indivisible nodeSize must fail zero.New")
		}
	})
}
