package mp

import (
	"errors"
	"math"
	"sync"
	"testing"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
)

// mustGroup unwraps a group-construction result inside a rank goroutine;
// construction only fails on inconsistent topologies, which the tests
// exercise separately through the error path.
func mustGroup(g *comm.Comm, err error) *comm.Comm {
	if err != nil {
		panic(err)
	}
	return g
}

// The paper's deployment topology (§10.1): Megatron MP inside each node,
// data parallelism across nodes. This test runs a 4-rank world as a 2×2
// grid — MP groups {0,1} and {2,3}, DP groups {0,2} and {1,3} — with each
// replica computing a one-block shard over its half of the global batch and
// the flat gradients averaged across the DP groups, then checks the result
// against a serial (MP=1) run over the full batch.
func TestTwoDimensionalMPxDP(t *testing.T) {
	const (
		mpSize = 2
		dpSize = 2
		world  = mpSize * dpSize
		perDP  = 2 // batch rows per replica
		batch  = perDP * dpSize
	)
	cfg := model.Config{Layers: 1, Hidden: 16, Heads: 4, Vocab: 13, Seq: 6}
	h, ffn := cfg.Hidden, 4*cfg.Hidden
	ids, targets := model.SyntheticBatch(51, batch, cfg.Seq, cfg.Vocab)

	// Serial reference over the full batch.
	ref := model.New(cfg, 66)
	refLoss := step(ref, ids, targets, batch)
	refDW1 := grads(ref, "block0.mlp.w1")

	losses := make([]float64, world)
	dw1 := make([][]float32, world)
	mpRanks := make([]int, world)
	var mu sync.Mutex
	comm.NewWorld(world).Run(func(c *comm.Comm) {
		mpGroup := mustGroup(c.MPGroup(mpSize))
		dpGroup := mustGroup(c.DPGroup(mpSize))
		m := model.NewShard(cfg, 66, mpGroup)

		// This replica's slice of the global batch.
		sIDs, sTg, per := model.ShardBatch(ids, targets, batch, dpSize, dpGroup.Rank())
		loss := step(m, sIDs, sTg, per)

		// DP gradient sync: average the matching shards across replicas
		// (full-batch mean gradient = mean of the per-replica means).
		dpGroup.AllReduceAvg(m.Grads)

		mu.Lock()
		losses[c.Rank()] = loss
		dw1[c.Rank()] = append([]float32(nil), grads(m, "block0.mlp.w1")...)
		mpRanks[c.Rank()] = mpGroup.Rank()
		mu.Unlock()
	})

	// Forward: the replicas' mean loss is the serial full-batch loss, and
	// both MP ranks of a replica agree on it.
	for local := 0; local < mpSize; local++ {
		mean := (losses[local] + losses[local+mpSize]) / 2
		if d := math.Abs(mean - refLoss); d > 1e-5 {
			t.Errorf("MP rank %d: replica mean loss %v, serial %v", local, mean, refLoss)
		}
	}
	for r := 0; r < world; r++ {
		if base := r - mpRanks[r]; losses[r] != losses[base] {
			t.Errorf("rank %d: loss %v, its MP rank 0 has %v", r, losses[r], losses[base])
		}
	}

	// Backward: the DP-averaged FC1 shard on each rank must equal the
	// corresponding column slice of the serial full-batch gradient.
	parts := comm.Partition(ffn, mpSize)
	for r := 0; r < world; r++ {
		want := columns(refDW1, h, ffn, parts[mpRanks[r]])
		if d := tensor.MaxDiff(dw1[r], want); d > 1e-5 {
			t.Errorf("rank %d: DP-averaged FC1 gradient shard differs from serial by %g", r, d)
		}
	}

	// Both ranks of a DP group hold identical synced shards.
	for local := 0; local < mpSize; local++ {
		if d := tensor.MaxDiff(dw1[local], dw1[local+mpSize]); d != 0 {
			t.Errorf("DP group %d: replicas disagree on the synced gradient by %g", local, d)
		}
	}
}

// Group construction surfaces structured errors (no panics): invalid member
// lists are comm.ErrGroup, indivisible MP widths are comm.ErrTopology.
func TestGroupValidation(t *testing.T) {
	w := comm.NewWorld(4)
	w.Run(func(c *comm.Comm) {
		if c.Rank() != 0 {
			return
		}
		for name, members := range map[string][]int{
			"not a member": {1, 2},
			"duplicate":    {0, 0},
			"out of range": {0, 9},
		} {
			if _, err := c.Subgroup(members); !errors.Is(err, comm.ErrGroup) {
				t.Errorf("%s: err = %v, want comm.ErrGroup", name, err)
			}
		}
		if _, err := c.MPGroup(3); !errors.Is(err, comm.ErrTopology) {
			t.Error("indivisible mpSize must be comm.ErrTopology")
		}
	})
}
