// mp2d: the paper's deployment topology (§10.1) at laptop scale — Megatron
// tensor model parallelism inside each "node", data parallelism across
// them. An 8-rank world becomes a 4-way-MP × 2-way-DP grid; each replica
// trains the model's tensor-parallel shard (model.NewShard: head-parallel
// attention + column/row-split MLP) over its half of the batch, and the
// flat gradient buffers are averaged across the DP groups.
package main

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/tensor"
)

func main() {
	const (
		mpSize = 4
		dpSize = 2
		world  = mpSize * dpSize
		perDP  = 4
		steps  = 5
	)
	cfg := model.Config{Layers: 2, Hidden: 64, Heads: 8, Vocab: 64, Seq: 16}
	batch := perDP * dpSize
	ids, targets := model.SyntheticBatch(42, batch, cfg.Seq, cfg.Vocab)

	fmt.Printf("topology: %d ranks = %d-way MP (in-node) x %d-way DP (across nodes)\n",
		world, mpSize, dpSize)
	fmt.Printf("model: %d layers, hidden %d, %d attention heads (%d heads per MP rank)\n\n",
		cfg.Layers, cfg.Hidden, cfg.Heads, cfg.Heads/mpSize)

	w := comm.NewWorld(world)
	w.Run(func(c *comm.Comm) {
		// Comm.Split carves the world into process groups MPI-style:
		// MPGroup/DPGroup are Split(color=node, key=rank) and
		// Split(color=slot, key=rank) with "mp"/"dp" traffic labels.
		mpGroup, err := c.MPGroup(mpSize)
		if err != nil {
			panic(err)
		}
		dpGroup, err := c.DPGroup(mpSize)
		if err != nil {
			panic(err)
		}

		m := model.NewShard(cfg, 42, mpGroup)
		sIDs, sTg, per := model.ShardBatch(ids, targets, batch, dpSize, dpGroup.Rank())
		for s := 0; s < steps; s++ {
			m.ZeroGrads()
			loss := []float32{float32(m.Loss(sIDs, sTg, per))}
			m.Backward()
			// DP sync of the whole flat buffer: each DP group holds the same
			// MP shard, replicated segments included.
			dpGroup.AllReduceAvg(m.Grads)
			dpGroup.AllReduceAvg(loss)
			tensor.AXPY(-0.05, m.Grads, m.Params)
			if c.Rank() == 0 {
				fmt.Printf("step %d: loss %.4f\n", s, loss[0])
			}
		}

		if c.Rank() == 0 {
			fmt.Printf("\nrank 0: MP group rank %d/%d, DP group rank %d/%d\n",
				mpGroup.Rank(), mpGroup.Size(), dpGroup.Rank(), dpGroup.Size())
			fmt.Printf("rank 0 shard: %d of %d parameters\n", m.NumParams(), cfg.ParamCount())
		}
	})

	fmt.Println("\nper-rank traffic (elements sent, per group label):")
	for r := 0; r < world; r++ {
		st := w.Stats(r)
		fmt.Printf("  rank %d: total %7d | MP group %7d | DP group %7d\n",
			r, st.ElemsSent,
			st.PerGroup["mp"].Elems,
			st.PerGroup["dp"].Elems)
	}
	fmt.Println("\nMP traffic stays inside the 'node' (NVSwitch); only the DP sync crosses —")
	fmt.Println("the topology split that lets ZeRO scale where cross-node MP collapses (Fig. 2).")
}
