package experiments

import (
	"fmt"

	"repro/internal/comm"
	"repro/internal/model"
	"repro/internal/perfmodel"
	"repro/internal/zero"
)

// CommVolume reproduces the §7-§8 communication analysis with *measured*
// traffic: it trains a small real model under baseline DDP and ZeRO stages
// 1-3 on in-process worlds, counts every element each rank sends through
// the collectives, and compares against the closed forms (2Ψ for DP and
// Pos/Pos+g, 3Ψ for Pos+g+p). The Pa row measures a checkpointed
// tensor-parallel step of the same model at MP=N, with and without Pa,
// against §8's one all-gather per block (1/12 of the block's MP traffic).
func CommVolume() Table {
	cfg := model.Config{Layers: 3, Hidden: 32, Heads: 4, Vocab: 31, Seq: 8}
	psi := int64(cfg.ParamCount())
	const n, batch = 4, 4
	ids, targets := model.SyntheticBatch(1, batch, cfg.Seq, cfg.Vocab)

	var rows [][]string
	addRow := func(name string, measured int64, psiMult float64) {
		// Per-rank measured average; theory uses the (N-1)/N ring factor.
		perRank := float64(measured) / float64(n)
		theory := psiMult * float64(psi) * float64(n-1) / float64(n)
		rows = append(rows, []string{
			name,
			fmt.Sprintf("%.0f", perRank),
			fmt.Sprintf("%.0f", theory),
			fmtF(perRank/float64(psi), 2) + "Ψ",
			fmtF(psiMult*float64(n-1)/float64(n), 2) + "Ψ",
		})
	}

	// Baseline DDP.
	{
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			tr := zero.MustNew(c, cfg, zero.Options{Stage: zero.StageDDP, LR: 1e-3, Seed: 1})
			tr.Step(ids, targets, batch)
		})
		addRow("DP all-reduce", w.TotalElemsSent(), 2)
	}
	// ZeRO stages.
	for _, st := range []zero.Stage{zero.StageOS, zero.StageOSG, zero.StageOSGP} {
		mult := 2.0
		if st == zero.StageOSGP {
			mult = 3.0
		}
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			tr := zero.MustNew(c, cfg, zero.Options{Stage: st, LR: 1e-3, Seed: 1})
			tr.Step(ids, targets, batch)
		})
		addRow("ZeRO "+st.String(), w.TotalElemsSent(), mult)
	}

	// Pa vs Megatron MP traffic: the elements Pa adds to a checkpointed
	// MP=n step (one all-gather per block) next to §8's PaOverheadElems.
	mpStep := func(pa bool) int64 {
		w := comm.NewWorld(n)
		w.Run(func(c *comm.Comm) {
			m := model.NewShard(cfg, 1, c)
			m.Checkpoint = true
			if pa {
				sched := comm.NewScheduler(c)
				defer sched.Close()
				m.Store = zero.NewPartitionedStore(sched.Stream(zero.StreamCheckpoint), false)
			}
			m.Loss(ids, targets, batch)
			m.Backward()
		})
		return w.TotalElemsSent()
	}
	mpElems := mpStep(false)
	paElems := mpStep(true) - mpElems
	paTheory := float64(perfmodel.PaOverheadElems(batch, cfg.Seq, cfg.Hidden)) *
		float64(cfg.Layers) * float64(n-1) / float64(n)
	rows = append(rows, []string{
		"Pa vs MP traffic",
		fmt.Sprintf("%.0f", float64(paElems)/float64(n)),
		fmt.Sprintf("%.0f", paTheory),
		fmtF(100*float64(paElems)/float64(mpElems), 1) + "% of MP",
		fmtF(100.0/12, 1) + "% (§8 ≤10%)",
	})

	return Table{
		Title: "§7-§8 communication volume: measured on the wire vs analysis",
		Note: fmt.Sprintf("Real training step, N=%d ranks (Pa row: MP=%d, recompute on), Ψ=%d parameters; elements sent per rank.",
			n, n, psi),
		Header: []string{"System", "Measured/rank", "Theory/rank", "Measured (Ψ)", "Theory (Ψ)"},
		Rows:   rows,
	}
}
