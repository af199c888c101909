package main

import (
	"math/rand"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/tensor"
)

// shape is a workload's per-rank compute shape: the rows one rank
// computes per micro-batch, the sequence length, and the precision.
type shape struct {
	model   model.Config
	rows    int // micro-batch rows per rank
	seq     int
	accum   int
	fp16    bool
	ranks   int
	seed    int64
	wire    comm.DType
	psiElem int
}

func probeShape(cfg engine.Config) shape {
	fp16 := cfg.Precision != nil && cfg.Precision.FP16Compute
	seq := cfg.Model.Seq
	if cfg.Data != nil && cfg.Data.SeqLen > 0 {
		seq = cfg.Data.SeqLen
	}
	wire := comm.F32
	if fp16 || cfg.FP16 {
		wire = comm.F16
	}
	return shape{
		model: cfg.Model, rows: cfg.MicroBatch / cfg.Ranks, seq: seq,
		accum: cfg.GradAccumSteps, fp16: fp16, ranks: cfg.Ranks, seed: cfg.Seed,
		wire: wire, psiElem: cfg.Model.ParamCount(),
	}
}

// floorSteps is how many optimizer steps the model-floor probe times,
// after one untimed warm-up step.
const floorSteps = 10

type floor struct{ fwdMs, bwdMs float64 }

// modelFloor is the single-worker reference: one plain model replica per
// rank, at the workload's per-rank rows and precision, running forward and
// backward concurrently with no communication at all. Its times are the
// compute floor the ZeRO step is measured against. Rank 0's times per
// optimizer step are returned.
func modelFloor(p shape) floor {
	ids, targets := model.SyntheticBatch(p.seed, p.rows*p.ranks, p.seq, p.model.Vocab)
	var out floor
	var wg sync.WaitGroup
	start := make(chan struct{})
	for r := 0; r < p.ranks; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			m := model.New(p.model, p.seed)
			if p.fp16 {
				m.SetFP16Compute(true)
			}
			tok := p.rows * p.seq
			ri, rt := ids[r*tok:(r+1)*tok], targets[r*tok:(r+1)*tok]
			var fwd, bwd time.Duration
			<-start
			for s := 0; s <= floorSteps; s++ {
				for j := 0; j < p.accum; j++ {
					t0 := time.Now()
					m.Loss(ri, rt, p.rows)
					t1 := time.Now()
					m.Backward()
					if s > 0 {
						fwd += t1.Sub(t0)
						bwd += time.Since(t1)
					}
				}
			}
			if r == 0 {
				out = floor{
					fwdMs: float64(fwd) / 1e6 / floorSteps,
					bwdMs: float64(bwd) / 1e6 / floorSteps,
				}
			}
		}(r)
	}
	close(start)
	wg.Wait()
	return out
}

// kernelProbes times the three matmul orientations, f32 and half, at the
// workload's FC1 shape (per-rank rows·seq × hidden × 4·hidden): forward
// X·W1, input gradient dH·W1ᵀ, weight gradient W1 += Xᵀ·dH. GFLOP/s counts
// 2·m·k·n per call; MB per call counts the operand bytes each call reads
// and writes (half operands are 2 bytes, the f32 output 4).
func kernelProbes(p shape, m metricSet) {
	rows, h := p.rows*p.seq, p.model.Hidden
	ffn := 4 * h
	rnd := rand.New(rand.NewSource(p.seed))
	fill := func(n int) []float32 {
		x := make([]float32, n)
		for i := range x {
			x[i] = float32(rnd.NormFloat64())
		}
		return x
	}
	half := func(x []float32) tensor.HalfBuffer {
		b := tensor.NewHalfBuffer(len(x))
		b.FromFloats(x)
		return b
	}
	x, w1, dh := fill(rows*h), fill(h*ffn), fill(rows*ffn)
	xh, w1h, dhh := half(x), half(w1), half(dh)
	hOut, dx, dw := make([]float32, rows*ffn), make([]float32, rows*h), make([]float32, h*ffn)
	flops := 2 * float64(rows) * float64(h) * float64(ffn)
	const f, hb = 4.0, 2.0
	rw := func(a, b, c float64) float64 { return (a + b + c) / mb }
	for _, k := range []struct {
		name  string
		call  func()
		bytes float64
	}{
		{"matmul", func() { tensor.MatMul(hOut, x, w1, rows, h, ffn) },
			rw(f*float64(rows*h), f*float64(h*ffn), f*float64(rows*ffn))},
		{"matmul_bt", func() { tensor.MatMulBT(dx, dh, w1, rows, ffn, h) },
			rw(f*float64(rows*ffn), f*float64(h*ffn), f*float64(rows*h))},
		{"matmul_at_add", func() { tensor.MatMulATAdd(dw, x, dh, rows, h, ffn) },
			rw(f*float64(rows*h), f*float64(rows*ffn), 2*f*float64(h*ffn))},
		{"matmul_h", func() { tensor.MatMulH(hOut, xh, w1h, rows, h, ffn) },
			rw(hb*float64(rows*h), hb*float64(h*ffn), f*float64(rows*ffn))},
		{"matmul_bt_h", func() { tensor.MatMulBTH(dx, dhh, w1h, rows, ffn, h) },
			rw(hb*float64(rows*ffn), hb*float64(h*ffn), f*float64(rows*h))},
		{"matmul_at_add_h", func() { tensor.MatMulATAddH(dw, xh, dhh, rows, h, ffn) },
			rw(hb*float64(rows*h), hb*float64(rows*ffn), 2*f*float64(h*ffn))},
	} {
		sec := timeCall(k.call)
		m["tensor."+k.name+"_gflops"] = flops / sec / 1e9
		m["tensor."+k.name+"_mb_per_call"] = k.bytes
	}
}

// timeCall returns the median seconds per call over seven batches, each
// batch long enough (≥ 2 ms) for the clock to resolve it.
func timeCall(call func()) float64 {
	call() // warm the pooled scratch
	n := 1
	for {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		if time.Since(t0) >= 2*time.Millisecond {
			break
		}
		n *= 2
	}
	per := make([]float64, 7)
	for b := range per {
		t0 := time.Now()
		for i := 0; i < n; i++ {
			call()
		}
		per[b] = time.Since(t0).Seconds() / float64(n)
	}
	return median(per)
}

// collectiveReps is how many timed collectives each comm probe runs.
const collectiveReps = 20

// collectiveProbes times one Ψ-element reduce-scatter and all-gather on a
// Stream of a fresh world of the workload's size, at its wire dtype: the
// collective cost of one full gradient or parameter exchange. Rank 0's
// median is reported.
func collectiveProbes(cfg engine.Config, m metricSet) {
	p := probeShape(cfg)
	w := comm.NewWorld(p.ranks)
	var rs, ag []float64
	w.Run(func(c *comm.Comm) {
		sched := comm.NewScheduler(c)
		defer sched.Close()
		st := sched.Stream("probe")
		buf := comm.Buffer{Data: make([]float32, p.psiElem), DType: p.wire}
		parts := comm.Partition(p.psiElem, p.ranks)
		for i := 0; i <= collectiveReps; i++ {
			t0 := time.Now()
			st.ReduceScatter(buf, parts).Wait()
			t1 := time.Now()
			st.AllGather(buf, parts).Wait()
			t2 := time.Now()
			if c.Rank() == 0 && i > 0 {
				rs = append(rs, t1.Sub(t0).Seconds()*1e3)
				ag = append(ag, t2.Sub(t1).Seconds()*1e3)
			}
		}
	})
	m["comm.reduce_scatter_ms"] = median(rs)
	m["comm.all_gather_ms"] = median(ag)
}
