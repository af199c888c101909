package main

import (
	"fmt"
	"math"
	"os"
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"time"

	"repro/internal/comm"
	"repro/internal/elastic"
	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/zero"
)

// trainShape is one training workload: its engine config (built from the
// workload seed), the optimizer steps of one job, and the elastic snapshot
// cadence (0 = no snapshotter).
type trainShape struct {
	config    func(root string, seed int64) (engine.Config, error)
	steps     int
	snapEvery int
}

// A training run is a sequence of jobs. Each job builds a fresh world,
// initializes every rank, trains a fixed number of optimizer steps from
// scratch and tears the world down — what one zerotrain invocation or one
// zeroserve job does. Jobs repeat until the run's time is spent and enough
// step samples are in. The first step of each job grows the workspaces and
// is left out of the step samples and tokens/s; it counts in job time.
type trainRun struct {
	o     options
	cfg   engine.Config
	stage zero.Stage
	k     int // optimizer steps per job
	every int // snapshot cadence
	psi   int64

	lanes []*lane
	heap  *heapSampler

	jobs       []float64   // ms, set-up to teardown
	setups     []float64   // s
	opens      []float64   // ms, rank-0 OpenData
	steps      [][]float64 // ms, rank 0, each job's timed steps
	firstLoss  []float64   // the first job's boundary losses, rank 0
	lossFinal  float64
	heapPeak   uint64
	wallNs     int64 // sum of job walls
	attempted  int
	failed     int
	problems   []string
	stepCount  [2]int     // timed steps in untraced / traced jobs
	stepNs     [2]int64   // their summed wall time
	tokens     [2]int64   // their global tokens
	mallocs    uint64     // heap allocations over traced timed steps
	comm0      comm.Stats // rank-0 traffic summed over jobs
	stepsTotal int        // optimizer steps over every job (comm divisor)
	state      int64      // rank-0 model-state bytes
	compute    int64      // rank-0 compute residency bytes
	accumElems int
	overflow   int   // fp16 overflow skips over every job
	snapCount  int64 // snapshots over every job
	stallNs    int64
}

// minJobs is the fewest jobs a run makes: two, so the determinism check
// always has a second job to compare, and a traced run has one job with
// tracing off and one with it on.
const minJobs = 2

func runTraining(o options, sh trainShape) (*outcome, error) {
	cfg, err := sh.config(o.root, o.seed)
	if err != nil {
		return nil, err
	}
	stage, err := cfg.Stage.Parse()
	if err != nil {
		return nil, err
	}
	t := &trainRun{
		o: o, cfg: cfg, stage: stage, k: sh.steps, every: sh.snapEvery,
		psi:  int64(cfg.Model.ParamCount()),
		heap: newHeapSampler(),
	}
	if o.steps > 0 {
		t.k = o.steps
	}
	start := time.Now()
	t.lanes = newLanes(cfg.Ranks, start)
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	for job := 0; ; job++ {
		if err := t.job(job, o.trace && job%2 == 1); err != nil {
			return nil, err
		}
		if job+1 >= minJobs && t.stepCount[0]+t.stepCount[1] >= o.minSteps && !time.Now().Before(deadline) {
			break
		}
	}
	out := &outcome{attempted: t.attempted, failed: t.failed, problems: t.problems, lanes: t.lanes}
	if o.trace {
		out.metrics = t.layerMetrics()
	} else {
		out.metrics = t.e2eMetrics()
	}
	return out, nil
}

// job runs one job and folds its measurements and checks into the run.
func (t *trainRun) job(idx int, traced bool) error {
	cfg := t.cfg
	n := cfg.Ranks
	for _, l := range t.lanes {
		l.on = traced
	}
	var snap *elastic.Snapshotter
	dir := ""
	if t.every > 0 {
		var err error
		if dir, err = os.MkdirTemp(t.o.tmp, "snap-"); err != nil {
			return err
		}
		defer os.RemoveAll(dir)
		if snap, err = elastic.NewSnapshotter(elastic.Policy{Every: t.every, Dir: dir, Keep: 2}, n); err != nil {
			return err
		}
	}

	ready := make([]time.Time, n)
	losses := make([]float64, 0, t.k)
	skipped := make([]int, 0, t.k) // rank 0's cumulative fp16 overflow skips after each step
	stepNs := make([]int64, 0, t.k)
	var tokens int64
	var mallocs [2]runtime.MemStats
	var openNs int64
	var bodyErr error
	var errOnce sync.Once

	t0 := time.Now()
	w := comm.NewWorld(n)
	err := engine.RunOn(w, cfg, func(e *engine.Engine) {
		r := e.Rank()
		ln := t.lanes[r]
		var src engine.Batcher
		if cfg.Data != nil {
			o0 := time.Now()
			id := ln.open(kOpenData, -1, 0)
			ld, err := engine.OpenData(cfg)
			ln.close(id)
			if err != nil {
				// The pipeline is deterministic: every rank fails here
				// alike, before any collective.
				errOnce.Do(func() { bodyErr = err })
				return
			}
			defer ld.Close()
			if r == 0 {
				openNs = int64(time.Since(o0))
			}
			src = ld
		} else {
			src = model.NewSyntheticStream(cfg.Seed, cfg.GlobalBatch, cfg.MicroBatch, cfg.Model.Seq, cfg.Model.Vocab)
		}
		update := int32(-1) // the open Step span, parent of a boundary Tick
		if snap != nil {
			tr := e.Trainer()
			e.OnBoundary(func(step int) {
				id := ln.open(kTick, update, step)
				snap.Tick(step, tr)
				ln.close(id)
			})
		}
		ready[r] = time.Now()
		for s := 1; s <= t.k; s++ {
			if r == 0 && s == 2 && ln.on {
				runtime.ReadMemStats(&mallocs[0])
			}
			s0 := time.Now()
			root := ln.open(kStep, -1, s)
			var tok int64
			for j := 0; j < cfg.GradAccumSteps; j++ {
				id := ln.open(kNextBatch, root, s)
				ids, targets := src.NextBatch()
				ln.close(id)
				tok += int64(len(ids))
				id = ln.open(kForward, root, s)
				e.Forward(ids, targets)
				ln.close(id)
				id = ln.open(kBackward, root, s)
				e.Backward()
				ln.close(id)
				update = ln.open(kUpdate, root, s)
				e.Step()
				ln.close(update)
			}
			ln.close(root)
			if r != 0 {
				continue
			}
			d := int64(time.Since(s0))
			losses = append(losses, e.BatchLoss())
			skipped = append(skipped, e.OverflowSteps())
			if s > 1 {
				stepNs = append(stepNs, d)
				tokens += tok
			}
			t.heapPeak = max(t.heapPeak, t.heap.live())
		}
		if r == 0 && ln.on {
			runtime.ReadMemStats(&mallocs[1])
		}
		if snap != nil {
			snap.Flush(r)
		}
		if r == 0 {
			t.state = e.ModelStateBytes()
			t.compute = e.Trainer().ComputeResidencyBytes()
			t.accumElems = e.GradAccumElems()
		}
	})
	var snapErr error
	if snap != nil {
		snapErr = snap.Close()
	}
	wall := time.Since(t0)
	if err == nil {
		err = bodyErr
	}
	if err != nil {
		return fmt.Errorf("%s job %d: %w", t.o.workload, idx, err)
	}

	// Measurements.
	setup := time.Duration(0)
	for _, rt := range ready {
		setup = max(setup, rt.Sub(t0))
	}
	t.setups = append(t.setups, setup.Seconds())
	t.jobs = append(t.jobs, float64(wall)/1e6)
	t.wallNs += int64(wall)
	if cfg.Data != nil {
		t.opens = append(t.opens, float64(openNs)/1e6)
	}
	tr := 0
	if traced {
		tr = 1
	}
	ms := make([]float64, len(stepNs))
	for i, d := range stepNs {
		ms[i] = float64(d) / 1e6
		t.stepNs[tr] += d
	}
	t.steps = append(t.steps, ms)
	t.stepCount[tr] += len(stepNs)
	t.tokens[tr] += tokens
	if traced {
		t.mallocs += mallocs[1].Mallocs - mallocs[0].Mallocs
	}
	st := [2]comm.Stats{w.Stats(0), w.Stats(1 % n)}
	addStats(&t.comm0, st[0])
	t.stepsTotal += t.k
	if snap != nil {
		t.snapCount += snap.Count()
		t.stallNs += snap.StallNs()
	}
	if len(losses) > 0 {
		t.lossFinal = losses[len(losses)-1]
		t.overflow += skipped[len(skipped)-1]
	}

	// Correctness gate: every failed check marks the steps it covers.
	bad := make([]bool, t.k)
	fail := func(steps []int, format string, args ...any) {
		t.problems = append(t.problems, fmt.Sprintf("job %d: ", idx)+fmt.Sprintf(format, args...))
		if steps == nil {
			for i := range bad {
				bad[i] = true
			}
		}
		for _, s := range steps {
			bad[s] = true
		}
	}
	t.check(losses, skipped, st, fail)
	if idx == 0 {
		t.firstLoss = losses
	} else if len(losses) == len(t.firstLoss) {
		for i := range losses {
			if losses[i] != t.firstLoss[i] {
				fail([]int{i}, "step %d loss %.17g differs from job 0's %.17g (same seed, same inputs)", i+1, losses[i], t.firstLoss[i])
			}
		}
	}
	if snap != nil {
		t.checkSnapshots(dir, snap.Count(), skipped, snapErr, fail)
	}
	t.attempted += t.k
	for _, b := range bad {
		if b {
			t.failed++
		}
	}
	return nil
}

// check applies the per-job loss and wire checks.
func (t *trainRun) check(losses []float64, skipped []int, st [2]comm.Stats, fail func([]int, string, ...any)) {
	if len(losses) != t.k {
		fail(nil, "rank 0 saw %d boundary losses, want %d", len(losses), t.k)
		return
	}
	for i, l := range losses {
		if math.IsNaN(l) || math.IsInf(l, 0) {
			fail([]int{i}, "step %d loss is %v", i+1, l)
		}
	}
	if t.k > 1 && !(losses[t.k-1] < losses[0]) {
		fail(nil, "final loss %.6g is not below the first boundary loss %.6g", losses[t.k-1], losses[0])
	}
	ex := t.o.expect
	if t.cfg.Data != nil && t.o.seed == ex.goldenSeed {
		for i, want := range ex.golden {
			if i < len(losses) && math.Abs(losses[i]-want) > 1e-9*math.Abs(want) {
				fail([]int{i}, "step %d loss %.17g, golden %.17g", i+1, losses[i], want)
			}
		}
	}
	// §5.2: gradient and parameter traffic per optimizer step is a fixed
	// multiple of (N-1)Ψ elements summed over the world. A step skipped on
	// fp16 overflow sends its reduce-scatters but not the boundary
	// all-gather of updated parameters (stages 1 and 2).
	var got int64
	for _, s := range st[:t.cfg.Ranks] {
		got += s.PerStream[zero.StreamGrad] + s.PerStream[zero.StreamPrefetch]
	}
	mult := int64(t.k) * ex.wireMult(t.stage, t.cfg.GradAccumSteps)
	if t.stage == zero.StageOS || t.stage == zero.StageOSGrad {
		mult -= int64(skipped[t.k-1])
	}
	want := mult * int64(t.cfg.Ranks-1) * t.psi
	if got != want {
		fail(nil, "grad+prefetch wire elements %d over %d steps (%d skipped), want %d (stage %v identity)", got, t.k, skipped[t.k-1], want, t.stage)
	}
}

// checkSnapshots verifies the job's elastic snapshots: the count matches
// the cadence and the newest ZELC file loads at the newest snapshot step,
// whose optimizer clock excludes the steps skipped on fp16 overflow.
func (t *trainRun) checkSnapshots(dir string, count int64, skipped []int, snapErr error, fail func([]int, string, ...any)) {
	if snapErr != nil {
		fail(nil, "snapshotter: %v", snapErr)
		return
	}
	if len(skipped) != t.k {
		return // the step count check already failed the job
	}
	wantCount := int64(t.k / t.every)
	if count != wantCount {
		fail(nil, "%d snapshots, want %d", count, wantCount)
	}
	if wantCount == 0 {
		return
	}
	path, err := elastic.LatestFile(dir)
	if err != nil {
		fail(nil, "newest snapshot: %v", err)
		return
	}
	ck, err := elastic.LoadFile(path)
	if err != nil {
		fail(nil, "loading %s: %v", path, err)
		return
	}
	last := int(wantCount) * t.every
	if want := last - skipped[last-1]; ck.OptSteps != want || ck.WorldSize != t.cfg.Ranks {
		fail(nil, "newest snapshot at optimizer step %d on %d ranks, want step %d on %d", ck.OptSteps, ck.WorldSize, want, t.cfg.Ranks)
	}
}

func (t *trainRun) e2eMetrics() metricSet {
	return metricSet{
		"tokens_per_s":         ratio(float64(t.tokens[0]), float64(t.stepNs[0])/1e9),
		"step_ms_p50":          jobQuantile(t.steps, 0.5),
		"step_ms_p90":          jobQuantile(t.steps, 0.9),
		"setup_s":              median(t.setups),
		"loss_final":           t.lossFinal,
		"resident_mb_per_rank": float64(t.state+t.compute) / mb,
		"heap_peak_mb":         float64(t.heapPeak) / mb,
		"jobs_per_s":           float64(len(t.jobs)) / (float64(t.wallNs) / 1e9),
		"job_ms_p50":           quantile(t.jobs, 0.5),
		"job_ms_p90":           quantile(t.jobs, 0.9),
	}
}

// layerMetrics derives the per-layer numbers from rank 0's spans of the
// traced jobs, the run's counters and the probes.
func (t *trainRun) layerMetrics() metricSet {
	cfg := t.cfg
	lt := t.lanes[0].layerTimes(kStep, 2)
	steps := float64(lt.nroots)
	perStep := func(k spanKind) float64 { return ratio(float64(lt.busy[k])/1e6, steps) }
	m := metricSet{}
	if cfg.Data != nil {
		m["data.open_ms"] = median(t.opens)
		m["data.next_batch_ms_per_step"] = perStep(kNextBatch)
		m["data.tokens_per_busy_s"] = ratio(float64(t.tokens[1]), float64(lt.busy[kNextBatch])/1e9)
	}
	fwd, bwd := perStep(kForward), perStep(kBackward)
	m["zero.forward_ms_per_step"] = fwd
	m["zero.backward_ms_per_step"] = bwd
	m["zero.update_ms_per_step"] = ratio(float64(lt.busy[kUpdate]-lt.busy[kTick])/1e6, steps)
	jobs := float64(len(t.jobs))
	m["zero.overflow_steps"] = float64(t.overflow) / jobs
	m["zero.useful_step_frac"] = 1 - float64(t.overflow)/float64(t.stepsTotal)
	m["zero.model_state_mb_per_rank"] = float64(t.state) / mb
	m["zero.compute_resident_mb_per_rank"] = float64(t.compute) / mb
	m["zero.grad_accum_elems"] = float64(t.accumElems)

	t.commPerStep(m)

	if t.every > 0 {
		var ticks []float64
		for _, s := range t.lanes[0].spans {
			if s.kind == kTick && int(s.seq)%t.every == 0 {
				ticks = append(ticks, float64(s.end-s.start)/1e6)
			}
		}
		m["elastic.tick_ms_p50"] = median(ticks)
		m["elastic.stall_ms_per_snapshot"] = ratio(float64(t.stallNs)/1e6, float64(t.snapCount))
		m["elastic.snapshots"] = float64(t.snapCount) / jobs
	}

	m["engine.allocs_per_step"] = ratio(float64(t.mallocs), float64(t.stepCount[1]))
	m["engine.self_ms_per_step"] = ratio(float64(lt.roots-lt.covered)/1e6, steps)

	untraced := ratio(float64(t.tokens[0]), float64(t.stepNs[0]))
	traced := ratio(float64(t.tokens[1]), float64(t.stepNs[1]))
	m["trace.overhead_frac"] = 1 - ratio(traced, untraced)
	m["trace.coverage_frac"] = ratio(float64(lt.covered), float64(lt.roots))
	m["samples.steps"] = float64(t.stepCount[0] + t.stepCount[1])
	m["samples.jobs"] = jobs

	p := probeShape(cfg)
	fl := modelFloor(p)
	m["model.fwd_ms_per_step"] = fl.fwdMs
	m["model.bwd_ms_per_step"] = fl.bwdMs
	m["zero.exposed_ms_per_step"] = fwd + bwd - fl.fwdMs - fl.bwdMs
	kernelProbes(p, m)
	collectiveProbes(cfg, m)
	return m
}

// streams are the ordering domains whose traffic comm.*_mb_per_step reports.
var streams = []string{comm.DefaultStream, zero.StreamGrad, zero.StreamPrefetch, zero.StreamCheckpoint, zero.StreamPriority}

// streamMB converts a stream's element count to MB at its wire width: 2
// bytes for gradients and parameters under fp16, else 4.
func streamMB(cfg engine.Config, name string, elems int64) float64 {
	half := cfg.FP16 || (cfg.Precision != nil && cfg.Precision.FP16Compute)
	if half && (name == zero.StreamGrad || name == zero.StreamPrefetch) {
		return float64(elems) * 2 / mb
	}
	return float64(elems) * 4 / mb
}

// commPerStep fills the comm.* traffic metrics from rank 0's counters.
func (t *trainRun) commPerStep(m metricSet) {
	steps := float64(t.stepsTotal)
	c := t.comm0
	m["comm.wire_mb_per_step"] = float64(c.BytesSent) / mb / steps
	m["comm.messages_per_step"] = float64(c.Messages) / steps
	for _, name := range streams {
		m["comm."+name+"_mb_per_step"] = streamMB(t.cfg, name, c.PerStream[name]) / steps
	}
}

func addStats(dst *comm.Stats, s comm.Stats) {
	dst.BytesSent += s.BytesSent
	dst.Messages += s.Messages
	if dst.PerStream == nil {
		dst.PerStream = map[string]int64{}
	}
	for k, v := range s.PerStream {
		dst.PerStream[k] += v
	}
}

// heapSampler reads the live heap: the bytes the last garbage collection
// marked reachable (runtime/metrics /gc/heap/live:bytes), read without
// stopping the world. Unlike MemStats.HeapInuse it leaves out garbage not
// yet swept, whose amount depends on when collections happen to run.
type heapSampler struct{ s []rtmetrics.Sample }

func newHeapSampler() *heapSampler {
	return &heapSampler{s: []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}}
}

func (h *heapSampler) live() uint64 {
	rtmetrics.Read(h.s)
	return h.s[0].Value.Uint64()
}
