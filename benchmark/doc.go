// Command benchmark is the repository's benchmark: one command that runs a
// named workload in-process, checks that its outputs are correct, and
// prints every metric by name with its unit. From the repository root:
//
//	bash benchmark/run.sh --workload corpus-bpe --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --workload corpus-bpe --seed 1 --seconds 20 --trace 1
//
// --trace 0 reports the end-to-end metrics with tracing off; --trace 1 is
// the traced run, which reports the per-layer metrics and writes a Chrome
// trace-event file (opens in Perfetto) under .bench_build/trace/. Standard
// output lists the stamp (seed, nproc, GOMAXPROCS, Go version, CPU model,
// commit), every metric by name with its unit and every failed check; its
// last line is one JSON object {correct, attempted, failed, metrics}. The
// benchmark compares no runs itself; comparing is left to the caller, who
// should compare only runs with the same stamp apart from seed and commit.
// A failed correctness check is printed, counts toward failed, and exits 1.
// BENCHMARK.json at the repository root is the manifest of workloads and
// end-to-end metrics with their regression bounds.
//
// The benchmark drives only public entry points — engine.RunOn and
// engine.OpenData, then Engine.Forward/Backward/Step; elastic.Snapshotter;
// the serve HTTP handler — with 2 ranks (the 2 CPUs it was sized on) and
// one client connection. Every layer is timed from outside, by wrapping
// the calls into it; counts come from comm.World.Stats and the runtime's
// memory statistics. Nothing is traced inside the program.
//
// # Workloads
//
// Every input is generated from --seed: the engine seed (weights, synthetic
// batches, corpus shuffle) is the workload seed.
//
//   - corpus-bpe: examples/corpus/config.json as committed (2 ranks, stage
//     2 with overlap, Adam, micro 4 × accum 2, BPE vocab 512 trained at
//     open, seq 32, a 2×32 model) fed by engine.OpenData. It is the
//     ROADMAP's end-to-end definition, the only training workload where the
//     data loader does real work, and the only one whose loss means
//     something; its tiny model makes per-call overhead visible.
//   - s3-prefetch: a synthetic 4-layer × 128-hidden model (4 heads, vocab
//     128, seq 32) at stage 3 with overlap and prefetch, 8 rows, accum 1,
//     f32. It carries the most communication per step (the 3Ψ identity),
//     with parameter gathers on the forward path. Data, elastic and the half
//     kernels are bypassed: it is the no-change control for those layers.
//   - fp16-accum-snap: the same synthetic shape at stage 2 with overlap,
//     fp16 compute, micro 4 × accum 2, and an elastic.Snapshotter
//     (every 5 steps, keep 2) on Engine.OnBoundary. It is the only workload
//     on the half kernels, the accumulation boundary, the loss-scale vote on
//     the priority stream, and checkpoint-stream gathers with ZELC encoding
//     and file writes beside training traffic.
//   - serve-jobs: serve.New (defaults, snapshots to a scratch directory)
//     behind a loopback httptest server, under a closed loop of 1 client
//     (2 concurrent jobs on the 2 CPUs roughly doubled the run-to-run
//     spread). The client submits a corpus-bpe-shaped job
//     (20 steps, snapshot every 5), follows its NDJSON metric stream to the
//     end, reads its status and fetches its checkpoint, then submits the
//     next. It is the only path through serve: HTTP, admission, queueing,
//     per-job worlds with per-rank BPE open, ring streaming, snapshot
//     persistence and consolidation.
//
// A training run is a sequence of jobs — each builds a fresh world, trains
// a fixed number of steps from scratch (corpus-bpe 40, the synthetic
// workloads 20) and tears the world down — repeated until --seconds have
// passed and at least 100 step samples are in, so at least ten samples lie
// beyond the jobs' step_ms_p90. A job's first step grows the workspaces; it is left out
// of the step samples and tokens/s and counted in job time.
//
// # End-to-end metrics
//
// Every workload reports every one, tracing off.
//
//   - tokens_per_s: global trained tokens ÷ wall time of the timed steps;
//     on serve-jobs, tokens trained by the finished jobs ÷ the load phase.
//   - step_ms_p50, step_ms_p90: rank 0's optimizer-step wall time, from the
//     first NextBatch to the boundary Step's return; on serve-jobs, the time
//     between consecutive metric records as the client receives them. Each
//     is the median over the run's jobs of the job's own quantile, so a
//     slow spell of the machine over a few jobs does not set the tail. On
//     fp16-accum-snap, 4 of a job's 19 timed steps take a snapshot and the
//     steps after them share the CPUs with its writer: p90 falls among
//     those steps.
//   - setup_s: median over the run's set-ups of the time from the start of
//     a job to every rank initialized (world, Initialize, OpenData with BPE
//     training); on serve-jobs, of a cold daemon's start-up to its first
//     trained step: serve.New, the listener, and a one-step job run to the
//     end of its metric stream (5 start-ups per run).
//   - loss_final: rank 0's boundary loss after the job's fixed step count.
//   - resident_mb_per_rank: Engine.ModelStateBytes plus
//     Trainer().ComputeResidencyBytes on rank 0 — ZeRO's memory claim as an
//     exact count; on serve-jobs, of one in-process job of the served config.
//   - heap_peak_mb: the largest live heap (bytes the last collection marked
//     reachable), sampled at every step boundary or metric record.
//   - jobs_per_s, job_ms_p50, job_ms_p90: finished jobs ÷ their wall time,
//     and one job's time from set-up start to teardown (training) or from
//     POST sent to checkpoint received (serve-jobs).
//
// Failed checks are counted in the result line's failed of attempted
// (optimizer steps, or jobs on serve-jobs); failed_frac is their ratio in
// the traced run.
//
// # Per-layer metrics
//
// From the traced run: rank 0's spans of the jobs run with tracing on (the
// traced run alternates jobs with tracing off and on), the run's counters,
// and probes made after it. Each line gives the end-to-end metric the layer
// metric should move, and on which workload. A layer a workload bypasses
// reads 0 there. On serve-jobs the engine runs inside the daemon, out of the
// client's reach: its zero.* step times, elastic.* and engine.self_ms read
// 0, and the traffic and allocation counts come from the jobs' metric
// records; the model, tensor and comm probes run at the job's shape.
//
//   - data.open_ms (rank 0's OpenData) → setup_s on corpus-bpe, job_ms_p50
//     on serve-jobs. data.next_batch_ms_per_step, data.tokens_per_busy_s →
//     tokens_per_s on corpus-bpe; 0 on the synthetic workloads.
//   - model.fwd_ms_per_step, model.bwd_ms_per_step → tokens_per_s on
//     s3-prefetch and fp16-accum-snap. The compute floor: one plain model
//     replica per rank at the workload's rows and precision, run
//     concurrently with no communication.
//   - tensor.{matmul,matmul_bt,matmul_at_add}_gflops, their _h_ half
//     variants, and tensor.*_mb_per_call (operand bytes read and written per
//     call), at the workload's FC1 shape → tokens_per_s on s3-prefetch
//     (f32) and fp16-accum-snap (half); not on corpus-bpe.
//   - zero.forward_ms_per_step → step_ms_p50 on s3-prefetch (gathers).
//     zero.backward_ms_per_step → step_ms_p50 on every training workload.
//     zero.update_ms_per_step (boundary Step less its snapshot Tick) →
//     step_ms_p50 on fp16-accum-snap and s3-prefetch.
//     zero.exposed_ms_per_step = forward + backward − model floor →
//     tokens_per_s on s3-prefetch: the measured counterpart of perfmodel's
//     exposed-gather time. zero.overflow_steps (per job),
//     zero.useful_step_frac → tokens_per_s on fp16-accum-snap. zero.model_state_mb_per_rank,
//     zero.compute_resident_mb_per_rank, zero.grad_accum_elems →
//     resident_mb_per_rank.
//   - comm.wire_mb_per_step, comm.messages_per_step (rank 0's
//     World.Stats) → tokens_per_s on s3-prefetch.
//     comm.{default,grad,prefetch,checkpoint,priority}_mb_per_step →
//     step_ms_p50 on s3-prefetch (prefetch), step_ms_p90 on fp16-accum-snap
//     (checkpoint, priority). Per-stream counters are elements, converted at
//     the stream's wire width. comm.reduce_scatter_ms, comm.all_gather_ms:
//     one Ψ-element Stream collective on a fresh world → step_ms_p50 on
//     s3-prefetch. On serve-jobs the traffic comes from the jobs' metric
//     records, which carry no message count.
//   - elastic.tick_ms_p50 (snapshotting Ticks), elastic.stall_ms_per_snapshot
//     (StallNs ÷ Count), elastic.snapshots (per job) → step_ms_p90 and
//     heap_peak_mb on fp16-accum-snap.
//   - engine.allocs_per_step (heap allocations over the timed steps ÷ steps,
//     process-wide) and engine.self_ms_per_step (step span less its direct
//     children) → heap_peak_mb and step_ms_p90 on every training workload.
//   - serve.submit_ms_p50, serve.first_record_ms_p50, serve.run_ms_p50
//     (finished_at − started_at), serve.checkpoint_ms_p50,
//     serve.records_per_job → job_ms_p50 on serve-jobs. serve.queue_ms_p50
//     (started_at − submitted_at) → job_ms_p90 and jobs_per_s on serve-jobs.
//   - trace.overhead_frac: 1 − traced ÷ untraced throughput of the same run.
//     trace.coverage_frac: the part of the root spans their direct child
//     spans cover.
//   - failed_frac, samples.steps, samples.jobs: the gate's failure ratio and
//     the sample counts behind the percentiles.
//
// # Correctness gate
//
// Every run checks, and counts a failure against the steps or jobs it
// covers:
//   - every boundary loss is finite, the last is below the first, and every
//     job of a run reproduces the first job's losses bit for bit;
//   - corpus-bpe at seed 7 reproduces TestCorpusTrainingGolden's losses
//     (internal/engine) to 1e-9 relative;
//   - grad+prefetch wire elements, summed over the world, equal the stage's
//     §5.2 identity per optimizer step — (k+1)(N−1)Ψ at stages 1–2 and
//     3k(N−1)Ψ at stage 3 for k micro-batches, less the boundary all-gather
//     of a step skipped on fp16 overflow;
//   - on fp16-accum-snap the snapshot count matches the cadence and the
//     newest ZELC file loads with elastic.LoadFile at the expected step;
//   - every serve-jobs job ends succeeded, its stream holds exactly steps
//     records, its checkpoint decodes with zero.DecodeSnapshot at OptSteps
//     = steps, and every job's losses equal the first job's.
package main
