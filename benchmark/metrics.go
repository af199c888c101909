package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's whole vocabulary: BENCHMARK.json at the repository
// root lists exactly the endToEnd names, and TestBenchmarkManifest keeps
// the two in step.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the trainer or the daemon sees,
// reported with tracing off. Every workload reports every one; the package
// documentation gives each metric's meaning per workload.
var endToEnd = []metricDef{
	{"tokens_per_s", "tok/s"},
	{"step_ms_p50", "ms"},
	{"step_ms_p90", "ms"},
	{"setup_s", "s"},
	{"loss_final", "nat"},
	{"resident_mb_per_rank", "MB"},
	{"heap_peak_mb", "MB"},
	{"jobs_per_s", "1/s"},
	{"job_ms_p50", "ms"},
	{"job_ms_p90", "ms"},
}

// perLayer are the traced run's metrics, by module. A metric whose layer a
// workload bypasses reads 0 there (see the package documentation).
var perLayer = []metricDef{
	{"data.open_ms", "ms"},
	{"data.next_batch_ms_per_step", "ms"},
	{"data.tokens_per_busy_s", "tok/s"},

	{"model.fwd_ms_per_step", "ms"},
	{"model.bwd_ms_per_step", "ms"},

	{"tensor.matmul_gflops", "GFLOP/s"},
	{"tensor.matmul_bt_gflops", "GFLOP/s"},
	{"tensor.matmul_at_add_gflops", "GFLOP/s"},
	{"tensor.matmul_h_gflops", "GFLOP/s"},
	{"tensor.matmul_bt_h_gflops", "GFLOP/s"},
	{"tensor.matmul_at_add_h_gflops", "GFLOP/s"},
	{"tensor.matmul_mb_per_call", "MB"},
	{"tensor.matmul_bt_mb_per_call", "MB"},
	{"tensor.matmul_at_add_mb_per_call", "MB"},
	{"tensor.matmul_h_mb_per_call", "MB"},
	{"tensor.matmul_bt_h_mb_per_call", "MB"},
	{"tensor.matmul_at_add_h_mb_per_call", "MB"},

	{"zero.forward_ms_per_step", "ms"},
	{"zero.backward_ms_per_step", "ms"},
	{"zero.update_ms_per_step", "ms"},
	{"zero.exposed_ms_per_step", "ms"},
	{"zero.overflow_steps", "count"},
	{"zero.useful_step_frac", "frac"},
	{"zero.model_state_mb_per_rank", "MB"},
	{"zero.compute_resident_mb_per_rank", "MB"},
	{"zero.grad_accum_elems", "count"},

	{"comm.wire_mb_per_step", "MB"},
	{"comm.messages_per_step", "count"},
	{"comm.default_mb_per_step", "MB"},
	{"comm.grad_mb_per_step", "MB"},
	{"comm.prefetch_mb_per_step", "MB"},
	{"comm.checkpoint_mb_per_step", "MB"},
	{"comm.priority_mb_per_step", "MB"},
	{"comm.reduce_scatter_ms", "ms"},
	{"comm.all_gather_ms", "ms"},

	{"elastic.tick_ms_p50", "ms"},
	{"elastic.stall_ms_per_snapshot", "ms"},
	{"elastic.snapshots", "count"},

	{"engine.allocs_per_step", "count"},
	{"engine.self_ms_per_step", "ms"},

	{"serve.submit_ms_p50", "ms"},
	{"serve.queue_ms_p50", "ms"},
	{"serve.first_record_ms_p50", "ms"},
	{"serve.run_ms_p50", "ms"},
	{"serve.checkpoint_ms_p50", "ms"},
	{"serve.records_per_job", "count"},

	{"trace.overhead_frac", "frac"},
	{"trace.coverage_frac", "frac"},

	{"failed_frac", "frac"},
	{"samples.steps", "count"},
	{"samples.jobs", "count"},
}

// metric is one reported value, as it appears in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects values by name; emit fills it from one of the tables,
// defaulting what a workload did not set to 0 and rejecting names outside
// the table, so a run can never print a metric the manifest does not know.
type metricSet map[string]float64

func (m metricSet) emit(defs []metricDef) (map[string]metric, []string) {
	out := make(map[string]metric, len(defs))
	known := make(map[string]bool, len(defs))
	for _, d := range defs {
		known[d.name] = true
		out[d.name] = metric{Value: m[d.name], Unit: d.unit}
	}
	var unknown []string
	for name := range m {
		if !known[name] {
			unknown = append(unknown, name)
		}
	}
	sort.Strings(unknown)
	return out, unknown
}

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks (xs is sorted in place); 0 for no samples.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// jobQuantile returns the median over jobs of each job's q-quantile of its
// step times. A slow spell of the machine that spans a few of a run's jobs
// moves a quantile of the pooled steps, most of all the tail; it leaves
// the median job's quantile alone.
func jobQuantile(jobs [][]float64, q float64) float64 {
	per := make([]float64, 0, len(jobs))
	for _, steps := range jobs {
		if len(steps) > 0 {
			per = append(per, quantile(steps, q))
		}
	}
	return median(per)
}

// ratio is a/b, or 0 when b is 0 (a layer the workload bypasses).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

const mb = 1 << 20
