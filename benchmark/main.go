package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"

	"repro/internal/engine"
	"repro/internal/model"
	"repro/internal/zero"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// options fix one run. root is the checkout the run reads examples/corpus
// from and writes its scratch files under.
type options struct {
	workload string
	root     string
	seed     int64
	seconds  float64
	trace    bool
	steps    int    // optimizer steps per job; 0 = the workload's own
	minSteps int    // step samples a run collects at least
	tmp      string // scratch directory for snapshot files
	expect   expectations
}

// expectations are the correctness gate's reference values. Tests swap in
// tampered ones to show the gate fails.
type expectations struct {
	// golden is rank 0's boundary-loss trajectory of examples/corpus at
	// goldenSeed, as pinned by TestCorpusTrainingGolden in internal/engine.
	golden     []float64
	goldenSeed int64
	// wireMult is the §5.2 gradient+parameter traffic per optimizer step
	// in multiples of (N-1)Ψ elements summed over the world, for k
	// micro-batches per step — the count internal/zero's accumulation
	// tests pin.
	wireMult func(stage zero.Stage, k int) int64
}

var defaultExpect = expectations{
	golden: []float64{
		6.2286656575114563,
		6.2323105253373896,
		6.1790784039375648,
		6.1093884646671004,
		6.0669298406480578,
		6.0286071325838932,
		5.9545612901636353,
		5.9177407029340827,
		5.8461921336057383,
		5.7579306156310013,
	},
	goldenSeed: 7,
	wireMult: func(stage zero.Stage, k int) int64 {
		switch stage {
		case zero.StageDDP:
			return 2 * int64(k)
		case zero.StageFull:
			return 3 * int64(k)
		default:
			return int64(k) + 1
		}
	},
}

// minStepSamples leaves at least ten samples beyond step_ms_p90.
const minStepSamples = 100

// outcome is what a workload run hands back: the metrics of its mode
// (end-to-end, or per-layer when traced), the gate's tally and findings,
// and the spans for the trace file.
type outcome struct {
	metrics   metricSet
	attempted int
	failed    int
	problems  []string
	lanes     []*lane
}

// workload is one named input set; the package documentation says why
// each exists.
type workload struct {
	name string
	run  func(options) (*outcome, error)
}

var workloads = []workload{
	{"corpus-bpe",
		func(o options) (*outcome, error) {
			return runTraining(o, trainShape{config: corpusConfig, steps: 40})
		}},
	{"s3-prefetch",
		func(o options) (*outcome, error) {
			return runTraining(o, trainShape{config: s3Config, steps: 20})
		}},
	{"fp16-accum-snap",
		func(o options) (*outcome, error) {
			return runTraining(o, trainShape{config: fp16Config, steps: 20, snapEvery: 5})
		}},
	{"serve-jobs",
		runServe},
}

func corpusConfig(root string, seed int64) (engine.Config, error) {
	cfg, err := engine.LoadConfig(filepath.Join(root, "examples", "corpus", "config.json"))
	if err != nil {
		return cfg, err
	}
	cfg.Seed = seed
	return cfg.Normalized()
}

// syntheticModel is the shape both synthetic workloads train.
var syntheticModel = model.Config{Layers: 4, Hidden: 128, Heads: 4, Vocab: 128, Seq: 32}

func s3Config(_ string, seed int64) (engine.Config, error) {
	return engine.Config{
		Model: syntheticModel, Ranks: 2, Stage: "3",
		Optimizer: engine.OptimizerConfig{Type: "adam", LR: 1e-3},
		Overlap:   true, Prefetch: true,
		GlobalBatch: 8, MicroBatch: 8, GradAccumSteps: 1, Seed: seed,
	}.Normalized()
}

func fp16Config(_ string, seed int64) (engine.Config, error) {
	return engine.Config{
		Model: syntheticModel, Ranks: 2, Stage: "2",
		Optimizer:   engine.OptimizerConfig{Type: "adam", LR: 1e-3},
		Precision:   &engine.PrecisionConfig{FP16Compute: true},
		Overlap:     true,
		GlobalBatch: 8, MicroBatch: 4, GradAccumSteps: 2, Seed: seed,
	}.Normalized()
}

func lookup(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(names, ", "))
}

// stamp identifies the machine and build a result was measured on.
type stamp struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu"`
	Commit     string `json:"commit"`
}

func newStamp(workload string, seed int64) stamp {
	s := stamp{
		Workload: workload, Seed: seed,
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), CPU: "unknown", Commit: "unknown",
	}
	if blob, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(blob), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, kv := range bi.Settings {
			if kv.Key == "vcs.revision" {
				s.Commit = kv.Value
			}
		}
	}
	return s
}

// line is the last line of standard output.
type line struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// result is one run's line, the stamp it was measured under and every
// failed check.
type result struct {
	line
	Stamp    stamp
	Problems []string
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run (corpus-bpe, s3-prefetch, fp16-accum-snap, serve-jobs)")
	seed := fs.Int64("seed", 1, "workload seed; every input is generated from it")
	seconds := fs.Float64("seconds", 10, "time one run measures for")
	trace := fs.Int("trace", 0, "0: end-to-end metrics with tracing off; 1: traced run, per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintf(stderr, "benchmark: --trace %d (want 0 or 1)\n", *trace)
		return 2
	}
	wl, err := lookup(*name)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 2
	}
	tmp := filepath.Join(".bench_build", "tmp")
	if err := os.MkdirAll(tmp, 0o755); err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	o := options{
		workload: wl.name, root: ".", seed: *seed, seconds: *seconds, trace: *trace == 1,
		minSteps: minStepSamples, tmp: tmp, expect: defaultExpect,
	}
	st := newStamp(wl.name, *seed)
	res, err := execute(wl, o, st)
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	if o.trace {
		path := filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.json", wl.name, *seed))
		if err := writeTrace(path, res.lanes, map[string]any{"stamp": st}); err != nil {
			fmt.Fprintln(stderr, "benchmark: trace:", err)
			return 1
		}
		fmt.Fprintln(stdout, "trace", path)
	}
	printResult(stdout, res.result)
	if !res.Correct {
		return 1
	}
	return 0
}

// executed is one run of a workload: its stamped result and its spans.
type executed struct {
	result
	lanes []*lane
}

// execute runs the workload and builds its result, refusing any metric
// outside the manifest tables.
func execute(wl workload, o options, st stamp) (executed, error) {
	out, err := wl.run(o)
	if err != nil {
		return executed{}, err
	}
	defs := endToEnd
	if o.trace {
		defs = perLayer
		out.metrics["failed_frac"] = ratio(float64(out.failed), float64(out.attempted))
	}
	ms, unknown := out.metrics.emit(defs)
	if len(unknown) > 0 {
		return executed{}, fmt.Errorf("metrics outside the manifest: %v", unknown)
	}
	for name, m := range ms {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return executed{}, fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	return executed{
		result: result{
			line: line{
				Correct:   out.failed == 0 && len(out.problems) == 0,
				Attempted: out.attempted, Failed: out.failed, Metrics: ms,
			},
			Stamp: st, Problems: out.problems,
		},
		lanes: out.lanes,
	}, nil
}

// printResult prints the stamp, every metric by name with its unit, every
// failed check, and last the one-line JSON result.
func printResult(w io.Writer, r result) {
	stampJSON, _ := json.Marshal(r.Stamp) // plain data; cannot fail
	fmt.Fprintf(w, "stamp %s\n", stampJSON)
	names := make([]string, 0, len(r.Metrics))
	for name := range r.Metrics {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		fmt.Fprintf(w, "%-36s %16.6f %s\n", name, r.Metrics[name].Value, r.Metrics[name].Unit)
	}
	for _, p := range r.Problems {
		fmt.Fprintln(w, "FAILED", p)
	}
	blob, _ := json.Marshal(r.line) // plain data; cannot fail
	fmt.Fprintf(w, "%s\n", blob)
}
