package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/zero"
)

// testSteps is each workload's minimal job length: corpus-bpe covers the
// ten-step golden, fp16-accum-snap one snapshot.
var testSteps = map[string]int{
	"corpus-bpe":      10,
	"s3-prefetch":     2,
	"fp16-accum-snap": 5,
	"serve-jobs":      3,
}

func testOptions(t *testing.T, workload string, trace bool) options {
	t.Helper()
	return options{
		workload: workload, root: "..", seed: defaultExpect.goldenSeed, trace: trace,
		steps: testSteps[workload], minSteps: 1, tmp: t.TempDir(), expect: defaultExpect,
	}
}

func runWorkload(t *testing.T, o options) executed {
	t.Helper()
	wl, err := lookup(o.workload)
	if err != nil {
		t.Fatal(err)
	}
	res, err := execute(wl, o, newStamp(o.workload, o.seed))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// Every workload, at minimal length, passes its gate and reports every
// metric of the manifest with its unit and a finite value, in both modes;
// end-to-end metrics are never 0.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	for _, wl := range workloads {
		for _, trace := range []bool{false, true} {
			o := testOptions(t, wl.name, trace)
			res := runWorkload(t, o)
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s trace=%v: correct=%v failed=%d of %d: %v", wl.name, trace, res.Correct, res.Failed, res.Attempted, res.Problems)
			}
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", wl.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				switch {
				case !ok:
					t.Errorf("%s trace=%v: metric %s missing", wl.name, trace, d.name)
				case m.Unit != d.unit || m.Unit == "":
					t.Errorf("%s trace=%v: %s unit %q, want %q", wl.name, trace, d.name, m.Unit, d.unit)
				case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
					t.Errorf("%s trace=%v: %s = %v", wl.name, trace, d.name, m.Value)
				case !trace && m.Value == 0:
					t.Errorf("%s: end-to-end metric %s is 0", wl.name, d.name)
				}
			}
		}
	}
}

// A tampered expectation makes the gate fail and the run incorrect.
func TestGateFailsOnTamperedExpectation(t *testing.T) {
	for _, tc := range []struct {
		name   string
		tamper func(*expectations)
		want   string
	}{
		{"perturbed golden", func(e *expectations) {
			e.golden = append([]float64(nil), e.golden...)
			e.golden[3] *= 1 + 1e-6
		}, "golden"},
		{"wrong wire identity", func(e *expectations) {
			e.wireMult = func(stage zero.Stage, k int) int64 { return defaultExpect.wireMult(stage, k) + 1 }
		}, "identity"},
	} {
		o := testOptions(t, "corpus-bpe", false)
		tc.tamper(&o.expect)
		res := runWorkload(t, o)
		if res.Correct || res.Failed == 0 {
			t.Errorf("%s: gate passed (correct=%v failed=%d)", tc.name, res.Correct, res.Failed)
		}
		if !strings.Contains(strings.Join(res.Problems, "\n"), tc.want) {
			t.Errorf("%s: problems %q do not name the %s check", tc.name, res.Problems, tc.want)
		}
	}
}

// The trace file is valid Chrome trace-event JSON in which every span's
// parent is present on the same thread, and every step has its children.
func TestTraceFileParses(t *testing.T) {
	for _, name := range []string{"fp16-accum-snap", "serve-jobs"} {
		o := testOptions(t, name, true)
		res := runWorkload(t, o)
		path := filepath.Join(t.TempDir(), "trace.json")
		if err := writeTrace(path, res.lanes, map[string]any{"workload": name}); err != nil {
			t.Fatal(err)
		}
		blob, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var tf traceFile
		if err := json.Unmarshal(blob, &tf); err != nil {
			t.Fatalf("%s: trace does not parse: %v", name, err)
		}
		type key struct{ tid, id int }
		seen := map[key]string{}
		for _, ev := range tf.TraceEvents {
			seen[key{ev.Tid, ev.Args.ID}] = ev.Name
		}
		kinds := map[string]int{}
		for _, ev := range tf.TraceEvents {
			kinds[ev.Name]++
			if ev.Ph != "X" || ev.Dur < 0 {
				t.Errorf("%s: event %+v", name, ev)
			}
			if ev.Args.Parent < 0 {
				continue
			}
			if _, ok := seen[key{ev.Tid, ev.Args.Parent}]; !ok {
				t.Errorf("%s: span %s (tid %d id %d) has no parent %d", name, ev.Name, ev.Tid, ev.Args.ID, ev.Args.Parent)
			}
		}
		want := []string{"step", "NextBatch", "Forward", "Backward", "Step", "Tick"}
		if name == "serve-jobs" {
			want = []string{"job", "POST /v1/jobs", "GET metrics", "GET status", "GET checkpoint"}
		}
		for _, k := range want {
			if kinds[k] == 0 {
				t.Errorf("%s: no %q spans (have %v)", name, k, kinds)
			}
		}
	}
}

// BENCHMARK.json names exactly this program's workloads and end-to-end
// metrics, with the same units, and its per-layer list.
func TestBenchmarkManifest(t *testing.T) {
	blob, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var man struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []struct {
			Name, Unit, Better string
			Bound              float64
		} `json:"end_to_end"`
		PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(blob, &man); err != nil {
		t.Fatal(err)
	}
	if len(man.Workloads) != len(workloads) {
		t.Fatalf("manifest has %d workloads, program %d", len(man.Workloads), len(workloads))
	}
	for i, w := range man.Workloads {
		if w.Name != workloads[i].name {
			t.Errorf("workload %d: manifest %q, program %q", i, w.Name, workloads[i].name)
		}
	}
	check := func(kind string, got []metricDef, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: manifest has %d metrics, program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s %d: manifest %v, program %v", kind, i, got[i], want[i])
			}
		}
	}
	var e2e, layer []metricDef
	for _, m := range man.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
		if m.Bound <= 0 || m.Bound > 0.25 || (m.Better != "lower" && m.Better != "higher") {
			t.Errorf("end_to_end %s: bound %v better %q", m.Name, m.Bound, m.Better)
		}
	}
	for _, m := range man.PerLayer {
		layer = append(layer, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layer, perLayer)
}
