package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"sync"
	"time"

	"repro/internal/engine"
	"repro/internal/serve"
	"repro/internal/zero"
)

// Shape of the serve-jobs load: a closed loop of serveClients clients,
// each submitting a corpus-bpe-shaped job, following its metric stream to
// the end, then fetching its checkpoint before submitting the next.
const (
	// serveClients is one: with two, two jobs' four ranks share the two
	// CPUs and run-to-run spread roughly doubled (14-23% against 6-11% in
	// interleaved runs), wider than the benchmark's bounds allow.
	serveClients   = 1
	serveJobSteps  = 20
	serveSnapEvery = 5
	serveSetups    = 5 // cold daemon start-ups per run; setup_s is their median
	// serveHeapJobs is how many jobs heap_peak_mb covers. The daemon keeps
	// every finished job's checkpoint and metric ring, so its heap grows
	// with the jobs served; over a fixed number of jobs the peak does not
	// move with throughput.
	serveHeapJobs = 8
)

// jobSample is what one client measured of one job.
type jobSample struct {
	jobMs, submitMs, firstMs, checkpointMs float64
	queueMs, runMs                         float64
	gapsMs                                 []float64 // between consecutive metric records
	losses                                 []float64
	records                                int
	allocs                                 uint64 // summed per-record allocation deltas
	wireBytes                              int64  // rank 0, cumulative at the last record
	perStream                              map[string]int64
	peak                                   uint64 // heap in use, sampled at each record
	traced                                 bool
	problems                               []string
}

func runServe(o options) (*outcome, error) {
	cfg, err := corpusConfig(o.root, o.seed)
	if err != nil {
		return nil, err
	}
	steps := serveJobSteps
	if o.steps > 0 {
		steps = o.steps
	}
	spec, err := json.Marshal(serve.Spec{Steps: steps, Config: cfg, SnapshotEvery: serveSnapEvery})
	if err != nil {
		return nil, err
	}
	snapDir, err := os.MkdirTemp(o.tmp, "serve-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(snapDir)

	// Set-up: a cold daemon brought to its first trained step. Each
	// start-up builds the server, opens its listener and runs one one-step
	// job of the served config to the end of its metric stream: the first
	// world, the per-rank BPE open, one step and its checkpoint. Every
	// start-up but the last is torn down again.
	warm, err := json.Marshal(serve.Spec{Steps: 1, Config: cfg})
	if err != nil {
		return nil, err
	}
	var setups []float64
	var srv *serve.Server
	var ts *httptest.Server
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveClients, MaxIdleConnsPerHost: serveClients}}
	defer client.CloseIdleConnections()
	for i := 0; i < serveSetups; i++ {
		t0 := time.Now()
		scfg := serve.DefaultConfig()
		scfg.SnapshotDir = snapDir
		if srv, err = serve.New(scfg, nil); err != nil {
			return nil, err
		}
		ts = httptest.NewServer(srv.Handler())
		var st serve.Status
		err := doJSON(client, http.MethodPost, ts.URL+"/v1/jobs", warm, http.StatusCreated, &st)
		if err == nil {
			_, err = do(client, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID+"/metrics", nil, http.StatusOK)
		}
		setups = append(setups, time.Since(t0).Seconds())
		if err == nil {
			err = doJSON(client, http.MethodGet, ts.URL+"/v1/jobs/"+st.ID, nil, http.StatusOK, &st)
		}
		if err == nil && st.State != serve.StateSucceeded {
			err = fmt.Errorf("set-up job ended %s (%s)", st.State, st.Error)
		}
		if err != nil {
			stopServer(srv, ts, client)
			return nil, fmt.Errorf("serve set-up: %w", err)
		}
		if i < serveSetups-1 {
			stopServer(srv, ts, client)
		}
	}
	defer stopServer(srv, ts, client)

	start := time.Now()
	lanes := newLanes(serveClients, start)
	deadline := start.Add(time.Duration(o.seconds * float64(time.Second)))
	var mu sync.Mutex
	var samples []jobSample
	var heapPeak uint64
	started := 0
	var wg sync.WaitGroup
	for c := 0; c < serveClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			ln, heap := lanes[c], newHeapSampler()
			for n := 0; ; n++ {
				// Every client makes minJobs jobs at least, so a traced
				// run has jobs with tracing off and on.
				mu.Lock()
				enough := len(samples)*(steps-1) >= o.minSteps
				stop := n >= minJobs && enough && !time.Now().Before(deadline)
				var hs *heapSampler
				if !stop && started < serveHeapJobs {
					hs = heap
				}
				started++
				mu.Unlock()
				if stop {
					return
				}
				ln.on = o.trace && n%2 == 1
				js := runJob(client, ts.URL, spec, steps, ln, n+1, hs)
				mu.Lock()
				samples = append(samples, js)
				heapPeak = max(heapPeak, js.peak)
				mu.Unlock()
			}
		}(c)
	}
	wg.Wait()
	wall := time.Since(start)

	out := &outcome{lanes: lanes}
	var jobs, submit, queue, first, run, ckpt []float64
	var gaps [][]float64
	ngaps := 0
	var records, allocs float64
	var busy [2]float64
	var njobs [2]int
	tokensPerJob := float64(steps * cfg.GlobalBatch * cfg.Data.SeqLen)
	for i, js := range samples {
		out.attempted++
		for _, p := range js.problems {
			out.problems = append(out.problems, fmt.Sprintf("job %d: %s", i, p))
		}
		same := i == 0 || equalLosses(js.losses, samples[0].losses)
		if !same {
			out.problems = append(out.problems, fmt.Sprintf("job %d: loss trajectory %v differs from job 0's %v (same spec)", i, js.losses, samples[0].losses))
		}
		if len(js.problems) > 0 || !same {
			out.failed++
		}
		jobs = append(jobs, js.jobMs)
		gaps = append(gaps, js.gapsMs)
		ngaps += len(js.gapsMs)
		submit = append(submit, js.submitMs)
		queue = append(queue, js.queueMs)
		first = append(first, js.firstMs)
		run = append(run, js.runMs)
		ckpt = append(ckpt, js.checkpointMs)
		records += float64(js.records)
		allocs += float64(js.allocs)
		tr := 0
		if js.traced {
			tr = 1
		}
		busy[tr] += js.jobMs
		njobs[tr]++
	}
	nj := float64(len(samples))
	lossFinal := 0.0
	if l := samples[0].losses; len(l) > 0 {
		lossFinal = l[len(l)-1]
	}
	// The daemon's per-rank residency is that of the job it runs: one
	// in-process job of the same config, one step long, measures it.
	res, err := residency(cfg)
	if err != nil {
		return nil, err
	}
	if !o.trace {
		out.metrics = metricSet{
			"tokens_per_s":         tokensPerJob * nj / wall.Seconds(),
			"step_ms_p50":          jobQuantile(gaps, 0.5),
			"step_ms_p90":          jobQuantile(gaps, 0.9),
			"setup_s":              median(setups),
			"loss_final":           lossFinal,
			"resident_mb_per_rank": float64(res.state+res.compute) / mb,
			"heap_peak_mb":         float64(heapPeak) / mb,
			"jobs_per_s":           nj / wall.Seconds(),
			"job_ms_p50":           quantile(jobs, 0.5),
			"job_ms_p90":           quantile(jobs, 0.9),
		}
		return out, nil
	}

	m := metricSet{
		"serve.submit_ms_p50":       median(submit),
		"serve.queue_ms_p50":        median(queue),
		"serve.first_record_ms_p50": median(first),
		"serve.run_ms_p50":          median(run),
		"serve.checkpoint_ms_p50":   median(ckpt),
		"serve.records_per_job":     ratio(records, nj),
		"engine.allocs_per_step":    ratio(allocs, records),
		"data.open_ms":              median(res.opens),

		"zero.model_state_mb_per_rank":      float64(res.state) / mb,
		"zero.compute_resident_mb_per_rank": float64(res.compute) / mb,
		"zero.grad_accum_elems":             float64(res.accumElems),
		"zero.useful_step_frac":             1,

		"samples.steps": float64(ngaps),
		"samples.jobs":  nj,
	}
	last := samples[len(samples)-1]
	perStep := float64(steps)
	m["comm.wire_mb_per_step"] = float64(last.wireBytes) / mb / perStep
	for _, name := range streams {
		m["comm."+name+"_mb_per_step"] = streamMB(cfg, name, last.perStream[name]) / perStep
	}
	untraced := ratio(float64(njobs[0]), busy[0])
	traced := ratio(float64(njobs[1]), busy[1])
	m["trace.overhead_frac"] = 1 - ratio(traced, untraced)
	var roots, covered int64
	for _, ln := range lanes {
		lt := ln.layerTimes(kJob, 1)
		roots += lt.roots
		covered += lt.covered
	}
	m["trace.coverage_frac"] = ratio(float64(covered), float64(roots))

	p := probeShape(cfg)
	fl := modelFloor(p)
	m["model.fwd_ms_per_step"] = fl.fwdMs
	m["model.bwd_ms_per_step"] = fl.bwdMs
	kernelProbes(p, m)
	collectiveProbes(cfg, m)
	out.metrics = m
	return out, nil
}

// runJob drives one job through the HTTP API: submit, follow the metric
// stream to its end, read the status, fetch and decode the checkpoint.
func runJob(client *http.Client, base string, spec []byte, steps int, ln *lane, seq int, heap *heapSampler) (js jobSample) {
	js.traced = ln.on
	fail := func(format string, args ...any) { js.problems = append(js.problems, fmt.Sprintf(format, args...)) }
	t0 := time.Now()
	root := ln.open(kJob, -1, seq)
	defer func() {
		ln.close(root)
		js.jobMs = float64(time.Since(t0)) / 1e6
	}()

	id := ln.open(kSubmit, root, seq)
	var st serve.Status
	err := doJSON(client, http.MethodPost, base+"/v1/jobs", spec, http.StatusCreated, &st)
	ln.close(id)
	js.submitMs = float64(time.Since(t0)) / 1e6
	if err != nil {
		fail("submit: %v", err)
		return js
	}

	id = ln.open(kStream, root, seq)
	js.followMetrics(client, base+"/v1/jobs/"+st.ID+"/metrics", t0, heap, fail)
	ln.close(id)
	if js.records != steps {
		fail("metric stream held %d records, want %d", js.records, steps)
	}

	id = ln.open(kStatus, root, seq)
	err = doJSON(client, http.MethodGet, base+"/v1/jobs/"+st.ID, nil, http.StatusOK, &st)
	ln.close(id)
	if err != nil {
		fail("status: %v", err)
		return js
	}
	if st.State != serve.StateSucceeded {
		fail("job ended %s (%s)", st.State, st.Error)
	}
	js.queueMs = float64(st.StartedAt.Sub(st.SubmittedAt)) / 1e6
	js.runMs = float64(st.FinishedAt.Sub(st.StartedAt)) / 1e6

	c0 := time.Now()
	id = ln.open(kCheckpoint, root, seq)
	blob, err := do(client, http.MethodGet, base+"/v1/jobs/"+st.ID+"/checkpoint", nil, http.StatusOK)
	ln.close(id)
	js.checkpointMs = float64(time.Since(c0)) / 1e6
	if err != nil {
		fail("checkpoint: %v", err)
		return js
	}
	snap, err := zero.DecodeSnapshot(blob)
	if err != nil {
		fail("checkpoint: %v", err)
		return js
	}
	if snap.OptSteps != steps {
		fail("checkpoint at optimizer step %d, want %d", snap.OptSteps, steps)
	}
	return js
}

// followMetrics reads the NDJSON record stream to its end, timing each
// record's arrival and checking the step sequence and the losses. A nil
// heap sampler leaves the job out of heap_peak_mb.
func (js *jobSample) followMetrics(client *http.Client, url string, t0 time.Time, heap *heapSampler, fail func(string, ...any)) {
	resp, err := client.Get(url)
	if err != nil {
		fail("metrics: %v", err)
		return
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		fail("metrics: HTTP %d", resp.StatusCode)
		return
	}
	sc := bufio.NewScanner(resp.Body)
	var prev time.Time
	for sc.Scan() {
		now := time.Now()
		var rec serve.Record
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			fail("metric record %d: %v", js.records+1, err)
			return
		}
		js.records++
		if rec.Step != js.records {
			fail("metric record %d is step %d", js.records, rec.Step)
		}
		if math.IsNaN(rec.Loss) || math.IsInf(rec.Loss, 0) {
			fail("step %d loss is %v", rec.Step, rec.Loss)
		}
		if js.records == 1 {
			js.firstMs = float64(now.Sub(t0)) / 1e6
		} else {
			js.gapsMs = append(js.gapsMs, float64(now.Sub(prev))/1e6)
		}
		prev = now
		js.losses = append(js.losses, rec.Loss)
		js.allocs += rec.Allocs
		js.wireBytes = rec.WireBytes
		js.perStream = rec.PerStream
		if heap != nil {
			js.peak = max(js.peak, heap.live())
		}
	}
	if err := sc.Err(); err != nil {
		fail("metrics stream: %v", err)
	}
	if n := len(js.losses); n > 1 && !(js.losses[n-1] < js.losses[0]) {
		fail("final loss %.6g is not below the first boundary loss %.6g", js.losses[n-1], js.losses[0])
	}
}

func equalLosses(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// do sends one request and returns the body, failing on any status but want.
func do(client *http.Client, method, url string, body []byte, want int) ([]byte, error) {
	req, err := http.NewRequest(method, url, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	resp, err := client.Do(req)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	blob, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != want {
		return nil, fmt.Errorf("%s %s: HTTP %d: %s", method, url, resp.StatusCode, bytes.TrimSpace(blob))
	}
	return blob, nil
}

func doJSON(client *http.Client, method, url string, body []byte, want int, v any) error {
	blob, err := do(client, method, url, body, want)
	if err != nil {
		return err
	}
	return json.Unmarshal(blob, v)
}

// stopServer drains the scheduler and closes the listener.
func stopServer(srv *serve.Server, ts *httptest.Server, client *http.Client) {
	client.CloseIdleConnections()
	ts.Close()
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	srv.Drain(ctx) //nolint:errcheck // every job already ended; nothing to wait for
}

// jobResidency is the per-rank state of one in-process job of a config.
type jobResidency struct {
	state, compute int64
	accumElems     int
	opens          []float64 // ms
}

// residency runs one in-process job of cfg, one optimizer step long, and
// reads rank 0's model state and compute residency after it, timing
// OpenData on every rank.
func residency(cfg engine.Config) (jobResidency, error) {
	var res jobResidency
	opens := make([]float64, cfg.Ranks)
	var openErr error
	var once sync.Once
	_, err := engine.Run(cfg, func(e *engine.Engine) {
		t0 := time.Now()
		ld, err := engine.OpenData(cfg)
		if err != nil {
			once.Do(func() { openErr = err })
			return
		}
		defer ld.Close()
		opens[e.Rank()] = float64(time.Since(t0)) / 1e6
		e.TrainStream(ld)
		if e.Rank() == 0 {
			res.state = e.ModelStateBytes()
			res.compute = e.Trainer().ComputeResidencyBytes()
			res.accumElems = e.GradAccumElems()
		}
	})
	if err == nil {
		err = openErr
	}
	res.opens = opens
	return res, err
}
