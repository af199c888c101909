package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// spanKind names a timed call. Roots are one optimizer step (training) or
// one job (serving); every other kind is a call into a public entry point,
// timed from outside by the benchmark's own wrappers.
type spanKind uint8

const (
	kStep       spanKind = iota // root: one optimizer step on one rank
	kNextBatch                  // Batcher.NextBatch (data.Loader or model.SyntheticStream)
	kForward                    // Engine.Forward
	kBackward                   // Engine.Backward
	kUpdate                     // Engine.Step (the optimizer fires on the boundary)
	kTick                       // elastic.Snapshotter.Tick, inside the boundary Step
	kOpenData                   // root: engine.OpenData at set-up
	kJob                        // root: one zeroserve job, POST to checkpoint received
	kSubmit                     // POST /v1/jobs
	kStream                     // GET /v1/jobs/{id}/metrics, to the end of the stream
	kStatus                     // GET /v1/jobs/{id}
	kCheckpoint                 // GET /v1/jobs/{id}/checkpoint
)

var kindNames = [...]string{
	kStep:       "step",
	kNextBatch:  "NextBatch",
	kForward:    "Forward",
	kBackward:   "Backward",
	kUpdate:     "Step",
	kTick:       "Tick",
	kOpenData:   "OpenData",
	kJob:        "job",
	kSubmit:     "POST /v1/jobs",
	kStream:     "GET metrics",
	kStatus:     "GET status",
	kCheckpoint: "GET checkpoint",
}

// span is one timed call: monotonic start and end in nanoseconds since the
// run's clock base, its parent's index in the same lane (-1 for a root),
// and the step or job it belongs to.
type span struct {
	start, end int64
	parent     int32
	seq        int32
	kind       spanKind
}

// lane holds one rank's (or one client's) spans in memory preallocated
// before timing starts. Only its owning goroutine touches it. A disabled
// lane records nothing: open returns -1 and close ignores it.
type lane struct {
	base  time.Time
	on    bool
	spans []span
}

// laneCap bounds the spans a lane holds without growing: a run of the
// fastest workload records about 2000 steps of 9 spans per rank.
const laneCap = 1 << 16

func newLanes(n int, base time.Time) []*lane {
	ls := make([]*lane, n)
	for i := range ls {
		ls[i] = &lane{base: base, spans: make([]span, 0, laneCap)}
	}
	return ls
}

func (l *lane) now() int64 { return int64(time.Since(l.base)) }

// open starts a span and returns its index, or -1 when the lane is off.
func (l *lane) open(k spanKind, parent int32, seq int) int32 {
	if !l.on {
		return -1
	}
	l.spans = append(l.spans, span{start: l.now(), parent: parent, seq: int32(seq), kind: k})
	return int32(len(l.spans) - 1)
}

func (l *lane) close(id int32) {
	if id >= 0 {
		l.spans[id].end = l.now()
	}
}

// layerTimes sums a lane's spans under the roots of kind root whose seq is
// at least minSeq: per-kind busy time, the roots' total, and the part of
// the roots their direct children cover (what coverage and self time are
// made of). Times are in nanoseconds.
type layerTimes struct {
	busy    map[spanKind]int64
	count   map[spanKind]int
	roots   int64
	covered int64
	nroots  int
}

func (l *lane) layerTimes(root spanKind, minSeq int) layerTimes {
	lt := layerTimes{busy: map[spanKind]int64{}, count: map[spanKind]int{}}
	for _, s := range l.spans {
		if int(s.seq) < minSeq {
			continue
		}
		d := s.end - s.start
		if s.parent < 0 {
			if s.kind == root {
				lt.roots += d
				lt.nroots++
			}
			continue
		}
		lt.busy[s.kind] += d
		lt.count[s.kind]++
		if l.spans[s.parent].kind == root {
			lt.covered += d
		}
	}
	return lt
}

// traceEvent is one Chrome trace-event ("X" complete event, microseconds),
// the format Perfetto and chrome://tracing open.
type traceEvent struct {
	Name string    `json:"name"`
	Ph   string    `json:"ph"`
	Ts   float64   `json:"ts"`
	Dur  float64   `json:"dur"`
	Pid  int       `json:"pid"`
	Tid  int       `json:"tid"`
	Args traceArgs `json:"args"`
}

type traceArgs struct {
	ID     int `json:"id"`
	Parent int `json:"parent"`
	Seq    int `json:"seq"`
}

type traceFile struct {
	TraceEvents     []traceEvent   `json:"traceEvents"`
	DisplayTimeUnit string         `json:"displayTimeUnit"`
	Metadata        map[string]any `json:"metadata"`
}

// writeTrace writes every lane as one thread of a Chrome trace file. A
// span's id is its index in its lane; parent is -1 for roots.
func writeTrace(path string, lanes []*lane, meta map[string]any) error {
	tf := traceFile{DisplayTimeUnit: "ms", Metadata: meta}
	for tid, l := range lanes {
		for i, s := range l.spans {
			tf.TraceEvents = append(tf.TraceEvents, traceEvent{
				Name: kindNames[s.kind], Ph: "X",
				Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
				Pid: 0, Tid: tid,
				Args: traceArgs{ID: i, Parent: int(s.parent), Seq: int(s.seq)},
			})
		}
	}
	blob, err := json.Marshal(tf)
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, blob, 0o644)
}
