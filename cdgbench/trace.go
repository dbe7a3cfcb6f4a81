package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/coverage"
	"repro/internal/duv"
	"repro/internal/generator"
	"repro/internal/obs"
	"repro/internal/sim"
)

// Layers of the traced run, outermost first. A span's parent is the
// innermost span of an outer layer whose interval holds its start, so
// the wrappers need no goroutine bookkeeping: operations run one at a
// time in the figure workloads, and phases run one at a time inside an
// operation.
const (
	layerBench = "bench" // one workload operation (figure run, campaign)
	layerCore  = "core"  // one flow phase, read from the program's phase spans
	layerFarm  = "farm"  // one remote chunk exchange
	layerDUV   = "duv"   // one Simulate call
)

var layerTid = map[string]int{layerBench: 1, layerCore: 2, layerFarm: 3, layerDUV: 4}

// span is one traced call. Times are nanoseconds since the tracer's
// epoch.
type span struct {
	name, layer string
	start, end  int64
	parent      int // index into tracer.spans, -1 for a root
}

// tracer keeps every span of a traced run in memory; write exports
// them as Chrome trace-event JSON when the run ends.
type tracer struct {
	epoch time.Time
	run   string

	mu    sync.Mutex
	spans []span
}

func newTracer(run string) *tracer { return &tracer{epoch: time.Now(), run: run} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(name, layer string, start, end int64) {
	t.mu.Lock()
	t.spans = append(t.spans, span{name: name, layer: layer, start: start, end: end, parent: -1})
	t.mu.Unlock()
}

// addObs imports the program's own phase spans from an obs tracer
// created at epoch.
func (t *tracer) addObs(epoch time.Time, events []obs.TraceEvent) {
	off := int64(epoch.Sub(t.epoch))
	for _, ev := range events {
		if ev.Cat != "phase" {
			continue
		}
		start := off + int64(ev.Ts*1e3)
		t.add(ev.Name, layerCore, start, start+int64(ev.Dur*1e3))
	}
}

// busy sums the durations of a layer's spans.
func (t *tracer) busy(layer string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var ns int64
	for _, s := range t.spans {
		if s.layer == layer {
			ns += s.end - s.start
		}
	}
	return time.Duration(ns)
}

// durations lists the durations of a layer's spans, by name when name
// is non-empty.
func (t *tracer) durations(layer, name string) []time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []time.Duration
	for _, s := range t.spans {
		if s.layer == layer && (name == "" || s.name == name) {
			out = append(out, time.Duration(s.end-s.start))
		}
	}
	return out
}

// link assigns parents by containment: phases to operations, remote
// exchanges and Simulate calls to phases (or to the operation when no
// phase holds them).
func (t *tracer) link() {
	t.mu.Lock()
	defer t.mu.Unlock()
	byLayer := map[string][]int{}
	for i, s := range t.spans {
		byLayer[s.layer] = append(byLayer[s.layer], i)
	}
	for _, idx := range byLayer {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].start < t.spans[idx[b]].start })
	}
	find := func(outer []int, at int64) int {
		// The last outer span starting at or before at, if it holds at.
		k := sort.Search(len(outer), func(i int) bool { return t.spans[outer[i]].start > at }) - 1
		if k >= 0 && t.spans[outer[k]].end >= at {
			return outer[k]
		}
		return -1
	}
	for _, i := range byLayer[layerCore] {
		t.spans[i].parent = find(byLayer[layerBench], t.spans[i].start)
	}
	for _, leaf := range []string{layerFarm, layerDUV} {
		for _, i := range byLayer[leaf] {
			p := find(byLayer[layerCore], t.spans[i].start)
			if p < 0 {
				p = find(byLayer[layerBench], t.spans[i].start)
			}
			t.spans[i].parent = p
		}
	}
}

// selfTime returns, per layer, the summed self time of its spans: each
// span's duration minus the part of it that its children's union
// covers. Call link first.
func (t *tracer) selfTime() map[string]time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	kids := map[int][][2]int64{}
	for _, s := range t.spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], [2]int64{s.start, s.end})
		}
	}
	out := map[string]time.Duration{}
	for i, s := range t.spans {
		covered := unionLen(kids[i], s.start, s.end)
		out[s.layer] += time.Duration(s.end - s.start - covered)
	}
	return out
}

// unionLen is the length of the union of ivs clipped to [lo, hi].
func unionLen(ivs [][2]int64, lo, hi int64) int64 {
	if len(ivs) == 0 {
		return 0
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total int64
	curLo, curHi := int64(-1), int64(-1)
	for _, iv := range ivs {
		a, b := max(iv[0], lo), min(iv[1], hi)
		if b <= a {
			continue
		}
		if a > curHi {
			total += curHi - curLo
			curLo, curHi = a, b
		} else if b > curHi {
			curHi = b
		}
	}
	return total + curHi - curLo
}

// maxExportedSimulate caps the Simulate spans written to the trace
// file; self times above still use every span.
const maxExportedSimulate = 5000

type traceEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// write exports the spans as a Chrome trace-event JSON array.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	events := make([]traceEvent, 0, len(t.spans))
	simulate := 0
	for i, s := range t.spans {
		if s.layer == layerDUV {
			if simulate++; simulate > maxExportedSimulate {
				continue
			}
		}
		events = append(events, traceEvent{
			Name: s.name, Cat: s.layer, Ph: "X",
			Ts: float64(s.start) / 1e3, Dur: float64(s.end-s.start) / 1e3,
			Pid: 1, Tid: layerTid[s.layer],
			Args: map[string]any{"run": t.run, "id": i, "parent": s.parent},
		})
	}
	t.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(events)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

// timedDUV wraps a unit so every Simulate call becomes a span.
type timedDUV struct {
	duv.DUV
	tr *tracer
}

func (d timedDUV) Simulate(g *generator.Generator) coverage.Vector {
	start := d.tr.now()
	v := d.DUV.Simulate(g)
	d.tr.add("Simulate", layerDUV, start, d.tr.now())
	return v
}

// chunkRunner is what the scheduler's remote lanes use from the farm
// dispatcher: the allocating and the merge-into entry points.
type chunkRunner interface {
	sim.ChunkRunner
	sim.ChunkRunnerInto
}

// timedRunner wraps the farm dispatcher to count the remote chunk
// exchanges that succeeded and failed (the scheduler re-runs failed
// ones locally). With a tracer installed every exchange also becomes a
// span.
type timedRunner struct {
	inner  chunkRunner
	tr     atomic.Pointer[tracer]
	ok     atomic.Int64
	errors atomic.Int64
}

func (r *timedRunner) RunChunk(c sim.RemoteChunk) (*coverage.Counts, error) {
	tr, start := r.begin()
	out, err := r.inner.RunChunk(c)
	r.done(tr, start, err)
	return out, err
}

func (r *timedRunner) RunChunkInto(c sim.RemoteChunk, dst *coverage.Counts) error {
	tr, start := r.begin()
	err := r.inner.RunChunkInto(c, dst)
	r.done(tr, start, err)
	return err
}

func (r *timedRunner) begin() (*tracer, int64) {
	tr := r.tr.Load()
	if tr == nil {
		return nil, 0
	}
	return tr, tr.now()
}

func (r *timedRunner) done(tr *tracer, start int64, err error) {
	if tr != nil {
		tr.add("RunChunk", layerFarm, start, tr.now())
	}
	if err != nil {
		r.errors.Add(1)
	} else {
		r.ok.Add(1)
	}
}
