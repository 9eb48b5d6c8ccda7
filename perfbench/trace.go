package main

import (
	"bufio"
	"encoding/json"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ndpipe/internal/inferserver"
	"ndpipe/internal/telemetry"
)

// spanRec is one finished span: the benchmark's own spans around its calls
// into a layer, and the spans the program records itself, read back from
// telemetry.Default's trace collector after each traced operation.
type spanRec struct {
	Trace  uint64    `json:"trace"`
	ID     uint64    `json:"id"`
	Parent uint64    `json:"parent,omitempty"`
	Name   string    `json:"name"`
	Layer  string    `json:"layer"`
	Source string    `json:"source"` // "bench" or "program"
	Start  time.Time `json:"start"`
	Dur    float64   `json:"dur_s"`
}

func (s spanRec) end() time.Time { return s.Start.Add(time.Duration(s.Dur * float64(time.Second))) }

// layerOf maps a span name to the repository module that does its work.
func layerOf(name string) string {
	switch {
	case strings.HasPrefix(name, "bench."):
		return "bench"
	case name == "call.ApplyDelta" || name == "call.InferBatch":
		return "inferserver"
	case name == "call.UploadImage":
		return "serve"
	case name == "call.FineTune" || name == "call.OfflineInference":
		return "tuner"
	case name == "tuner.train-run":
		return "ftdmp" // the head training the tuner runs per pipelined run
	case strings.HasPrefix(name, "tuner."):
		return "tuner"
	case strings.HasPrefix(name, "pipestore."):
		return "pipestore"
	case name == "read" || name == "preproc" || name == "fecl":
		return "npe"
	}
	return "other"
}

// recorder keeps the benchmark's spans in memory; they are written out once
// the run ends. Span IDs start at a random base so they cannot collide with
// the program tracer's IDs inside one trace.
type recorder struct {
	mu    sync.Mutex
	spans []spanRec
	next  atomic.Uint64
}

func newRecorder() *recorder {
	r := &recorder{}
	r.next.Store(rand.Uint64() >> 1)
	return r
}

// span is an open benchmark span.
type span struct {
	trace, id, parent uint64
	name              string
	start             time.Time
}

func (r *recorder) begin(trace, parent uint64, name string) span {
	return span{trace: trace, id: r.next.Add(1), parent: parent, name: name, start: time.Now()}
}

// ctx is the span's context, handed to the program's *Traced entry points
// so its own spans nest under the benchmark's call span.
func (s span) ctx() telemetry.SpanContext {
	return telemetry.SpanContext{Trace: telemetry.TraceID(s.trace), Span: telemetry.SpanID(s.id)}
}

func (r *recorder) end(s span) spanRec {
	return r.endAt(s, time.Now())
}

func (r *recorder) endAt(s span, end time.Time) spanRec {
	rec := spanRec{Trace: s.trace, ID: s.id, Parent: s.parent, Name: s.name, Layer: layerOf(s.name),
		Source: "bench", Start: s.start, Dur: end.Sub(s.start).Seconds()}
	r.mu.Lock()
	r.spans = append(r.spans, rec)
	r.mu.Unlock()
	return rec
}

// collectProgram copies the program's own spans of one trace out of the
// collector (which only keeps recent traces, so call it right after the
// traced operation).
func (r *recorder) collectProgram(trace uint64) {
	var out []spanRec
	for _, s := range telemetry.Default.Traces().Spans(telemetry.TraceID(trace)) {
		out = append(out, spanRec{Trace: uint64(s.Trace), ID: uint64(s.ID), Parent: uint64(s.Parent),
			Name: s.Name, Layer: layerOf(s.Name), Source: "program", Start: s.Start, Dur: s.Duration})
	}
	r.mu.Lock()
	r.spans = append(r.spans, out...)
	r.mu.Unlock()
}

// trace returns every recorded span of one trace.
func (r *recorder) trace(id uint64) []spanRec {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []spanRec
	for _, s := range r.spans {
		if s.Trace == id {
			out = append(out, s)
		}
	}
	return out
}

// write stores every span as one JSON object per line.
func (r *recorder) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	r.mu.Lock()
	for _, s := range r.spans {
		if err := enc.Encode(s); err != nil {
			r.mu.Unlock()
			f.Close()
			return err
		}
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// selfTimes sums, per layer, each span's duration minus the part of its
// interval covered by its children (the spans whose parent it is).
func selfTimes(spans []spanRec) map[string]float64 {
	kids := make(map[uint64][]spanRec)
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	out := make(map[string]float64)
	for _, s := range spans {
		out[s.Layer] += s.Dur - covered(s, kids[s.ID])
	}
	return out
}

// covered is the length of the union of the children's intervals, clipped
// to the parent's.
func covered(p spanRec, kids []spanRec) float64 {
	if len(kids) == 0 {
		return 0
	}
	type iv struct{ a, b time.Time }
	ivs := make([]iv, 0, len(kids))
	pa, pb := p.Start, p.end()
	for _, k := range kids {
		a, b := k.Start, k.end()
		if a.Before(pa) {
			a = pa
		}
		if b.After(pb) {
			b = pb
		}
		if b.After(a) {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a.Before(ivs[j].a) })
	var total time.Duration
	var cur iv
	for i, v := range ivs {
		switch {
		case i == 0:
			cur = v
		case !v.a.After(cur.b):
			if v.b.After(cur.b) {
				cur.b = v.b
			}
		default:
			total += cur.b.Sub(cur.a)
			cur = v
		}
	}
	if len(ivs) > 0 {
		total += cur.b.Sub(cur.a)
	}
	return total.Seconds()
}

// timedBackend is the serve.Backend the traced upload run hands the
// gateway: while on, it times every InferBatch call from outside and
// remembers, per photo, the interval of the batch that carried it.
type timedBackend struct {
	inner *inferserver.Server
	on    atomic.Bool // off: calls pass straight through, untimed

	mu      sync.Mutex
	batches []float64               // InferBatch wall times, seconds
	carried map[uint64][2]time.Time // photo ID → its batch's interval
}

func newTimedBackend(inner *inferserver.Server) *timedBackend {
	return &timedBackend{inner: inner, carried: make(map[uint64][2]time.Time)}
}

func (b *timedBackend) InferBatch(reqs []inferserver.BatchRequest) []inferserver.BatchResult {
	if !b.on.Load() {
		return b.inner.InferBatch(reqs)
	}
	t0 := time.Now()
	out := b.inner.InferBatch(reqs)
	t1 := time.Now()
	b.mu.Lock()
	b.batches = append(b.batches, t1.Sub(t0).Seconds())
	for _, r := range reqs {
		b.carried[r.Img.ID] = [2]time.Time{t0, t1}
	}
	b.mu.Unlock()
	return out
}

// PrecisionMode forwards the backend's precision so the gateway derives
// the same cache keys it would over the bare inference server.
func (b *timedBackend) PrecisionMode() string { return b.inner.PrecisionMode() }

// take returns (and forgets) the interval of the batch that carried id.
func (b *timedBackend) take(id uint64) ([2]time.Time, bool) {
	b.mu.Lock()
	iv, ok := b.carried[id]
	delete(b.carried, id)
	b.mu.Unlock()
	return iv, ok
}

// batchTimes returns the InferBatch wall times recorded so far.
func (b *timedBackend) batchTimes() []float64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]float64(nil), b.batches...)
}
