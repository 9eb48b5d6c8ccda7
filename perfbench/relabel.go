package main

import (
	"fmt"
	"time"

	"ndpipe/internal/labeldb"
	"ndpipe/internal/telemetry"
)

// pass is one near-data offline-inference pass over every stored photo.
type pass struct {
	wall, cpu    float64 // seconds
	refresh      labeldb.RefreshStats
	layers       snap
	traced       bool
	trace        uint64
	failed       bool
	failedReason string
}

// runPass runs and checks one OfflineInference pass; repeat says an earlier
// pass already labeled every photo at this model version, so no label may
// change.
func runPass(f *fleet, rec *recorder, repeat bool) pass {
	var p pass
	before := takeSnap()
	var root, call span
	tc := telemetry.SpanContext{}
	if rec != nil {
		p.traced = true
		p.trace = uint64(telemetry.NewTraceID())
		root = rec.begin(p.trace, 0, "bench.pass")
		call = rec.begin(p.trace, root.id, "call.OfflineInference")
		tc = call.ctx()
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	st, err := f.tn.OfflineInferenceTraced(tc, batchSize)
	end := time.Now()
	p.wall = end.Sub(t0).Seconds()
	p.cpu = cpuSeconds() - cpu0
	if rec != nil {
		rec.endAt(call, end)
		rec.endAt(root, end)
		rec.collectProgram(p.trace)
	}
	p.layers = takeSnap().sub(before)
	p.refresh = st
	switch {
	case err != nil:
		p.failed, p.failedReason = true, err.Error()
	case st.Total != preloadN:
		p.failed, p.failedReason = true, fmt.Sprintf("relabeled %d photos, want %d", st.Total, preloadN)
	case repeat && st.Changed != 0:
		p.failed, p.failedReason = true, fmt.Sprintf("%d labels changed on a repeat pass", st.Changed)
	}
	return p
}

// runPasses runs back-to-back passes while another one fits in budget (at
// least min).
// With rec set, passes alternate traced and untraced, starting traced.
func runPasses(f *fleet, budget time.Duration, min int, rec *recorder) []pass {
	var out []pass
	t0 := time.Now()
	for len(out) < min || fits(t0, len(out), budget) {
		var r *recorder
		if rec != nil && len(out)%2 == 0 {
			r = rec
		}
		out = append(out, runPass(f, r, len(out) > 0))
	}
	return out
}
