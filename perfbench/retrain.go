package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"time"

	"ndpipe/internal/ftdmp"
	"ndpipe/internal/labeldb"
	"ndpipe/internal/nn"
	"ndpipe/internal/telemetry"
	"ndpipe/internal/tuner"
)

// top1Floor is the lowest top-1 accuracy on the fresh test set a cycle may
// reach. It was recorded on the commit that introduced the benchmark: the
// first cycle scored 0.8405-0.8665 over seeds 1-10, and the floor sits four
// points below the lowest.
const top1Floor = 0.80

// trainOptions makes every cycle do the same work: five epochs per run, no
// early stopping, so 15 epochs over three runs.
func trainOptions() ftdmp.TrainOptions {
	o := ftdmp.DefaultTrainOptions()
	o.MaxEpochs = 5
	o.Patience = 0
	return o
}

// cycle is one continuous-training cycle: FineTune → ApplyDelta →
// OfflineInference, as service.Retrain runs it.
type cycle struct {
	wall, cpu    float64 // seconds
	apply        float64 // timed ApplyDelta call, seconds
	rep          tuner.Report
	refresh      labeldb.RefreshStats
	top1         float64
	hash         uint32 // classifier after the commit
	layers       snap   // instrument activity during the cycle
	traced       bool
	trace        uint64
	failed       bool
	failedReason string
}

// classifierBytes is the classifier's deterministic binary encoding.
func classifierBytes(s nn.Snapshot) []byte {
	var b bytes.Buffer
	_ = nn.EncodeSnapshot(&b, s)
	return b.Bytes()
}

func hash32(b []byte) uint32 {
	h := fnv.New32a()
	h.Write(b)
	return h.Sum32()
}

// runCycle runs and checks one cycle. With rec set, it records a span
// around every call and hands the program the cycle's trace context.
func runCycle(f *fleet, in *inputs, rec *recorder) cycle {
	var c cycle
	v0 := f.tn.ModelVersion()
	before := takeSnap()
	var root span
	call := func(name string, fn func(telemetry.SpanContext) error) (float64, error) {
		if rec == nil {
			t0 := time.Now()
			err := fn(telemetry.SpanContext{})
			return time.Since(t0).Seconds(), err
		}
		s := rec.begin(root.trace, root.id, name)
		err := fn(s.ctx())
		return rec.end(s).Dur, err
	}
	if rec != nil {
		c.traced = true
		c.trace = uint64(telemetry.NewTraceID())
		root = rec.begin(c.trace, 0, "bench.cycle")
	}
	cpu0 := cpuSeconds()
	t0 := time.Now()
	var err error
	_, err = call("call.FineTune", func(tc telemetry.SpanContext) error {
		var e error
		c.rep, e = f.tn.FineTuneTraced(tc, nrun, batchSize, trainOptions())
		return e
	})
	if err == nil {
		c.apply, err = call("call.ApplyDelta", func(telemetry.SpanContext) error {
			return f.inf.ApplyDelta(c.rep.DeltaBlob, c.rep.ModelVersion)
		})
	}
	if err == nil {
		_, err = call("call.OfflineInference", func(tc telemetry.SpanContext) error {
			var e error
			c.refresh, e = f.tn.OfflineInferenceTraced(tc, batchSize)
			return e
		})
	}
	c.wall = time.Since(t0).Seconds()
	c.cpu = cpuSeconds() - cpu0
	if rec != nil {
		rec.endAt(root, t0.Add(time.Duration(c.wall*float64(time.Second))))
		rec.collectProgram(c.trace)
	}
	c.layers = takeSnap().sub(before)
	if err != nil {
		c.fail(err.Error())
		return c
	}
	c.check(f, in, v0)
	return c
}

func (c *cycle) fail(reason string) {
	if !c.failed {
		c.failed, c.failedReason = true, reason
	}
}

// check applies the cycle's output checks; any failure fails the cycle.
func (c *cycle) check(f *fleet, in *inputs, v0 int) {
	rep := c.rep
	switch {
	case rep.Images != preloadN:
		c.fail(fmt.Sprintf("trained %d images, want %d", rep.Images, preloadN))
	case rep.ImagesLost != 0 || rep.Degraded:
		c.fail(fmt.Sprintf("degraded round: lost %d images", rep.ImagesLost))
	case rep.Epochs != nrun*trainOptions().MaxEpochs:
		c.fail(fmt.Sprintf("%d epochs, want %d", rep.Epochs, nrun*trainOptions().MaxEpochs))
	case rep.ModelVersion != v0+1:
		c.fail(fmt.Sprintf("version %d after %d", rep.ModelVersion, v0))
	case f.inf.ModelVersion() != rep.ModelVersion:
		c.fail("inference server did not take the delta")
	case c.refresh.Total != preloadN:
		c.fail(fmt.Sprintf("relabeled %d photos, want %d", c.refresh.Total, preloadN))
	case f.tn.DB().OutdatedCount(rep.ModelVersion) != 0:
		c.fail("labels left outdated after the relabel")
	}
	want := classifierBytes(f.tn.Classifier().TakeSnapshot())
	c.hash = hash32(want)
	for _, ps := range f.stores {
		if !bytes.Equal(classifierBytes(ps.ClassifierSnapshot()), want) {
			c.fail("store " + ps.ID + " classifier differs from the tuner's")
		}
	}
	c.top1, _ = f.tn.Evaluate(in.test, 1)
	if c.top1 < top1Floor {
		c.fail(fmt.Sprintf("top-1 %.4f below floor %.2f", c.top1, top1Floor))
	}
}

// runCycles runs cycles while another one fits in budget (at least min). With rec set,
// cycles alternate traced and untraced, starting traced.
func runCycles(f *fleet, in *inputs, budget time.Duration, min int, rec *recorder) []cycle {
	var out []cycle
	t0 := time.Now()
	for len(out) < min || fits(t0, len(out), budget) {
		var r *recorder
		if rec != nil && len(out)%2 == 0 {
			r = rec
		}
		out = append(out, runCycle(f, in, r))
	}
	return out
}

// fits reports whether one more operation, at the mean duration of the
// done ones so far, still ends within budget of t0.
func fits(t0 time.Time, done int, budget time.Duration) bool {
	el := time.Since(t0)
	if done == 0 {
		return el < budget
	}
	return el+el/time.Duration(done) <= budget
}
