package main

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"ndpipe/internal/dataset"
	"ndpipe/internal/inferserver"
	"ndpipe/internal/serve"
	"ndpipe/internal/telemetry"
)

// Open-loop upload settings. The offered rates were chosen once, on the
// commit that introduced the benchmark, against the gateway's knee on a
// 2-core host: p99 held within the latency limit up to 60k uploads/s and
// broke through it at 70k. Low is well below the knee, mid about half of
// it, high three quarters, leaving room for the host's own drift. They are
// frozen; a later change is measured at the same rates.
var uploadRates = []struct {
	name string
	rate float64 // uploads per second
}{
	{"low", 10000},
	{"mid", 30000},
	{"high", 50000},
}

const (
	uploadSlots   = 1024                  // waiting slots: concurrent uploads in flight at most
	latencyLimit  = 50 * time.Millisecond // the p99 limit a rate must meet to count as goodput
	minAchieved   = 0.99                  // achieved/offered a rate must keep to count
	twinSamples   = 64                    // results compared against the sequential twin rig
	traceWindow   = 250 * time.Millisecond
	tick          = time.Millisecond // arrival granularity of the open loop
	spanSample    = 10               // one upload in ten of a traced window records its spans
	uploadReplica = 2
)

// uploadStep is one fixed-rate open-loop step.
type uploadStep struct {
	rate      float64
	offered   int
	latMs     []float64 // per upload, from its scheduled send time
	lateMaxMs float64   // how far behind schedule the generator handed an upload out
	cpu       float64   // process CPU seconds over the step
	span      float64   // seconds from the first scheduled send to the last completion
	drained   bool      // the last upload completed within latencyLimit of the schedule's end
	errors    int64
	stats     serve.Stats
	layers    snap
	gc        gcReading
	failed    int
	reasons   []string

	// Traced steps only: upload latencies in traced and untraced windows,
	// the gateway's own time per upload (latency from the call minus its
	// batch's InferBatch time), and InferBatch timings.
	tracedMs, plainMs []float64
	waitMs            []float64
	batchMs           []float64
	busyPct           float64
}

func (s *uploadStep) fail(n int, reason string) {
	s.failed += n
	s.reasons = append(s.reasons, reason)
}

func (s *uploadStep) p(q float64) float64 { return quantile(s.latMs, q) }

// achieved is the completed rate over the offered rate.
func (s *uploadStep) achieved() float64 {
	if s.span <= 0 {
		return 0
	}
	return (float64(s.offered) / s.span) / s.rate
}

// meets reports whether the step counts toward goodput: p99 within the
// limit, the offered rate sustained and no backlog left at the end.
func (s *uploadStep) meets() bool {
	return s.failed == 0 && s.p(0.99) <= ms(latencyLimit) && s.achieved() >= minAchieved && s.drained
}

// goodput is the rate of uploads completed within the latency limit.
func (s *uploadStep) goodput() float64 {
	if s.span <= 0 {
		return 0
	}
	ok := 0
	for _, l := range s.latMs {
		if l <= ms(latencyLimit) {
			ok++
		}
	}
	return float64(ok) / s.span
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// runUploadStep offers uploads at a fixed rate for dur from one scheduling
// goroutine into a fixed pool of waiting slots, timing each upload from
// when it was due. With rec set, spans are recorded in alternate windows of
// traceWindow (the others run untraced, for the overhead comparison).
func runUploadStep(f *fleet, in *inputs, rate float64, dur time.Duration, salt int64, rec *recorder) *uploadStep {
	n := int(rate * dur.Seconds())
	st := &uploadStep{rate: rate, offered: n, latMs: make([]float64, n)}
	stream := in.uploadStream(n, salt, freshIDLo+uint64(salt)<<32)
	stride := max(1, n/twinSamples)
	results := make([]inferserver.UploadResult, n/stride+1)

	db0 := f.tn.DB().Len()
	gc0 := readGC()
	before := takeSnap()
	traced := make([]bool, n)

	slots := make(chan int)
	var (
		wg   sync.WaitGroup
		errs atomic.Int64
		mu   sync.Mutex // guards end and st.waitMs
		end  time.Time  // the last completion
	)
	// Arrivals are released in ticks: every upload of one tick is due at
	// the tick's start. A tick is as coarse as the runtime's timers are when
	// the process idles, so the schedule holds whether it is busy or not.
	perTick := max(1, int(rate*tick.Seconds()))
	start := time.Now().Add(tick)
	due := func(i int) time.Time { return start.Add(time.Duration(i/perTick) * tick) }
	for w := 0; w < uploadSlots; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var last time.Time
			defer func() {
				mu.Lock()
				if last.After(end) {
					end = last
				}
				mu.Unlock()
			}()
			for i := range slots {
				called := time.Now()
				res, err := f.gw.UploadImage(stream[i])
				done := time.Now()
				st.latMs[i] = done.Sub(due(i)).Seconds() * 1e3
				last = done
				if err != nil {
					errs.Add(1)
					continue
				}
				if i%stride == 0 {
					results[i/stride] = res
				}
				if traced[i] {
					wait := recordUpload(rec, f.backend, stream[i].ID, called, done, i%spanSample == 0)
					mu.Lock()
					st.waitMs = append(st.waitMs, wait...)
					mu.Unlock()
				}
			}
		}()
	}
	cpu0 := cpuSeconds()
	window := -1
	for i := 0; i < n; i++ {
		d := due(i)
		if now := time.Now(); now.Before(d) {
			time.Sleep(d.Sub(now))
		}
		if rec != nil {
			if w := int(d.Sub(start) / traceWindow); w != window {
				window = w
				f.backend.on.Store(w%2 == 0)
			}
			traced[i] = window%2 == 0
		}
		slots <- i
		if late := time.Since(d).Seconds() * 1e3; late > st.lateMaxMs {
			st.lateMaxMs = late
		}
	}
	close(slots)
	wg.Wait()
	st.cpu = cpuSeconds() - cpu0
	st.span = end.Sub(start).Seconds()
	st.drained = end.Sub(due(n-1)) <= latencyLimit
	st.errors = errs.Load()
	st.layers = takeSnap().sub(before)
	st.gc = readGC().sub(gc0)
	// Each step runs on a gateway of its own, so its counters are the step's.
	st.stats = f.gw.Stats()
	if rec != nil {
		f.backend.on.Store(false)
		for i, l := range st.latMs {
			if traced[i] {
				st.tracedMs = append(st.tracedMs, l)
			} else {
				st.plainMs = append(st.plainMs, l)
			}
		}
		bt := f.backend.batchTimes()
		sum := 0.0
		for _, b := range bt {
			st.batchMs = append(st.batchMs, b*1e3)
			sum += b
		}
		// The backend timed only the traced windows: half the step.
		st.busyPct = pct(sum, st.span/2)
	}
	st.check(f, in, db0, stream, stride, results)
	return st
}

// recordUpload records one sampled upload's spans — UploadImage and, inside
// it, the InferBatch call that carried the photo — and returns the
// gateway's own time for it in ms. An upload whose batch ran untimed, at a
// window boundary, records nothing.
func recordUpload(rec *recorder, b *timedBackend, id uint64, called, done time.Time, sampled bool) []float64 {
	iv, ok := b.take(id)
	if !ok || !sampled {
		return nil // unsampled, or carried by a batch that ran untimed
	}
	trace := uint64(telemetry.NewTraceID())
	up := rec.begin(trace, 0, "call.UploadImage")
	up.start = called
	upRec := rec.endAt(up, done)
	bs := rec.begin(trace, up.id, "call.InferBatch")
	bs.start = iv[0]
	batch := rec.endAt(bs, iv[1])
	return []float64{(upRec.Dur - batch.Dur) * 1e3}
}

// check applies the step's output checks. A failed check fails the uploads
// it covers.
func (s *uploadStep) check(f *fleet, in *inputs, db0 int, stream []dataset.Image, stride int, results []inferserver.UploadResult) {
	n := s.offered
	if s.errors > 0 {
		s.fail(int(s.errors), fmt.Sprintf("%d uploads returned an error", s.errors))
	}
	if s.stats.Admitted != int64(n) || s.stats.Completed != int64(n) || s.stats.Rejected() != 0 {
		s.fail(n, fmt.Sprintf("gateway admitted %d, completed %d, rejected %d of %d offered",
			s.stats.Admitted, s.stats.Completed, s.stats.Rejected(), n))
	}
	if got := f.tn.DB().Len() - db0; got != n {
		s.fail(n, fmt.Sprintf("label database grew by %d, want %d", got, n))
	}
	if got, want := f.storedPhotos(), f.r*f.tn.DB().Len(); got != want {
		s.fail(n, fmt.Sprintf("stores hold %d photo objects, want %d", got, want))
	}
	var sample []dataset.Image
	var got []inferserver.UploadResult
	for i := 0; i < n; i += stride {
		sample = append(sample, stream[i])
		got = append(got, results[i/stride])
	}
	want, err := twinUploads(in, f.r, sample)
	if err != nil {
		s.fail(len(sample), "twin rig: "+err.Error())
		return
	}
	for i := range want {
		g, w := got[i], want[i]
		if g.ImageID != w.ImageID || g.Label != w.Label || g.ModelVersion != w.ModelVersion ||
			g.StoreID != w.StoreID || math.Float64bits(g.Confidence) != math.Float64bits(w.Confidence) {
			s.fail(1, fmt.Sprintf("photo %d: gateway result %+v, sequential twin %+v", w.ImageID, g, w))
		}
	}
}
