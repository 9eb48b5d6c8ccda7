package main

import (
	"fmt"

	"ndpipe/internal/telemetry"
)

// Instruments the program already exports, read before and after each
// timed operation. Per-store series are listed for the fleet's store IDs.
var (
	histNames = func() []string {
		names := []string{
			"tuner_run_train_seconds",
			`tensor_kernel_seconds{kernel="matmul"}`,
			`tensor_kernel_seconds{kernel="matmul_atb"}`,
			`tensor_kernel_seconds{kernel="matmul_abt"}`,
		}
		for _, task := range []string{"finetune", "offline-inference"} {
			for _, stage := range []string{"read", "preproc", "fecl"} {
				names = append(names, npeStage(task, stage))
			}
		}
		for i := 0; i < numStores; i++ {
			names = append(names, storeSeries("pipestore_extract_run_seconds", i),
				storeSeries("pipestore_offline_infer_seconds", i))
		}
		return names
	}()
	counterNames = func() []string {
		names := []string{
			"tuner_stale_msgs_total",
			"tuner_send_retries_total",
			"tensor_pool_inline_chunks_total",
			"tensor_pool_dispatched_chunks_total",
			"tensor_pool_get_hits_total",
			"tensor_pool_get_misses_total",
		}
		for i := 0; i < numStores; i++ {
			names = append(names, storeSeries("pipestore_images_ingested_total", i))
		}
		return names
	}()
)

func npeStage(task, stage string) string {
	return fmt.Sprintf("npe_stage_seconds{task=%q,stage=%q}", task, stage)
}

func storeSeries(name string, i int) string {
	return telemetry.Labeled(name, "store", fmt.Sprintf("ps-%d", i))
}

// snap is one reading of every listed instrument.
type snap struct {
	h map[string]histo
	c map[string]int64
}

func takeSnap() snap {
	s := snap{h: make(map[string]histo, len(histNames)), c: make(map[string]int64, len(counterNames))}
	for _, n := range histNames {
		s.h[n] = readHisto(n)
	}
	for _, n := range counterNames {
		s.c[n] = counter(n)
	}
	return s
}

// sub is the activity between an earlier reading o and s.
func (s snap) sub(o snap) snap {
	d := snap{h: make(map[string]histo, len(s.h)), c: make(map[string]int64, len(s.c))}
	for n, v := range s.h {
		d.h[n] = v.sub(o.h[n])
	}
	for n, v := range s.c {
		d.c[n] = v - o.c[n]
	}
	return d
}

// add sums two readings of activity.
func (s snap) add(o snap) snap {
	t := snap{h: make(map[string]histo, len(o.h)), c: make(map[string]int64, len(o.c))}
	for n, v := range o.h {
		h := s.h[n]
		t.h[n] = histo{n: h.n + v.n, sum: h.sum + v.sum}
	}
	for n, v := range o.c {
		t.c[n] = s.c[n] + v
	}
	return t
}

// sumStores adds one per-store histogram's seconds across the fleet.
func (s snap) sumStores(name string) float64 {
	t := 0.0
	for i := 0; i < numStores; i++ {
		t += s.h[storeSeries(name, i)].sum
	}
	return t
}

// maxStore is the largest per-store seconds of one histogram.
func (s snap) maxStore(name string) float64 {
	m := 0.0
	for i := 0; i < numStores; i++ {
		m = max(m, s.h[storeSeries(name, i)].sum)
	}
	return m
}

// ingests is the number of photo objects the stores ingested.
func (s snap) ingests() int64 {
	var t int64
	for i := 0; i < numStores; i++ {
		t += s.c[storeSeries("pipestore_images_ingested_total", i)]
	}
	return t
}

// npeMicros is the mean per-item time of one NPE stage, in µs.
func (s snap) npeMicros(task, stage string) float64 {
	return s.h[npeStage(task, stage)].mean() * 1e6
}

// kernelMillis is the time spent in one tensor kernel, in ms.
func (s snap) kernelMillis(kernel string) float64 {
	return s.h[fmt.Sprintf("tensor_kernel_seconds{kernel=%q}", kernel)].sum * 1e3
}

// dispatchedPct is the share of kernel chunks handed to the worker pool
// rather than run inline by the caller.
func (s snap) dispatchedPct() float64 {
	d := float64(s.c["tensor_pool_dispatched_chunks_total"])
	return pct(d, d+float64(s.c["tensor_pool_inline_chunks_total"]))
}

// poolHitPct is the share of scratch-buffer requests the pool served.
func (s snap) poolHitPct() float64 {
	h := float64(s.c["tensor_pool_get_hits_total"])
	return pct(h, h+float64(s.c["tensor_pool_get_misses_total"]))
}
