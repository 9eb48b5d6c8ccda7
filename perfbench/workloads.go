package main

import (
	"fmt"
	"time"
)

// segments is how many fleets one run sets up. Each gets an equal share of
// the measured time, and setup_s is the median of their set-up times.
const segments = 3

// e2e fills the end-to-end metrics every workload reports. op is the
// workload's unit of work: a cycle (retrain), a pass (relabel) or one
// upload (upload).
func (o *outcome) e2e(setups []float64, opP50Ms, cpuUsPerImage, imagesPerS float64) {
	o.set("setup_s", "s", median(setups))
	o.set("peak_rss_mb", "MB", peakRSSMB())
	o.set("op_p50_ms", "ms", opP50Ms)
	o.set("cpu_us_per_image", "us", cpuUsPerImage)
	o.set("images_per_s", "1/s", imagesPerS)
}

// runRetrain: a closed loop of back-to-back continuous-training cycles on
// an unreplicated fleet, the deployment service.Start makes.
func runRetrain(in *inputs, budget time.Duration) *outcome {
	o := newOutcome()
	var setups, walls, cpus, top1 []float64
	var hashes []uint32
	images, wallSum := 0.0, 0.0
	for k := 0; k < segments; k++ {
		f, s, err := setup(in, fleetOptions{replication: 1})
		if err != nil {
			o.count(1, 1, "set-up: "+err.Error())
			continue
		}
		setups = append(setups, s)
		cs := runCycles(f, in, budget/segments, 1, nil)
		f.close()
		for i, c := range cs {
			walls = append(walls, c.wall)
			cpus = append(cpus, c.cpu)
			top1 = append(top1, c.top1)
			if i == 0 {
				hashes = append(hashes, c.hash)
			}
			if c.failed {
				o.count(1, 1, c.failedReason)
				continue
			}
			o.count(1, 0)
			images += float64(c.rep.Images)
			wallSum += c.wall
		}
	}
	// Every fleet starts from the same seed, so the first cycle must commit
	// the same classifier on each.
	for i, h := range hashes {
		if h != hashes[0] {
			o.count(0, 1, fmt.Sprintf("fleet %d first-cycle classifier hash %d, fleet 0 %d", i, h, hashes[0]))
		}
	}
	o.e2e(setups, median(walls)*1e3, median(cpus)/preloadN*1e6, safeDiv(images, wallSum))
	o.detail["cycles"] = len(walls)
	o.detail["cycle_s"] = walls
	o.detail["cycle_cpu_s"] = cpus
	o.detail["top1"] = top1
	o.detail["setup_s"] = setups
	if len(hashes) > 0 {
		o.detail["classifier_hash"] = hashes[0]
	}
	o.detail["classifier_hashes"] = hashes
	return o
}

// runRelabel: a closed loop of back-to-back offline-inference passes over
// the preloaded photos on a ring-replicated (R=2) fleet.
func runRelabel(in *inputs, budget time.Duration) *outcome {
	o := newOutcome()
	var setups, walls, cpus []float64
	images, wallSum := 0.0, 0.0
	for k := 0; k < segments; k++ {
		f, s, err := setup(in, fleetOptions{replication: uploadReplica})
		if err != nil {
			o.count(1, 1, "set-up: "+err.Error())
			continue
		}
		setups = append(setups, s)
		ps := runPasses(f, budget/segments, 1, nil)
		f.close()
		for _, p := range ps {
			walls = append(walls, p.wall)
			cpus = append(cpus, p.cpu)
			if p.failed {
				o.count(1, 1, p.failedReason)
				continue
			}
			o.count(1, 0)
			images += float64(p.refresh.Total)
			wallSum += p.wall
		}
	}
	o.e2e(setups, median(walls)*1e3, median(cpus)/preloadN*1e6, safeDiv(images, wallSum))
	o.detail["passes"] = len(walls)
	o.detail["pass_s"] = walls
	q := tailQuantile(len(walls))
	o.detail["pass_ms"] = map[string]any{"p50": median(walls) * 1e3, "tail_quantile": q,
		"tail": quantile(walls, q) * 1e3, "samples": len(walls)}
	o.detail["setup_s"] = setups
	return o
}

// runUpload: an open loop of independent users uploading at the three
// frozen rates, each on a fresh R=2 fleet behind the serving gateway.
func runUpload(in *inputs, budget time.Duration) *outcome {
	o := newOutcome()
	var setups []float64
	steps := map[string]*uploadStep{}
	rates := map[string]any{}
	goodRate := 0.0
	for k, r := range uploadRates {
		f, s, err := setup(in, fleetOptions{replication: uploadReplica, gateway: true})
		if err != nil {
			o.count(1, 1, "set-up: "+err.Error())
			continue
		}
		setups = append(setups, s)
		st := runUploadStep(f, in, r.rate, budget/segments, int64(k+1), nil)
		f.close()
		steps[r.name] = st
		o.count(st.offered, st.failed, st.reasons...)
		if st.meets() {
			goodRate = r.rate // rates ascend: the last passing one is the highest
		}
		rates[r.name] = map[string]any{
			"offered_per_s": r.rate, "samples": len(st.latMs),
			"p50_ms": st.p(0.50), "p90_ms": st.p(0.90), "p99_ms": st.p(0.99),
			"within_limit_per_s":    st.goodput(),
			"achieved_over_offered": st.achieved(), "drained": st.drained, "meets_limit": st.meets(),
			"gen_late_ms_max": st.lateMaxMs, "cpu_us_per_upload": safeDiv(st.cpu, float64(st.offered)) * 1e6,
			"batch_mean": st.stats.MeanBatch(), "cache_hit_pct": pct(float64(st.stats.CacheHits), float64(st.stats.Completed)),
			"gc_cycles": st.gc.cycles, "gc_pause_ms": st.gc.pauseMs,
		}
	}
	// Latency and CPU pool every upload of the run, all three rates: three
	// fleets and the whole offered-load mix, so one step's scheduling luck
	// moves them less. images_per_s is the goodput at the high rate: uploads
	// completed within the latency limit per second. The highest rate that
	// met the limit is on the detail line.
	var lat []float64
	cpu, offered := 0.0, 0
	for _, st := range steps {
		lat = append(lat, st.latMs...)
		cpu += st.cpu
		offered += st.offered
	}
	high := steps["high"]
	if high == nil {
		high = &uploadStep{}
	}
	o.e2e(setups, median(lat), safeDiv(cpu, float64(offered))*1e6, high.goodput())
	o.detail["all_rates"] = map[string]any{"samples": len(lat), "p50_ms": median(lat), "p99_ms": quantile(lat, 0.99)}
	o.detail["rates"] = rates
	o.detail["goodput_rate_per_s"] = goodRate
	o.detail["latency_limit_ms"] = ms(latencyLimit)
	o.detail["setup_s"] = setups
	return o
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
