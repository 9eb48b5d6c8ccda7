package main

import "time"

// layerMetric is one per-layer metric: its unit, which direction is better,
// and the end-to-end metric (and workload) it should move.
type layerMetric struct {
	name, unit, better, moves string
}

// perLayer lists the metrics of a traced run, in output order. Layers are
// the repository's modules; "self_s.*" and "self_us.*" are self times from
// the trace (a span minus the part its children cover).
var perLayer = []layerMetric{
	// serve
	{"serve.batch_mean", "photos", "higher", "upload cpu_us_per_image, images_per_s"},
	{"serve.cache_hit_pct", "%", "higher", "upload cpu_us_per_image"},
	{"serve.memo_hit_pct", "%", "higher", "upload cpu_us_per_image"},
	{"serve.wait_ms_p50", "ms", "lower", "upload op_p50_ms"},
	{"serve.wait_ms_p99", "ms", "lower", "upload images_per_s (tail)"},
	{"serve.rejected", "count", "lower", "upload failed ops"},
	{"self_us.upload.serve", "us", "lower", "upload op_p50_ms"},
	// inferserver
	{"inferserver.batch_ms_p50", "ms", "lower", "upload op_p50_ms, images_per_s"},
	{"inferserver.busy_pct", "%", "lower", "upload images_per_s"},
	{"inferserver.apply_delta_ms", "ms", "lower", "retrain op_p50_ms (predicted far below 1%)"},
	{"self_us.upload.inferserver", "us", "lower", "upload op_p50_ms"},
	{"self_s.retrain.inferserver", "s", "lower", "retrain op_p50_ms"},
	// pipestore
	{"pipestore.extract_s", "s", "lower", "retrain cpu_us_per_image (op_p50_ms only where not overlapped)"},
	{"pipestore.offline_infer_s_max", "s", "lower", "relabel op_p50_ms, images_per_s"},
	{"pipestore.shard_skew", "ratio", "lower", "relabel op_p50_ms"},
	{"pipestore.ingests_per_upload", "count", "lower", "upload cpu_us_per_image"},
	{"self_s.retrain.pipestore", "s", "lower", "retrain cpu_us_per_image"},
	{"self_s.relabel.pipestore", "s", "lower", "relabel op_p50_ms"},
	// npe
	{"npe.ft.read_us", "us", "lower", "retrain cpu_us_per_image"},
	{"npe.ft.preproc_us", "us", "lower", "retrain cpu_us_per_image"},
	{"npe.ft.fecl_us", "us", "lower", "retrain cpu_us_per_image"},
	{"npe.inf.read_us", "us", "lower", "relabel images_per_s, cpu_us_per_image"},
	{"npe.inf.preproc_us", "us", "lower", "relabel images_per_s, cpu_us_per_image"},
	{"npe.inf.fecl_us", "us", "lower", "relabel images_per_s, cpu_us_per_image"},
	{"self_s.retrain.npe", "s", "lower", "retrain cpu_us_per_image"},
	{"self_s.relabel.npe", "s", "lower", "relabel op_p50_ms"},
	// photostore
	{"photostore.compression_ratio", "ratio", "higher", "relabel cpu_us_per_image (inflate), upload cpu_us_per_image (deflate)"},
	{"photostore.stored_mb", "MB", "lower", "peak_rss_mb"},
	// tuner
	{"tuner.finetune_s", "s", "lower", "retrain op_p50_ms"},
	{"tuner.train_s", "s", "lower", "retrain op_p50_ms, cpu_us_per_image"},
	{"tuner.wait_s", "s", "lower", "retrain op_p50_ms"},
	{"tuner.ack_ms_p50", "ms", "lower", "retrain op_p50_ms"},
	{"tuner.gather_s_dequeue", "s", "lower", "diagnostic only: stamped at dequeue, not arrival"},
	{"tuner.offline_inference_s", "s", "lower", "relabel op_p50_ms, images_per_s"},
	{"tuner.round_cpu_s", "s", "lower", "retrain cpu_us_per_image"},
	{"tuner.round_alloc_mb", "MB", "lower", "retrain peak_rss_mb"},
	{"tuner.stale_msgs", "count", "lower", "retrain op_p50_ms"},
	{"tuner.retries", "count", "lower", "retrain op_p50_ms"},
	{"self_s.retrain.tuner", "s", "lower", "retrain op_p50_ms"},
	{"self_s.relabel.tuner", "s", "lower", "relabel op_p50_ms"},
	// ftdmp
	{"ftdmp.epochs", "count", "lower", "retrain op_p50_ms (fixed at 15)"},
	{"ftdmp.ms_per_epoch", "ms", "lower", "retrain op_p50_ms"},
	{"self_s.retrain.ftdmp", "s", "lower", "retrain op_p50_ms"},
	// tensor
	{"tensor.matmul_ms", "ms", "lower", "retrain op_p50_ms"},
	{"tensor.matmul_atb_ms", "ms", "lower", "retrain op_p50_ms"},
	{"tensor.matmul_abt_ms", "ms", "lower", "retrain op_p50_ms"},
	{"tensor.dispatched_pct", "%", "higher", "retrain op_p50_ms; upload op_p50_ms (small batches stay inline)"},
	{"tensor.pool_hit_pct", "%", "higher", "tuner.round_alloc_mb"},
	// wire
	{"wire.in_mb", "MB", "lower", "retrain op_p50_ms (predicted flat)"},
	{"wire.out_mb", "MB", "lower", "retrain op_p50_ms (predicted flat)"},
	{"wire.feature_mb", "MB", "lower", "retrain op_p50_ms (predicted flat)"},
	// delta
	{"delta.bytes_per_store", "B", "lower", "retrain op_p50_ms (predicted flat)"},
	{"delta.traffic_reduction", "ratio", "higher", "retrain op_p50_ms (predicted flat)"},
	// labeldb
	{"labeldb.changed_pct", "%", "lower", "relabel correctness: 0 on repeat passes"},
	{"labeldb.retrain_changed_pct", "%", "lower", "retrain label freshness"},
	// Go runtime
	{"runtime.retrain.gc_cycles", "count", "lower", "retrain peak_rss_mb"},
	{"runtime.retrain.gc_pause_ms", "ms", "lower", "retrain op_p50_ms"},
	{"runtime.relabel.gc_cycles", "count", "lower", "relabel peak_rss_mb"},
	{"runtime.relabel.gc_pause_ms", "ms", "lower", "relabel op_p50_ms"},
	{"runtime.upload.gc_cycles", "count", "lower", "upload peak_rss_mb"},
	{"runtime.upload.gc_pause_ms", "ms", "lower", "upload images_per_s (tail)"},
	// the open-loop generator and the trace itself
	{"upload.gen_late_ms_max", "ms", "lower", "upload op_p50_ms (generator health)"},
	{"trace.retrain.blocking_cover_pct", "%", "higher", "retrain op_p50_ms: train+wait+apply+relabel over the cycle"},
	{"trace.retrain.overhead_pct", "%", "lower", "retrain op_p50_ms (traced vs untraced cycles)"},
	{"trace.relabel.overhead_pct", "%", "lower", "relabel op_p50_ms (traced vs untraced passes)"},
	{"trace.upload.overhead_pct", "%", "lower", "upload op_p50_ms (traced vs untraced windows)"},
}

// runTraced is the traced run. Whatever the workload, it covers every
// layer so each traced run reports every per-layer metric: retrain cycles
// on an unreplicated fleet, then relabel passes and uploads at the mid rate
// on an R=2 fleet behind a gateway whose backend is timed. Each part gets a
// third of the budget; cycles and passes alternate traced and untraced, and
// uploads alternate traced and untraced windows, so the tracing overhead is
// measured inside the run.
func runTraced(in *inputs, budget time.Duration) *outcome {
	o := newOutcome()
	rec := newRecorder()
	o.rec = rec
	v := map[string]float64{}
	share := budget / 3

	f, _, err := setup(in, fleetOptions{replication: 1})
	if err != nil {
		o.count(1, 1, "set-up: "+err.Error())
	} else {
		gc0 := readGC()
		cs := runCycles(f, in, share, 2, rec)
		gcRetrain := readGC().sub(gc0)
		f.close()
		for _, c := range cs {
			if c.failed {
				o.count(1, 1, c.failedReason)
			} else {
				o.count(1, 0)
			}
		}
		o.detail["retrain"] = retrainLayers(v, cs, rec, gcRetrain)
	}

	f, _, err = setup(in, fleetOptions{replication: uploadReplica, gateway: true, timed: true})
	if err != nil {
		o.count(1, 1, "set-up: "+err.Error())
	} else {
		gc0 := readGC()
		ps := runPasses(f, share, 2, rec)
		gcRelabel := readGC().sub(gc0)
		for _, p := range ps {
			if p.failed {
				o.count(1, 1, p.failedReason)
			} else {
				o.count(1, 0)
			}
		}
		o.detail["relabel"] = relabelLayers(v, ps, f, rec, gcRelabel)
		st := runUploadStep(f, in, uploadRates[1].rate, share, 2, rec)
		f.close()
		o.count(st.offered, st.failed, st.reasons...)
		o.detail["upload"] = uploadLayers(v, st, rec)
	}
	for _, m := range perLayer {
		o.set(m.name, m.unit, v[m.name])
	}
	return o
}

// medianOf is the median of f over the items.
func medianOf[T any](items []T, f func(T) float64) float64 {
	xs := make([]float64, 0, len(items))
	for _, it := range items {
		xs = append(xs, f(it))
	}
	return median(xs)
}

// overheadPct compares the median wall of traced and untraced operations.
func overheadPct(traced, plain []float64) float64 {
	if len(traced) == 0 || len(plain) == 0 {
		return 0
	}
	return (median(traced)/median(plain) - 1) * 100
}

func retrainLayers(v map[string]float64, cs []cycle, rec *recorder, gc gcReading) map[string]any {
	var total snap
	var traced, plain, acks []float64
	var tracedCycles []cycle
	for _, c := range cs {
		total = total.add(c.layers)
		if c.traced {
			traced = append(traced, c.wall)
			tracedCycles = append(tracedCycles, c)
		} else {
			plain = append(plain, c.wall)
		}
		for _, st := range c.rep.StoreStats {
			acks = append(acks, st.AckSeconds*1e3)
		}
	}
	train := func(c cycle) float64 { return c.layers.h["tuner_run_train_seconds"].sum }
	v["tuner.finetune_s"] = medianOf(cs, func(c cycle) float64 { return c.rep.WallTime.Seconds() })
	v["tuner.train_s"] = medianOf(cs, train)
	v["tuner.wait_s"] = medianOf(cs, func(c cycle) float64 { return c.rep.WallTime.Seconds() - train(c) })
	v["tuner.ack_ms_p50"] = median(acks)
	v["tuner.gather_s_dequeue"] = medianOf(cs, func(c cycle) float64 {
		m := 0.0
		for _, st := range c.rep.StoreStats {
			m = max(m, st.GatherSeconds)
		}
		return m
	})
	v["tuner.round_cpu_s"] = medianOf(cs, func(c cycle) float64 { return c.rep.Resources.CPUSeconds })
	v["tuner.round_alloc_mb"] = medianOf(cs, func(c cycle) float64 { return float64(c.rep.Resources.AllocBytes) / 1e6 })
	v["tuner.stale_msgs"] = float64(total.c["tuner_stale_msgs_total"])
	v["tuner.retries"] = float64(total.c["tuner_send_retries_total"])
	v["ftdmp.epochs"] = medianOf(cs, func(c cycle) float64 { return float64(c.rep.Epochs) })
	v["ftdmp.ms_per_epoch"] = medianOf(cs, func(c cycle) float64 { return train(c) / float64(max(1, c.rep.Epochs)) * 1e3 })
	v["pipestore.extract_s"] = medianOf(cs, func(c cycle) float64 { return c.layers.sumStores("pipestore_extract_run_seconds") })
	for _, st := range []string{"read", "preproc", "fecl"} {
		v["npe.ft."+st+"_us"] = total.npeMicros("finetune", st)
	}
	for _, k := range []string{"matmul", "matmul_atb", "matmul_abt"} {
		v["tensor."+k+"_ms"] = medianOf(cs, func(c cycle) float64 { return c.layers.kernelMillis(k) })
	}
	v["tensor.dispatched_pct"] = total.dispatchedPct()
	v["tensor.pool_hit_pct"] = total.poolHitPct()
	v["wire.in_mb"] = medianOf(cs, func(c cycle) float64 { return float64(c.rep.WireBytesIn) / 1e6 })
	v["wire.out_mb"] = medianOf(cs, func(c cycle) float64 { return float64(c.rep.WireBytesOut) / 1e6 })
	v["wire.feature_mb"] = medianOf(cs, func(c cycle) float64 { return float64(c.rep.FeatureBytes) / 1e6 })
	v["delta.bytes_per_store"] = medianOf(cs, func(c cycle) float64 { return float64(c.rep.DeltaBytes) })
	v["delta.traffic_reduction"] = medianOf(cs, func(c cycle) float64 { return c.rep.TrafficReduction() })
	v["inferserver.apply_delta_ms"] = medianOf(cs, func(c cycle) float64 { return c.apply * 1e3 })
	v["labeldb.retrain_changed_pct"] = medianOf(cs, func(c cycle) float64 { return c.refresh.FixedFrac * 100 })
	v["runtime.retrain.gc_cycles"] = float64(gc.cycles)
	v["runtime.retrain.gc_pause_ms"] = gc.pauseMs
	v["trace.retrain.overhead_pct"] = overheadPct(traced, plain)

	// Self times and the blocking path, from each traced cycle's spans.
	var breakdown []map[string]float64
	self := map[string][]float64{}
	for _, c := range tracedCycles {
		spans := rec.trace(c.trace)
		for layer, s := range selfTimes(spans) {
			self[layer] = append(self[layer], s)
		}
		b := map[string]float64{}
		for _, s := range spans {
			switch s.Name {
			case "bench.cycle":
				b["cycle_s"] = s.Dur
			case "tuner.finetune":
				b["finetune_s"] = s.Dur
			case "tuner.train-run":
				b["train_s"] += s.Dur
			case "call.ApplyDelta":
				b["apply_s"] = s.Dur
			case "call.OfflineInference":
				b["relabel_s"] = s.Dur
			}
		}
		b["wait_s"] = b["finetune_s"] - b["train_s"]
		b["cover_pct"] = pct(b["train_s"]+b["wait_s"]+b["apply_s"]+b["relabel_s"], b["cycle_s"])
		breakdown = append(breakdown, b)
	}
	for _, layer := range []string{"tuner", "ftdmp", "pipestore", "npe", "inferserver"} {
		v["self_s.retrain."+layer] = median(self[layer])
	}
	v["trace.retrain.blocking_cover_pct"] = medianOf(breakdown, func(b map[string]float64) float64 { return b["cover_pct"] })
	return map[string]any{
		"cycles": len(cs), "traced_cycles": len(tracedCycles),
		"traced_cycle_s": traced, "untraced_cycle_s": plain,
		"blocking_path": breakdown, "classifier_hash": firstHash(cs),
	}
}

func firstHash(cs []cycle) uint32 {
	if len(cs) == 0 {
		return 0
	}
	return cs[0].hash
}

func relabelLayers(v map[string]float64, ps []pass, f *fleet, rec *recorder, gc gcReading) map[string]any {
	var total snap
	var traced, plain []float64
	self := map[string][]float64{}
	for _, p := range ps {
		total = total.add(p.layers)
		if p.traced {
			traced = append(traced, p.wall)
			for layer, s := range selfTimes(rec.trace(p.trace)) {
				self[layer] = append(self[layer], s)
			}
		} else {
			plain = append(plain, p.wall)
		}
	}
	v["tuner.offline_inference_s"] = medianOf(ps, func(p pass) float64 { return p.wall })
	v["pipestore.offline_infer_s_max"] = medianOf(ps, func(p pass) float64 { return p.layers.maxStore("pipestore_offline_infer_seconds") })
	v["pipestore.shard_skew"] = f.shardSkew()
	for _, st := range []string{"read", "preproc", "fecl"} {
		v["npe.inf."+st+"_us"] = total.npeMicros("offline-inference", st)
	}
	if len(ps) > 1 {
		v["labeldb.changed_pct"] = medianOf(ps[1:], func(p pass) float64 { return p.refresh.FixedFrac * 100 })
	}
	for _, layer := range []string{"tuner", "pipestore", "npe"} {
		v["self_s.relabel."+layer] = median(self[layer])
	}
	v["trace.relabel.overhead_pct"] = overheadPct(traced, plain)
	v["runtime.relabel.gc_cycles"] = float64(gc.cycles)
	v["runtime.relabel.gc_pause_ms"] = gc.pauseMs
	v["photostore.compression_ratio"], v["photostore.stored_mb"] = f.usage()
	return map[string]any{"passes": len(ps), "traced_pass_s": traced, "untraced_pass_s": plain}
}

func uploadLayers(v map[string]float64, st *uploadStep, rec *recorder) map[string]any {
	done := float64(st.stats.Completed)
	v["serve.batch_mean"] = st.stats.MeanBatch()
	v["serve.cache_hit_pct"] = pct(float64(st.stats.CacheHits), done)
	v["serve.memo_hit_pct"] = pct(float64(st.stats.CacheResultHits), done)
	v["serve.wait_ms_p50"] = quantile(st.waitMs, 0.5)
	v["serve.wait_ms_p99"] = quantile(st.waitMs, 0.99)
	v["serve.rejected"] = float64(st.stats.Rejected())
	v["inferserver.batch_ms_p50"] = quantile(st.batchMs, 0.5)
	v["inferserver.busy_pct"] = st.busyPct
	v["pipestore.ingests_per_upload"] = safeDiv(float64(st.layers.ingests()), float64(st.offered))
	v["upload.gen_late_ms_max"] = st.lateMaxMs
	v["trace.upload.overhead_pct"] = overheadPct(st.tracedMs, st.plainMs)
	v["runtime.upload.gc_cycles"] = float64(st.gc.cycles)
	v["runtime.upload.gc_pause_ms"] = st.gc.pauseMs
	var spans []spanRec
	uploads := 0
	rec.mu.Lock()
	for _, s := range rec.spans {
		if s.Name == "call.UploadImage" || s.Name == "call.InferBatch" {
			spans = append(spans, s)
			if s.Name == "call.UploadImage" {
				uploads++
			}
		}
	}
	rec.mu.Unlock()
	self := selfTimes(spans)
	v["self_us.upload.serve"] = safeDiv(self["serve"], float64(uploads)) * 1e6
	v["self_us.upload.inferserver"] = safeDiv(self["inferserver"], float64(uploads)) * 1e6
	return map[string]any{
		"offered_per_s": st.rate, "samples": len(st.latMs), "p50_ms": st.p(0.5), "p99_ms": st.p(0.99),
		"traced_samples": len(st.tracedMs), "traced_p50_ms": quantile(st.tracedMs, 0.5),
		"untraced_samples": len(st.plainMs), "untraced_p50_ms": quantile(st.plainMs, 0.5),
		"wait_samples": len(st.waitMs), "batches_timed": len(st.batchMs),
	}
}
