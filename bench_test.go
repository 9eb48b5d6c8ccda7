// Benchmarks regenerating every table and figure of the paper's evaluation
// (quick-sized; run cmd/ndpipe-bench for full-size output), plus
// micro-benchmarks of the core substrates.
//
//	go test -bench=. -benchmem
package ndpipe_test

import (
	"fmt"
	"math/rand"
	"testing"

	"ndpipe/internal/cluster"
	"ndpipe/internal/core"
	"ndpipe/internal/dataset"
	"ndpipe/internal/delta"
	"ndpipe/internal/experiments"
	"ndpipe/internal/ftdmp"
	"ndpipe/internal/model"
	"ndpipe/internal/modelstore"
	"ndpipe/internal/nn"
	"ndpipe/internal/npe"
	"ndpipe/internal/sim"
	"ndpipe/internal/tensor"
)

// benchExperiment runs one paper experiment at quick size and reports its
// row count so the work cannot be optimized away.
func benchExperiment(b *testing.B, id string) {
	b.Helper()
	fn := experiments.Registry()[id]
	if fn == nil {
		b.Fatalf("unknown experiment %s", id)
	}
	p := experiments.Params{Seed: 1, Quick: true}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl, err := fn(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(tbl.Rows) == 0 {
			b.Fatal("empty table")
		}
	}
}

// One benchmark per table and figure in the paper's evaluation.

func BenchmarkFig04aOutdatedModel(b *testing.B)     { benchExperiment(b, "fig4a") }
func BenchmarkFig04bDatasetSize(b *testing.B)       { benchExperiment(b, "fig4b") }
func BenchmarkTable1OutdatedLabels(b *testing.B)    { benchExperiment(b, "table1") }
func BenchmarkFig05NetworkBottleneck(b *testing.B)  { benchExperiment(b, "fig5") }
func BenchmarkFig06PhaseBreakdown(b *testing.B)     { benchExperiment(b, "fig6") }
func BenchmarkFig09LayerOffloading(b *testing.B)    { benchExperiment(b, "fig9") }
func BenchmarkFig11APOOrganization(b *testing.B)    { benchExperiment(b, "fig11") }
func BenchmarkFig12NPEAblation(b *testing.B)        { benchExperiment(b, "fig12") }
func BenchmarkFig13InferenceScaling(b *testing.B)   { benchExperiment(b, "fig13") }
func BenchmarkFig14InferencePower(b *testing.B)     { benchExperiment(b, "fig14") }
func BenchmarkFig15TrainingScaling(b *testing.B)    { benchExperiment(b, "fig15") }
func BenchmarkFig16TrainingEfficiency(b *testing.B) { benchExperiment(b, "fig16") }
func BenchmarkFig17PipelinedTraining(b *testing.B)  { benchExperiment(b, "fig17") }
func BenchmarkTable2AccuracyMatrix(b *testing.B)    { benchExperiment(b, "table2") }
func BenchmarkFig18BandwidthSweep(b *testing.B)     { benchExperiment(b, "fig18") }
func BenchmarkFig19BatchSize(b *testing.B)          { benchExperiment(b, "fig19") }
func BenchmarkFig20Inferentia(b *testing.B)         { benchExperiment(b, "fig20") }
func BenchmarkFig21CostAnalysis(b *testing.B)       { benchExperiment(b, "fig21") }

// --- Substrate micro-benchmarks ------------------------------------------

func BenchmarkTensorMatMul256(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	x := tensor.New(256, 256)
	y := tensor.New(256, 256)
	x.RandNormal(rng, 1)
	y.RandNormal(rng, 1)
	out := tensor.New(256, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tensor.MatMulInto(out, x, y)
	}
}

// BenchmarkTensorMatMulGrid sweeps square-product size × kernel parallelism
// (sub-benchmark names select slices, e.g. -bench 'Grid/n=256').
func BenchmarkTensorMatMulGrid(b *testing.B) {
	defer tensor.SetParallelism(0)
	for _, n := range []int{64, 256, 1024} {
		rng := rand.New(rand.NewSource(1))
		x := tensor.New(n, n)
		y := tensor.New(n, n)
		x.RandNormal(rng, 1)
		y.RandNormal(rng, 1)
		out := tensor.New(n, n)
		for _, par := range []int{1, 2, 4} {
			b.Run(fmt.Sprintf("n=%d/p=%d", n, par), func(b *testing.B) {
				tensor.SetParallelism(par)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					tensor.MatMulInto(out, x, y)
				}
			})
		}
	}
}

func BenchmarkNNTrainBatch(b *testing.B) {
	rng := rand.New(rand.NewSource(2))
	net := nn.NewMLP("clf", []int{32, 128, 26}, rng)
	opt := nn.NewSGD(0.1, 0.9)
	x := tensor.New(128, 32)
	x.RandNormal(rng, 1)
	labels := make([]int, 128)
	for i := range labels {
		labels[i] = i % 26
	}
	// Warm-up sizes the layer scratch; steady state then runs at 0 allocs/op.
	nn.TrainBatch(net, opt, x, labels)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		nn.TrainBatch(net, opt, x, labels)
	}
}

func BenchmarkSimPipeline10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		eng := sim.New()
		r := eng.NewResource("gpu", 1)
		q := eng.NewQueue("q", 2)
		eng.Go("prod", func(p *sim.Proc) {
			for j := 0; j < 5000; j++ {
				q.Put(p, j)
			}
		})
		eng.Go("cons", func(p *sim.Proc) {
			for j := 0; j < 5000; j++ {
				q.Get(p)
				r.Use(p, 0.001)
			}
		})
		if _, err := eng.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNPESimulatePipeline(b *testing.B) {
	ps := cluster.PipeStore(10)
	m := model.ResNet50()
	for i := 0; i < b.N; i++ {
		if _, err := npe.SimulatePipeline(ps, m, m.TotalGFLOPs(), npe.OfflineInference, npe.Optimized(), 50_000); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFTDMPSimulate(b *testing.B) {
	m := model.ResNet50()
	cfg := ftdmp.Config{Model: m, Cut: m.LastFrozen(), Stores: 8, Nrun: 3, Images: 1_200_000}
	for i := 0; i < b.N; i++ {
		if _, err := ftdmp.Simulate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFTDMPFineTuneRuns times the Tuner's head training at the shape
// of the retrain benchmark workload: 20k frozen-backbone features split into
// 3 runs of ~6,667 rows × 32 features, 26 classes, 5 epochs per run. The
// sub-benchmarks cover default early stopping (an accuracy pass per epoch)
// and fixed epochs (Patience 0, no accuracy pass).
func BenchmarkFTDMPFineTuneRuns(b *testing.B) {
	mc := core.DefaultModelConfig()
	wc := dataset.DefaultConfig(1)
	wc.InitialImages = 20_000
	raw := dataset.BatchOfImages(dataset.NewWorld(wc).Images(), wc.InputDim)
	feats := &dataset.Batch{X: mc.NewBackbone().Forward(raw.X), Labels: raw.Labels}
	runs := ftdmp.SplitRuns(feats, 3)
	for _, patience := range []int{3, 0} {
		b.Run(fmt.Sprintf("patience=%d", patience), func(b *testing.B) {
			opt := ftdmp.DefaultTrainOptions()
			opt.MaxEpochs = 5
			opt.Patience = patience
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ftdmp.FineTuneRuns(mc.NewClassifier(), runs, opt); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkDeltaDiffEncode(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	net := nn.NewMLP("m", []int{64, 256, 26}, rng)
	old := net.TakeSnapshot()
	cur := net.TakeSnapshot()
	for _, m := range cur {
		for i := range m.Data {
			if rng.Float64() < 0.05 {
				m.Data[i] += rng.NormFloat64()
			}
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d, err := delta.Diff(old, cur, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := d.Encode(); err != nil {
			b.Fatal(err)
		}
	}
}

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationPipelinedVsSerialNPE(b *testing.B) {
	ps := cluster.PipeStore(10)
	m := model.ResNet50()
	for _, pipelined := range []bool{true, false} {
		name := "serial"
		if pipelined {
			name = "pipelined"
		}
		b.Run(name, func(b *testing.B) {
			opt := npe.Optimized()
			opt.Pipelined = pipelined
			for i := 0; i < b.N; i++ {
				rep, err := npe.SimulatePipeline(ps, m, m.TotalGFLOPs(), npe.OfflineInference, opt, 20_000)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(rep.IPS, "simIPS")
			}
		})
	}
}

func BenchmarkAblationNrun(b *testing.B) {
	m := model.ResNet50()
	for _, nrun := range []int{1, 2, 3, 6} {
		b.Run(benchName("nrun", nrun), func(b *testing.B) {
			cfg := ftdmp.Config{Model: m, Cut: m.LastFrozen(), Stores: 4, Nrun: nrun, Images: 1_200_000}
			for i := 0; i < b.N; i++ {
				res, err := ftdmp.Simulate(cfg)
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(res.TotalSec, "simTrainSec")
			}
		})
	}
}

func benchName(prefix string, v int) string {
	return prefix + "=" + string(rune('0'+v))
}

// BenchmarkAblationLinkDiscipline compares the FCFS link against the
// processor-sharing FairLink on an N-stores→Tuner feature-transfer pattern.
// With synchronized batch producers, processor sharing aligns completions
// and lets the link idle during the compute gaps, while FCFS interleaves
// transfers with other stores' extraction — so the FCFS model the figures
// use is the *optimistic* (and simpler) choice; both disciplines agree when
// transfers fully overlap (see TestFairVsFCFSAggregate).
func BenchmarkAblationLinkDiscipline(b *testing.B) {
	const stores, batches = 8, 50
	const bytesPerBatch = 512 * 4096
	for _, fair := range []bool{false, true} {
		name := "fcfs"
		if fair {
			name = "fair"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				eng := sim.New()
				var fl *sim.FairLink
				var fc *sim.Link
				if fair {
					fl = eng.NewFairLink("tuner-in", 1.25e9)
				} else {
					fc = eng.NewLink("tuner-in", 1.25e9, 0)
				}
				for s := 0; s < stores; s++ {
					eng.Go("store", func(p *sim.Proc) {
						for k := 0; k < batches; k++ {
							p.Wait(0.01) // feature extraction
							if fair {
								fl.Transfer(p, bytesPerBatch)
							} else {
								fc.Transfer(p, bytesPerBatch)
							}
						}
					})
				}
				end, err := eng.Run()
				if err != nil {
					b.Fatal(err)
				}
				b.ReportMetric(end, "simSec")
			}
		})
	}
}

func BenchmarkHeteroEstimate(b *testing.B) {
	fleet := []*cluster.Server{
		cluster.PipeStore(10), cluster.PipeStore(10),
		cluster.PipeStoreInf1(10), cluster.PipeStoreInf1(10),
	}
	m := model.ResNet50()
	cfg := ftdmp.HeteroConfig{
		Base:  ftdmp.Config{Model: m, Cut: m.LastFrozen(), Images: 1_200_000, Nrun: 3},
		Fleet: fleet,
	}
	for i := 0; i < b.N; i++ {
		res, err := ftdmp.EstimateHetero(cfg)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.TotalSec, "simTrainSec")
	}
}

func BenchmarkModelStoreCatchUp(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	net := nn.NewMLP("clf", []int{32, 128, 26}, rng)
	st := modelstore.New(net.TakeSnapshot())
	for v := 0; v < 10; v++ {
		for _, p := range net.Params() {
			for j := range p.W.Data {
				if rng.Float64() < 0.3 {
					p.W.Data[j] += rng.NormFloat64() * 0.05
				}
			}
		}
		if _, err := st.Append(net.TakeSnapshot()); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blob, _, err := st.CatchUp(0)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(float64(len(blob)), "blobBytes")
	}
}
