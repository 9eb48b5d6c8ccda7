package ftdmp

import (
	"bytes"
	"math"
	"math/rand"
	"slices"
	"testing"

	"ndpipe/internal/dataset"
	"ndpipe/internal/model"
	"ndpipe/internal/nn"
)

func baseConfig(stores int) Config {
	m := model.ResNet50()
	return Config{
		Model:  m,
		Cut:    m.LastFrozen(),
		Stores: stores,
		Images: 120_000,
	}
}

func TestEstimateBasics(t *testing.T) {
	res, err := Estimate(baseConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	if res.TotalSec <= 0 || res.StoreStageSec <= 0 || res.TunerStageSec <= 0 {
		t.Fatalf("non-positive stage times: %+v", res)
	}
	// Feature traffic = images × 4 KB (2048 fp16 floats) for ResNet50.
	want := int64(120_000) * 2048 * 2
	if res.FeatureTraffic != want {
		t.Fatalf("feature traffic %d, want %d", res.FeatureTraffic, want)
	}
	if res.SyncTraffic != 0 {
		t.Fatal("FT-DMP cut must not require weight sync")
	}
}

func TestStoreStageScalesWithStores(t *testing.T) {
	r1, err := Estimate(baseConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	r8, err := Estimate(baseConfig(8))
	if err != nil {
		t.Fatal(err)
	}
	ratio := r1.StoreStageSec / r8.StoreStageSec
	if math.Abs(ratio-8) > 0.5 {
		t.Fatalf("store stage should scale ≈linearly: 1→8 stores ratio %.2f", ratio)
	}
	if r8.TotalSec >= r1.TotalSec {
		t.Fatal("more stores must not slow training down")
	}
}

// TestAPOBalancePointNearEight reproduces the Fig 11 anchor: for ResNet50 at
// 10 Gbps, Store- and Tuner-stages balance at ≈8 PipeStores.
func TestAPOBalancePointNearEight(t *testing.T) {
	best, bestDiff := 0, math.Inf(1)
	for n := 1; n <= 20; n++ {
		res, err := Estimate(baseConfig(n))
		if err != nil {
			t.Fatal(err)
		}
		if res.TDiff < bestDiff {
			bestDiff, best = res.TDiff, n
		}
	}
	if best < 7 || best > 10 {
		t.Fatalf("balance point at %d stores, want ≈8", best)
	}
}

func TestTrainingTimeFlattensBeyondBalance(t *testing.T) {
	r8, _ := Estimate(baseConfig(8))
	r20, _ := Estimate(baseConfig(20))
	// Beyond the balance point the Tuner dominates; gains must be small.
	if r8.TotalSec/r20.TotalSec > 1.6 {
		t.Fatalf("training time should flatten: 8 stores %.1fs vs 20 stores %.1fs",
			r8.TotalSec, r20.TotalSec)
	}
	r2, _ := Estimate(baseConfig(2))
	if r2.TotalSec/r8.TotalSec < 2 {
		t.Fatalf("below the balance point scaling should be strong: 2 stores %.1fs vs 8 stores %.1fs",
			r2.TotalSec, r8.TotalSec)
	}
}

// TestFigNineShape: traffic falls monotonically toward the +Conv5 cut, then
// explodes at +FC from weight sync; training time is minimized at +Conv5.
func TestFigNineShape(t *testing.T) {
	m := model.ResNet50()
	cfg := baseConfig(4)
	cfg.Nrun = 3 // the evaluation's default pipeline depth (§6.3)
	var traffics []int64
	var times []float64
	for c := model.Cut(0); int(c) <= len(m.Stages); c++ {
		cfg.Cut = c
		res, err := Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traffics = append(traffics, res.FeatureTraffic+res.SyncTraffic)
		times = append(times, res.TotalSec)
	}
	conv5 := int(m.LastFrozen()) // index of the +Conv5 cut
	for c := 1; c <= conv5; c++ {
		if traffics[c] > traffics[c-1] {
			t.Fatalf("traffic should not rise before +Conv5: %v", traffics)
		}
	}
	fc := len(m.Stages)
	if traffics[fc] < 5*traffics[conv5] {
		t.Fatalf("+FC sync traffic must surge past +Conv5 feature traffic: %v", traffics)
	}
	bestCut := 0
	for c := range times {
		if times[c] < times[bestCut] {
			bestCut = c
		}
	}
	if bestCut != conv5 {
		t.Fatalf("shortest training at cut %s, want +Conv5 (times %v)",
			m.CutName(model.Cut(bestCut)), times)
	}
}

func TestPipelinedFasterThanUnpipelined(t *testing.T) {
	cfg := baseConfig(4)
	cfg.Nrun = 1
	r1, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Nrun = 3
	r3, err := Simulate(cfg)
	if err != nil {
		t.Fatal(err)
	}
	saved := 1 - r3.TotalSec/r1.TotalSec
	// Paper Fig 17: up to ≈32 % saved at Nrun=3; our calibration yields ≈20 %
	// (limit 1−S/(S+T) ≈ 33 % as Nrun→∞). Accept a broad band.
	if saved < 0.10 || saved > 0.40 {
		t.Fatalf("pipelining saved %.1f%%, want 10–40%%", saved*100)
	}
}

func TestSimulateMatchesEstimate(t *testing.T) {
	for _, nrun := range []int{1, 2, 3, 5} {
		cfg := baseConfig(6)
		cfg.Nrun = nrun
		est, err := Estimate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		sim, err := Simulate(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(est.TotalSec-sim.TotalSec)/est.TotalSec > 0.02 {
			t.Fatalf("Nrun=%d: estimate %.2f vs simulate %.2f diverge", nrun, est.TotalSec, sim.TotalSec)
		}
	}
}

func TestConfigValidation(t *testing.T) {
	if _, err := Estimate(Config{}); err == nil {
		t.Fatal("nil model must error")
	}
	c := baseConfig(0)
	if _, err := Estimate(c); err == nil {
		t.Fatal("zero stores must error")
	}
	c = baseConfig(2)
	c.Cut = model.Cut(99)
	if _, err := Estimate(c); err == nil {
		t.Fatal("invalid cut must error")
	}
	c = baseConfig(2)
	c.Images = 0
	if _, err := Estimate(c); err == nil {
		t.Fatal("zero images must error")
	}
}

func TestInterRunLossGap(t *testing.T) {
	// Larger runs → smaller gap; more weights → larger gap.
	small, err := InterRunLossGap(1_000_000, 10_000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	large, err := InterRunLossGap(1_000_000, 100_000, 0.05)
	if err != nil {
		t.Fatal(err)
	}
	if large >= small {
		t.Fatalf("gap should shrink with more samples: %v vs %v", large, small)
	}
	big, _ := InterRunLossGap(100_000_000, 10_000, 0.05)
	if big <= small {
		t.Fatal("gap should grow with more weights")
	}
	if _, err := InterRunLossGap(0, 1, 0.5); err == nil {
		t.Fatal("invalid inputs must error")
	}
	if _, err := InterRunLossGap(1, 1, 1.5); err == nil {
		t.Fatal("invalid confidence must error")
	}
}

func TestConvergenceIterationsBound(t *testing.T) {
	t2, err := ConvergenceIterations(0.01, 0.5, 3, 0.5, 0.05, 0.01)
	if err != nil {
		t.Fatal(err)
	}
	if t2 <= 0 {
		t.Fatalf("bound %d should be positive", t2)
	}
	// The loss bound after exactly T2 iterations must be ≤ target.
	if got := LossBoundAfter(0.01, 0.5, 3, 0.55, t2); got > 0.01+1e-9 {
		t.Fatalf("loss after T2 = %v > target", got)
	}
	// Tighter targets need more iterations.
	t3, _ := ConvergenceIterations(0.01, 0.5, 3, 0.5, 0.05, 0.001)
	if t3 <= t2 {
		t.Fatal("tighter target must need more iterations")
	}
	// Already converged → zero.
	z, _ := ConvergenceIterations(0.01, 0.5, 3, 0.001, 0, 0.01)
	if z != 0 {
		t.Fatalf("already-converged bound = %d, want 0", z)
	}
	if _, err := ConvergenceIterations(-1, 0.5, 3, 0.5, 0, 0.01); err == nil {
		t.Fatal("invalid η must error")
	}
}

// featureWorld builds a frozen-backbone feature dataset for real training.
func featureWorld(t *testing.T, seed int64) (train, test *dataset.Batch, classes int) {
	t.Helper()
	cfg := dataset.DefaultConfig(seed)
	cfg.InitialImages = 2400
	w := dataset.NewWorld(cfg)
	backbone := nn.NewFeatureExtractor(seed, cfg.InputDim, 64, 32)
	raw := w.SampleStored(2000)
	tb := w.FreshTestSet(600)
	train = &dataset.Batch{X: backbone.Forward(raw.X), Labels: raw.Labels}
	test = &dataset.Batch{X: backbone.Forward(tb.X), Labels: tb.Labels}
	return train, test, cfg.MaxClasses
}

func TestFineTuneRunsConvergesAndPipeliningCostsLittle(t *testing.T) {
	train, test, classes := featureWorld(t, 11)
	accFor := func(nrun int) float64 {
		rng := rand.New(rand.NewSource(7))
		clf := nn.NewMLP("clf", []int{train.X.Cols, 128, classes}, rng)
		opt := DefaultTrainOptions()
		stats, err := FineTuneRuns(clf, SplitRuns(train, nrun), opt)
		if err != nil {
			t.Fatal(err)
		}
		if stats.TotalEpochs == 0 {
			t.Fatal("no epochs ran")
		}
		acc, _ := nn.Accuracy(clf, test.X, test.Labels, 1)
		return acc
	}
	a1 := accFor(1)
	a3 := accFor(3)
	a8 := accFor(8)
	if a1 < 0.5 {
		t.Fatalf("unpipelined fine-tune should learn: acc %.3f", a1)
	}
	// Moderate pipelining must cost little accuracy (§6.3: ≤0.1 pt at
	// Nrun=3 in the paper; we allow a few points at this tiny scale).
	if a1-a3 > 0.06 {
		t.Fatalf("Nrun=3 lost too much accuracy: %.3f vs %.3f", a3, a1)
	}
	// Heavy splitting should hurt at least as much as moderate splitting
	// (catastrophic forgetting grows as runs shrink).
	if a8 > a3+0.02 {
		t.Fatalf("expected more forgetting at Nrun=8: %.3f vs %.3f", a8, a3)
	}
}

// TestAccuracyPassHasNoSideEffect pins that the per-epoch accuracy pass of
// early stopping only observes training: with a patience that can never
// fire, the runs train the same epochs to the same bits as with early
// stopping off (Patience 0), which skips the pass.
func TestAccuracyPassHasNoSideEffect(t *testing.T) {
	train, _, classes := featureWorld(t, 13)
	runs := SplitRuns(train, 3)
	const maxEpochs = 4
	trainWith := func(patience int) (TrainStats, []byte) {
		clf := nn.NewMLP("clf", []int{train.X.Cols, 64, classes}, rand.New(rand.NewSource(5)))
		opt := DefaultTrainOptions()
		opt.MaxEpochs = maxEpochs
		opt.Patience = patience
		stats, err := FineTuneRuns(clf, runs, opt)
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := nn.EncodeSnapshot(&buf, clf.TakeSnapshot()); err != nil {
			t.Fatal(err)
		}
		return stats, buf.Bytes()
	}
	off, offBytes := trainWith(0)
	on, onBytes := trainWith(maxEpochs + 1)
	if !slices.Equal(off.EpochsPerRun, on.EpochsPerRun) {
		t.Fatalf("epochs per run %v with the accuracy pass, %v without", on.EpochsPerRun, off.EpochsPerRun)
	}
	if off.TotalEpochs != len(runs)*maxEpochs {
		t.Fatalf("Patience 0 trained %d epochs, want MaxEpochs on every run", off.TotalEpochs)
	}
	if !bytes.Equal(offBytes, onBytes) {
		t.Fatal("classifier bits differ with and without the per-epoch accuracy pass")
	}
}

func TestSplitRuns(t *testing.T) {
	train, _, _ := featureWorld(t, 12)
	runs := SplitRuns(train, 3)
	if len(runs) != 3 {
		t.Fatalf("got %d runs", len(runs))
	}
	total := 0
	for _, r := range runs {
		total += r.Len()
	}
	if total != train.Len() {
		t.Fatalf("runs cover %d of %d samples", total, train.Len())
	}
	if len(SplitRuns(train, 1)) != 1 {
		t.Fatal("n=1 must be a single run")
	}
}

func TestFineTuneRunsValidation(t *testing.T) {
	if _, err := FineTuneRuns(nil, nil, DefaultTrainOptions()); err == nil {
		t.Fatal("no runs must error")
	}
}
