package ftdmp

import (
	"fmt"
	"math/rand"

	"ndpipe/internal/dataset"
	"ndpipe/internal/nn"
	"ndpipe/internal/tensor"
)

// TrainOptions controls the real (gradient-descent) pipelined fine-tune.
type TrainOptions struct {
	LR            float64
	Momentum      float64
	MiniBatch     int
	MaxEpochs     int     // per run
	ConvergeDelta float64 // stop when train-accuracy gains fall below this...
	// Patience is how many consecutive epochs the gain may stay below
	// ConvergeDelta before the run stops (paper: 0.01 %, 3 epochs).
	// Patience <= 0 disables early stopping, and with it the per-epoch
	// accuracy pass: every run trains exactly MaxEpochs epochs.
	Patience int
	Seed     int64
}

// DefaultTrainOptions mirrors the paper's stopping criterion (§6.3).
func DefaultTrainOptions() TrainOptions {
	return TrainOptions{
		LR:            0.1,
		Momentum:      0.9,
		MiniBatch:     128,
		MaxEpochs:     60,
		ConvergeDelta: 0.0001,
		Patience:      3,
		Seed:          1,
	}
}

// TrainStats reports what the real trainer did.
type TrainStats struct {
	EpochsPerRun []int
	TotalEpochs  int
	FinalLoss    float64
}

// FineTuneRuns is the Tuner's view of pipelined FT-DMP training: the feature
// dataset is split into len(runs) sub-datasets and the classifier is trained
// to convergence on each run in order. With one run this is vanilla FT-DMP;
// with more runs it is the pipelined variant whose convergence Theorem 5.1
// guarantees — and whose catastrophic-forgetting risk grows as runs shrink
// (Fig 17). The classifier clf is mutated in place.
//
// With early stopping on (opt.Patience > 0), each epoch ends with a top-1
// accuracy pass over the run. That pass calls clf.Forward, so it runs the
// head in whatever mode its layers are in: a head with train-mode BatchNorm
// or Dropout would have its state changed by it (no caller passes one).
// opt.Patience <= 0 skips the pass, since nothing reads its result.
func FineTuneRuns(clf *nn.Network, runs []*dataset.Batch, opt TrainOptions) (TrainStats, error) {
	if len(runs) == 0 {
		return TrainStats{}, fmt.Errorf("ftdmp: no runs")
	}
	if opt.MiniBatch <= 0 {
		return TrainStats{}, fmt.Errorf("ftdmp: minibatch must be positive")
	}
	if opt.MaxEpochs <= 0 {
		opt.MaxEpochs = 1
	}
	rng := rand.New(rand.NewSource(opt.Seed))
	sgd := nn.NewSGD(opt.LR, opt.Momentum)
	stats := TrainStats{EpochsPerRun: make([]int, len(runs))}
	for r, run := range runs {
		if run.Len() == 0 {
			return TrainStats{}, fmt.Errorf("ftdmp: run %d is empty", r)
		}
		best := -1.0
		stale := 0
		for epoch := 0; epoch < opt.MaxEpochs; epoch++ {
			stats.FinalLoss = trainEpoch(clf, sgd, run, opt.MiniBatch, rng)
			stats.EpochsPerRun[r]++
			stats.TotalEpochs++
			if opt.Patience <= 0 {
				continue
			}
			if acc := top1(clf, run); acc > best+opt.ConvergeDelta {
				best = acc
				stale = 0
			} else {
				stale++
				if stale >= opt.Patience {
					break
				}
			}
		}
	}
	return stats, nil
}

// top1 is the classifier's top-1 accuracy on b: the convergence signal of
// early stopping. It counts arg-max hits directly rather than calling
// nn.Accuracy, which would also rank every row's top-k only to discard it.
func top1(clf *nn.Network, b *dataset.Batch) float64 {
	pred := clf.Forward(b.X).ArgmaxRows()
	hits := 0
	for i, y := range b.Labels {
		if pred[i] == y {
			hits++
		}
	}
	return float64(hits) / float64(len(b.Labels))
}

// trainEpoch runs one shuffled pass of minibatch SGD and returns the mean
// loss over the epoch. The minibatch matrix comes from the tensor scratch
// arena, so a whole epoch gathers rows into one recycled buffer instead of
// materializing a fresh batch per step.
func trainEpoch(clf *nn.Network, sgd *nn.SGD, b *dataset.Batch, mini int, rng *rand.Rand) float64 {
	n := b.Len()
	perm := rng.Perm(n)
	var lossSum float64
	var batches int
	x := tensor.Get(min(mini, n), b.X.Cols)
	defer tensor.Put(x)
	labels := make([]int, 0, mini)
	for lo := 0; lo < n; lo += mini {
		hi := lo + mini
		if hi > n {
			hi = n
		}
		idx := perm[lo:hi]
		x = tensor.Reuse(x, len(idx), b.X.Cols)
		labels = labels[:0]
		for i, k := range idx {
			copy(x.Row(i), b.X.Row(k))
			labels = append(labels, b.Labels[k])
		}
		loss := nn.TrainBatch(clf, sgd, x, labels)
		lossSum += loss
		batches++
	}
	return lossSum / float64(batches)
}

// SplitRuns partitions a feature batch into n contiguous runs of
// near-equal size (the sub-datasets of Fig 10).
func SplitRuns(b *dataset.Batch, n int) []*dataset.Batch {
	if n <= 1 {
		return []*dataset.Batch{b}
	}
	runs := make([]*dataset.Batch, 0, n)
	size := b.Len() / n
	for r := 0; r < n; r++ {
		lo := r * size
		hi := lo + size
		if r == n-1 {
			hi = b.Len()
		}
		runs = append(runs, b.Slice(lo, hi))
	}
	return runs
}
