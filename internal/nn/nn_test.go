package nn

import (
	"bytes"
	"math"
	"math/rand"
	"testing"
	"testing/quick"

	"ndpipe/internal/tensor"
)

func TestDenseForwardKnown(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	d := NewDense("fc", 2, 2, rng)
	copy(d.w.W.Data, []float64{1, 2, 3, 4})
	copy(d.b.W.Data, []float64{0.5, -0.5})
	x := tensor.FromSlice(1, 2, []float64{1, 1})
	y := d.Forward(x)
	want := []float64{1 + 3 + 0.5, 2 + 4 - 0.5}
	for i := range want {
		if math.Abs(y.Data[i]-want[i]) > 1e-12 {
			t.Fatalf("forward = %v, want %v", y.Data, want)
		}
	}
}

// numericalGrad estimates dLoss/dW[i] by central differences.
func numericalGrad(n *Network, x *tensor.Matrix, labels []int, p *Param, i int) float64 {
	const eps = 1e-5
	orig := p.W.Data[i]
	p.W.Data[i] = orig + eps
	lp, _ := SoftmaxCrossEntropy(n.Forward(x), labels)
	p.W.Data[i] = orig - eps
	lm, _ := SoftmaxCrossEntropy(n.Forward(x), labels)
	p.W.Data[i] = orig
	return (lp - lm) / (2 * eps)
}

// TestBackwardMatchesNumericalGradient is the load-bearing correctness test:
// analytic gradients from Backward must match finite differences.
func TestBackwardMatchesNumericalGradient(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	n := NewMLP("clf", []int{4, 6, 3}, rng)
	x := tensor.New(5, 4)
	x.RandNormal(rng, 1)
	labels := []int{0, 2, 1, 1, 0}

	logits := n.Forward(x)
	_, grad := SoftmaxCrossEntropy(logits, labels)
	n.ZeroGrads()
	n.Forward(x) // re-run to refresh caches (ZeroGrads doesn't clear them, but keep deterministic)
	_, grad = SoftmaxCrossEntropy(n.Forward(x), labels)
	n.Backward(grad)

	for _, p := range n.Params() {
		for _, i := range []int{0, len(p.W.Data) / 2, len(p.W.Data) - 1} {
			got := p.Grad.Data[i]
			want := numericalGrad(n, x, labels, p, i)
			if math.Abs(got-want) > 1e-6 {
				t.Fatalf("param %s[%d]: analytic %v vs numeric %v", p.Name, i, got, want)
			}
		}
	}
}

func TestSoftmaxCrossEntropyGradientSumsToZero(t *testing.T) {
	// For each sample the gradient over classes must sum to zero
	// (softmax rows sum to 1, one-hot subtracts 1).
	rng := rand.New(rand.NewSource(3))
	logits := tensor.New(4, 5)
	logits.RandNormal(rng, 2)
	_, grad := SoftmaxCrossEntropy(logits, []int{1, 0, 4, 2})
	for i := 0; i < grad.Rows; i++ {
		var s float64
		for _, v := range grad.Row(i) {
			s += v
		}
		if math.Abs(s) > 1e-9 {
			t.Fatalf("row %d gradient sum %v, want 0", i, s)
		}
	}
}

func TestTrainingConvergesOnSeparableData(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	const n, dim, classes = 300, 8, 3
	x := tensor.New(n, dim)
	labels := make([]int, n)
	for i := 0; i < n; i++ {
		c := i % classes
		labels[i] = c
		for j := 0; j < dim; j++ {
			x.Set(i, j, rng.NormFloat64()*0.3)
		}
		x.Set(i, c, x.At(i, c)+2.0) // class mean offset along axis c
	}
	net := NewMLP("clf", []int{dim, 16, classes}, rng)
	opt := NewSGD(0.1, 0.9)
	var first, last float64
	for epoch := 0; epoch < 30; epoch++ {
		loss := TrainBatch(net, opt, x, labels)
		if epoch == 0 {
			first = loss
		}
		last = loss
	}
	if last >= first/2 {
		t.Fatalf("loss did not halve: first %v last %v", first, last)
	}
	top1, top3 := Accuracy(net, x, labels, 3)
	if top1 < 0.9 {
		t.Fatalf("top-1 accuracy %v < 0.9", top1)
	}
	if top3 < top1 {
		t.Fatalf("top-3 %v < top-1 %v", top3, top1)
	}
}

func TestFrozenParamsDoNotMove(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	backbone := NewMLP("bb", []int{4, 8}, rng)
	backbone.FreezeAll()
	head := NewMLP("head", []int{8, 3}, rng)
	full := Stack(backbone, head)

	before := backbone.TakeSnapshot()
	x := tensor.New(10, 4)
	x.RandNormal(rng, 1)
	labels := []int{0, 1, 2, 0, 1, 2, 0, 1, 2, 0}
	opt := NewSGD(0.5, 0.9)
	for i := 0; i < 5; i++ {
		TrainBatch(full, opt, x, labels)
	}
	after := backbone.TakeSnapshot()
	for name, w := range before {
		if tensor.MaxAbsDiff(w, after[name]) != 0 {
			t.Fatalf("frozen parameter %s changed", name)
		}
	}
	// The head must have moved.
	moved := false
	for _, p := range head.TrainableParams() {
		if p.W.FrobeniusNorm() != 0 {
			moved = true
		}
	}
	if !moved {
		t.Fatal("trainable head did not move")
	}
}

// TestTrainBatchGradsMatchFullBackward pins the truncated backward pass of
// TrainBatch: stopping at the lowest trainable layer must leave every
// parameter gradient bit-identical to a full Network.Backward, and training
// through TrainBatch must match training through Backward + Step bit for
// bit. The BatchNorm head covers a lowest trainable layer that falls back
// to its full Backward.
func TestTrainBatchGradsMatchFullBackward(t *testing.T) {
	frozen := func(rng *rand.Rand) *Network {
		bb := NewMLP("bb", []int{12, 16, 8}, rng)
		bb.FreezeAll()
		return bb
	}
	cases := map[string]func(rng *rand.Rand) *Network{
		"mlp": func(rng *rand.Rand) *Network { return NewMLP("clf", []int{12, 10, 7, 3}, rng) },
		"stack": func(rng *rand.Rand) *Network {
			return Stack(frozen(rng), NewMLP("head", []int{8, 10, 3}, rng))
		},
		"stack-batchnorm-head": func(rng *rand.Rand) *Network {
			head := &Network{Layers: []Layer{NewBatchNorm("head.bn", 8), NewDense("head.fc", 8, 3, rng)}}
			return Stack(frozen(rng), head)
		},
	}
	for name, mk := range cases {
		t.Run(name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(13))
			x := tensor.New(9, 12)
			x.RandNormal(rng, 1)
			labels := []int{0, 1, 2, 2, 1, 0, 0, 1, 2}
			full, pruned := mk(rand.New(rand.NewSource(3))), mk(rand.New(rand.NewSource(3)))
			optFull, optPruned := NewSGD(0.1, 0.9), NewSGD(0.1, 0.9)
			for step := 0; step < 4; step++ {
				logits := full.Forward(x)
				SoftmaxCrossEntropyInPlace(logits, labels)
				full.Backward(logits)
				logits = pruned.Forward(x)
				SoftmaxCrossEntropyInPlace(logits, labels)
				pruned.backwardParams(logits)
				fp, pp := full.Params(), pruned.Params()
				for i := range fp {
					for j, v := range fp[i].Grad.Data {
						if g := pp[i].Grad.Data[j]; g != v {
							t.Fatalf("step %d: %s grad[%d] = %v, want %v (bit-identical)", step, fp[i].Name, j, g, v)
						}
					}
				}
				optFull.Step(fp)
				optPruned.Step(pp)
			}
			// The same through the public entry point.
			for step := 0; step < 4; step++ {
				logits := full.Forward(x)
				SoftmaxCrossEntropyInPlace(logits, labels)
				full.Backward(logits)
				optFull.Step(full.Params())
				TrainBatch(pruned, optPruned, x, labels)
			}
			want, got := full.TakeSnapshot(), pruned.TakeSnapshot()
			for pname, m := range want {
				for j, v := range m.Data {
					if g := got[pname].Data[j]; g != v {
						t.Fatalf("after TrainBatch: %s[%d] = %v, want %v (bit-identical)", pname, j, g, v)
					}
				}
			}
		})
	}
}

func TestSnapshotRestoreRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := NewMLP("m", []int{3, 5, 2}, rng)
	b := NewMLP("m", []int{3, 5, 2}, rand.New(rand.NewSource(7)))
	snap := a.TakeSnapshot()
	if err := b.Restore(snap); err != nil {
		t.Fatal(err)
	}
	for i, p := range a.Params() {
		q := b.Params()[i]
		if tensor.MaxAbsDiff(p.W, q.W) != 0 {
			t.Fatalf("param %s differs after restore", p.Name)
		}
	}
}

func TestRestoreRejectsUnknownAndMismatched(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	n := NewMLP("m", []int{3, 2}, rng)
	if err := n.Restore(Snapshot{"bogus": tensor.New(1, 1)}); err == nil {
		t.Fatal("expected error for unknown param")
	}
	if err := n.Restore(Snapshot{"m.fc0.w": tensor.New(9, 9)}); err == nil {
		t.Fatal("expected error for shape mismatch")
	}
}

func TestEncodeDecodeSnapshotRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	n := NewMLP("m", []int{4, 7, 3}, rng)
	snap := n.TakeSnapshot()
	var buf bytes.Buffer
	if err := EncodeSnapshot(&buf, snap); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeSnapshot(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(snap) {
		t.Fatalf("decoded %d params, want %d", len(got), len(snap))
	}
	for name, w := range snap {
		if tensor.MaxAbsDiff(w, got[name]) != 0 {
			t.Fatalf("param %s corrupted in round trip", name)
		}
	}
}

// Property: encode→decode is the identity for random snapshots.
func TestSnapshotCodecProperty(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		s := Snapshot{}
		for i := 0; i < 1+r.Intn(4); i++ {
			m := tensor.New(1+r.Intn(5), 1+r.Intn(5))
			m.RandNormal(r, 3)
			s[string(rune('a'+i))+".w"] = m
		}
		var buf bytes.Buffer
		if err := EncodeSnapshot(&buf, s); err != nil {
			return false
		}
		got, err := DecodeSnapshot(&buf)
		if err != nil {
			return false
		}
		for name, w := range s {
			g, ok := got[name]
			if !ok || tensor.MaxAbsDiff(w, g) != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestFeatureExtractorDeterministicAcrossStores(t *testing.T) {
	a := NewFeatureExtractor(42, 16, 32, 8)
	b := NewFeatureExtractor(42, 16, 32, 8)
	x := tensor.New(3, 16)
	rng := rand.New(rand.NewSource(10))
	x.RandNormal(rng, 1)
	ya := a.Forward(x)
	yb := b.Forward(x)
	if tensor.MaxAbsDiff(ya, yb) != 0 {
		t.Fatal("feature extractors from same seed must agree bit-for-bit")
	}
	for _, p := range a.Params() {
		if !p.Frozen {
			t.Fatalf("backbone param %s not frozen", p.Name)
		}
	}
}

func TestSnapshotBytes(t *testing.T) {
	s := Snapshot{"w": tensor.New(2, 3)}
	if got := s.Bytes(); got != 48 {
		t.Fatalf("Bytes = %d, want 48", got)
	}
}

func TestDeltaBalanceZeroForBalancedStack(t *testing.T) {
	// Identity-like balanced pair: wLower = I (3x3), wUpper = I (3x3)
	id := tensor.New(3, 3)
	for i := 0; i < 3; i++ {
		id.Set(i, i, 1)
	}
	if got := DeltaBalance(id, id); got > 1e-12 {
		t.Fatalf("DeltaBalance(I,I) = %v, want 0", got)
	}
}

func TestSGDMomentumAccelerates(t *testing.T) {
	// On a quadratic-like objective, momentum should move parameters
	// further than plain SGD after several identical-gradient steps.
	mk := func(mom float64) float64 {
		p := &Param{Name: "w", W: tensor.New(1, 1), Grad: tensor.New(1, 1)}
		opt := NewSGD(0.1, mom)
		for i := 0; i < 5; i++ {
			p.Grad.Data[0] = 1 // constant gradient
			opt.Step([]*Param{p})
		}
		return -p.W.Data[0]
	}
	if mk(0.9) <= mk(0) {
		t.Fatal("momentum should accumulate larger displacement")
	}
}

func TestForwardIntoSurvivesNextForward(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	n := NewMLP("m", []int{4, 8, 3}, rng)
	x1 := tensor.New(2, 4)
	x1.RandNormal(rng, 1)
	x2 := tensor.New(2, 4)
	x2.RandNormal(rng, 1)

	kept := n.ForwardInto(nil, x1)
	want := kept.Clone()
	_ = n.Forward(x2) // overwrites layer scratch
	if tensor.MaxAbsDiff(kept, want) != 0 {
		t.Fatal("ForwardInto output must survive the next Forward")
	}
	// And it must equal a plain Forward bit for bit.
	direct := n.Forward(x1)
	if tensor.MaxAbsDiff(kept, direct) != 0 {
		t.Fatal("ForwardInto must match Forward bitwise")
	}
	// Reuse path: same dst back when shapes match.
	if again := n.ForwardInto(kept, x2); again != kept {
		t.Fatal("matching-shape dst must be reused")
	}
}

func TestNumParams(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	n := NewMLP("m", []int{10, 5, 2}, rng)
	want := 10*5 + 5 + 5*2 + 2
	if got := n.NumParams(); got != want {
		t.Fatalf("NumParams = %d, want %d", got, want)
	}
}
