// Package nn is a small, self-contained neural-network engine: dense layers,
// ReLU activations, a softmax cross-entropy head, stochastic gradient descent
// with momentum, and per-parameter weight freezing.
//
// It exists because NDPipe's fine-tuning workload only ever *trains* a
// classifier head (a few MLP layers) on features produced by a frozen
// backbone. That workload runs end-to-end on this engine: PipeStores execute
// the frozen feature-extraction layers (forward pass only, identical to
// inference — §2.1 of the paper), and the Tuner trains the trainable layers
// with real gradient descent. Accuracy-shaped experiments (drift, outdated
// labels, pipelined-run catastrophic forgetting) therefore exercise genuine
// learning dynamics, not canned numbers.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"ndpipe/internal/tensor"
)

// Param is one learnable (or frozen) parameter matrix with its gradient.
type Param struct {
	Name   string
	W      *tensor.Matrix
	Grad   *tensor.Matrix
	Frozen bool
}

// Layer is a differentiable network stage.
//
// Buffer-ownership contract (the allocation-free kernel discipline,
// DESIGN.md S29): Forward may return layer-owned scratch that stays valid
// only until the layer's next Forward call — callers that need the output
// past that point must copy it. Forward must not mutate its input.
// Backward takes ownership of grad (it may mutate it in place) and its
// return value follows the same scratch rule. Layers are therefore stateful
// and a single Layer/Network must not run Forward/Backward concurrently.
type Layer interface {
	// Forward computes the layer output for a batch (rows = samples).
	Forward(x *tensor.Matrix) *tensor.Matrix
	// Backward receives ∂L/∂output and returns ∂L/∂input, accumulating
	// parameter gradients along the way.
	Backward(grad *tensor.Matrix) *tensor.Matrix
	// Params returns the layer's parameters (may be empty).
	Params() []*Param
	// Name identifies the layer for serialization and diffing.
	Name() string
}

// Dense is a fully connected layer: y = xW + b.
//
// The layer owns per-layer scratch for its output, input gradient and
// weight-gradient product, reused across batches (see the buffer-ownership
// contract on Layer): steady-state training allocates nothing.
type Dense struct {
	name  string
	w, b  *Param
	input *tensor.Matrix // cached for backward

	out *tensor.Matrix // forward scratch: xW + b
	gw  *tensor.Matrix // backward scratch: xᵀ·grad before accumulation
	bg  []float64      // backward scratch: column sums of grad
	dx  *tensor.Matrix // backward scratch: grad·Wᵀ
}

// NewDense creates an in×out dense layer with Glorot-uniform weights.
func NewDense(name string, in, out int, rng *rand.Rand) *Dense {
	w := tensor.New(in, out)
	w.GlorotInit(rng, in, out)
	return &Dense{
		name: name,
		w:    &Param{Name: name + ".w", W: w, Grad: tensor.New(in, out)},
		b:    &Param{Name: name + ".b", W: tensor.New(1, out), Grad: tensor.New(1, out)},
	}
}

// In returns the input width of the layer.
func (d *Dense) In() int { return d.w.W.Rows }

// Out returns the output width of the layer.
func (d *Dense) Out() int { return d.w.W.Cols }

// Freeze marks the layer's parameters as non-trainable (weight-freeze layer).
func (d *Dense) Freeze() {
	d.w.Frozen = true
	d.b.Frozen = true
}

// Frozen reports whether the layer's parameters are frozen.
func (d *Dense) Frozen() bool { return d.w.Frozen }

// Forward implements Layer.
func (d *Dense) Forward(x *tensor.Matrix) *tensor.Matrix {
	d.input = x
	d.out = tensor.Reuse(d.out, x.Rows, d.w.W.Cols)
	tensor.MatMulInto(d.out, x, d.w.W)
	d.out.AddRowVector(d.b.W.Data)
	return d.out
}

// Backward implements Layer.
func (d *Dense) Backward(grad *tensor.Matrix) *tensor.Matrix {
	d.accumulateGrads(grad)
	d.dx = tensor.Reuse(d.dx, grad.Rows, d.w.W.Rows)
	tensor.MatMulABTInto(d.dx, grad, d.w.W)
	return d.dx
}

// accumulateGrads adds xᵀ·grad and the column sums of grad to the weight
// and bias gradients, unless the layer is frozen. It is the parameter half
// of Backward, without the input gradient.
func (d *Dense) accumulateGrads(grad *tensor.Matrix) {
	if d.w.Frozen {
		return
	}
	d.gw = tensor.Reuse(d.gw, d.w.W.Rows, d.w.W.Cols)
	tensor.MatMulATBInto(d.gw, d.input, grad)
	d.w.Grad.Add(d.gw)
	d.bg = tensor.ReuseSlice(d.bg, grad.Cols)
	grad.ColSumsInto(d.bg)
	for j, v := range d.bg {
		d.b.Grad.Data[j] += v
	}
}

// Params implements Layer.
func (d *Dense) Params() []*Param { return []*Param{d.w, d.b} }

// Name implements Layer.
func (d *Dense) Name() string { return d.name }

// ReLU is the rectified linear activation.
type ReLU struct {
	name string
	mask *tensor.Matrix
	out  *tensor.Matrix // forward scratch; mask is its pooled companion
}

// NewReLU creates a named ReLU layer.
func NewReLU(name string) *ReLU { return &ReLU{name: name} }

// Forward implements Layer. The input is copied into layer-owned scratch and
// rectified in place with a reused mask — no per-batch allocation.
func (r *ReLU) Forward(x *tensor.Matrix) *tensor.Matrix {
	r.out = tensor.Reuse(r.out, x.Rows, x.Cols)
	x.CopyInto(r.out)
	r.mask = tensor.Reuse(r.mask, x.Rows, x.Cols)
	r.out.ReluInto(r.mask)
	return r.out
}

// Backward implements Layer. Per the Layer contract it takes ownership of
// grad and masks it in place.
func (r *ReLU) Backward(grad *tensor.Matrix) *tensor.Matrix {
	grad.MulElem(r.mask)
	return grad
}

// Params implements Layer.
func (r *ReLU) Params() []*Param { return nil }

// Name implements Layer.
func (r *ReLU) Name() string { return r.name }

// Network is an ordered stack of layers.
type Network struct {
	Layers []Layer

	// params caches the flattened parameter list so the training hot loop
	// (TrainBatch → Step/ZeroGrads) does not rebuild the slice every batch.
	// Invalidated when len(Layers) changes; replacing a layer in place
	// without changing the count is not supported.
	params       []*Param
	paramLayer   []int // paramLayer[i] is the index in Layers of params[i]
	paramsLayers int
}

// NewMLP builds Dense/ReLU stacks for the given widths, e.g. dims
// {2048, 512, 100} produces Dense(2048→512)·ReLU·Dense(512→100).
func NewMLP(prefix string, dims []int, rng *rand.Rand) *Network {
	if len(dims) < 2 {
		panic("nn: NewMLP needs at least two dims")
	}
	n := &Network{}
	for i := 0; i < len(dims)-1; i++ {
		n.Layers = append(n.Layers, NewDense(fmt.Sprintf("%s.fc%d", prefix, i), dims[i], dims[i+1], rng))
		if i < len(dims)-2 {
			n.Layers = append(n.Layers, NewReLU(fmt.Sprintf("%s.relu%d", prefix, i)))
		}
	}
	return n
}

// Forward runs the whole stack.
func (n *Network) Forward(x *tensor.Matrix) *tensor.Matrix {
	for _, l := range n.Layers {
		x = l.Forward(x)
	}
	return x
}

// ForwardInto runs the stack on x and copies the output into dst, which is
// resized via tensor.Reuse (nil allocates). It is the batched-inference
// entry point for callers that must hold network outputs past the next
// Forward call: per the Layer buffer-ownership contract, Forward returns
// layer scratch that the next Forward (any goroutine, once the caller's
// lock is released) overwrites in place. Returns dst.
func (n *Network) ForwardInto(dst, x *tensor.Matrix) *tensor.Matrix {
	out := n.Forward(x)
	dst = tensor.Reuse(dst, out.Rows, out.Cols)
	out.CopyInto(dst)
	return dst
}

// Backward propagates ∂L/∂logits back through the stack.
func (n *Network) Backward(grad *tensor.Matrix) *tensor.Matrix {
	for i := len(n.Layers) - 1; i >= 0; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	return grad
}

// Params returns all parameters in layer order. The slice is cached and
// shared across calls — treat it as read-only.
func (n *Network) Params() []*Param {
	if n.params != nil && n.paramsLayers == len(n.Layers) {
		return n.params
	}
	var ps []*Param
	var at []int
	for i, l := range n.Layers {
		for _, p := range l.Params() {
			ps = append(ps, p)
			at = append(at, i)
		}
	}
	n.params, n.paramLayer = ps, at
	n.paramsLayers = len(n.Layers)
	return ps
}

// lowestTrainable returns the index of the lowest layer holding a
// trainable parameter, or -1 when every parameter is frozen.
func (n *Network) lowestTrainable() int {
	for i, p := range n.Params() {
		if !p.Frozen {
			return n.paramLayer[i]
		}
	}
	return -1
}

// backwardParams is Backward cut down to what a training step reads: the
// parameter gradients. It stops at the lowest trainable layer, which
// accumulates its gradients but (when it is a Dense) computes no input
// gradient; the frozen layers below it are not visited. Every trainable
// parameter's gradient is bit-identical to Backward's.
func (n *Network) backwardParams(grad *tensor.Matrix) {
	lo := n.lowestTrainable()
	if lo < 0 {
		return
	}
	for i := len(n.Layers) - 1; i > lo; i-- {
		grad = n.Layers[i].Backward(grad)
	}
	if d, ok := n.Layers[lo].(*Dense); ok {
		d.accumulateGrads(grad)
	} else {
		n.Layers[lo].Backward(grad)
	}
}

// TrainableParams returns only the non-frozen parameters.
func (n *Network) TrainableParams() []*Param {
	var ps []*Param
	for _, p := range n.Params() {
		if !p.Frozen {
			ps = append(ps, p)
		}
	}
	return ps
}

// ZeroGrads clears all accumulated gradients.
func (n *Network) ZeroGrads() {
	for _, p := range n.Params() {
		p.Grad.Zero()
	}
}

// FreezeAll freezes every parameter in the network.
func (n *Network) FreezeAll() {
	for _, p := range n.Params() {
		p.Frozen = true
	}
}

// NumParams returns the total number of scalar parameters.
func (n *Network) NumParams() int {
	total := 0
	for _, p := range n.Params() {
		total += len(p.W.Data)
	}
	return total
}

// Stack returns a network that runs a then b (used to compose a frozen
// feature extractor with a trainable classifier, exactly the FT-DMP split).
func Stack(a, b *Network) *Network {
	out := &Network{}
	out.Layers = append(out.Layers, a.Layers...)
	out.Layers = append(out.Layers, b.Layers...)
	return out
}

// SoftmaxCrossEntropy computes the mean cross-entropy loss of logits against
// integer labels and the gradient ∂L/∂logits. The logits are left untouched
// (the gradient is a fresh matrix); the training hot path uses
// SoftmaxCrossEntropyInPlace instead.
func SoftmaxCrossEntropy(logits *tensor.Matrix, labels []int) (loss float64, grad *tensor.Matrix) {
	probs := logits.Clone()
	return SoftmaxCrossEntropyInPlace(probs, labels), probs
}

// SoftmaxCrossEntropyInPlace is the allocation-free softmax head: it takes
// ownership of logits, overwrites it with the gradient ∂L/∂logits =
// (softmax(logits) − onehot)/n, and returns the mean cross-entropy loss.
func SoftmaxCrossEntropyInPlace(logits *tensor.Matrix, labels []int) (loss float64) {
	if len(labels) != logits.Rows {
		panic(fmt.Sprintf("nn: %d labels for %d rows", len(labels), logits.Rows))
	}
	logits.SoftmaxRows()
	n := float64(logits.Rows)
	for i, y := range labels {
		p := logits.At(i, y)
		loss -= math.Log(math.Max(p, 1e-15))
		logits.Set(i, y, p-1)
	}
	logits.Scale(1 / n)
	return loss / n
}

// SGD is stochastic gradient descent with classical momentum.
type SGD struct {
	LR       float64
	Momentum float64
	vel      map[*Param]*tensor.Matrix
}

// NewSGD creates an optimizer with the given learning rate and momentum.
func NewSGD(lr, momentum float64) *SGD {
	return &SGD{LR: lr, Momentum: momentum, vel: make(map[*Param]*tensor.Matrix)}
}

// Step applies one update to every non-frozen parameter and zeroes its grad.
func (o *SGD) Step(params []*Param) {
	for _, p := range params {
		if p.Frozen {
			continue
		}
		v, ok := o.vel[p]
		if !ok {
			v = tensor.New(p.W.Rows, p.W.Cols)
			o.vel[p] = v
		}
		v.Scale(o.Momentum)
		v.AXPY(-o.LR, p.Grad)
		p.W.Add(v)
		p.Grad.Zero()
	}
}

// TrainBatch runs one forward/backward/update step and returns the loss.
// The backward pass stops at the lowest trainable layer (backwardParams):
// nothing reads ∂L/∂input of the network, so it is never computed.
// Steady state (shapes unchanged since the previous batch) it performs no
// heap allocation: the logits buffer is consumed in place as the loss
// gradient and every layer reuses its own scratch.
func TrainBatch(n *Network, opt *SGD, x *tensor.Matrix, labels []int) float64 {
	logits := n.Forward(x)
	loss := SoftmaxCrossEntropyInPlace(logits, labels)
	n.backwardParams(logits)
	opt.Step(n.Params())
	return loss
}

// Accuracy evaluates top-1 and top-k accuracy of the network on (x, labels).
func Accuracy(n *Network, x *tensor.Matrix, labels []int, k int) (top1, topK float64) {
	logits := n.Forward(x)
	pred := logits.ArgmaxRows()
	topk := logits.TopKRows(k)
	var c1, ck int
	for i, y := range labels {
		if pred[i] == y {
			c1++
		}
		for _, j := range topk[i] {
			if j == y {
				ck++
				break
			}
		}
	}
	total := float64(len(labels))
	return float64(c1) / total, float64(ck) / total
}

// DeltaBalance returns the δ-balance measure between two consecutive layer
// weight matrices used by the convergence analysis (§5.2, assumption B):
// ‖W₂ᵀW₂ − W₁W₁ᵀ‖_F in the paper's convention where Wⱼ maps layer j−1 to j.
// Our Dense stores the transpose (x·W), so with wLower of shape d₀×d₁ and
// wUpper of shape d₁×d₂ the measure is ‖wUpper·wUpperᵀ − wLowerᵀ·wLower‖_F
// (both d₁×d₁). Small values mean the stack is approximately balanced.
func DeltaBalance(wLower, wUpper *tensor.Matrix) float64 {
	if wLower.Cols != wUpper.Rows {
		panic(fmt.Sprintf("nn: DeltaBalance shape mismatch %dx%d then %dx%d",
			wLower.Rows, wLower.Cols, wUpper.Rows, wUpper.Cols))
	}
	a := tensor.MatMulABT(wUpper, wUpper) // wUpper·wUpperᵀ (d₁×d₁)
	b := tensor.MatMulATB(wLower, wLower) // wLowerᵀ·wLower (d₁×d₁)
	a.Sub(b)
	return a.FrobeniusNorm()
}
