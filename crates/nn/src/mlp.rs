//! Multi-layer perceptrons with manual backpropagation.

use crate::Activation;
use rand::Rng;
use vrl_linalg::{Matrix, Vector};

/// A dense layer `y = act(W x + b)`.
#[derive(Debug, Clone, PartialEq)]
pub struct DenseLayer {
    weights: Matrix,
    bias: Vector,
    activation: Activation,
}

impl DenseLayer {
    /// Creates a layer with Xavier-style random initialization.
    pub fn new<R: Rng + ?Sized>(
        input_dim: usize,
        output_dim: usize,
        activation: Activation,
        rng: &mut R,
    ) -> Self {
        let scale = (2.0 / (input_dim + output_dim) as f64).sqrt();
        let weights = Matrix::from_fn(output_dim, input_dim, |_, _| {
            (rng.gen::<f64>() * 2.0 - 1.0) * scale
        });
        DenseLayer {
            weights,
            bias: Vector::zeros(output_dim),
            activation,
        }
    }

    /// Input dimension.
    pub fn input_dim(&self) -> usize {
        self.weights.cols()
    }

    /// Output dimension.
    pub fn output_dim(&self) -> usize {
        self.weights.rows()
    }

    /// Number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.weights.rows() * self.weights.cols() + self.bias.len()
    }

    /// The layer's activation function.
    pub fn activation(&self) -> Activation {
        self.activation
    }

    /// Creates a zero-initialized layer (all weights and biases zero), the
    /// starting point when a network is reconstructed from stored
    /// parameters.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn zeros(input_dim: usize, output_dim: usize, activation: Activation) -> Self {
        assert!(
            input_dim > 0 && output_dim > 0,
            "layer dimensions must be positive"
        );
        DenseLayer {
            weights: Matrix::zeros(output_dim, input_dim),
            bias: Vector::zeros(output_dim),
            activation,
        }
    }

    fn pre_activation(&self, input: &Vector) -> Vector {
        &self.weights.matvec(input) + &self.bias
    }

    /// Runs the layer on a raw slice, writing the activated output into
    /// `out` (resized as needed) without any further allocation.
    ///
    /// Bit-identical to the `DenseLayer::pre_activation` + activation path:
    /// same summation order, bias add, then activation.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward_into(&self, input: &[f64], out: &mut Vec<f64>) {
        out.resize(self.output_dim(), 0.0);
        self.weights.matvec_into(input, out);
        for (o, b) in out.iter_mut().zip(self.bias.iter()) {
            *o = self.activation.apply(*o + *b);
        }
    }

    /// Runs the layer on a sweep of [`BATCH_LANES`] inputs packed
    /// **feature-major** in `inputs` (`inputs[k * BATCH_LANES + lane]` is
    /// feature `k` of lane `lane`; pad lanes hold `0.0`), writing
    /// feature-major outputs into `out` (length
    /// `output_dim * BATCH_LANES`).
    ///
    /// The lane dimension is the innermost, contiguous axis, so the inner
    /// loop is a fixed-width 8-lane multiply-accumulate the compiler
    /// lowers to SIMD: each weight `w[i][k]` is loaded once and broadcast
    /// across all lanes, and each lane's accumulator advances through `k`
    /// in exactly the order of [`DenseLayer::forward_into`]'s dot product
    /// (`((0 + p₀) + p₁) + …`), then adds the bias and applies the
    /// activation — every live lane's output is therefore bit-identical
    /// to the scalar path.  Pad lanes accumulate zeros and are never read.
    fn forward_batch(&self, inputs: &[f64], out: &mut [f64]) {
        let in_dim = self.input_dim();
        let out_dim = self.output_dim();
        debug_assert_eq!(inputs.len(), in_dim * BATCH_LANES);
        debug_assert_eq!(out.len(), out_dim * BATCH_LANES);
        for i in 0..out_dim {
            let row = self.weights.row(i);
            let mut acc = [0.0f64; BATCH_LANES];
            // `chunks_exact` + the array conversion give the optimizer a
            // constant 8-lane trip count with no bounds checks in the
            // multiply-accumulate loop.
            for (xs, &w) in inputs.chunks_exact(BATCH_LANES).zip(row.iter()) {
                let xs: &[f64; BATCH_LANES] = xs.try_into().expect("exact chunk");
                for l in 0..BATCH_LANES {
                    acc[l] += w * xs[l];
                }
            }
            let b = self.bias[i];
            let outs = &mut out[i * BATCH_LANES..(i + 1) * BATCH_LANES];
            for (o, &a) in outs.iter_mut().zip(acc.iter()) {
                *o = self.activation.apply(a + b);
            }
        }
    }
}

/// Number of states a batched forward pass processes per sweep: enough to
/// amortize each weight row's memory traffic, small enough that a sweep's
/// lane-major activations stay cache-resident next to the row.
pub const BATCH_LANES: usize = 8;

/// Reusable forward-pass buffers for [`Mlp::forward_into`] and
/// [`Mlp::forward_batch_into`].
///
/// The ping-pong buffers grow to the widest layer (times [`BATCH_LANES`]
/// for the batched pair) they have served and are then allocation-free.
/// Keep one scratch per worker thread; the serving path in `vrl-runtime`
/// does exactly that.
#[derive(Debug, Clone, Default)]
pub struct MlpScratch {
    current: Vec<f64>,
    next: Vec<f64>,
    batch_current: Vec<f64>,
    batch_next: Vec<f64>,
}

impl MlpScratch {
    /// Creates an empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        MlpScratch::default()
    }
}

/// Per-layer gradients produced by backpropagation.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerGradient {
    /// Gradient of the loss with respect to the layer weights.
    pub weights: Matrix,
    /// Gradient of the loss with respect to the layer bias.
    pub bias: Vector,
}

/// Intermediate values cached during a forward pass, needed by backprop.
#[derive(Debug, Clone)]
pub struct ForwardCache {
    /// Layer inputs (index 0 is the network input).
    inputs: Vec<Vector>,
    /// Pre-activation values per layer.
    pre_activations: Vec<Vector>,
    /// Final network output.
    output: Vector,
}

impl ForwardCache {
    /// The network output of this forward pass.
    pub fn output(&self) -> &[f64] {
        self.output.as_slice()
    }
}

/// A fully connected feed-forward network.
///
/// # Examples
///
/// ```
/// use rand::rngs::SmallRng;
/// use rand::SeedableRng;
/// use vrl_nn::{Activation, Mlp};
///
/// let mut rng = SmallRng::seed_from_u64(0);
/// let net = Mlp::new(&[2, 16, 1], Activation::Tanh, Activation::Identity, &mut rng);
/// assert_eq!(net.forward(&[0.1, -0.2]).len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Mlp {
    layers: Vec<DenseLayer>,
}

/// Plain-data form of an [`Mlp`] used by artifact persistence: the layer
/// size chain `[input, hidden…, output]`, one [`Activation::tag`] per layer,
/// and the flat parameter vector in [`Mlp::parameters`] order.
#[derive(Debug, Clone, PartialEq)]
pub struct PortableMlp {
    /// Layer sizes, input first, output last (length = layers + 1).
    pub layer_sizes: Vec<u32>,
    /// One activation tag per layer (see [`Activation::tag`]).
    pub activations: Vec<u8>,
    /// Flat parameters (weights row-major then bias, per layer in order).
    pub parameters: Vec<f64>,
}

impl Mlp {
    /// Creates a network with the given layer sizes (input, hidden…, output),
    /// using `hidden` activation on hidden layers and `output` activation on
    /// the last layer.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two sizes are given or any size is zero.
    pub fn new<R: Rng + ?Sized>(
        sizes: &[usize],
        hidden: Activation,
        output: Activation,
        rng: &mut R,
    ) -> Self {
        assert!(
            sizes.len() >= 2,
            "an MLP needs at least input and output sizes"
        );
        assert!(sizes.iter().all(|s| *s > 0), "layer sizes must be positive");
        let mut layers = Vec::with_capacity(sizes.len() - 1);
        for i in 0..sizes.len() - 1 {
            let activation = if i + 2 == sizes.len() { output } else { hidden };
            layers.push(DenseLayer::new(sizes[i], sizes[i + 1], activation, rng));
        }
        Mlp { layers }
    }

    /// Input dimension of the network.
    pub fn input_dim(&self) -> usize {
        self.layers.first().map_or(0, DenseLayer::input_dim)
    }

    /// Output dimension of the network.
    pub fn output_dim(&self) -> usize {
        self.layers.last().map_or(0, DenseLayer::output_dim)
    }

    /// The layers of the network.
    pub fn layers(&self) -> &[DenseLayer] {
        &self.layers
    }

    /// Total number of trainable parameters.
    pub fn num_parameters(&self) -> usize {
        self.layers.iter().map(DenseLayer::num_parameters).sum()
    }

    /// Runs the network on an input.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward(&self, input: &[f64]) -> Vec<f64> {
        let mut scratch = MlpScratch::new();
        self.forward_into(input, &mut scratch).to_vec()
    }

    /// Runs the network through caller-provided scratch buffers, returning
    /// the output as a borrow of the scratch: in steady state the forward
    /// pass performs no allocation at all.
    ///
    /// Bit-identical to [`Mlp::forward`] (which delegates here): the same
    /// matrix-vector kernels run in the same order.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward_into<'s>(&self, input: &[f64], scratch: &'s mut MlpScratch) -> &'s [f64] {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        scratch.current.clear();
        scratch.current.extend_from_slice(input);
        for layer in &self.layers {
            layer.forward_into(&scratch.current, &mut scratch.next);
            std::mem::swap(&mut scratch.current, &mut scratch.next);
        }
        &scratch.current
    }

    /// Runs the network on a whole batch of inputs through one shared
    /// scratch, writing one output vector per input into `out` (whose spine
    /// and element buffers are recycled across calls).
    ///
    /// Inputs are processed [`BATCH_LANES`] at a time with each layer's
    /// weight rows blocked across the lane (see
    /// `DenseLayer::forward_batch`), which amortizes the weight-matrix
    /// memory traffic that dominates large-layer scalar forwards.  A chunk
    /// of one input (a batch of one, or a ragged tail of one) runs the
    /// scalar [`Mlp::forward_into`] instead.  Output `i` is
    /// **bit-identical** to `forward_into(&inputs[i])` — batching reorders
    /// only independent work (debug builds assert this per lane).
    ///
    /// # Panics
    ///
    /// Panics if any input's length differs from `self.input_dim()`.
    pub fn forward_batch_into(
        &self,
        inputs: &[Vec<f64>],
        scratch: &mut MlpScratch,
        out: &mut Vec<Vec<f64>>,
    ) {
        let in_dim = self.input_dim();
        let out_dim = self.output_dim();
        out.resize(inputs.len(), Vec::new());
        let mut base = 0;
        while base < inputs.len() {
            let lanes = (inputs.len() - base).min(BATCH_LANES);
            if lanes == 1 {
                // A lone input would pay for a whole padded lane sweep;
                // the scalar pass is the reference the lanes match anyway.
                let output = self.forward_into(&inputs[base], scratch);
                out[base].clear();
                out[base].extend_from_slice(output);
                break;
            }
            let chunk = &inputs[base..base + lanes];
            // Transpose the chunk feature-major into the current buffer,
            // zero-padding the dead lanes of a ragged tail.
            scratch.batch_current.clear();
            scratch.batch_current.resize(in_dim * BATCH_LANES, 0.0);
            for (l, input) in chunk.iter().enumerate() {
                assert_eq!(input.len(), in_dim, "input dimension mismatch");
                for (k, &x) in input.iter().enumerate() {
                    scratch.batch_current[k * BATCH_LANES + l] = x;
                }
            }
            for layer in &self.layers {
                scratch
                    .batch_next
                    .resize(layer.output_dim() * BATCH_LANES, 0.0);
                layer.forward_batch(&scratch.batch_current, &mut scratch.batch_next);
                std::mem::swap(&mut scratch.batch_current, &mut scratch.batch_next);
            }
            for (l, slot) in out[base..base + lanes].iter_mut().enumerate() {
                slot.clear();
                slot.extend((0..out_dim).map(|j| scratch.batch_current[j * BATCH_LANES + l]));
            }
            base += lanes;
        }
        #[cfg(debug_assertions)]
        for (input, output) in inputs.iter().zip(out.iter()) {
            let reference = self.forward_into(input, scratch);
            debug_assert!(
                reference
                    .iter()
                    .zip(output.iter())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "batched forward diverged from the scalar pass"
            );
        }
    }

    /// Runs the network and keeps the intermediate values needed for
    /// [`Mlp::backward`].
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != self.input_dim()`.
    pub fn forward_cached(&self, input: &[f64]) -> ForwardCache {
        assert_eq!(input.len(), self.input_dim(), "input dimension mismatch");
        let mut inputs = Vec::with_capacity(self.layers.len());
        let mut pre_activations = Vec::with_capacity(self.layers.len());
        let mut current = Vector::from_slice(input);
        for layer in &self.layers {
            inputs.push(current.clone());
            let pre = layer.pre_activation(&current);
            current = pre.map(|x| layer.activation.apply(x));
            pre_activations.push(pre);
        }
        ForwardCache {
            inputs,
            pre_activations,
            output: current,
        }
    }

    /// Backpropagates `output_grad` (the gradient of the loss with respect to
    /// the network output) through the cached forward pass, returning per-layer
    /// parameter gradients and the gradient with respect to the network input.
    ///
    /// # Panics
    ///
    /// Panics if `output_grad.len() != self.output_dim()`.
    pub fn backward(
        &self,
        cache: &ForwardCache,
        output_grad: &[f64],
    ) -> (Vec<LayerGradient>, Vec<f64>) {
        assert_eq!(
            output_grad.len(),
            self.output_dim(),
            "output gradient dimension mismatch"
        );
        let mut gradients: Vec<LayerGradient> = Vec::with_capacity(self.layers.len());
        let mut upstream = Vector::from_slice(output_grad);
        for (index, layer) in self.layers.iter().enumerate().rev() {
            let pre = &cache.pre_activations[index];
            let input = &cache.inputs[index];
            // δ = upstream ⊙ act'(pre)
            let delta = Vector::from_fn(upstream.len(), |i| {
                upstream[i] * layer.activation.derivative(pre[i])
            });
            let weight_grad = Matrix::from_fn(layer.output_dim(), layer.input_dim(), |i, j| {
                delta[i] * input[j]
            });
            let bias_grad = delta.clone();
            upstream = layer.weights.vecmat(&delta);
            gradients.push(LayerGradient {
                weights: weight_grad,
                bias: bias_grad,
            });
        }
        gradients.reverse();
        (gradients, upstream.into_vec())
    }

    /// Applies gradients scaled by `-learning_rate` (i.e. a plain SGD step).
    ///
    /// # Panics
    ///
    /// Panics if the gradient count or shapes do not match the network.
    pub fn apply_gradients(&mut self, gradients: &[LayerGradient], learning_rate: f64) {
        assert_eq!(
            gradients.len(),
            self.layers.len(),
            "one gradient per layer is required"
        );
        for (layer, grad) in self.layers.iter_mut().zip(gradients.iter()) {
            layer.weights.axpy(-learning_rate, &grad.weights);
            layer.bias.axpy(-learning_rate, &grad.bias);
        }
    }

    /// Flattens all parameters into a single vector (weights row-major, then
    /// bias, per layer in order).
    pub fn parameters(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for layer in &self.layers {
            out.extend_from_slice(layer.weights.as_slice());
            out.extend_from_slice(layer.bias.as_slice());
        }
        out
    }

    /// Restores parameters from a flat vector produced by [`Mlp::parameters`].
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != self.num_parameters()`.
    pub fn set_parameters(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.num_parameters(),
            "parameter vector has the wrong length"
        );
        let mut offset = 0;
        for layer in &mut self.layers {
            let w_len = layer.weights.rows() * layer.weights.cols();
            layer
                .weights
                .as_mut_slice()
                .copy_from_slice(&params[offset..offset + w_len]);
            offset += w_len;
            let b_len = layer.bias.len();
            layer
                .bias
                .as_mut_slice()
                .copy_from_slice(&params[offset..offset + b_len]);
            offset += b_len;
        }
    }

    /// Flattens per-layer gradients in the same order as [`Mlp::parameters`].
    pub fn flatten_gradients(&self, gradients: &[LayerGradient]) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.num_parameters());
        for grad in gradients {
            out.extend_from_slice(grad.weights.as_slice());
            out.extend_from_slice(grad.bias.as_slice());
        }
        out
    }

    /// Creates a network from explicit layers.
    ///
    /// # Panics
    ///
    /// Panics if `layers` is empty or consecutive layer dimensions disagree.
    pub fn from_layers(layers: Vec<DenseLayer>) -> Self {
        assert!(!layers.is_empty(), "an MLP needs at least one layer");
        for pair in layers.windows(2) {
            assert_eq!(
                pair[0].output_dim(),
                pair[1].input_dim(),
                "consecutive layer dimensions must agree"
            );
        }
        Mlp { layers }
    }

    /// Extracts the plain-data form of the network: layer sizes, per-layer
    /// activation tags, and the flat parameter vector of
    /// [`Mlp::parameters`].
    pub fn to_portable(&self) -> PortableMlp {
        let mut layer_sizes = Vec::with_capacity(self.layers.len() + 1);
        layer_sizes.push(self.input_dim() as u32);
        for layer in &self.layers {
            layer_sizes.push(layer.output_dim() as u32);
        }
        PortableMlp {
            layer_sizes,
            activations: self.layers.iter().map(|l| l.activation().tag()).collect(),
            parameters: self.parameters(),
        }
    }

    /// Rebuilds a network from its plain-data form.
    ///
    /// # Errors
    ///
    /// Returns a message when the sizes, activation tags, and parameter
    /// count are mutually inconsistent.
    pub fn from_portable(portable: &PortableMlp) -> Result<Mlp, String> {
        if portable.layer_sizes.len() < 2 {
            return Err("an MLP needs at least input and output sizes".to_string());
        }
        if portable.layer_sizes.contains(&0) {
            return Err("layer sizes must be positive".to_string());
        }
        if portable.activations.len() + 1 != portable.layer_sizes.len() {
            return Err(format!(
                "{} layer sizes require {} activations, got {}",
                portable.layer_sizes.len(),
                portable.layer_sizes.len() - 1,
                portable.activations.len()
            ));
        }
        let mut layers = Vec::with_capacity(portable.activations.len());
        for (i, &tag) in portable.activations.iter().enumerate() {
            let activation =
                Activation::from_tag(tag).ok_or_else(|| format!("unknown activation tag {tag}"))?;
            layers.push(DenseLayer::zeros(
                portable.layer_sizes[i] as usize,
                portable.layer_sizes[i + 1] as usize,
                activation,
            ));
        }
        let mut mlp = Mlp::from_layers(layers);
        if portable.parameters.len() != mlp.num_parameters() {
            return Err(format!(
                "architecture has {} parameters but {} were stored",
                mlp.num_parameters(),
                portable.parameters.len()
            ));
        }
        mlp.set_parameters(&portable.parameters);
        Ok(mlp)
    }

    /// Moves this network's parameters towards `target`'s by the soft-update
    /// rule `θ ← (1 − τ)·θ + τ·θ_target` (used for DDPG target networks).
    ///
    /// # Panics
    ///
    /// Panics if the two networks have different architectures.
    pub fn soft_update_from(&mut self, target: &Mlp, tau: f64) {
        assert_eq!(
            self.num_parameters(),
            target.num_parameters(),
            "soft update requires identical architectures"
        );
        let mine = self.parameters();
        let theirs = target.parameters();
        let mixed: Vec<f64> = mine
            .iter()
            .zip(theirs.iter())
            .map(|(a, b)| (1.0 - tau) * a + tau * b)
            .collect();
        self.set_parameters(&mixed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn small_net(seed: u64) -> Mlp {
        let mut rng = SmallRng::seed_from_u64(seed);
        Mlp::new(
            &[2, 8, 8, 1],
            Activation::Tanh,
            Activation::Identity,
            &mut rng,
        )
    }

    #[test]
    fn batched_forward_is_bit_identical_to_scalar() {
        let mut rng = SmallRng::seed_from_u64(31);
        // A network wide enough that every layer mixes lanes and rows.
        let net = Mlp::new(
            &[3, 24, 16, 2],
            Activation::Tanh,
            Activation::Tanh,
            &mut rng,
        );
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        // Lane counts spanning sub-lane batches, exactly one sweep, and
        // ragged multi-sweep tails.
        for n in [1usize, 3, 8, 9, 17] {
            let inputs: Vec<Vec<f64>> = (0..n)
                .map(|i| {
                    vec![
                        i as f64 * 0.31 - 1.7,
                        (i as f64 * 0.17).sin(),
                        1.0 - i as f64 * 0.09,
                    ]
                })
                .collect();
            net.forward_batch_into(&inputs, &mut scratch, &mut out);
            assert_eq!(out.len(), n);
            for (input, output) in inputs.iter().zip(out.iter()) {
                let mut reference_scratch = MlpScratch::new();
                let reference = net.forward_into(input, &mut reference_scratch);
                assert_eq!(output.len(), reference.len());
                for (a, b) in output.iter().zip(reference.iter()) {
                    assert_eq!(a.to_bits(), b.to_bits(), "lane diverged at n={n}");
                }
            }
        }
        // Empty batches are fine and clear the output spine.
        net.forward_batch_into(&[], &mut scratch, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn batched_forward_rejects_wrong_dimension() {
        let net = small_net(1);
        let mut scratch = MlpScratch::new();
        let mut out = Vec::new();
        net.forward_batch_into(&[vec![1.0]], &mut scratch, &mut out);
    }

    #[test]
    fn shapes_and_parameter_roundtrip() {
        let net = small_net(0);
        assert_eq!(net.input_dim(), 2);
        assert_eq!(net.output_dim(), 1);
        assert_eq!(net.layers().len(), 3);
        assert_eq!(net.num_parameters(), 2 * 8 + 8 + 8 * 8 + 8 + 8 + 1);
        let params = net.parameters();
        assert_eq!(params.len(), net.num_parameters());
        let mut other = small_net(1);
        assert_ne!(other.forward(&[0.3, -0.4]), net.forward(&[0.3, -0.4]));
        other.set_parameters(&params);
        assert_eq!(other.forward(&[0.3, -0.4]), net.forward(&[0.3, -0.4]));
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut net = small_net(2);
        let input = [0.4, -0.7];
        let target = 0.3;
        // Loss L = 0.5 (f(x) − target)².
        let loss = |net: &Mlp| {
            let y = net.forward(&input)[0];
            0.5 * (y - target) * (y - target)
        };
        let cache = net.forward_cached(&input);
        let y = cache.output()[0];
        let (grads, input_grad) = net.backward(&cache, &[y - target]);
        let flat = net.flatten_gradients(&grads);
        let params = net.parameters();
        let h = 1e-6;
        for index in [0usize, 3, 10, params.len() - 1] {
            let mut plus = params.clone();
            plus[index] += h;
            let mut minus = params.clone();
            minus[index] -= h;
            net.set_parameters(&plus);
            let lp = loss(&net);
            net.set_parameters(&minus);
            let lm = loss(&net);
            net.set_parameters(&params);
            let numeric = (lp - lm) / (2.0 * h);
            assert!(
                (numeric - flat[index]).abs() < 1e-4 * (1.0 + numeric.abs()),
                "param {index}: numeric {numeric} vs analytic {}",
                flat[index]
            );
        }
        // Input gradient via finite differences.
        for dim in 0..2 {
            let mut plus = input;
            plus[dim] += h;
            let mut minus = input;
            minus[dim] -= h;
            let numeric =
                (loss_at(&net, &plus, target) - loss_at(&net, &minus, target)) / (2.0 * h);
            assert!((numeric - input_grad[dim]).abs() < 1e-4 * (1.0 + numeric.abs()));
        }
    }

    fn loss_at(net: &Mlp, input: &[f64], target: f64) -> f64 {
        let y = net.forward(input)[0];
        0.5 * (y - target) * (y - target)
    }

    #[test]
    fn sgd_reduces_loss_on_a_regression_task() {
        let mut net = small_net(3);
        let mut rng = SmallRng::seed_from_u64(4);
        let samples: Vec<([f64; 2], f64)> = (0..64)
            .map(|_| {
                let x = rng.gen::<f64>() * 2.0 - 1.0;
                let y = rng.gen::<f64>() * 2.0 - 1.0;
                ([x, y], 0.5 * x - 0.3 * y)
            })
            .collect();
        let loss_of = |net: &Mlp| -> f64 {
            samples
                .iter()
                .map(|(x, t)| {
                    let y = net.forward(x)[0];
                    0.5 * (y - t) * (y - t)
                })
                .sum::<f64>()
                / samples.len() as f64
        };
        let before = loss_of(&net);
        for _ in 0..300 {
            for (x, t) in &samples {
                let cache = net.forward_cached(x);
                let y = cache.output()[0];
                let (grads, _) = net.backward(&cache, &[y - t]);
                net.apply_gradients(&grads, 0.05);
            }
        }
        let after = loss_of(&net);
        assert!(
            after < before * 0.1,
            "loss should drop markedly: {before} -> {after}"
        );
    }

    #[test]
    fn soft_update_interpolates_parameters() {
        let a = small_net(5);
        let b = small_net(6);
        let mut target = a.clone();
        target.soft_update_from(&b, 0.25);
        let pa = a.parameters();
        let pb = b.parameters();
        let pt = target.parameters();
        for i in 0..pa.len() {
            assert!((pt[i] - (0.75 * pa[i] + 0.25 * pb[i])).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "input dimension mismatch")]
    fn wrong_input_dimension_panics() {
        let _ = small_net(7).forward(&[1.0]);
    }

    #[test]
    fn forward_into_matches_cached_forward_bitwise() {
        let net = small_net(8);
        let mut scratch = MlpScratch::new();
        for input in [[0.0, 0.0], [0.4, -0.7], [1.9, 1.9], [-2.0, 0.3]] {
            let fast = net.forward_into(&input, &mut scratch).to_vec();
            let reference = net.forward_cached(&input).output().to_vec();
            assert_eq!(fast.len(), reference.len());
            for (a, b) in fast.iter().zip(reference.iter()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
        // The scratch survives a network of a different shape.
        let mut rng = SmallRng::seed_from_u64(9);
        let wide = Mlp::new(
            &[2, 32, 3],
            Activation::Relu,
            Activation::Identity,
            &mut rng,
        );
        let out = wide.forward_into(&[0.1, 0.2], &mut scratch);
        assert_eq!(out.len(), 3);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]
        #[test]
        fn prop_forward_is_deterministic_and_finite(seed in 0u64..100, x in -2.0..2.0f64, y in -2.0..2.0f64) {
            let net = small_net(seed);
            let a = net.forward(&[x, y]);
            let b = net.forward(&[x, y]);
            prop_assert_eq!(a.clone(), b);
            prop_assert!(a[0].is_finite());
        }
    }
}
