//! Trainable parameters, the module abstraction over them, and the layer
//! list that lays a model's one flat parameter vector out.

use crate::linear::Linear;
use fg_tensor::conv::Conv2dSpec;
use fg_tensor::rng::SeededRng;
use fg_tensor::Tensor;
use std::ops::Range;

/// A trainable parameter: its value and the gradient accumulated by the most
/// recent backward pass.
#[derive(Clone, Debug)]
pub struct Parameter {
    pub value: Tensor,
    pub grad: Tensor,
}

impl Parameter {
    /// Wrap an initialized value with a zeroed gradient of the same shape.
    pub fn new(value: Tensor) -> Self {
        let grad = Tensor::zeros(value.dims());
        Parameter { value, grad }
    }

    /// Number of scalar entries.
    pub fn numel(&self) -> usize {
        self.value.numel()
    }

    /// Reset the gradient to zero.
    pub fn zero_grad(&mut self) {
        self.grad.fill(0.0);
    }
}

/// Anything holding trainable parameters. Every model of the crate holds
/// exactly one: its flat vector, laid out by its layer list, which is what
/// [`crate::params::flatten`] returns and what the optimizers keep one state
/// vector for. The visit order is deterministic all the same, so a module
/// of several parameters (a [`Linear`]: weight, then bias) flattens and
/// steps the same way every time.
pub trait Module {
    /// Visit parameters immutably, in a deterministic order.
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter));

    /// Visit parameters mutably, in the same order as [`Module::visit_params`].
    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter));

    /// Total number of scalar parameters.
    fn num_params(&self) -> usize {
        let mut n = 0;
        self.visit_params(&mut |p| n += p.numel());
        n
    }

    /// Zero all gradients. A training step needs none: an optimizer step
    /// leaves them zeroed. This is for callers that accumulate gradients
    /// without stepping.
    fn zero_grad(&mut self) {
        self.visit_params_mut(&mut |p| p.zero_grad());
    }
}

/// One layer of an architecture with every shape it needs. A model's flat
/// parameter vector holds each parameterised layer's weight then bias,
/// layers front to back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayerSpec {
    /// Stride-1 convolution over `(in_ch, h, w)` activations.
    Conv {
        conv: Conv2dSpec,
        h: usize,
        w: usize,
    },
    Relu,
    /// `k×k` max pool (stride `k`) over `(ch, h, w)` activations.
    MaxPool {
        ch: usize,
        h: usize,
        w: usize,
        k: usize,
    },
    /// `(ch, h, w)` → features; a no-op on row-major data.
    Flatten,
    Linear {
        inputs: usize,
        outputs: usize,
    },
}

impl LayerSpec {
    /// `(weight, bias)` scalar counts; `(0, 0)` for a parameter-free layer.
    pub fn param_lens(&self) -> (usize, usize) {
        match *self {
            LayerSpec::Conv { conv, .. } => (conv.out_ch * conv.patch_len(), conv.out_ch),
            LayerSpec::Linear { inputs, outputs } => (outputs * inputs, outputs),
            LayerSpec::Relu | LayerSpec::MaxPool { .. } | LayerSpec::Flatten => (0, 0),
        }
    }

    /// Activation scalars per sample leaving this layer, given `in_len`
    /// entering it; panics when `in_len` is not what the layer consumes.
    pub fn out_len(&self, in_len: usize) -> usize {
        let (consumes, produces) = match *self {
            LayerSpec::Conv { conv, h, w } => {
                let (oh, ow) = conv.out_size(h, w);
                (conv.in_ch * h * w, conv.out_ch * oh * ow)
            }
            LayerSpec::MaxPool { ch, h, w, k } => (ch * h * w, ch * (h / k) * (w / k)),
            LayerSpec::Linear { inputs, outputs } => (inputs, outputs),
            LayerSpec::Relu | LayerSpec::Flatten => (in_len, in_len),
        };
        assert_eq!(in_len, consumes, "{self:?}: input length mismatch");
        produces
    }
}

/// One parameterised layer's weights and biases, one view per group.
pub(crate) type Bank<'p> = (Vec<&'p [f32]>, Vec<&'p [f32]>);

/// Each parameterised layer's weight and bias ranges in a flat vector laid
/// out by `layers`: the one statement of that layout.
fn ranges(layers: &[LayerSpec]) -> impl Iterator<Item = (Range<usize>, Range<usize>)> + '_ {
    let mut at = 0;
    layers.iter().map(LayerSpec::param_lens).filter(|&(w_len, _)| w_len > 0).map(
        move |(w_len, b_len)| {
            let (w, b) = (at..at + w_len, at + w_len..at + w_len + b_len);
            at = b.end;
            (w, b)
        },
    )
}

/// Scalars in a flat vector laid out by `layers`.
pub(crate) fn num_params(layers: &[LayerSpec]) -> usize {
    ranges(layers).last().map_or(0, |(_, b)| b.end)
}

/// A model's initial flat vector: each parameterised layer of `layers`,
/// front to back (the order the RNG draws follow), initialised as a
/// [`Linear`] of its fan-in — a convolution's `(out_ch, patch_len)` filter
/// bank included.
pub(crate) fn init(layers: &[LayerSpec], rng: &mut SeededRng) -> Parameter {
    let mut flat = Vec::new();
    for (w, b) in ranges(layers) {
        let l = Linear::new(w.len() / b.len(), b.len(), rng);
        flat.extend_from_slice(l.weight.value.data());
        flat.extend_from_slice(l.bias.value.data());
    }
    flat_parameter(flat)
}

/// A model's flat vector as its one [`Parameter`].
pub(crate) fn flat_parameter(flat: Vec<f32>) -> Parameter {
    let n = flat.len();
    Parameter::new(Tensor::from_vec(flat, &[n]))
}

/// Each parameterised layer's weight and bias views in every flat vector of
/// `models`, at the offsets the layer list gives.
pub(crate) fn carve<'p>(layers: &[LayerSpec], models: &[&'p [f32]]) -> Vec<Bank<'p>> {
    let views = |r: Range<usize>| models.iter().map(|m| &m[r.clone()]).collect();
    ranges(layers).map(|(w, b)| (views(w), views(b))).collect()
}

/// [`carve`]'s mutable twin over one flat vector: the weight and bias
/// gradients a backward pass accumulates into.
pub(crate) fn carve_mut<'p>(
    layers: &[LayerSpec],
    mut flat: &'p mut [f32],
) -> Vec<(&'p mut [f32], &'p mut [f32])> {
    ranges(layers)
        .map(|(w, b)| {
            let (wt, rest) = std::mem::take(&mut flat).split_at_mut(w.len());
            let (bias, rest) = rest.split_at_mut(b.len());
            flat = rest;
            (wt, bias)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parameter_tracks_shapes() {
        let p = Parameter::new(Tensor::ones(&[2, 3]));
        assert_eq!(p.numel(), 6);
        assert_eq!(p.grad.dims(), &[2, 3]);
        assert_eq!(p.grad.sum(), 0.0);
    }

    #[test]
    fn zero_grad_resets() {
        let mut p = Parameter::new(Tensor::ones(&[4]));
        p.grad.fill(3.0);
        p.zero_grad();
        assert_eq!(p.grad.sum(), 0.0);
    }
}
