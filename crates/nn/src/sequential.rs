//! A stack of layers executed in order.

use crate::layer::{Layer, Module, Parameter};
use fg_obs::metrics::HistogramFamily;
use fg_tensor::Tensor;

/// Per-layer-kind wall time of forward/backward passes (label =
/// [`Layer::name`]); recorded only while tracing is enabled.
static LAYER_FWD_NS: HistogramFamily = HistogramFamily::new("nn.layer.fwd_ns");
static LAYER_BWD_NS: HistogramFamily = HistogramFamily::new("nn.layer.bwd_ns");

/// An ordered stack of layers; forward runs front-to-back, backward
/// back-to-front.
#[derive(Default)]
pub struct Sequential {
    layers: Vec<Box<dyn Layer>>,
}

impl Sequential {
    pub fn new() -> Self {
        Sequential { layers: Vec::new() }
    }

    /// Append a layer (builder style).
    pub fn push(mut self, layer: impl Layer + 'static) -> Self {
        self.layers.push(Box::new(layer));
        self
    }

    pub fn len(&self) -> usize {
        self.layers.len()
    }

    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }
}

impl Module for Sequential {
    fn visit_params(&self, f: &mut dyn FnMut(&Parameter)) {
        for l in &self.layers {
            l.visit_params(f);
        }
    }

    fn visit_params_mut(&mut self, f: &mut dyn FnMut(&mut Parameter)) {
        for l in &mut self.layers {
            l.visit_params_mut(f);
        }
    }
}

/// Run one layer's pass `f`; while tracing is enabled, under a span named
/// after the layer kind and timed into `hist`.
fn timed<R>(hist: &'static HistogramFamily, name: &'static str, f: impl FnOnce() -> R) -> R {
    if !fg_obs::enabled() {
        return f();
    }
    let t0 = fg_obs::now_ns();
    let layer_span = fg_obs::span::span(name);
    let out = f();
    drop(layer_span);
    hist.record(name, fg_obs::now_ns().saturating_sub(t0));
    out
}

/// Backward through `layers`, last to first, starting from `grad_output`
/// (borrowed, not copied); `None` when there is no layer to run.
fn backward_through(layers: &mut [Box<dyn Layer>], grad_output: &Tensor) -> Option<Tensor> {
    let mut g: Option<Tensor> = None;
    for l in layers.iter_mut().rev() {
        let name = l.name();
        g = Some(timed(&LAYER_BWD_NS, name, || l.backward(g.as_ref().unwrap_or(grad_output))));
    }
    g
}

impl Layer for Sequential {
    fn name(&self) -> &'static str {
        "sequential"
    }

    fn forward(&mut self, input: &Tensor, train: bool) -> Tensor {
        let _pass = fg_obs::span::span("nn.forward");
        let mut x: Option<Tensor> = None;
        for l in &mut self.layers {
            let name = l.name();
            x = Some(timed(&LAYER_FWD_NS, name, || l.forward(x.as_ref().unwrap_or(input), train)));
        }
        x.unwrap_or_else(|| input.clone())
    }

    fn backward(&mut self, grad_output: &Tensor) -> Tensor {
        let _pass = fg_obs::span::span("nn.backward");
        backward_through(&mut self.layers, grad_output).unwrap_or_else(|| grad_output.clone())
    }

    /// Full backward through every layer but the first, whose input gradient
    /// would be the stack's own: it accumulates its parameter gradients only.
    fn backward_params(&mut self, grad_output: &Tensor) {
        let _pass = fg_obs::span::span("nn.backward");
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return;
        };
        let g = backward_through(rest, grad_output);
        let name = first.name();
        timed(&LAYER_BWD_NS, name, || first.backward_params(g.as_ref().unwrap_or(grad_output)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::activations::ReLU;
    use crate::linear::Linear;
    use fg_tensor::rng::SeededRng;

    #[test]
    fn composes_layers() {
        let mut rng = SeededRng::new(0);
        let mut net = Sequential::new()
            .push(Linear::new(4, 8, &mut rng))
            .push(ReLU::new())
            .push(Linear::new(8, 2, &mut rng));
        assert_eq!(net.len(), 3);
        let x = Tensor::randn(&[3, 4], &mut rng);
        let y = net.forward(&x, true);
        assert_eq!(y.dims(), &[3, 2]);
        let dx = net.backward(&Tensor::ones(&[3, 2]));
        assert_eq!(dx.dims(), &[3, 4]);
    }

    #[test]
    fn num_params_sums_layers() {
        let mut rng = SeededRng::new(1);
        let net =
            Sequential::new().push(Linear::new(4, 8, &mut rng)).push(Linear::new(8, 2, &mut rng));
        assert_eq!(net.num_params(), (4 * 8 + 8) + (8 * 2 + 2));
    }

    #[test]
    fn zero_grad_clears_all() {
        let mut rng = SeededRng::new(2);
        let mut net = Sequential::new().push(Linear::new(3, 3, &mut rng));
        let x = Tensor::randn(&[2, 3], &mut rng);
        net.forward(&x, true);
        net.backward(&Tensor::ones(&[2, 3]));
        let mut norm = 0.0;
        net.visit_params(&mut |p| norm += p.grad.l2_norm());
        assert!(norm > 0.0);
        net.zero_grad();
        norm = 0.0;
        net.visit_params(&mut |p| norm += p.grad.l2_norm());
        assert_eq!(norm, 0.0);
    }

    #[test]
    fn params_only_backward_fills_the_same_gradients() {
        let grads = |net: &Sequential| {
            let mut all = Vec::new();
            net.visit_params(&mut |p| all.extend(crate::bits(p.grad.data())));
            all
        };
        // Three layers, one layer (nothing to backpropagate through first),
        // and none.
        for depth in [3, 1, 0] {
            let build = || {
                let mut rng = SeededRng::new(3);
                let mut net = Sequential::new();
                if depth >= 1 {
                    net = net.push(Linear::new(4, 6, &mut rng));
                }
                if depth >= 3 {
                    net = net.push(ReLU::new()).push(Linear::new(6, 2, &mut rng));
                }
                net
            };
            let (mut full, mut lean) = (build(), build());
            let mut rng = SeededRng::new(4);
            let x = Tensor::randn(&[5, 4], &mut rng);
            let g = Tensor::randn(full.forward(&x, true).dims(), &mut rng);
            lean.forward(&x, true);
            full.backward(&g);
            lean.backward_params(&g);
            assert_eq!(grads(&lean), grads(&full), "depth {depth}");
        }
    }
}
