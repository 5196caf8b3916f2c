//! Sequential feed-forward networks.

use crate::error::NnError;
use crate::layer::{Layer, Scratch};
use nebula_tensor::Tensor;

/// A feed-forward network: an ordered stack of [`Layer`]s.
///
/// # Examples
///
/// ```
/// use nebula_nn::{Layer, Network};
/// use nebula_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(0);
/// let mut net = Network::new(vec![
///     Layer::dense(4, 8, &mut rng),
///     Layer::relu(),
///     Layer::dense(8, 2, &mut rng),
/// ]);
/// let logits = net.forward(&Tensor::ones(&[1, 4]))?;
/// assert_eq!(logits.shape(), &[1, 2]);
/// # Ok::<(), nebula_nn::NnError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Network {
    layers: Vec<Layer>,
}

impl Network {
    /// Builds a network from an ordered layer stack.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// The layers, in order.
    pub fn layers(&self) -> &[Layer] {
        &self.layers
    }

    /// Mutable access to the layers (used by conversion passes).
    pub fn layers_mut(&mut self) -> &mut Vec<Layer> {
        &mut self.layers
    }

    /// Consumes the network and returns its layers.
    pub fn into_layers(self) -> Vec<Layer> {
        self.layers
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.layers.len()
    }

    /// True when the network has no layers.
    pub fn is_empty(&self) -> bool {
        self.layers.is_empty()
    }

    /// Number of weight-bearing (crossbar-mapped) layers.
    pub fn weight_layer_count(&self) -> usize {
        self.layers.iter().filter(|l| l.is_weight_layer()).count()
    }

    /// Total number of trainable scalar parameters.
    pub fn parameter_count(&mut self) -> usize {
        self.layers
            .iter_mut()
            .flat_map(|l| l.params_mut())
            .map(|p| p.len())
            .sum()
    }

    /// Inference forward pass (no caching, batch-norm in eval mode).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward(&h, false)?;
        }
        Ok(h)
    }

    /// Training forward pass (caches activations for backward).
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_train(&mut self, x: &Tensor) -> Result<Tensor, NnError> {
        self.forward_train_with(x, &mut Scratch::default())
    }

    /// [`forward_train`](Self::forward_train) drawing the buffers the
    /// layers cache for the backward pass from `scratch`.
    pub(crate) fn forward_train_with(
        &mut self,
        x: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<Tensor, NnError> {
        let mut h = x.clone();
        for layer in &mut self.layers {
            h = layer.forward_with(&h, true, scratch)?;
        }
        Ok(h)
    }

    /// Forward pass that records the output of every layer (used by the
    /// calibration and feature-map-correlation experiments). Entry `i` is
    /// the output of layer `i`; the final entry is the network output.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn forward_collect(&mut self, x: &Tensor) -> Result<Vec<Tensor>, NnError> {
        let mut h = x.clone();
        let mut outputs = Vec::with_capacity(self.layers.len());
        for layer in &mut self.layers {
            h = layer.forward(&h, false)?;
            outputs.push(h.clone());
        }
        Ok(outputs)
    }

    /// Backward pass from the loss gradient at the output.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::BackwardBeforeForward`] when called without a
    /// preceding [`forward_train`](Self::forward_train).
    pub fn backward(&mut self, grad_output: &Tensor) -> Result<Tensor, NnError> {
        let mut g = grad_output.clone();
        for layer in self.layers.iter_mut().rev() {
            g = layer.backward(&g)?;
        }
        Ok(g)
    }

    /// [`backward`](Self::backward) for training: accumulates every
    /// parameter gradient, returns the layers' cached buffers to
    /// `scratch`, and stops before the first layer's input gradient,
    /// which nothing reads.
    pub(crate) fn backward_params(
        &mut self,
        grad_output: &Tensor,
        scratch: &mut Scratch,
    ) -> Result<(), NnError> {
        let Some((first, rest)) = self.layers.split_first_mut() else {
            return Ok(());
        };
        let mut g = grad_output.clone();
        for layer in rest.iter_mut().rev() {
            g = layer
                .backward_with(&g, true, scratch)?
                .expect("the input gradient was requested");
        }
        first.backward_with(&g, false, scratch)?;
        Ok(())
    }

    /// Clears all parameter gradients.
    pub fn zero_grad(&mut self) {
        for layer in &mut self.layers {
            layer.zero_grad();
        }
    }

    /// Predicted class index per row of `x`.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn predict(&mut self, x: &Tensor) -> Result<Vec<usize>, NnError> {
        Ok(self.forward(x)?.argmax_rows()?)
    }

    /// Classification accuracy over a labelled batch, in `[0, 1]`.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    ///
    /// # Panics
    ///
    /// Panics when `labels.len()` differs from the batch size.
    pub fn accuracy(&mut self, x: &Tensor, labels: &[usize]) -> Result<f64, NnError> {
        let preds = self.predict(x)?;
        assert_eq!(preds.len(), labels.len(), "label count != batch size");
        let correct = preds.iter().zip(labels).filter(|(p, l)| p == l).count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }
}

impl FromIterator<Layer> for Network {
    fn from_iter<I: IntoIterator<Item = Layer>>(iter: I) -> Self {
        Self::new(iter.into_iter().collect())
    }
}

impl Extend<Layer> for Network {
    fn extend<I: IntoIterator<Item = Layer>>(&mut self, iter: I) {
        self.layers.extend(iter);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(7)
    }

    fn tiny_net(r: &mut rand::rngs::StdRng) -> Network {
        Network::new(vec![
            Layer::dense(4, 8, r),
            Layer::relu(),
            Layer::dense(8, 3, r),
        ])
    }

    #[test]
    fn forward_produces_logits() {
        let mut r = rng();
        let mut net = tiny_net(&mut r);
        let y = net.forward(&Tensor::ones(&[2, 4])).unwrap();
        assert_eq!(y.shape(), &[2, 3]);
    }

    #[test]
    fn forward_collect_records_every_layer() {
        let mut r = rng();
        let mut net = tiny_net(&mut r);
        let outs = net.forward_collect(&Tensor::ones(&[1, 4])).unwrap();
        assert_eq!(outs.len(), 3);
        assert_eq!(outs[0].shape(), &[1, 8]);
        assert_eq!(outs[2].shape(), &[1, 3]);
        // ReLU output is the rectification of the dense output.
        assert_eq!(outs[1].data(), outs[0].relu().data());
    }

    #[test]
    fn counts_are_consistent() {
        let mut r = rng();
        let mut net = tiny_net(&mut r);
        assert_eq!(net.len(), 3);
        assert_eq!(net.weight_layer_count(), 2);
        assert_eq!(net.parameter_count(), 4 * 8 + 8 + 8 * 3 + 3);
    }

    #[test]
    fn backward_flows_to_input() {
        let mut r = rng();
        let mut net = tiny_net(&mut r);
        let x = Tensor::rand_uniform(&[2, 4], -1.0, 1.0, &mut r);
        let y = net.forward_train(&x).unwrap();
        let g = net.backward(&Tensor::ones(y.shape())).unwrap();
        assert_eq!(g.shape(), x.shape());
    }

    #[test]
    fn accuracy_on_identity_task() {
        let mut r = rng();
        let mut net = Network::new(vec![Layer::dense(2, 2, &mut r)]);
        // Force an identity weight matrix.
        if let Layer::Dense(d) = &mut net.layers_mut()[0] {
            d.weight.value = Tensor::eye(2);
            d.bias.value = Tensor::zeros(&[2]);
        }
        let x = Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2]).unwrap();
        let acc = net.accuracy(&x, &[0, 1]).unwrap();
        assert_eq!(acc, 1.0);
        let acc_bad = net.accuracy(&x, &[1, 0]).unwrap();
        assert_eq!(acc_bad, 0.0);
    }

    #[test]
    fn from_iterator_and_extend() {
        let mut r = rng();
        let mut net: Network = vec![Layer::dense(2, 2, &mut r)].into_iter().collect();
        net.extend([Layer::relu()]);
        assert_eq!(net.len(), 2);
    }
}
