//! Hybrid SNN-ANN models (paper §V-B, Table II, Fig. 17).
//!
//! A deep network is split into a spiking prefix (close to the input) and
//! a non-spiking suffix. Spikes at the boundary are accumulated over the
//! inference window and rescaled to ANN-domain activations — the job
//! NEBULA's Accumulator Units (AUs) perform in hardware — then the ANN
//! suffix runs once on those continuous values. This recovers accuracy at
//! far fewer timesteps than a pure SNN while keeping most of the
//! computation in the low-power spiking domain.

use crate::convert::{convert_prefix, ConversionConfig};
use crate::error::NnError;
use crate::network::Network;
use crate::optim::Dataset;
use crate::snn::{SnnRunResult, SpikeStats, SpikingNetwork};
use nebula_tensor::Tensor;
use rand::Rng;

/// A network whose first layers are spiking and whose last
/// `ann_weight_layers` weight layers run in the continuous (ANN) domain.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridNetwork {
    snn_part: SpikingNetwork,
    ann_part: Network,
    boundary_scale: f32,
    ann_weight_layers: usize,
}

/// Result of one hybrid inference run.
#[derive(Debug, Clone, PartialEq)]
pub struct HybridRunResult {
    /// Predicted class per sample.
    pub predictions: Vec<usize>,
    /// ANN-suffix logits.
    pub logits: Tensor,
    /// Spiking statistics of the SNN prefix.
    pub stats: SpikeStats,
}

impl HybridNetwork {
    /// Splits `net` so that its last `ann_weight_layers` weight-bearing
    /// layers stay in the ANN domain ("Hyb-k" in the paper's Table II) and
    /// converts the prefix to an SNN using `calib`.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `ann_weight_layers` is zero
    /// (use a pure SNN) or not smaller than the network's weight-layer
    /// count (use a pure ANN), plus any conversion errors.
    pub fn split(
        net: &Network,
        calib: &Dataset,
        ann_weight_layers: usize,
        config: &ConversionConfig,
    ) -> Result<Self, NnError> {
        let total_weight = net.weight_layer_count();
        if ann_weight_layers == 0 || ann_weight_layers >= total_weight {
            return Err(NnError::InvalidConfig {
                reason: format!(
                    "hybrid split needs 0 < ann layers ({ann_weight_layers}) < weight layers ({total_weight})"
                ),
            });
        }
        // Find the layer index where the ANN suffix begins: walk backwards
        // until we have consumed `ann_weight_layers` weight layers, then
        // extend the prefix through the ReLU/quant that belongs to it.
        let layers = net.layers();
        let mut remaining = ann_weight_layers;
        let mut split_at = layers.len();
        for (i, layer) in layers.iter().enumerate().rev() {
            if layer.is_weight_layer() {
                remaining -= 1;
                if remaining == 0 {
                    split_at = i;
                    break;
                }
            }
        }
        let (stages, boundary_scale) = convert_prefix(net, calib, split_at, config)?;
        let ann_part = Network::new(layers[split_at..].to_vec());
        Ok(Self {
            snn_part: SpikingNetwork::new(stages, config.encoding),
            ann_part,
            boundary_scale,
            ann_weight_layers,
        })
    }

    /// Number of weight layers in the ANN suffix (the `k` of "Hyb-k").
    pub fn ann_weight_layers(&self) -> usize {
        self.ann_weight_layers
    }

    /// Activation ceiling at the boundary — the scale the Accumulator
    /// Units multiply accumulated spike rates by.
    pub fn boundary_scale(&self) -> f32 {
        self.boundary_scale
    }

    /// The spiking prefix.
    pub fn snn_part(&self) -> &SpikingNetwork {
        &self.snn_part
    }

    /// The continuous suffix.
    pub fn ann_part(&self) -> &Network {
        &self.ann_part
    }

    /// Runs the hybrid network: simulates the spiking prefix for
    /// `timesteps`, converts boundary spike rates to activations
    /// (`rate · boundary_scale`), then evaluates the ANN suffix once.
    ///
    /// # Errors
    ///
    /// Propagates layer shape errors.
    pub fn run<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        timesteps: usize,
        rng: &mut R,
    ) -> Result<HybridRunResult, NnError> {
        if timesteps == 0 {
            return Err(NnError::InvalidConfig {
                reason: "hybrid run needs at least one timestep".to_string(),
            });
        }
        // The boundary is the *last* stage output of the prefix, which the
        // SNN runner accumulates as its readout: counts of boundary spikes.
        let SnnRunResult {
            output_potentials: boundary_counts,
            stats,
            ..
        } = self.snn_part.run(inputs, timesteps, rng)?;
        // AU behaviour: rate = counts / T, activation = rate · λ_boundary.
        let activations = boundary_counts.scale(self.boundary_scale / timesteps as f32);
        let logits = self.ann_part.forward(&activations)?;
        let predictions = logits.argmax_rows()?;
        Ok(HybridRunResult {
            predictions,
            logits,
            stats,
        })
    }

    /// Classification accuracy of the hybrid model.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when `labels.len()` differs
    /// from the batch size, before anything runs or `rng` is drawn from;
    /// otherwise propagates [`run`](Self::run)'s errors.
    pub fn accuracy<R: Rng + ?Sized>(
        &mut self,
        inputs: &Tensor,
        labels: &[usize],
        timesteps: usize,
        rng: &mut R,
    ) -> Result<f64, NnError> {
        let rows = inputs.shape().first().copied().unwrap_or(0);
        if rows != labels.len() {
            return Err(NnError::InvalidConfig {
                reason: format!("{} labels for a batch of {rows}", labels.len()),
            });
        }
        let result = self.run(inputs, timesteps, rng)?;
        let correct = result
            .predictions
            .iter()
            .zip(labels)
            .filter(|(p, l)| p == l)
            .count();
        Ok(correct as f64 / labels.len().max(1) as f64)
    }
}

/// Convenience: the layer index at which the suffix of `k` weight layers
/// begins (used by the architecture mapper to split energy accounting).
pub fn suffix_split_index(net: &Network, ann_weight_layers: usize) -> Option<usize> {
    let mut remaining = ann_weight_layers;
    for (i, layer) in net.layers().iter().enumerate().rev() {
        if layer.is_weight_layer() {
            remaining = remaining.checked_sub(1)?;
            if remaining == 0 {
                return Some(i);
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use crate::optim::{train, TrainConfig};
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(55)
    }

    fn blobs01(n_per: usize, r: &mut rand::rngs::StdRng) -> Dataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2 * n_per {
            let class = i % 2;
            let center = if class == 0 { 0.25 } else { 0.75 };
            data.push((center + r.gen_range(-0.15..0.15)) as f32);
            data.push((1.0 - center + r.gen_range(-0.15..0.15)) as f32);
            labels.push(class);
        }
        Dataset::new(Tensor::from_vec(data, &[2 * n_per, 2]).unwrap(), labels).unwrap()
    }

    fn deep_trained_net(data: &Dataset, r: &mut rand::rngs::StdRng) -> Network {
        let mut net = Network::new(vec![
            Layer::dense(2, 16, r),
            Layer::relu(),
            Layer::dense(16, 8, r),
            Layer::relu(),
            Layer::dense(8, 2, r),
        ]);
        let cfg = TrainConfig::builder().epochs(40).batch_size(10).build();
        train(&mut net, data, &cfg, r).unwrap();
        net
    }

    #[test]
    fn split_partitions_weight_layers() {
        let mut r = rng();
        let data = blobs01(30, &mut r);
        let net = deep_trained_net(&data, &mut r);
        let h = HybridNetwork::split(&net, &data, 1, &ConversionConfig::default()).unwrap();
        assert_eq!(h.ann_weight_layers(), 1);
        assert_eq!(h.ann_part().weight_layer_count(), 1);
        // Prefix holds the other two weight layers.
        let prefix_weights = h
            .snn_part()
            .stages()
            .iter()
            .filter(|s| matches!(s, crate::snn::SnnStage::Synaptic(l) if l.is_weight_layer()))
            .count();
        assert_eq!(prefix_weights, 2);
        assert!(h.boundary_scale() > 0.0);
    }

    #[test]
    fn split_rejects_degenerate_partitions() {
        let mut r = rng();
        let data = blobs01(10, &mut r);
        let net = deep_trained_net(&data, &mut r);
        assert!(HybridNetwork::split(&net, &data, 0, &ConversionConfig::default()).is_err());
        assert!(HybridNetwork::split(&net, &data, 3, &ConversionConfig::default()).is_err());
    }

    #[test]
    fn hybrid_matches_ann_accuracy_with_modest_timesteps() {
        let mut r = rng();
        let data = blobs01(50, &mut r);
        let mut net = deep_trained_net(&data, &mut r);
        let ann_acc = net.accuracy(&data.inputs, &data.labels).unwrap();
        assert!(ann_acc > 0.9);
        let mut h = HybridNetwork::split(&net, &data, 1, &ConversionConfig::default()).unwrap();
        let hyb_acc = h.accuracy(&data.inputs, &data.labels, 150, &mut r).unwrap();
        assert!(
            hyb_acc >= ann_acc - 0.08,
            "hybrid lost too much accuracy: {ann_acc} → {hyb_acc}"
        );
    }

    #[test]
    fn hybrid_beats_pure_snn_at_few_timesteps() {
        // The paper's core hybrid claim: at small T the hybrid model
        // yields higher accuracy than the pure SNN.
        let mut r = rng();
        let data = blobs01(50, &mut r);
        let net = deep_trained_net(&data, &mut r);
        let cfg = ConversionConfig::default();
        let mut snn = crate::convert::ann_to_snn(&net, &data, &cfg).unwrap();
        let mut hyb = HybridNetwork::split(&net, &data, 2, &cfg).unwrap();
        let t = 3; // deliberately starved evidence-integration window
        let mut snn_acc = 0.0;
        let mut hyb_acc = 0.0;
        let reps = 10;
        for _ in 0..reps {
            snn_acc += snn.accuracy(&data.inputs, &data.labels, t, &mut r).unwrap();
            hyb_acc += hyb.accuracy(&data.inputs, &data.labels, t, &mut r).unwrap();
        }
        snn_acc /= reps as f64;
        hyb_acc /= reps as f64;
        assert!(
            hyb_acc >= snn_acc,
            "hybrid ({hyb_acc}) should not trail pure SNN ({snn_acc}) at T={t}"
        );
    }

    #[test]
    fn accuracy_checks_the_label_count_before_running() {
        let mut r = rng();
        let data = blobs01(10, &mut r);
        let net = deep_trained_net(&data, &mut r);
        let mut h = HybridNetwork::split(&net, &data, 1, &ConversionConfig::default()).unwrap();
        let mut longer = data.labels.clone();
        longer.push(0);
        for labels in [&data.labels[..5], &longer[..]] {
            let mut drawn = rand::rngs::StdRng::seed_from_u64(5);
            let acc = h.accuracy(&data.inputs, labels, 4, &mut drawn);
            assert!(
                matches!(acc, Err(NnError::InvalidConfig { .. })),
                "{} labels: {acc:?}",
                labels.len()
            );
            // The RNG was not touched: its next draw is a fresh stream's.
            let fresh = rand::rngs::StdRng::seed_from_u64(5).gen::<u64>();
            assert_eq!(drawn.gen::<u64>(), fresh);
        }
        assert!(h.accuracy(&data.inputs, &data.labels, 4, &mut r).is_ok());
    }

    #[test]
    fn zero_timesteps_is_rejected() {
        let mut r = rng();
        let data = blobs01(10, &mut r);
        let net = deep_trained_net(&data, &mut r);
        let mut h = HybridNetwork::split(&net, &data, 1, &ConversionConfig::default()).unwrap();
        assert!(h.run(&data.inputs, 0, &mut r).is_err());
    }

    #[test]
    fn suffix_split_index_counts_from_the_back() {
        let mut r = rng();
        let net = Network::new(vec![
            Layer::dense(2, 4, &mut r),
            Layer::relu(),
            Layer::dense(4, 4, &mut r),
            Layer::relu(),
            Layer::dense(4, 2, &mut r),
        ]);
        assert_eq!(suffix_split_index(&net, 1), Some(4));
        assert_eq!(suffix_split_index(&net, 2), Some(2));
        assert_eq!(suffix_split_index(&net, 3), Some(0));
        assert_eq!(suffix_split_index(&net, 4), None);
    }
}
