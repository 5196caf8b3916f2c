//! SGD training: optimizer, configuration and a mini-batch training loop.

use crate::error::NnError;
use crate::layer::Scratch;
use crate::loss::softmax_cross_entropy;
use crate::network::Network;
use nebula_tensor::Tensor;
use rand::seq::SliceRandom;
use rand::Rng;

/// Hyper-parameters for SGD training. Build with
/// [`TrainConfig::builder`].
#[derive(Debug, Clone, PartialEq)]
pub struct TrainConfig {
    /// Learning rate.
    pub learning_rate: f32,
    /// Momentum coefficient.
    pub momentum: f32,
    /// L2 weight decay.
    pub weight_decay: f32,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Number of passes over the training set.
    pub epochs: usize,
    /// Multiplicative learning-rate decay applied after each epoch.
    pub lr_decay: f32,
    /// Element-wise gradient clip (absolute value); keeps deep scaled
    /// models from diverging at aggressive learning rates. 0 disables.
    pub grad_clip: f32,
}

impl TrainConfig {
    /// Starts building a training configuration from sensible defaults
    /// (lr 0.05, momentum 0.9, batch 32, 10 epochs).
    pub fn builder() -> TrainConfigBuilder {
        TrainConfigBuilder::default()
    }
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfigBuilder::default().build()
    }
}

/// Builder for [`TrainConfig`].
#[derive(Debug, Clone)]
pub struct TrainConfigBuilder {
    config: TrainConfig,
}

impl Default for TrainConfigBuilder {
    fn default() -> Self {
        Self {
            config: TrainConfig {
                learning_rate: 0.05,
                momentum: 0.9,
                weight_decay: 1e-4,
                batch_size: 32,
                epochs: 10,
                lr_decay: 0.9,
                grad_clip: 5.0,
            },
        }
    }
}

impl TrainConfigBuilder {
    /// Sets the learning rate.
    pub fn learning_rate(mut self, v: f32) -> Self {
        self.config.learning_rate = v;
        self
    }

    /// Sets the momentum coefficient.
    pub fn momentum(mut self, v: f32) -> Self {
        self.config.momentum = v;
        self
    }

    /// Sets the L2 weight decay.
    pub fn weight_decay(mut self, v: f32) -> Self {
        self.config.weight_decay = v;
        self
    }

    /// Sets the mini-batch size.
    pub fn batch_size(mut self, v: usize) -> Self {
        self.config.batch_size = v;
        self
    }

    /// Sets the number of epochs.
    pub fn epochs(mut self, v: usize) -> Self {
        self.config.epochs = v;
        self
    }

    /// Sets the per-epoch learning-rate decay factor.
    pub fn lr_decay(mut self, v: f32) -> Self {
        self.config.lr_decay = v;
        self
    }

    /// Sets the element-wise gradient clip (0 disables).
    pub fn grad_clip(mut self, v: f32) -> Self {
        self.config.grad_clip = v;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> TrainConfig {
        self.config
    }
}

/// A labelled dataset: `inputs` is a batch-major tensor whose first
/// dimension indexes samples; `labels[i]` is the class of sample `i`.
#[derive(Debug, Clone, PartialEq)]
pub struct Dataset {
    /// Sample tensor, first dimension = sample index.
    pub inputs: Tensor,
    /// Class label per sample.
    pub labels: Vec<usize>,
}

impl Dataset {
    /// Bundles inputs and labels.
    ///
    /// # Errors
    ///
    /// Returns [`NnError::InvalidConfig`] when the label count differs
    /// from the first input dimension.
    pub fn new(inputs: Tensor, labels: Vec<usize>) -> Result<Self, NnError> {
        if inputs.shape()[0] != labels.len() {
            return Err(NnError::InvalidConfig {
                reason: format!("{} labels for {} samples", labels.len(), inputs.shape()[0]),
            });
        }
        Ok(Self { inputs, labels })
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// True when the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    /// Extracts the samples at `indices` into a contiguous batch.
    pub fn gather(&self, indices: &[usize]) -> Dataset {
        let sample_len: usize = self.inputs.shape()[1..].iter().product();
        let mut data = Vec::with_capacity(indices.len() * sample_len);
        let mut labels = Vec::with_capacity(indices.len());
        for &i in indices {
            data.extend_from_slice(&self.inputs.data()[i * sample_len..(i + 1) * sample_len]);
            labels.push(self.labels[i]);
        }
        let mut shape = self.inputs.shape().to_vec();
        shape[0] = indices.len();
        Dataset {
            inputs: Tensor::from_vec(data, &shape).expect("gather shape always consistent"),
            labels,
        }
    }

    /// The first `n` samples as a batch (used for calibration sets).
    pub fn take(&self, n: usize) -> Dataset {
        let idx: Vec<usize> = (0..n.min(self.len())).collect();
        self.gather(&idx)
    }
}

/// Per-epoch training progress.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EpochReport {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Mean training loss over the epoch.
    pub mean_loss: f32,
    /// Training accuracy over the epoch.
    pub accuracy: f64,
}

/// Trains `net` on `data` with mini-batch SGD and returns one report per
/// epoch.
///
/// # Errors
///
/// Propagates shape errors from the network or loss.
///
/// # Examples
///
/// ```
/// use nebula_nn::{Layer, Network};
/// use nebula_nn::optim::{train, Dataset, TrainConfig};
/// use nebula_tensor::Tensor;
/// use rand::SeedableRng;
///
/// let mut rng = rand::rngs::StdRng::seed_from_u64(1);
/// let mut net = Network::new(vec![Layer::dense(2, 2, &mut rng)]);
/// // Learn identity: class = argmax of the one-hot input.
/// let data = Dataset::new(
///     Tensor::from_vec(vec![1.0, 0.0, 0.0, 1.0], &[2, 2])?,
///     vec![0, 1],
/// )?;
/// let cfg = TrainConfig::builder().epochs(50).batch_size(2).build();
/// let reports = train(&mut net, &data, &cfg, &mut rng)?;
/// assert!(reports.last().unwrap().accuracy > 0.9);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
pub fn train<R: Rng + ?Sized>(
    net: &mut Network,
    data: &Dataset,
    config: &TrainConfig,
    rng: &mut R,
) -> Result<Vec<EpochReport>, NnError> {
    if config.batch_size == 0 {
        return Err(NnError::InvalidConfig {
            reason: "batch size must be nonzero".to_string(),
        });
    }
    let mut lr = config.learning_rate;
    let mut reports = Vec::with_capacity(config.epochs);
    let mut order: Vec<usize> = (0..data.len()).collect();
    // Patch buffers recycled from batch to batch, freed on return.
    let mut scratch = Scratch::default();
    for epoch in 0..config.epochs {
        order.shuffle(rng);
        let mut total_loss = 0.0f64;
        let mut correct = 0usize;
        let mut batches = 0usize;
        for chunk in order.chunks(config.batch_size) {
            let batch = data.gather(chunk);
            net.zero_grad();
            let logits = net.forward_train_with(&batch.inputs, &mut scratch)?;
            let (loss, grad) = softmax_cross_entropy(&logits, &batch.labels)?;
            net.backward_params(&grad, &mut scratch)?;
            for layer in net.layers_mut() {
                for p in layer.params_mut() {
                    if config.grad_clip > 0.0 {
                        let c = config.grad_clip;
                        p.grad.map_inplace(|g| g.clamp(-c, c));
                    }
                    p.sgd_step(lr, config.momentum, config.weight_decay);
                }
            }
            total_loss += loss as f64;
            batches += 1;
            correct += logits
                .argmax_rows()?
                .iter()
                .zip(&batch.labels)
                .filter(|(p, l)| p == l)
                .count();
        }
        lr *= config.lr_decay;
        reports.push(EpochReport {
            epoch,
            mean_loss: (total_loss / batches.max(1) as f64) as f32,
            accuracy: correct as f64 / data.len().max(1) as f64,
        });
    }
    Ok(reports)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::Layer;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(3)
    }

    /// A linearly separable 2-class blob problem.
    fn blobs(n_per: usize, r: &mut rand::rngs::StdRng) -> Dataset {
        let mut data = Vec::new();
        let mut labels = Vec::new();
        for i in 0..2 * n_per {
            let class = i % 2;
            let center = if class == 0 { -1.0 } else { 1.0 };
            data.push(center + r.gen_range(-0.3f32..0.3));
            data.push(center + r.gen_range(-0.3f32..0.3));
            labels.push(class);
        }
        Dataset::new(Tensor::from_vec(data, &[2 * n_per, 2]).unwrap(), labels).unwrap()
    }

    #[test]
    fn sgd_learns_linearly_separable_blobs() {
        let mut r = rng();
        let data = blobs(50, &mut r);
        let mut net = Network::new(vec![
            Layer::dense(2, 8, &mut r),
            Layer::relu(),
            Layer::dense(8, 2, &mut r),
        ]);
        let cfg = TrainConfig::builder()
            .epochs(20)
            .batch_size(10)
            .learning_rate(0.1)
            .build();
        let reports = train(&mut net, &data, &cfg, &mut r).unwrap();
        assert!(
            reports.last().unwrap().accuracy > 0.95,
            "failed to learn blobs: {:?}",
            reports.last()
        );
        // Loss should broadly decrease.
        assert!(reports.last().unwrap().mean_loss < reports[0].mean_loss);
    }

    #[test]
    fn conv_net_learns_horizontal_vs_vertical_bars() {
        let mut r = rng();
        // 6x6 images with a horizontal (class 0) or vertical (class 1) bar.
        let n = 60;
        let mut data = vec![0.0f32; n * 36];
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let class = i % 2;
            let pos = r.gen_range(0..6);
            for t in 0..6 {
                let (y, x) = if class == 0 { (pos, t) } else { (t, pos) };
                data[i * 36 + y * 6 + x] = 1.0;
            }
            labels.push(class);
        }
        let ds = Dataset::new(Tensor::from_vec(data, &[n, 1, 6, 6]).unwrap(), labels).unwrap();
        let mut net = Network::new(vec![
            Layer::conv2d(1, 4, 3, 1, 1, &mut r),
            Layer::relu(),
            Layer::avg_pool(2),
            Layer::flatten(),
            Layer::dense(4 * 9, 2, &mut r),
        ]);
        let cfg = TrainConfig::builder()
            .epochs(30)
            .batch_size(10)
            .learning_rate(0.05)
            .build();
        let reports = train(&mut net, &ds, &cfg, &mut r).unwrap();
        assert!(
            reports.last().unwrap().accuracy > 0.9,
            "conv net failed: {:?}",
            reports.last()
        );
    }

    #[test]
    fn dataset_validates_and_gathers() {
        assert!(Dataset::new(Tensor::zeros(&[3, 2]), vec![0, 1]).is_err());
        let ds = Dataset::new(
            Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0], &[3, 2]).unwrap(),
            vec![0, 1, 2],
        )
        .unwrap();
        let sub = ds.gather(&[2, 0]);
        assert_eq!(sub.inputs.data(), &[5.0, 6.0, 1.0, 2.0]);
        assert_eq!(sub.labels, vec![2, 0]);
        let head = ds.take(2);
        assert_eq!(head.len(), 2);
        assert_eq!(head.labels, vec![0, 1]);
    }

    #[test]
    fn zero_batch_size_is_rejected() {
        let mut r = rng();
        let mut net = Network::new(vec![Layer::dense(2, 2, &mut r)]);
        let ds = blobs(4, &mut r);
        let cfg = TrainConfig::builder().batch_size(0).build();
        assert!(train(&mut net, &ds, &cfg, &mut r).is_err());
    }

    #[test]
    fn builder_sets_all_fields() {
        let cfg = TrainConfig::builder()
            .learning_rate(0.2)
            .momentum(0.5)
            .weight_decay(0.0)
            .batch_size(7)
            .epochs(3)
            .lr_decay(1.0)
            .build();
        assert_eq!(cfg.learning_rate, 0.2);
        assert_eq!(cfg.momentum, 0.5);
        assert_eq!(cfg.weight_decay, 0.0);
        assert_eq!(cfg.batch_size, 7);
        assert_eq!(cfg.epochs, 3);
        assert_eq!(cfg.lr_decay, 1.0);
    }
}
