//! Pins the trained float VGG/10 that perfbench quantizes and programs:
//! every weight and bias after training, bit for bit.
//!
//! The training kernels (the tiled GEMM, the Aᵀ·B weight gradients, the
//! fused convolution input gradient) may be rewritten for speed, but each
//! must keep every `f32` accumulation chain of the straightforward
//! `im2col` → `matmul` → `col2im` formulation, so the trained model cannot
//! move. The digest below was recorded from the build before those
//! kernels were tiled and fused (the packed/direct GEMM, transposed
//! `dW` operands and `col2im` input gradients), and must hold at any
//! `NEBULA_THREADS`.

use nebula_nn::optim::{train, TrainConfig};
use nebula_workloads::scaled::scaled_vgg;
use nebula_workloads::synthetic::{generate, SyntheticConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// FNV-1a 64 over the little-endian bits of every weight and bias, in
/// layer order.
const TRAINED_DIGEST: u64 = 0x720a_66b9_1188_88d7;

fn fnv1a(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01B3);
    }
    hash
}

#[test]
fn perfbench_vgg10_trains_to_the_recorded_weights() {
    // perfbench's set-up, verbatim: textures 16×16, 10 classes, 160
    // samples, model seed 0xBE9C for data and initialisation.
    let seed = 0xBE9C;
    let data = generate(&SyntheticConfig::textures(16, 10, 160).with_seed(seed)).unwrap();
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut net = scaled_vgg(16, 10, &mut rng);
    let cfg = TrainConfig::builder()
        .epochs(4)
        .batch_size(32)
        .learning_rate(0.02)
        .lr_decay(0.95)
        .build();
    let reports = train(&mut net, &data, &cfg, &mut rng).unwrap();
    assert_eq!(reports.len(), 4);

    let mut digest = 0xCBF2_9CE4_8422_2325;
    let mut values = 0usize;
    for layer in net.layers_mut() {
        for p in layer.params_mut() {
            for v in p.value.data() {
                digest = fnv1a(digest, &v.to_bits().to_le_bytes());
            }
            values += p.value.len();
        }
    }
    assert_eq!(values, 448 + 2_320 + 4_640 + 9_248 + 32_832 + 650);
    assert_eq!(
        digest, TRAINED_DIGEST,
        "trained weights moved: digest {digest:#018x}"
    );
}
