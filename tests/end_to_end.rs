//! End-to-end integration tests spanning the whole stack: data →
//! training → quantization → SNN conversion → hybrid execution →
//! architecture-level energy.

use nebula::core::energy::EnergyModel;
use nebula::core::engine::{evaluate_ann, evaluate_hybrid, evaluate_snn};
use nebula::nn::convert::{ann_to_snn, fold_batch_norm, ConversionConfig};
use nebula::nn::optim::{train, TrainConfig};
use nebula::nn::quant::{quantize_network, QuantConfig};
use nebula::nn::stats::describe_network;
use nebula::nn::HybridNetwork;
use nebula::workloads::scaled::{scaled_lenet, scaled_vgg_bn};
use nebula::workloads::synthetic::{generate, split, SyntheticConfig};
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn rng() -> ChaCha8Rng {
    ChaCha8Rng::seed_from_u64(0xE2E)
}

#[test]
fn full_pipeline_glyphs_to_spikes() {
    // Train a scaled LeNet on glyphs, quantize, convert, run spiking.
    let data = generate(&SyntheticConfig::glyphs(16, 300)).unwrap();
    let (train_set, test_set) = split(&data, 240);
    let mut r = rng();
    let mut net = scaled_lenet(16, 10, &mut r);
    let cfg = TrainConfig::builder()
        .epochs(12)
        .batch_size(32)
        .learning_rate(0.02)
        .build();
    train(&mut net, &train_set, &cfg, &mut r).unwrap();
    let ann_acc = net.accuracy(&test_set.inputs, &test_set.labels).unwrap();
    assert!(ann_acc > 0.7, "ANN failed to train: {ann_acc}");

    let calib = train_set.take(48);
    let quantized = quantize_network(&net, &calib, &QuantConfig::default()).unwrap();
    let mut q = quantized.clone();
    let q_acc = q.accuracy(&test_set.inputs, &test_set.labels).unwrap();
    assert!(
        q_acc > ann_acc - 0.15,
        "4-bit quantization lost too much: {ann_acc} → {q_acc}"
    );

    let mut snn = ann_to_snn(&quantized, &calib, &ConversionConfig::default()).unwrap();
    let snn_acc = snn
        .accuracy(&test_set.inputs, &test_set.labels, 80, &mut r)
        .unwrap();
    assert!(
        snn_acc > q_acc - 0.15,
        "conversion lost too much: {q_acc} → {snn_acc}"
    );
}

#[test]
fn bn_network_converts_after_folding() {
    let data = generate(&SyntheticConfig::textures(16, 10, 240)).unwrap();
    let (train_set, test_set) = split(&data, 200);
    let mut r = rng();
    let mut net = scaled_vgg_bn(16, 10, &mut r);
    let cfg = TrainConfig::builder()
        .epochs(12)
        .batch_size(32)
        .learning_rate(0.02)
        .build();
    train(&mut net, &train_set, &cfg, &mut r).unwrap();
    let ann_acc = net.accuracy(&test_set.inputs, &test_set.labels).unwrap();

    // Folding preserves inference outputs.
    let mut folded = fold_batch_norm(&net).unwrap();
    let f_acc = folded.accuracy(&test_set.inputs, &test_set.labels).unwrap();
    assert!((ann_acc - f_acc).abs() < 1e-9, "folding changed accuracy");

    // And the folded network converts straight to an SNN.
    let mut snn = ann_to_snn(&net, &train_set.take(48), &ConversionConfig::default()).unwrap();
    let snn_acc = snn
        .accuracy(&test_set.inputs, &test_set.labels, 100, &mut r)
        .unwrap();
    assert!(
        snn_acc > ann_acc - 0.25,
        "BN-folded conversion degraded: {ann_acc} → {snn_acc}"
    );
}

#[test]
fn hybrid_beats_pure_snn_when_starved() {
    let data = generate(&SyntheticConfig::glyphs(16, 300)).unwrap();
    let (train_set, test_set) = split(&data, 240);
    let mut r = rng();
    let mut net = scaled_lenet(16, 10, &mut r);
    let cfg = TrainConfig::builder()
        .epochs(12)
        .batch_size(32)
        .learning_rate(0.02)
        .build();
    train(&mut net, &train_set, &cfg, &mut r).unwrap();
    let calib = train_set.take(48);
    let conv = ConversionConfig::default();
    let mut snn = ann_to_snn(&net, &calib, &conv).unwrap();
    let mut hyb = HybridNetwork::split(&net, &calib, 2, &conv).unwrap();
    let t = 3;
    let reps = 6;
    let mut snn_acc = 0.0;
    let mut hyb_acc = 0.0;
    for _ in 0..reps {
        snn_acc += snn
            .accuracy(&test_set.inputs, &test_set.labels, t, &mut r)
            .unwrap();
        hyb_acc += hyb
            .accuracy(&test_set.inputs, &test_set.labels, t, &mut r)
            .unwrap();
    }
    assert!(
        hyb_acc >= snn_acc,
        "hybrid ({hyb_acc}) must not trail SNN ({snn_acc}) at T={t}"
    );
}

#[test]
fn trained_network_maps_onto_the_chip() {
    // The descriptors of a real trained network drive the energy model.
    let mut r = rng();
    let net = scaled_lenet(16, 10, &mut r);
    let descriptors = describe_network(&net, &[1, 16, 16]).unwrap();
    assert_eq!(descriptors.len(), 4); // 2 conv + 2 fc
                                      // Attach a realistic decaying spike-activity profile: with the
                                      // default (fully dense, activity 1.0) inputs an SNN has no
                                      // event-driven advantage to exploit.
    let descriptors = nebula::workloads::zoo::with_default_activities(descriptors);

    let model = EnergyModel::default();
    let ann = evaluate_ann(&model, &descriptors);
    let snn = evaluate_snn(&model, &descriptors, 50);
    let hyb = evaluate_hybrid(&model, &descriptors, 1, 25);
    assert!(ann.total_energy().0 > 0.0);
    assert!(snn.total_energy() > ann.total_energy());
    assert!(hyb.total_energy() < snn.total_energy());
    assert!(ann.avg_power > snn.avg_power);
    // Every layer fits on the chip in-core (tiny network).
    assert!(ann.mappings.iter().all(|m| !m.needs_adc()));
}

#[test]
fn analog_executors_run_through_the_facade() {
    // Exercise the re-exported circuit-level executors end to end.
    use nebula::core::analog::compile_ann;
    use nebula::core::analog_snn::{compile_snn_default, Draws};
    use nebula::crossbar::{CrossbarConfig, Mode};
    use nebula::nn::Layer;
    use nebula::tensor::Tensor;

    let mut r = rng();
    let mut net = nebula::nn::Network::new(vec![
        Layer::dense(6, 4, &mut r),
        Layer::relu(),
        Layer::dense(4, 2, &mut r),
    ]);
    for layer in net.layers_mut() {
        for p in layer.params_mut() {
            nebula::nn::quant::quantize_weights_inplace(&mut p.value, 16, 1.0);
        }
    }
    let x = Tensor::rand_uniform(&[3, 6], 0.0, 1.0, &mut r);
    // ANN path: circuit output matches digital within analog tolerance.
    let digital = net.forward(&x).unwrap();
    let mut analog = compile_ann(&net).unwrap();
    let y = analog.forward(&x).unwrap();
    assert_eq!(y.shape(), digital.shape());
    // Hidden ReLU is unquantized here, so only demand qualitative
    // agreement of the argmax decisions.
    assert_eq!(
        y.argmax_rows().unwrap(),
        digital.argmax_rows().unwrap(),
        "analog ANN decisions diverged"
    );

    // SNN path: converted network compiles and spikes.
    let calib = nebula::nn::optim::Dataset::new(x.clone(), vec![0, 1, 0]).unwrap();
    let snn = ann_to_snn(&net, &calib, &ConversionConfig::default()).unwrap();
    let mut analog_snn = compile_snn_default(&snn).unwrap();
    let potentials = analog_snn.run(&x, 50, Draws::Stream(&mut r)).unwrap();
    assert_eq!(potentials.shape(), &[3, 2]);
    assert!(analog_snn.waves() > 0);
    // A custom crossbar config also compiles.
    let cfg = CrossbarConfig::paper_default(Mode::Snn);
    assert!(nebula::core::analog_snn::compile_snn(&snn, &cfg).is_ok());
}
