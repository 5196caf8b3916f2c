//! Fault-injection Monte-Carlo campaign: accuracy vs. per-cell fault
//! rate for every device fault class, plus the graceful-degradation
//! (dead-core remap) energy/latency penalties.
//!
//! Extends §IV-D beyond Gaussian mismatch: stuck-at-Gmin/Gmax cells,
//! domain-wall pinning offsets, retention drift and TMR degradation are
//! injected into the 16-level quantized VGG/10 weights at several rates,
//! and both ANN and SNN@150 accuracy curves are recorded. The zero-fault
//! corner is computed exactly like `sec4d_noise` and must reproduce its
//! recorded clean accuracies. Writes `results/BENCH_faults.json` (schema
//! documented in `EXPERIMENTS.md`).
//!
//! `NEBULA_FAULT_TRIALS` overrides the Monte-Carlo trials per
//! (class, rate) point (default 2).

use nebula_bench::measure::json_escape;
use nebula_bench::par::par_map;
use nebula_bench::setup::{trained, Workload};
use nebula_bench::table::{pct, print_table};
use nebula_core::energy::EnergyModel;
use nebula_core::engine::{
    evaluate_ann_degraded, evaluate_snn_degraded, par_evaluate_suite, SuiteJob, SuiteMode,
};
use nebula_core::fault::{ChipFaultState, RemapPolicy};
use nebula_device::fault::{FaultClass, FaultModel, NonidealityModel};
use nebula_device::units::Seconds;
use nebula_nn::convert::{ann_to_snn, ConversionConfig};
use nebula_nn::quant::{quantize_network, QuantConfig};
use nebula_nn::Network;
use nebula_workloads::zoo;
use rand_chacha::ChaCha8Rng;

/// 4-bit devices: 16 conductance levels.
const LEVELS: usize = 16;
/// SNN evidence-integration window (matches `sec4d_noise`).
const TIMESTEPS: u32 = 150;
/// Time since programming when drift-faulted cells are read. At the
/// default 0.02/s relaxation rate this leaves e^-0.6 ≈ 55% of the
/// original signed weight.
const ELAPSED: Seconds = Seconds(30.0);
/// Per-cell fault rates swept per class (0 is the shared clean corner).
const RATES: [f64; 3] = [0.02, 0.05, 0.10];

/// Recorded §IV-D clean accuracies (results/sec4d_noise.txt).
const SEC4D_ANN_CLEAN: f64 = 100.00;
const SEC4D_SNN_CLEAN: f64 = 100.00;

fn trials_per_point() -> usize {
    std::env::var("NEBULA_FAULT_TRIALS")
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|&n| n >= 1)
        .unwrap_or(2)
}

/// Injects `model` faults into every weight tensor of a copy of `q`,
/// using each tensor's own |w| range as the device clip. Returns the
/// faulted network and the number of cells that drew a fault.
fn inject<R: rand::Rng>(q: &Network, model: &FaultModel, rng: &mut R) -> (Network, usize) {
    let nonideal = NonidealityModel::faults_only(*model);
    let mut noisy = q.clone();
    let mut faulty = 0usize;
    for layer in noisy.layers_mut() {
        if layer.is_weight_layer() {
            for p in layer.params_mut() {
                let clip = p.value.data().iter().fold(0.0f32, |m, v| m.max(v.abs())) as f64;
                if clip == 0.0 {
                    continue;
                }
                faulty +=
                    nonideal.apply_weight_slice_f32(p.value.data_mut(), clip, LEVELS, ELAPSED, rng);
            }
        }
    }
    (noisy, faulty)
}

struct CurvePoint {
    class: FaultClass,
    rate: f64,
    ann_pct: f64,
    snn_pct: f64,
    faulty_cells: f64,
}

struct DegradationPoint {
    mode: &'static str,
    dead_cores: usize,
    pool: usize,
    fold_factor: usize,
    latency_ratio: f64,
    avg_power_ratio: f64,
    estimated_accuracy_loss: f64,
    within_policy: bool,
}

fn main() {
    let trials = trials_per_point();
    let t = trained(Workload::Vgg10, 500, 20);
    let q = quantize_network(&t.net, &t.train.take(64), &QuantConfig::default()).unwrap();

    // --- zero-fault corner: exactly the sec4d_noise clean computation ---
    let mut clean = q.clone();
    let ann_clean = clean.accuracy(&t.test.inputs, &t.test.labels).unwrap() * 100.0;
    let cfg = ConversionConfig::default();
    let mut snn_rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(2);
    let mut snn = ann_to_snn(&q, &t.train.take(64), &cfg).unwrap();
    let snn_clean = snn
        .accuracy(
            &t.test.inputs,
            &t.test.labels,
            TIMESTEPS as usize,
            &mut snn_rng,
        )
        .unwrap()
        * 100.0;
    assert!(
        (ann_clean - SEC4D_ANN_CLEAN).abs() < 0.005 && (snn_clean - SEC4D_SNN_CLEAN).abs() < 0.005,
        "zero-fault corner drifted from the recorded §IV-D figures: \
         ANN {ann_clean:.2} vs {SEC4D_ANN_CLEAN:.2}, SNN {snn_clean:.2} vs {SEC4D_SNN_CLEAN:.2}"
    );

    // --- Monte-Carlo accuracy curves per fault class ---------------------
    // One work item per (class, rate, trial); the seed encodes the point
    // so the campaign is order-independent and byte-reproducible.
    let points: Vec<(usize, usize, usize)> = (0..FaultClass::ALL.len())
        .flat_map(|c| (0..RATES.len()).flat_map(move |r| (0..trials).map(move |k| (c, r, k))))
        .collect();
    let results = par_map(&points, |&(c, r, k)| {
        let class = FaultClass::ALL[c];
        let rate = RATES[r];
        let seed = 0xFA17 + (c as u64) * 1000 + (r as u64) * 100 + k as u64;
        let mut rng = <ChaCha8Rng as rand::SeedableRng>::seed_from_u64(seed);
        let model = FaultModel::single(class, rate);
        let (mut noisy, faulty) = inject(&q, &model, &mut rng);
        let ann = noisy.accuracy(&t.test.inputs, &t.test.labels).unwrap() * 100.0;
        let mut snn = ann_to_snn(&noisy, &t.train.take(64), &cfg).unwrap();
        let snn_acc = snn
            .accuracy(&t.test.inputs, &t.test.labels, TIMESTEPS as usize, &mut rng)
            .unwrap()
            * 100.0;
        (ann, snn_acc, faulty)
    });

    let mut curve = Vec::new();
    for (c, &class) in FaultClass::ALL.iter().enumerate() {
        for (r, &rate) in RATES.iter().enumerate() {
            let mut ann_sum = 0.0;
            let mut snn_sum = 0.0;
            let mut faulty_sum = 0.0;
            for (&(pc, pr, _), &(ann, snn_acc, faulty)) in points.iter().zip(&results) {
                if pc == c && pr == r {
                    ann_sum += ann;
                    snn_sum += snn_acc;
                    faulty_sum += faulty as f64;
                }
            }
            curve.push(CurvePoint {
                class,
                rate,
                ann_pct: ann_sum / trials as f64,
                snn_pct: snn_sum / trials as f64,
                faulty_cells: faulty_sum / trials as f64,
            });
        }
    }

    // --- graceful degradation: dead cores, remap, energy/latency ---------
    let energy_model = EnergyModel::default();
    let descriptors = zoo::with_default_activities(zoo::vgg13(10));
    let baseline = par_evaluate_suite(
        &energy_model,
        &[
            SuiteJob::new("VGG-13", descriptors.clone(), SuiteMode::Ann),
            SuiteJob::new(
                "VGG-13",
                descriptors.clone(),
                SuiteMode::Snn {
                    timesteps: TIMESTEPS,
                },
            ),
        ],
    );
    let policy = RemapPolicy::default();
    let mut degradation = Vec::new();
    for &(mode, pool, kills) in &[
        ("ANN", energy_model.ann_core_pool, [0usize, 4, 8, 13]),
        ("SNN", energy_model.snn_core_pool, [0usize, 60, 120, 175]),
    ] {
        let clean_latency = if mode == "ANN" {
            baseline[0].latency()
        } else {
            baseline[1].latency()
        };
        let clean_power = if mode == "ANN" {
            baseline[0].avg_power()
        } else {
            baseline[1].avg_power()
        };
        for &dead in &kills {
            let mut state = ChipFaultState::healthy(pool);
            for core in 0..dead {
                state.kill_core(core);
            }
            let deg = if mode == "ANN" {
                evaluate_ann_degraded(&energy_model, &descriptors, &state, &policy)
            } else {
                evaluate_snn_degraded(&energy_model, &descriptors, TIMESTEPS, &state, &policy)
            }
            .expect("pool keeps at least one healthy core");
            degradation.push(DegradationPoint {
                mode,
                dead_cores: dead,
                pool,
                fold_factor: deg.remap.fold_factor,
                latency_ratio: (deg.report.latency / clean_latency).max(0.0),
                avg_power_ratio: (deg.report.avg_power / clean_power).max(0.0),
                estimated_accuracy_loss: deg.remap.estimated_accuracy_loss,
                within_policy: deg.remap.within_policy,
            });
        }
    }

    // --- JSON -------------------------------------------------------------
    let mut json = String::from("{\n");
    json.push_str("  \"schema\": \"nebula-bench-faults/1\",\n");
    json.push_str("  \"workload\": \"VGG/10\",\n");
    json.push_str(&format!("  \"timesteps\": {TIMESTEPS},\n"));
    json.push_str(&format!("  \"trials_per_point\": {trials},\n"));
    json.push_str(&format!(
        "  \"elapsed_s\": {:.1},\n  \"levels\": {LEVELS},\n",
        ELAPSED.0
    ));
    json.push_str(&format!(
        "  \"clean\": {{\"ann_pct\": {ann_clean:.2}, \"snn_pct\": {snn_clean:.2}, \
         \"matches_sec4d\": true}},\n"
    ));
    json.push_str("  \"curves\": [\n");
    for (i, p) in curve.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"class\": \"{}\", \"rate\": {:.2}, \"ann_pct\": {:.2}, \"snn_pct\": {:.2}, \
             \"faulty_cells_mean\": {:.1}}}{}\n",
            json_escape(p.class.name()),
            p.rate,
            p.ann_pct,
            p.snn_pct,
            p.faulty_cells,
            if i + 1 < curve.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str("  \"degradation\": [\n");
    for (i, d) in degradation.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mode\": \"{}\", \"dead_cores\": {}, \"pool\": {}, \"fold_factor\": {}, \
             \"latency_ratio\": {:.3}, \"avg_power_ratio\": {:.3}, \
             \"estimated_accuracy_loss\": {:.4}, \"within_policy\": {}}}{}\n",
            d.mode,
            d.dead_cores,
            d.pool,
            d.fold_factor,
            d.latency_ratio,
            d.avg_power_ratio,
            d.estimated_accuracy_loss,
            d.within_policy,
            if i + 1 < degradation.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");

    let path = if std::path::Path::new("results").is_dir() {
        "results/BENCH_faults.json"
    } else {
        "BENCH_faults.json"
    };
    std::fs::write(path, &json).expect("write BENCH_faults.json");

    // --- human-readable summary ------------------------------------------
    let rows: Vec<Vec<String>> = curve
        .iter()
        .map(|p| {
            vec![
                p.class.name().to_string(),
                format!("{:.0}%", p.rate * 100.0),
                pct(p.ann_pct),
                pct(p.snn_pct),
                format!("{:.0}", p.faulty_cells),
            ]
        })
        .collect();
    print_table(
        &format!(
            "Fault campaign: VGG/10, {trials} trial(s)/point (clean: ANN {ann_clean:.2}%, \
             SNN@{TIMESTEPS} {snn_clean:.2}%)"
        ),
        &["class", "rate", "ANN %", "SNN %", "faulty cells"],
        &rows,
    );
    let deg_rows: Vec<Vec<String>> = degradation
        .iter()
        .map(|d| {
            vec![
                d.mode.to_string(),
                format!("{}/{}", d.dead_cores, d.pool),
                format!("x{}", d.fold_factor),
                format!("{:.2}", d.latency_ratio),
                format!("{:.2}", d.avg_power_ratio),
                format!("{:.4}", d.estimated_accuracy_loss),
                d.within_policy.to_string(),
            ]
        })
        .collect();
    print_table(
        "Graceful degradation: dead cores remapped (VGG-13 energy model)",
        &[
            "mode",
            "dead/pool",
            "fold",
            "latency x",
            "power x",
            "est. acc loss",
            "in policy",
        ],
        &deg_rows,
    );
    println!("\nWritten to {path}");
}
