//! Spin-crossbar laboratory: poke the device and circuit layers
//! directly.
//!
//! Programs DW-MTJ synapses, sweeps the device transfer characteristic,
//! runs analog dot products through a super-tile with current-domain
//! aggregation, feeds the result into spin neurons, and quantifies the
//! analog error against exact arithmetic — including the effect of 10%
//! device mismatch (the §IV-D variation model).
//!
//! Run with: `cargo run --release --example spin_crossbar_lab`

use nebula::crossbar::{AtomicCrossbar, CrossbarConfig, Mode, NeuronUnit, SuperTile};
use nebula::device::params::DeviceParams;
use nebula::device::synapse::transfer_characteristic;
use nebula::device::units::Amps;
use nebula::device::variation::VariationModel;
use rand::Rng;
use rand::SeedableRng;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let params = DeviceParams::default();
    println!(
        "DW-MTJ device: {} states over a {} nm free layer, R_AP/R_P = {}x",
        params.levels(),
        params.free_layer_length().as_nm(),
        params.tmr_ratio()
    );

    // 1. Device transfer characteristic (Fig. 1b).
    let curve = transfer_characteristic(&params, params.full_scale_current(), 6);
    println!("\nprogramming-current sweep:");
    for p in &curve {
        println!(
            "  I = {:5.1} uA → wall moves {:5.1} nm, dG = {:.3} uS",
            p.current.0 * 1e6,
            p.displacement.as_nm(),
            p.conductance_change.0 * 1e6
        );
    }

    // 2. Analog dot product in one atomic crossbar vs exact math, through
    //    the per-cell oracle.
    let mut rng = rand::rngs::StdRng::seed_from_u64(9);
    let rows = 64;
    let cols = 32;
    let weights: Vec<Vec<f64>> = (0..rows)
        .map(|_| (0..cols).map(|_| rng.gen_range(-1.0..1.0)).collect())
        .collect();
    let inputs: Vec<f64> = (0..rows).map(|_| rng.gen_range(0.0..1.0)).collect();
    let mut xbar = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann))?;
    xbar.program(&weights, 1.0)?;
    let currents = xbar.dot_reference(&inputs)?;
    let unit = xbar.unit_current().0;
    let mut worst = 0.0f64;
    for j in 0..cols {
        let exact: f64 = (0..rows).map(|i| inputs[i] * weights[i][j]).sum();
        let analog = currents[j].0 / unit;
        worst = worst.max((analog - exact).abs());
    }
    println!("\n64×32 analog dot product: worst column error {worst:.3} (weight units)");
    println!("read energy so far: {}", xbar.accumulated_read_energy());

    // 3. Device mismatch (§IV-D): the same weights, each perturbed by
    //    10% multiplicative Gaussian variation before programming.
    let mismatch = VariationModel::new(0.10);
    let varied: Vec<Vec<f64>> = weights
        .iter()
        .map(|row| {
            let mut row = row.clone();
            mismatch.perturb_slice(&mut row, &mut rng);
            row
        })
        .collect();
    let mut varied_xbar = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann))?;
    varied_xbar.program(&varied, 1.0)?;
    let varied_currents = varied_xbar.dot_reference(&inputs)?;
    let mut worst_varied = 0.0f64;
    for j in 0..cols {
        let exact: f64 = (0..rows).map(|i| inputs[i] * weights[i][j]).sum();
        worst_varied = worst_varied.max((varied_currents[j].0 / unit - exact).abs());
    }
    println!("with 10% device mismatch: worst column error {worst_varied:.3}");

    // 4. A big kernel through the super-tile's current-domain hierarchy,
    //    evaluated through the split-phase seam the engines drive:
    //    prepare, evaluate, accrue.
    let mut st = SuperTile::new(CrossbarConfig::paper_default(Mode::Snn))?;
    let rf = 600; // needs H2: 4M < 600... (M=128: 512 < 600 ≤ 2048)
    let kernel = vec![vec![1.0]; rf];
    let level = st.program(&kernel, 1.0)?;
    let spikes: Vec<f64> = (0..rf).map(|_| f64::from(rng.gen_bool(0.3))).collect();
    let active = spikes.iter().sum::<f64>();
    st.prepare();
    let mut out = vec![Amps::ZERO; st.kernels()];
    let mut currents = vec![0.0; st.chunk_count()];
    let mut scratch = vec![0.0; st.scratch_cols()];
    st.eval_dense_prepared(&spikes, &mut out, &mut currents, &mut scratch);
    st.accrue_batch(&[&currents]);
    let value = out[0].0 / st.unit_current().0;
    println!(
        "\nR_f = {rf} kernel aggregated at NU level {level:?}: {active} spikes in, \
         dot = {value:.1} (exact {active})"
    );

    // 5. Spin neurons integrate the column current until threshold.
    let mut nu = NeuronUnit::new_spiking(1, 40.0, &params)?;
    let mut fired_at = None;
    for step in 1..=20 {
        if nu.process(&[value])?[0] > 0.0 {
            fired_at = Some(step);
            break;
        }
    }
    match fired_at {
        Some(step) => println!("IF neuron (v_th=40) fired after {step} timesteps"),
        None => println!("IF neuron did not fire in 20 timesteps"),
    }
    println!("neuron write energy: {}", nu.accumulated_write_energy());
    Ok(())
}
