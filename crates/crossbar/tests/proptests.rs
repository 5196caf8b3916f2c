//! Property-based tests of the crossbar circuit layer.
//!
//! Analog physics is checked through the per-cell oracle
//! (`dot_reference`); the fast path is checked through the one
//! split-phase seam `nebula-core` drives (`SuperTile::prepare`,
//! `eval_dense_prepared` / `spike_rows`, `accrue_batch`) against that
//! oracle, bit for bit in outputs and read energy.

#![allow(clippy::needless_range_loop)]

use nebula_crossbar::converters::{Adc, MultiLevelDac, SpikeDriver};
use nebula_crossbar::{
    kernels_per_supertile, nu_level_for, AtomicCrossbar, CrossbarConfig, Mode, SuperTile,
};
use nebula_device::fault::{FaultClass, FaultModel};
use nebula_device::units::{Amps, Seconds};
use proptest::prelude::*;
use rand::SeedableRng;

fn small_weights() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (1usize..16, 1usize..16).prop_flat_map(|(r, c)| {
        proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, c), r)
    })
}

/// Shapes chosen to stress the column-lane kernel: single rows and
/// columns, widths below / straddling / above the 8-wide lane boundary
/// (remainder lanes), and a few generic rectangles. Max extent 24 so
/// fixed-length drive/mask vectors can be sliced down.
fn kernel_shapes() -> impl Strategy<Value = Vec<Vec<f64>>> {
    (0usize..9, 1usize..24, 1usize..24).prop_flat_map(|(pick, r, c)| {
        let (r, c) = match pick {
            0 => (1, 1),
            1 => (1, 17),
            2 => (24, 1),
            3 => (3, 7),
            4 => (5, 8),
            5 => (4, 9),
            6 => (6, 16),
            7 => (24, 23),
            _ => (r, c),
        };
        proptest::collection::vec(proptest::collection::vec(-1.0f64..1.0, c), r)
    })
}

/// A model injecting one hard fault class at `rate` per cell, or none.
fn fault_model(kind: usize, rate: f64) -> FaultModel {
    let class = match kind {
        0 => return FaultModel::none(),
        1 => FaultClass::StuckAtGmin,
        2 => FaultClass::StuckAtGmax,
        3 => FaultClass::DwPinning,
        4 => FaultClass::TmrDegradation,
        _ => FaultClass::RetentionDrift,
    };
    FaultModel::single(class, rate)
}

/// A super-tile of `m`-sided ACs programmed with `w`.
fn tile(mode: Mode, m: usize, w: &[Vec<f64>]) -> SuperTile {
    let mut cfg = CrossbarConfig::paper_default(mode);
    cfg.m = m;
    let mut st = SuperTile::new(cfg).unwrap();
    st.program(w, 1.0).unwrap();
    st
}

/// Faults the tile's cells from `faults` (seeded) and ages it by `age_s`
/// seconds.
fn degrade(st: &mut SuperTile, faults: &FaultModel, seed: u64, age_s: f64) {
    st.inject_faults(faults, &mut rand::rngs::StdRng::seed_from_u64(seed));
    st.advance_age(Seconds(age_s));
}

/// Dense drives through the seam: every item is evaluated against the
/// prepared tile through `&self`, then the batch's AC currents are
/// accrued in item order.
fn seam_dense(st: &mut SuperTile, batch: &[Vec<f64>]) -> Vec<Vec<Amps>> {
    st.prepare();
    let mut currents = vec![vec![0.0; st.chunk_count()]; batch.len()];
    let mut diff = vec![0.0; st.scratch_cols()];
    let out = batch
        .iter()
        .zip(&mut currents)
        .map(|(x, current)| {
            let mut totals = vec![Amps::ZERO; st.kernels()];
            st.eval_dense_prepared(x, &mut totals, current, &mut diff);
            totals
        })
        .collect();
    let per_item: Vec<&[f64]> = currents.iter().map(Vec::as_slice).collect();
    st.accrue_batch(&per_item);
    out
}

/// Spike drives (each item an ascending list of active rows) through the
/// seam: per item, each AC adds its rows from `+0.0` and the ACs merge
/// in ascending order, as `nebula-core`'s scatter does; then the batch's
/// AC currents are accrued in item order.
fn seam_spikes(st: &mut SuperTile, batch: &[Vec<usize>]) -> Vec<Vec<Amps>> {
    st.prepare();
    let m = st.m();
    let mut currents = vec![vec![0.0; st.chunk_count()]; batch.len()];
    let mut acc = vec![0.0; st.scratch_cols()];
    let mut out = Vec::with_capacity(batch.len());
    for (active, current) in batch.iter().zip(&mut currents) {
        let mut totals = vec![Amps::ZERO; st.kernels()];
        for (ac, c) in current.iter_mut().enumerate() {
            let Some(rows) = st.spike_rows(ac) else {
                continue; // a dead AC drives and draws nothing
            };
            let lo = active.partition_point(|&r| r < ac * m);
            let hi = active.partition_point(|&r| r < (ac + 1) * m);
            acc.fill(0.0);
            *c = rows.add_rows(&active[lo..hi], ac * m, &mut acc, 0.0);
            for (t, &a) in totals.iter_mut().zip(&acc) {
                *t += Amps(a);
            }
        }
        out.push(totals);
    }
    let per_item: Vec<&[f64]> = currents.iter().map(Vec::as_slice).collect();
    st.accrue_batch(&per_item);
    out
}

/// The per-cell oracle on each item in turn.
fn oracle(st: &mut SuperTile, batch: &[Vec<f64>]) -> Vec<Vec<Amps>> {
    batch.iter().map(|x| st.dot_reference(x).unwrap()).collect()
}

/// The dense binary drive an active-row list stands for.
fn binary_drive(active: &[usize], rows: usize) -> Vec<f64> {
    let mut drive = vec![0.0; rows];
    for &r in active {
        drive[r] = 1.0;
    }
    drive
}

fn assert_bitwise(got: &[Vec<Amps>], expect: &[Vec<Amps>], what: &str) {
    prop_assert_eq!(got.len(), expect.len());
    for (i, (g, e)) in got.iter().zip(expect).enumerate() {
        prop_assert_eq!(g.len(), e.len());
        for (j, (a, b)) in g.iter().zip(e).enumerate() {
            prop_assert_eq!(
                a.0.to_bits(),
                b.0.to_bits(),
                "{} item {} col {}",
                what,
                i,
                j
            );
        }
    }
}

/// The seam's accumulated read energy must be the oracle's bits: both
/// sum each driven row's conductances, then chain the row currents.
fn assert_energy(got: &SuperTile, expect: &SuperTile) {
    let (e_got, e_ref) = (
        got.accumulated_read_energy().0,
        expect.accumulated_read_energy().0,
    );
    prop_assert_eq!(
        e_got.to_bits(),
        e_ref.to_bits(),
        "energy {} vs oracle {}",
        e_got,
        e_ref
    );
}

proptest! {
    #[test]
    fn analog_dot_is_bounded_by_row_count(w in small_weights(), drive in 0.0f64..1.0) {
        let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
        let rows = w.len();
        let cols = w[0].len();
        x.program(&w, 1.0).unwrap();
        let out = x.dot_reference(&vec![drive; rows]).unwrap();
        let unit = x.unit_current().0;
        for j in 0..cols {
            let v = out[j].0 / unit;
            // |Σ x·w| ≤ rows·drive with |w| ≤ 1.
            prop_assert!(v.abs() <= rows as f64 * drive + 1e-6, "col {} = {}", j, v);
        }
    }

    #[test]
    fn dot_is_monotone_in_drive(w in small_weights(), d1 in 0.0f64..1.0, d2 in 0.0f64..1.0) {
        // For all-positive weights, higher drive → higher column current.
        let pos: Vec<Vec<f64>> = w.iter().map(|r| r.iter().map(|v| v.abs()).collect()).collect();
        let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
        x.program(&pos, 1.0).unwrap();
        let rows = pos.len();
        let (lo, hi) = if d1 <= d2 { (d1, d2) } else { (d2, d1) };
        let out_lo = x.dot_reference(&vec![lo; rows]).unwrap();
        let out_hi = x.dot_reference(&vec![hi; rows]).unwrap();
        for (a, b) in out_lo.iter().zip(&out_hi) {
            prop_assert!(b.0 >= a.0 - 1e-18);
        }
    }

    #[test]
    fn programming_is_idempotent(w in small_weights()) {
        let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
        x.program(&w, 1.0).unwrap();
        let first: Vec<f64> = (0..w.len())
            .flat_map(|r| (0..w[0].len()).map(move |c| (r, c)))
            .map(|(r, c)| x.effective_weight(r, c))
            .collect();
        x.program(&w, 1.0).unwrap();
        let second: Vec<f64> = (0..w.len())
            .flat_map(|r| (0..w[0].len()).map(move |c| (r, c)))
            .map(|(r, c)| x.effective_weight(r, c))
            .collect();
        prop_assert_eq!(first, second);
    }

    #[test]
    fn hierarchy_capacity_is_monotone_decreasing(rf1 in 1usize..2048, rf2 in 1usize..2048) {
        let (lo, hi) = if rf1 <= rf2 { (rf1, rf2) } else { (rf2, rf1) };
        prop_assert!(kernels_per_supertile(lo, 128) >= kernels_per_supertile(hi, 128));
        prop_assert!(nu_level_for(lo, 128).is_some());
    }

    #[test]
    fn dac_is_monotone_bounded_and_never_panics(
        levels in 2usize..64,
        a in 0usize..1000,
        b in 0usize..1000,
    ) {
        let mut dac = MultiLevelDac::new(levels).unwrap();
        let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
        let va = dac.convert(lo);
        let vb = dac.convert(hi);
        prop_assert!((0.0..=1.0).contains(&va) && (0.0..=1.0).contains(&vb));
        prop_assert!(va <= vb, "DAC not monotone: {va} > {vb}");
        // In-range codes land exactly on the uniform grid.
        if hi < levels {
            prop_assert!((vb - hi as f64 / (levels - 1) as f64).abs() < 1e-12);
        }
        prop_assert_eq!(dac.conversions(), 2);
    }

    #[test]
    fn adc_roundtrip_error_is_within_half_lsb(bits in 1u32..12, v in 0.0f64..1.0) {
        let mut adc = Adc::new(bits).unwrap();
        let lsb = 1.0 / (adc.codes() - 1) as f64;
        let code = adc.convert(v);
        prop_assert!(code < adc.codes());
        let back = adc.reconstruct(code);
        prop_assert!((back - v).abs() <= lsb / 2.0 + 1e-12, "err {} at {}", (back - v).abs(), v);
        // Reconstructed values are fixed points of the converter.
        prop_assert_eq!(adc.convert(back), code);
    }

    #[test]
    fn adc_is_monotone_in_its_input(bits in 1u32..12, v1 in -0.5f64..1.5, v2 in -0.5f64..1.5) {
        let mut adc = Adc::new(bits).unwrap();
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        prop_assert!(adc.convert(lo) <= adc.convert(hi));
    }

    #[test]
    fn adc_accepts_any_finite_input_without_panicking(
        bits in 1u32..17,
        v in -1e300f64..1e300,
    ) {
        let mut adc = Adc::new(bits).unwrap();
        let code = adc.convert(v);
        prop_assert!(code < adc.codes(), "code {code} out of range");
        prop_assert!((0.0..=1.0).contains(&adc.reconstruct(code)));
    }

    #[test]
    fn spike_driver_output_matches_events(spikes in proptest::collection::vec(0u8..2, 0..64)) {
        let mut d = SpikeDriver::new();
        let mut expected = 0u64;
        for &bit in &spikes {
            let s = bit == 1;
            let v = d.drive(s);
            prop_assert_eq!(v, if s { 1.0 } else { 0.0 });
            if s {
                expected += 1;
            }
        }
        prop_assert_eq!(d.events(), expected);
    }

    /// The seam produces bit-identical differential column currents and
    /// read energy to the uncached per-cell oracle on arbitrary single-AC
    /// shapes — including single rows/columns and widths straddling the
    /// 8-lane boundary (remainder lanes).
    #[test]
    fn seam_matches_reference_bitwise(
        w in kernel_shapes(),
        drives in proptest::collection::vec(0.0f64..1.0, 24),
    ) {
        let inputs = vec![drives[..w.len()].to_vec()];
        let mut reference = tile(Mode::Ann, 128, &w);
        let expect = oracle(&mut reference, &inputs);
        let mut st = tile(Mode::Ann, 128, &w);
        assert_bitwise(&seam_dense(&mut st, &inputs), &expect, "seam");
        assert_energy(&st, &reference);
    }

    /// Spike drives through the seam agree bitwise, in outputs and
    /// energy, with the oracle and with the dense seam on the equivalent
    /// binary drive, with or without faulty cells. The explicit edges
    /// hold too: an all-silent drive outputs zeros and accrues no
    /// energy, and a single active row reproduces the oracle's bits.
    #[test]
    fn sparse_and_dense_spike_evaluation_agree(
        w in kernel_shapes(),
        mask in proptest::collection::vec(0u8..2, 24),
        kind in 0usize..6,
        rate in 0.0f64..0.3,
        seed in 0u64..u64::MAX,
        row_pick in 0usize..24,
    ) {
        let rows = w.len();
        let active = vec![(0..rows).filter(|&r| mask[r] == 1).collect::<Vec<usize>>()];
        let dense = vec![binary_drive(&active[0], rows)];
        let single = vec![vec![row_pick % rows]];
        let faults = fault_model(kind, rate);
        let mut a = tile(Mode::Snn, 32, &w);
        degrade(&mut a, &faults, seed, 0.0);
        let mut b = a.clone();
        let mut reference = a.clone();
        let silent = seam_spikes(&mut a, &[vec![]]);
        prop_assert!(silent[0].iter().all(|c| c.0 == 0.0), "silent input must output zeros");
        prop_assert_eq!(a.accumulated_read_energy().0, 0.0, "silent input must not accrue energy");
        let ya = seam_spikes(&mut a, &active);
        assert_bitwise(&ya, &oracle(&mut reference, &dense), "spikes vs oracle");
        assert_bitwise(&ya, &seam_dense(&mut b, &dense), "spikes vs dense");
        assert_energy(&a, &reference);
        assert_energy(&b, &reference);
        let expect_single = oracle(&mut reference, &[binary_drive(&single[0], rows)]);
        assert_bitwise(&seam_spikes(&mut a, &single), &expect_single, "single row");
        assert_energy(&a, &reference);
    }

    /// Bit-identity survives every conductance-mutating event: dead
    /// tiles, stuck/pinned/degraded/drifting cells and retention aging
    /// all flow through the same cached layout. Over a chain of up to
    /// three seam calls, the seam matches the uncached oracle bitwise on
    /// outputs and accumulated energy.
    #[test]
    fn seam_matches_reference_under_faults_and_aging(
        w in kernel_shapes(),
        drives in proptest::collection::vec(0.0f64..1.0, 24 * 3),
        kind in 0usize..6,
        rate in 0.0f64..0.3,
        seed in 0u64..u64::MAX,
        age_s in 0.0f64..1e7,
        dead in 0u8..2,
        dots in 1usize..4,
    ) {
        let rows = w.len();
        let mut st = tile(Mode::Ann, 32, &w);
        degrade(&mut st, &fault_model(kind, rate), seed, age_s);
        if dead == 1 {
            st.kill();
        }
        let mut reference = st.clone();
        for d in 0..dots {
            let inputs = vec![drives[d * rows..(d + 1) * rows].to_vec()];
            let expect = oracle(&mut reference, &inputs);
            assert_bitwise(&seam_dense(&mut st, &inputs), &expect, &format!("dot {d}"));
        }
        assert_energy(&st, &reference);
    }

    /// The seam on multi-AC tiles: with `m = 8` the receptive field spans
    /// H0, H1 and H2 (up to `16·m` rows), so partial currents are merged
    /// across up to 16 stacked ACs. A batch goes through the seam dense
    /// (`eval_dense_prepared`) and as spikes (`spike_rows(ac).add_rows`),
    /// accrued in item order, and must match the per-item oracle, outputs
    /// and energy bitwise, under faulty cells, aging, a killed AC and a
    /// whole-tile kill.
    #[test]
    fn seam_matches_oracle_on_multi_ac_tiles(
        shape in (1usize..129, 1usize..9),
        weights in proptest::collection::vec(-1.0f64..1.0, 128 * 8),
        raw in proptest::collection::vec(0.0f64..1.0, 128 * 4),
        items in 1usize..5,
        kind in 0usize..6,
        rate in 0.0f64..0.2,
        seed in 0u64..u64::MAX,
        age_s in 0.0f64..1e7,
        kill_ac in 0usize..24,
        whole_kill in 0u8..6,
    ) {
        let (rf, k) = shape;
        let w: Vec<Vec<f64>> = weights.chunks(8).take(rf).map(|r| r[..k].to_vec()).collect();
        let item_raw = |i: usize| &raw[i * rf..(i + 1) * rf];
        // About 30 % silent rows, so the event-driven skip is exercised.
        let dense: Vec<Vec<f64>> = (0..items)
            .map(|i| item_raw(i).iter().map(|&v| if v < 0.3 { 0.0 } else { v }).collect())
            .collect();
        let spikes: Vec<Vec<usize>> = (0..items)
            .map(|i| (0..rf).filter(|&r| item_raw(i)[r] >= 0.5).collect())
            .collect();
        let binary: Vec<Vec<f64>> = spikes.iter().map(|a| binary_drive(a, rf)).collect();
        let faults = fault_model(kind, rate);
        for (mode, drive) in [(Mode::Ann, &dense), (Mode::Snn, &binary)] {
            let mut st = tile(mode, 8, &w);
            degrade(&mut st, &faults, seed, age_s);
            if kill_ac < 16 {
                st.kill_ac(kill_ac);
            }
            if whole_kill == 0 {
                st.kill();
            }
            let mut reference = st.clone();
            let expect = oracle(&mut reference, drive);
            let (got, what) = match mode {
                Mode::Ann => (seam_dense(&mut st, drive), "dense"),
                Mode::Snn => (seam_spikes(&mut st, &spikes), "spikes"),
            };
            assert_bitwise(&got, &expect, &format!("{what} rf {rf}"));
            assert_energy(&st, &reference);
        }
    }

    #[test]
    fn read_energy_never_decreases(w in small_weights(), evals in 1usize..5) {
        let mut st = tile(Mode::Snn, 128, &w);
        let drive = vec![vec![1.0; w.len()]];
        let mut last = st.accumulated_read_energy().0;
        for _ in 0..evals {
            seam_dense(&mut st, &drive);
            let now = st.accumulated_read_energy().0;
            prop_assert!(now >= last);
            last = now;
        }
    }
}
