//! Property-based tests of the crossbar circuit layer.

#![allow(clippy::needless_range_loop)]

use nebula_crossbar::converters::{Adc, MultiLevelDac, SpikeDriver};
use nebula_crossbar::{
    kernels_per_supertile, nu_level_for, AtomicCrossbar, CrossbarConfig, KernelPath, Mode,
};
use nebula_device::fault::CellFault;
use nebula_device::units::Seconds;
use proptest::prelude::*;

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

/// Relative bound on Auto's accumulated per-row-sum read energy against
/// the scalar chain.
const ENERGY_RTOL: f64 = 1e-9;

/// One of the hard fault classes, or none; `factor` is the TMR
/// degradation factor.
fn fault_for(kind: usize, factor: f64) -> Option<CellFault> {
    match kind {
        0 => None,
        1 => Some(CellFault::StuckAtGmin),
        2 => Some(CellFault::StuckAtGmax),
        3 => Some(CellFault::DwPinning { offset_states: 3 }),
        4 => Some(CellFault::TmrDegradation { factor }),
        _ => Some(CellFault::DwPinning { offset_states: -3 }),
    }
}

proptest! {
    #[test]
    fn analog_dot_is_bounded_by_row_count(w in small_weights(), drive in 0.0f64..1.0) {
        let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
        let rows = w.len();
        let cols = w[0].len();
        x.program(&w, 1.0).unwrap();
        let out = x.dot(&vec![drive; rows]).unwrap();
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
        let out_lo = x.dot(&vec![lo; rows]).unwrap();
        let out_hi = x.dot(&vec![hi; rows]).unwrap();
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

    /// Both inner-loop kernels produce bit-identical differential column
    /// currents to the uncached per-cell reference on arbitrary shapes —
    /// including single rows/columns and widths straddling the 8-lane
    /// boundary (remainder lanes) — and the scalar path's read energy is
    /// bitwise too, while Auto's per-row-sum energy stays within 1e-12
    /// relative.
    #[test]
    fn kernel_paths_match_reference_bitwise(
        w in kernel_shapes(),
        drives in proptest::collection::vec(0.0f64..1.0, 24),
    ) {
        let rows = w.len();
        let mut reference = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
        reference.program(&w, 1.0).unwrap();
        let inputs = &drives[..rows];
        let expect = reference.dot_reference(inputs).unwrap();
        for path in [KernelPath::Scalar, KernelPath::Auto] {
            let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
            x.program(&w, 1.0).unwrap();
            x.set_kernel_path(path);
            let got = x.dot(inputs).unwrap();
            for (j, (g, e)) in got.iter().zip(&expect).enumerate() {
                prop_assert_eq!(g.0.to_bits(), e.0.to_bits(), "{:?} col {}", path, j);
            }
            let (e_got, e_ref) = (x.accumulated_read_energy().0, reference.accumulated_read_energy().0);
            match path {
                KernelPath::Scalar => prop_assert_eq!(e_got.to_bits(), e_ref.to_bits()),
                KernelPath::Auto => prop_assert!(
                    (e_got - e_ref).abs() <= 1e-12 * e_ref.abs(),
                    "energy {} vs {}", e_got, e_ref
                ),
            }
        }
    }

    /// The spike-sparse entry point agrees bitwise with dense SNN-mode
    /// evaluation of the equivalent binary drive on both kernel paths,
    /// with or without a faulty cell, and the two paths agree bitwise on
    /// the outputs (Auto's per-row-sum energy within 1e-9 of Scalar's).
    /// The explicit edges hold on both paths too: an all-silent drive
    /// outputs zeros and accrues no energy, and a single active row
    /// reproduces the scalar bits.
    #[test]
    fn sparse_and_dense_spike_evaluation_agree(
        w in kernel_shapes(),
        mask in proptest::collection::vec(0u8..2, 24),
        fault_row in 0usize..24,
        fault_col in 0usize..24,
        kind in 0usize..6,
        factor in 0.05f64..0.95,
        row_pick in 0usize..24,
    ) {
        let (rows, cols) = (w.len(), w[0].len());
        let active: Vec<usize> = (0..rows).filter(|&r| mask[r] == 1).collect();
        let dense: Vec<f64> = (0..rows).map(|r| f64::from(mask[r])).collect();
        let single = [row_pick % rows];
        let build = |path| {
            let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Snn)).unwrap();
            x.program(&w, 1.0).unwrap();
            if let Some(f) = fault_for(kind, factor) {
                x.set_cell_fault(fault_row % rows, fault_col % cols, f);
            }
            x.set_kernel_path(path);
            x
        };
        let mut scalar = build(KernelPath::Scalar);
        let scalar_out = scalar.dot_sparse(&active).unwrap();
        let e_scalar = scalar.accumulated_read_energy().0;
        let scalar_single = scalar.dot_sparse(&single).unwrap();
        for path in [KernelPath::Scalar, KernelPath::Auto] {
            let mut a = build(path);
            let mut b = a.clone();
            let silent = a.dot_sparse(&[]).unwrap();
            prop_assert!(silent.iter().all(|c| c.0 == 0.0), "{:?}: silent input must output zeros", path);
            prop_assert_eq!(a.accumulated_read_energy().0, 0.0, "{:?}: silent input must not accrue energy", path);
            let ya = a.dot_sparse(&active).unwrap();
            let yb = b.dot(&dense).unwrap();
            for (j, ((x, y), s)) in ya.iter().zip(&yb).zip(&scalar_out).enumerate() {
                prop_assert_eq!(x.0.to_bits(), y.0.to_bits(), "{:?} sparse-vs-dense col {}", path, j);
                prop_assert_eq!(x.0.to_bits(), s.0.to_bits(), "{:?} vs scalar col {}", path, j);
            }
            let e_sparse = a.accumulated_read_energy().0;
            prop_assert_eq!(e_sparse.to_bits(), b.accumulated_read_energy().0.to_bits());
            prop_assert!(
                (e_sparse - e_scalar).abs() <= ENERGY_RTOL * e_scalar.abs(),
                "{:?} spike energy {} vs scalar {}", path, e_sparse, e_scalar
            );
            let y1 = a.dot_sparse(&single).unwrap();
            for (j, (x, s)) in y1.iter().zip(&scalar_single).enumerate() {
                prop_assert_eq!(x.0.to_bits(), s.0.to_bits(), "{:?} single-row col {}", path, j);
            }
        }
    }

    /// Bit-identity survives every conductance-mutating event: dead
    /// arrays, stuck/pinned/degraded cells and retention aging all flow
    /// through the same cached layouts. Over a chain of up to three
    /// dots, Scalar matches the uncached reference bitwise on outputs
    /// and accumulated energy; Auto matches the outputs bitwise and the
    /// accumulated energy within 1e-9 relative.
    #[test]
    fn kernel_paths_match_reference_under_faults_and_aging(
        w in kernel_shapes(),
        drives in proptest::collection::vec(0.0f64..1.0, 24 * 3),
        fault_row in 0usize..24,
        fault_col in 0usize..24,
        kind in 0usize..6,
        factor in 0.05f64..0.95,
        age_s in 0.0f64..1e7,
        dead in 0u8..2,
        dots in 1usize..4,
    ) {
        let (rows, cols) = (w.len(), w[0].len());
        let build = |path| {
            let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Ann)).unwrap();
            x.program(&w, 1.0).unwrap();
            if let Some(f) = fault_for(kind, factor) {
                x.set_cell_fault(fault_row % rows, fault_col % cols, f);
            }
            x.advance_age(Seconds(age_s));
            if dead == 1 {
                x.kill();
            }
            x.set_kernel_path(path);
            x
        };
        let mut reference = build(KernelPath::Scalar);
        let mut scalar = build(KernelPath::Scalar);
        let mut auto = build(KernelPath::Auto);
        for d in 0..dots {
            let inputs = &drives[d * rows..(d + 1) * rows];
            let expect = reference.dot_reference(inputs).unwrap();
            for (path, x) in [("scalar", &mut scalar), ("auto", &mut auto)] {
                let got = x.dot(inputs).unwrap();
                for (j, (g, e)) in got.iter().zip(&expect).enumerate() {
                    prop_assert_eq!(g.0.to_bits(), e.0.to_bits(), "{} dot {} col {}", path, d, j);
                }
            }
        }
        let e_ref = reference.accumulated_read_energy().0;
        let e_scalar = scalar.accumulated_read_energy().0;
        let e_auto = auto.accumulated_read_energy().0;
        prop_assert_eq!(e_scalar.to_bits(), e_ref.to_bits(), "scalar energy must be bitwise");
        prop_assert!(
            (e_auto - e_ref).abs() <= ENERGY_RTOL * e_ref.abs(),
            "accumulated energy {} vs reference {}", e_auto, e_ref
        );
    }

    #[test]
    fn read_energy_never_decreases(w in small_weights(), evals in 1usize..5) {
        let mut x = AtomicCrossbar::new(CrossbarConfig::paper_default(Mode::Snn)).unwrap();
        x.program(&w, 1.0).unwrap();
        let rows = w.len();
        let mut last = x.accumulated_read_energy().0;
        for _ in 0..evals {
            x.dot(&vec![1.0; rows]).unwrap();
            let now = x.accumulated_read_energy().0;
            prop_assert!(now >= last);
            last = now;
        }
    }
}
