//! Golden-file regression tests: re-run every deterministic recorded
//! experiment and diff its stdout against the recorded `results/*.txt`,
//! so model drift is caught by `cargo test` instead of manual diffing.
//!
//! Thirteen of the pinned experiments are RNG-free: they evaluate the
//! analytical energy model and never construct a crossbar. Two are
//! seeded and byte-stable under the vendored rand (regenerated whenever
//! the random stream shifts, see CHANGES.md PR 1):
//!
//! * `analog_validation` runs inference *through* the crossbar models,
//!   on the default kernel path;
//! * `ablate_tmr` trains the scaled VGG/10 model, quantizes it and
//!   averages seeded device-noise trials per TMR ratio — neither
//!   RNG-free nor analytic. `nebula-tensor` and `nebula-nn` are built
//!   at `opt-level = 3` even in the dev profile (root `Cargo.toml`), so
//!   this debug-build rerun takes seconds, not minutes; debug
//!   assertions and overflow checks stay on.
//!
//! The other RNG-dependent experiments (training-based accuracy
//! studies) are deterministic as well, but cost minutes of training
//! each; their clean corners are covered by `fault_campaign`'s
//! zero-fault assertion and the seeded-determinism suite. The scalar
//! reference kernel is checked against the same inference in
//! `nebula_core`'s unit tests, device mismatch included.

use std::process::Command;

/// Runs a recorded experiment binary and asserts byte-identical stdout
/// against its golden file.
fn assert_matches_golden(bin: &str, exe: &str) {
    let golden_path = format!("{}/../../results/{bin}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&golden_path)
        .unwrap_or_else(|e| panic!("missing golden file {golden_path}: {e}"));
    let out = Command::new(exe)
        .output()
        .unwrap_or_else(|e| panic!("failed to launch {bin}: {e}"));
    assert!(
        out.status.success(),
        "{bin} exited with {:?}:\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("experiment output is UTF-8");
    assert_eq!(
        stdout, golden,
        "{bin} drifted from its recorded output ({golden_path})"
    );
}

macro_rules! golden {
    ($($name:ident),* $(,)?) => {$(
        #[test]
        fn $name() {
            assert_matches_golden(
                stringify!($name),
                env!(concat!("CARGO_BIN_EXE_", stringify!($name))),
            );
        }
    )*};
}

golden!(
    ablate_hierarchy,
    ablate_morphable,
    ablate_replication,
    ablate_tmr,
    analog_validation,
    chip_layout,
    fig01_device,
    fig12_isaac_layers,
    fig13a_isaac_avg,
    fig13b_inxs_layers,
    fig14_peak_power,
    fig15_vgg_breakdown,
    fig16_all_breakdown,
    fig17_hybrid_tradeoff,
    tab03_components,
);
