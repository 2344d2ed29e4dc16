//! Property-based tests for the ReRAM hardware model (gopim-testkit).

use gopim_reram::crossbar::FunctionalCrossbar;
use gopim_reram::energy::EnergyModel;
use gopim_reram::spec::AcceleratorSpec;
use gopim_reram::{tiling, timing};
use gopim_testkit::prop::{check_with, Config};

#[test]
fn functional_crossbar_tracks_float_mvm() {
    check_with(
        "functional_crossbar_tracks_float_mvm",
        Config::cases(48),
        |d| {
            let rows = d.draw("rows", 1usize..48);
            let cols = d.draw("cols", 1usize..8);
            let seed = d.draw("seed", 0u64..1000);
            // Deterministic pseudo-random weights/inputs in [-1, 1].
            let val =
                |i: usize| (((i as u64).wrapping_mul(seed + 17) % 2000) as f64 / 1000.0) - 1.0;
            let w: Vec<Vec<f64>> = (0..rows)
                .map(|r| (0..cols).map(|c| val(r * cols + c) * 0.9).collect())
                .collect();
            let x: Vec<f64> = (0..rows).map(|r| val(r + 7919) * 0.9).collect();
            let spec = AcceleratorSpec::paper();
            let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
            let y = xbar.mvm(&x, 1.0);
            for c in 0..cols {
                let expected: f64 = (0..rows).map(|r| w[r][c] * x[r]).sum();
                // 16-bit quantization error accumulates with row count.
                let tol = 1e-4 * (rows as f64) + 1e-4;
                assert!(
                    (y[c] - expected).abs() < tol,
                    "col {c}: {} vs {expected}",
                    y[c]
                );
            }
        },
    );
}

#[test]
fn mvm_is_linear_in_the_input() {
    check_with("mvm_is_linear_in_the_input", Config::cases(48), |d| {
        let rows = d.draw("rows", 1usize..32);
        let scale_num = d.draw("scale_num", 1u32..4);
        let spec = AcceleratorSpec::paper();
        let w: Vec<Vec<f64>> = (0..rows).map(|r| vec![0.01 * (r % 7) as f64]).collect();
        let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
        let x1: Vec<f64> = (0..rows).map(|r| 0.1 + 0.001 * r as f64).collect();
        let scale = f64::from(scale_num) * 0.25;
        let x2: Vec<f64> = x1.iter().map(|v| v * scale).collect();
        let y1 = xbar.mvm(&x1, 1.0)[0];
        let y2 = xbar.mvm(&x2, 1.0)[0];
        assert!((y2 - scale * y1).abs() < 1e-3, "{y2} vs {}", scale * y1);
    });
}

#[test]
fn tiling_is_monotone_in_matrix_size() {
    check_with(
        "tiling_is_monotone_in_matrix_size",
        Config::cases(48),
        |d| {
            let r1 = d.draw("r1", 1usize..5000);
            let c1 = d.draw("c1", 1usize..5000);
            let dr = d.draw("dr", 0usize..500);
            let dc = d.draw("dc", 0usize..500);
            let spec = AcceleratorSpec::paper();
            let small = tiling::crossbars_for_matrix(&spec, r1, c1);
            let large = tiling::crossbars_for_matrix(&spec, r1 + dr, c1 + dc);
            assert!(large >= small);
            // Exact formula check.
            assert_eq!(small, 2 * r1.div_ceil(64) * c1.div_ceil(64));
        },
    );
}

#[test]
fn bulk_write_is_monotone() {
    check_with("bulk_write_is_monotone", Config::cases(48), |d| {
        let rows = d.draw("rows", 0u64..1_000_000);
        let extra = d.draw("extra", 0u64..100_000);
        let max1 = d.draw("max1", 0u64..64);
        let spec = AcceleratorSpec::paper();
        let a = timing::bulk_write_ns(&spec, rows, max1);
        let b = timing::bulk_write_ns(&spec, rows + extra, max1);
        assert!(b >= a);
        let c = timing::bulk_write_ns(&spec, rows, max1 + 1);
        assert!(c >= a);
    });
}

#[test]
fn energy_model_is_additive() {
    check_with("energy_model_is_additive", Config::cases(48), |d| {
        let rows_a = d.draw("rows_a", 0u64..10_000);
        let rows_b = d.draw("rows_b", 0u64..10_000);
        let e = EnergyModel::new(&AcceleratorSpec::paper());
        let sum = e.write_energy_nj(rows_a) + e.write_energy_nj(rows_b);
        assert!((e.write_energy_nj(rows_a + rows_b) - sum).abs() < 1e-6);
    });
}
