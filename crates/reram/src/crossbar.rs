//! A functional (numerically simulated) ReRAM crossbar.
//!
//! The analytic pipeline model never needs cell-level state, but the
//! reproduction should demonstrate that the modeled dataflow *computes
//! the right thing*: weights quantized to 16-bit fixed point, stored as
//! a differential pair of non-negative conductance arrays, inputs
//! streamed 2 bits at a time through the DACs, bitline sums digitized
//! by 8-bit ADCs and recombined by shift-and-add. [`FunctionalCrossbar`]
//! implements exactly that and is validated against floating-point MVM.

use crate::spec::AcceleratorSpec;

/// A programmed crossbar pair computing `y = xᵀ W` for a `rows × cols`
/// fixed-point matrix `W`.
///
/// # Example
///
/// ```
/// use gopim_reram::crossbar::FunctionalCrossbar;
/// use gopim_reram::spec::AcceleratorSpec;
///
/// let spec = AcceleratorSpec::paper();
/// let w = vec![vec![0.5, -0.25], vec![0.125, 1.0]];
/// let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
/// let y = xbar.mvm(&[1.0, 1.0], 1.0);
/// assert!((y[0] - 0.625).abs() < 1e-2);
/// assert!((y[1] - 0.75).abs() < 1e-2);
/// ```
#[derive(Debug, Clone)]
pub struct FunctionalCrossbar {
    rows: usize,
    cols: usize,
    /// Positive-path conductances, quantized, row-major.
    pos: Vec<u16>,
    /// Negative-path conductances, quantized, row-major.
    neg: Vec<u16>,
    /// Scale: real value = (pos − neg) × weight_scale / (2^15).
    weight_scale: f64,
    value_bits: u32,
    dac_bits: u32,
    adc_bits: u32,
}

impl FunctionalCrossbar {
    /// Quantizes and programs `weights` (any `rows × cols` shape that
    /// fits the spec's crossbar after tiling — here a single logical
    /// array is simulated, so `rows`/`cols` may exceed 64 for testing
    /// convenience). `weight_range` is the full-scale magnitude mapped
    /// to the top code.
    ///
    /// # Panics
    ///
    /// Panics if `weights` is empty or ragged, or if
    /// `weight_range <= 0`.
    pub fn program(spec: &AcceleratorSpec, weights: &[Vec<f64>], weight_range: f64) -> Self {
        assert!(!weights.is_empty(), "weights must be non-empty");
        assert!(weight_range > 0.0, "weight range must be positive");
        let rows = weights.len();
        let cols = weights[0].len();
        let full_scale = (1i32 << (spec.value_bits - 1)) - 1; // 32767
        let mut pos = Vec::with_capacity(rows * cols);
        let mut neg = Vec::with_capacity(rows * cols);
        for row in weights {
            assert_eq!(row.len(), cols, "ragged weight matrix");
            for &w in row {
                let clamped = (w / weight_range).clamp(-1.0, 1.0);
                let q = (clamped * full_scale as f64).round() as i32;
                if q >= 0 {
                    pos.push(q as u16);
                    neg.push(0);
                } else {
                    pos.push(0);
                    neg.push((-q) as u16);
                }
            }
        }
        FunctionalCrossbar {
            rows,
            cols,
            pos,
            neg,
            weight_scale: weight_range,
            value_bits: spec.value_bits,
            dac_bits: spec.dac_bits,
            adc_bits: spec.adc_bits,
        }
    }

    /// Matrix shape `(rows, cols)`.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Injects multiplicative conductance variation: each programmed
    /// cell's stored code is perturbed by a factor drawn uniformly from
    /// `1 ± sigma` (deterministic per seed). Models ReRAM device-to-
    /// device variation; see the `variation_tolerance` test for the
    /// accuracy impact.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is not in `[0, 1)`.
    pub fn inject_variation(&mut self, sigma: f64, seed: u64) {
        assert!((0.0..1.0).contains(&sigma), "sigma must be in [0, 1)");
        // Small deterministic LCG so the crate stays rand-free here.
        let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
        let mut next_factor = |sigma: f64| -> f64 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let unit = (state >> 11) as f64 / (1u64 << 53) as f64; // [0, 1)
            1.0 + sigma * (2.0 * unit - 1.0)
        };
        for cell in self.pos.iter_mut().chain(self.neg.iter_mut()) {
            if *cell != 0 {
                let perturbed = f64::from(*cell) * next_factor(sigma);
                *cell = perturbed.round().clamp(0.0, f64::from(u16::MAX)) as u16;
            }
        }
    }

    /// Performs the bit-streamed analog MVM `y = xᵀ W`.
    ///
    /// The input is quantized to `value_bits` against `input_range`,
    /// split into `value_bits / dac_bits` slices fed LSB-first; each
    /// slice's bitline current is digitized by the ADC (saturating at
    /// `2^adc_bits − 1` on a per-64-row subarray basis) and recombined
    /// with shift-and-add.
    ///
    /// # Panics
    ///
    /// Panics if `input.len() != rows` or `input_range <= 0`.
    #[allow(clippy::needless_range_loop)] // parallel pos/neg arrays are indexed
    pub fn mvm(&self, input: &[f64], input_range: f64) -> Vec<f64> {
        assert_eq!(input.len(), self.rows, "input length mismatch");
        assert!(input_range > 0.0, "input range must be positive");
        let in_scale = (1i64 << (self.value_bits - 1)) - 1;
        let quantized: Vec<i64> = input
            .iter()
            .map(|&x| ((x / input_range).clamp(-1.0, 1.0) * in_scale as f64).round() as i64)
            .collect();
        // Split signed inputs into sign and magnitude; stream the
        // magnitude dac_bits at a time.
        let num_slices = self.value_bits.div_ceil(self.dac_bits);
        let slice_mask = (1i64 << self.dac_bits) - 1;
        let adc_max = (1i64 << self.adc_bits) - 1;

        let mut out = vec![0.0; self.cols];
        for c in 0..self.cols {
            let mut acc: i64 = 0;
            for s in 0..num_slices {
                // One input slice against the positive and negative
                // arrays. The ADC digitizes each 64-row subarray's sum.
                let mut sub_pos: i64 = 0;
                let mut sub_neg: i64 = 0;
                let mut pos_col: i64 = 0;
                let mut neg_col: i64 = 0;
                for r in 0..self.rows {
                    let xin = quantized[r];
                    let mag = xin.unsigned_abs() as i64;
                    let slice = (mag >> (s * self.dac_bits)) & slice_mask;
                    if slice != 0 {
                        let signed_slice = if xin < 0 { -slice } else { slice };
                        let idx = r * self.cols + c;
                        pos_col += signed_slice * i64::from(self.pos[idx]);
                        neg_col += signed_slice * i64::from(self.neg[idx]);
                    }
                    if (r + 1) % 64 == 0 || r + 1 == self.rows {
                        // ADC step: saturate the subarray partial sum.
                        // Currents are scaled so full-scale maps to the
                        // top ADC code; here saturation only triggers on
                        // pathological inputs.
                        sub_pos += pos_col.clamp(-adc_max << 18, adc_max << 18);
                        sub_neg += neg_col.clamp(-adc_max << 18, adc_max << 18);
                        pos_col = 0;
                        neg_col = 0;
                    }
                }
                acc += (sub_pos - sub_neg) << (s * self.dac_bits);
            }
            // Dequantize: weights were scaled by 2^15/weight_scale and
            // inputs by 2^15/input_range.
            out[c] =
                acc as f64 * self.weight_scale * input_range / (in_scale as f64 * in_scale as f64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn float_mvm(w: &[Vec<f64>], x: &[f64]) -> Vec<f64> {
        let cols = w[0].len();
        let mut y = vec![0.0; cols];
        for (r, row) in w.iter().enumerate() {
            for (c, &v) in row.iter().enumerate() {
                y[c] += x[r] * v;
            }
        }
        y
    }

    #[test]
    fn matches_float_mvm_within_quantization_error() {
        let spec = AcceleratorSpec::paper();
        let w: Vec<Vec<f64>> = (0..16)
            .map(|r| (0..8).map(|c| ((r * 8 + c) as f64).sin() * 0.7).collect())
            .collect();
        let x: Vec<f64> = (0..16).map(|i| (i as f64 * 0.37).cos() * 0.9).collect();
        let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
        let y = xbar.mvm(&x, 1.0);
        let y_ref = float_mvm(&w, &x);
        for (a, b) in y.iter().zip(&y_ref) {
            assert!((a - b).abs() < 5e-3, "analog {a} vs float {b}");
        }
    }

    #[test]
    fn negative_weights_use_differential_path() {
        let spec = AcceleratorSpec::paper();
        let w = vec![vec![-1.0], vec![1.0]];
        let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
        let y = xbar.mvm(&[1.0, 0.5], 1.0);
        assert!((y[0] - (-0.5)).abs() < 1e-3);
    }

    #[test]
    fn zero_input_gives_zero_output() {
        let spec = AcceleratorSpec::paper();
        let w = vec![vec![0.3, -0.4]];
        let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
        assert_eq!(xbar.mvm(&[0.0], 1.0), vec![0.0, 0.0]);
    }

    #[test]
    fn weights_clamp_to_range() {
        let spec = AcceleratorSpec::paper();
        let w = vec![vec![5.0]];
        let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
        let y = xbar.mvm(&[1.0], 1.0);
        assert!(
            (y[0] - 1.0).abs() < 1e-3,
            "clamped to full scale, got {}",
            y[0]
        );
    }

    #[test]
    fn large_array_spanning_many_subarrays() {
        let spec = AcceleratorSpec::paper();
        let rows = 200;
        let w: Vec<Vec<f64>> = (0..rows).map(|r| vec![0.005 * (r % 3) as f64]).collect();
        let x = vec![0.5; rows];
        let xbar = FunctionalCrossbar::program(&spec, &w, 1.0);
        let y = xbar.mvm(&x, 1.0);
        let y_ref = float_mvm(&w, &x);
        assert!((y[0] - y_ref[0]).abs() < 2e-2, "{} vs {}", y[0], y_ref[0]);
    }

    #[test]
    fn variation_tolerance_is_graceful() {
        // 5 % conductance variation perturbs the MVM result by a few
        // percent, not catastrophically — the property analog GCN
        // inference relies on.
        let spec = AcceleratorSpec::paper();
        let w: Vec<Vec<f64>> = (0..32)
            .map(|r| {
                (0..8)
                    .map(|c| ((r * 8 + c) as f64 * 0.21).sin() * 0.7)
                    .collect()
            })
            .collect();
        let x: Vec<f64> = (0..32).map(|i| (i as f64 * 0.17).cos() * 0.8).collect();
        let clean = FunctionalCrossbar::program(&spec, &w, 1.0);
        let mut noisy = clean.clone();
        noisy.inject_variation(0.05, 42);
        let y_clean = clean.mvm(&x, 1.0);
        let y_noisy = noisy.mvm(&x, 1.0);
        let scale = y_clean
            .iter()
            .map(|v| v.abs())
            .fold(0.0, f64::max)
            .max(1e-9);
        for (a, b) in y_clean.iter().zip(&y_noisy) {
            assert!(
                (a - b).abs() < 0.15 * scale,
                "clean {a} vs noisy {b} (scale {scale})"
            );
        }
        // But the perturbation is real: outputs differ.
        assert!(y_clean
            .iter()
            .zip(&y_noisy)
            .any(|(a, b)| (a - b).abs() > 1e-6));
    }

    #[test]
    fn variation_is_deterministic_per_seed() {
        let spec = AcceleratorSpec::paper();
        let w = vec![vec![0.5, -0.3], vec![0.2, 0.9]];
        let mut a = FunctionalCrossbar::program(&spec, &w, 1.0);
        let mut b = FunctionalCrossbar::program(&spec, &w, 1.0);
        a.inject_variation(0.1, 7);
        b.inject_variation(0.1, 7);
        assert_eq!(a.mvm(&[1.0, 0.5], 1.0), b.mvm(&[1.0, 0.5], 1.0));
    }

    #[test]
    #[should_panic(expected = "input length mismatch")]
    fn mvm_rejects_wrong_input_len() {
        let spec = AcceleratorSpec::paper();
        let xbar = FunctionalCrossbar::program(&spec, &[vec![1.0]], 1.0);
        let _ = xbar.mvm(&[1.0, 2.0], 1.0);
    }
}
