//! ReRAM write-endurance accounting.
//!
//! ReRAM cells survive about 10^8 writes (§IV-A(3)), which makes ISU's
//! write reduction a *lifetime* feature, not just a latency one: the
//! array wears out at its most-rewritten cell, and both selective
//! updating (fewer writes) and interleaved mapping (no hot crossbar)
//! push the first-failure horizon out. This module quantifies that.

/// ReRAM cell write endurance (10^8 writes, §IV-A(3)).
pub const RERAM_ENDURANCE_WRITES: f64 = 1e8;

/// Write-wear profile of a training configuration, under the standard
/// intra-crossbar wear-leveling assumption: a crossbar's controller
/// rotates logical rows over physical wordlines, so each physical row
/// of a group wears at the group's *average* rewrite rate. The array
/// then fails at its most-rewritten *group* — which is exactly what
/// interleaved mapping balances.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WearProfile {
    /// Per-row write rate of the most-rewritten crossbar group,
    /// writes per epoch.
    pub max_row_writes_per_epoch: f64,
    /// Mean per-row write rate across groups, writes per epoch.
    pub mean_row_writes_per_epoch: f64,
}

impl WearProfile {
    /// Builds a profile from per-group rewrite counts per epoch.
    ///
    /// # Panics
    ///
    /// Panics if `rows_per_group_per_epoch` is empty.
    pub fn from_group_rows(rows_per_group_per_epoch: &[f64], rows_per_group: usize) -> Self {
        assert!(
            !rows_per_group_per_epoch.is_empty(),
            "need at least one crossbar group"
        );
        let denom = rows_per_group.max(1) as f64;
        let max = rows_per_group_per_epoch.iter().cloned().fold(0.0, f64::max);
        let mean =
            rows_per_group_per_epoch.iter().sum::<f64>() / rows_per_group_per_epoch.len() as f64;
        WearProfile {
            max_row_writes_per_epoch: max / denom,
            mean_row_writes_per_epoch: mean / denom,
        }
    }

    /// Epochs until the most-rewritten row exhausts ReRAM endurance.
    pub fn lifetime_epochs(&self) -> f64 {
        if self.max_row_writes_per_epoch <= 0.0 {
            return f64::INFINITY;
        }
        RERAM_ENDURANCE_WRITES / self.max_row_writes_per_epoch
    }

    /// Lifetime-extension factor relative to a baseline profile.
    pub fn extension_over(&self, baseline: &WearProfile) -> f64 {
        self.lifetime_epochs() / baseline.lifetime_epochs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_updating_wears_out_in_endurance_epochs() {
        // Every row rewritten once per epoch.
        let full = WearProfile::from_group_rows(&[64.0, 64.0], 64);
        assert!((full.max_row_writes_per_epoch - 1.0).abs() < 1e-12);
        assert!((full.lifetime_epochs() - RERAM_ENDURANCE_WRITES).abs() < 1.0);
    }

    #[test]
    fn selective_updating_extends_lifetime() {
        let full = WearProfile::from_group_rows(&[64.0, 64.0], 64);
        // θ = 0.5, stale period 20 ⇒ amortized 0.525 writes per row.
        let isu = WearProfile::from_group_rows(&[33.6, 33.6], 64);
        let ext = isu.extension_over(&full);
        assert!((ext - 64.0 / 33.6).abs() < 1e-9, "extension {ext}");
    }

    #[test]
    fn unbalanced_mapping_wears_at_the_hottest_group() {
        let osu = WearProfile::from_group_rows(&[64.0, 3.2], 64);
        let isu = WearProfile::from_group_rows(&[33.6, 33.6], 64);
        assert!(isu.lifetime_epochs() > osu.lifetime_epochs());
    }

    #[test]
    fn zero_writes_mean_infinite_lifetime() {
        let idle = WearProfile::from_group_rows(&[0.0], 64);
        assert!(idle.lifetime_epochs().is_infinite());
    }
}
