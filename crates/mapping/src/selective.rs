//! Selective vertex updating (the paper's §VI-A and §VI-C).

use gopim_graph::DegreeProfile;

use crate::mapping::VertexMapping;

/// Update threshold for dense graphs (average degree > 8): top 50 % of
/// vertices refresh every epoch (§VI-C).
pub const DENSE_THETA: f64 = 0.5;

/// Update threshold for sparse graphs (average degree ≤ 8): top 80 %.
pub const SPARSE_THETA: f64 = 0.8;

/// Less-important vertices are refreshed once every this many epochs
/// (§VI-A).
pub const STALE_PERIOD_EPOCHS: usize = 20;

/// The paper's adaptive-θ rule: [`SPARSE_THETA`] for sparse graphs,
/// [`DENSE_THETA`] for dense ones.
pub fn adaptive_theta(profile: &DegreeProfile) -> f64 {
    if profile.is_sparse() {
        SPARSE_THETA
    } else {
        DENSE_THETA
    }
}

/// A selective-updating policy: which vertices are *important* (updated
/// every epoch) and how often the rest refresh.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SelectivePolicy {
    theta: f64,
    stale_period: usize,
}

impl SelectivePolicy {
    /// Policy with an explicit threshold.
    ///
    /// # Panics
    ///
    /// Panics if `theta ∉ [0, 1]` or `stale_period == 0`.
    pub fn with_theta(theta: f64, stale_period: usize) -> Self {
        assert!((0.0..=1.0).contains(&theta), "theta must be in [0, 1]");
        assert!(stale_period > 0, "stale period must be positive");
        SelectivePolicy {
            theta,
            stale_period,
        }
    }

    /// Policy using the paper's adaptive threshold for `profile`.
    pub fn adaptive(profile: &DegreeProfile) -> Self {
        SelectivePolicy::with_theta(adaptive_theta(profile), STALE_PERIOD_EPOCHS)
    }

    /// The policy that updates everything every epoch (no
    /// sparsification — the GoPIM-Vanilla and baseline behaviour).
    pub fn update_all() -> Self {
        SelectivePolicy {
            theta: 1.0,
            stale_period: 1,
        }
    }

    /// Update threshold θ.
    pub fn theta(&self) -> f64 {
        self.theta
    }

    /// Refresh period of less-important vertices, epochs.
    pub fn stale_period(&self) -> usize {
        self.stale_period
    }

    /// Number of important vertices for a graph of `n` vertices
    /// (`⌈θ·n⌉`).
    pub fn num_important(&self, n: usize) -> usize {
        (self.theta * n as f64).ceil() as usize
    }

    /// The important vertex set: the top `⌈θ·n⌉` vertices by degree.
    /// Returned as a boolean mask indexed by vertex id.
    pub fn important_vertices(&self, profile: &DegreeProfile) -> Vec<bool> {
        let n = profile.num_vertices();
        let k = self.num_important(n).min(n);
        if k == n {
            return vec![true; n];
        }
        let ranked = profile.vertices_by_degree_desc();
        let mut mask = vec![false; n];
        for &v in &ranked[..k] {
            mask[v as usize] = true;
        }
        mask
    }

    /// Whether vertex importance mask `important` makes the vertex
    /// refresh in `epoch` (0-based): important vertices every epoch,
    /// others when `epoch % stale_period == 0`.
    pub fn updates_in_epoch(&self, important: bool, epoch: usize) -> bool {
        important || epoch.is_multiple_of(self.stale_period)
    }

    /// Amortized per-epoch update fraction:
    /// `θ + (1 − θ) / stale_period`.
    pub fn amortized_update_fraction(&self) -> f64 {
        self.theta + (1.0 - self.theta) / self.stale_period as f64
    }
}

/// Per-crossbar update workload under a mapping + selection.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateLoad {
    /// Rows written on the most-loaded crossbar (the pacing quantity:
    /// intra-crossbar writes are serial).
    pub max_rows_per_group: usize,
    /// Total rows written across all crossbars.
    pub total_rows: usize,
}

/// Rows each crossbar group must rewrite for the selected vertex mask.
///
/// # Panics
///
/// Panics if `selected.len() < mapping.num_vertices()`.
pub fn update_rows_per_group(mapping: &VertexMapping, selected: &[bool]) -> Vec<usize> {
    assert!(
        selected.len() >= mapping.num_vertices(),
        "selection mask too short"
    );
    mapping
        .groups()
        .iter()
        .map(|g| g.iter().filter(|&&v| selected[v as usize]).count())
        .collect()
}

/// Aggregate update workload for a selection mask.
///
/// # Panics
///
/// Panics if `selected.len() < mapping.num_vertices()`.
pub fn update_load(mapping: &VertexMapping, selected: &[bool]) -> UpdateLoad {
    let rows = update_rows_per_group(mapping, selected);
    UpdateLoad {
        max_rows_per_group: rows.iter().copied().max().unwrap_or(0),
        total_rows: rows.iter().sum(),
    }
}

impl gopim_cache::CanonicalHash for SelectivePolicy {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_tag("mapping.selective/v1");
        h.write_f64(self.theta);
        h.write_usize(self.stale_period);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mapping::{index_based, interleaved};

    /// The paper's Fig. 7 / Fig. 12 worked example.
    fn fig7_profile() -> DegreeProfile {
        DegreeProfile::from_degrees(vec![300, 500, 250, 450, 2, 15, 10, 1])
    }

    #[test]
    fn adaptive_theta_matches_paper_rule() {
        let sparse = DegreeProfile::from_degrees(vec![4, 4, 4]);
        let dense = DegreeProfile::from_degrees(vec![100, 100]);
        assert_eq!(adaptive_theta(&sparse), SPARSE_THETA);
        assert_eq!(adaptive_theta(&dense), DENSE_THETA);
    }

    #[test]
    fn important_set_is_top_theta_by_degree() {
        let p = fig7_profile();
        let policy = SelectivePolicy::with_theta(0.5, 20);
        let mask = policy.important_vertices(&p);
        // Degrees 300, 500, 250, 450 are the top four.
        assert_eq!(
            mask,
            vec![true, true, true, true, false, false, false, false]
        );
    }

    #[test]
    fn osu_keeps_max_load_at_capacity_fig7() {
        // Index mapping: V1–V4 on crossbar 0, V5–V8 on crossbar 1.
        let p = fig7_profile();
        let policy = SelectivePolicy::with_theta(0.5, 20);
        let mask = policy.important_vertices(&p);
        let osu = index_based(8, 4);
        let rows = update_rows_per_group(&osu, &mask);
        assert_eq!(rows, vec![4, 0]);
        assert_eq!(update_load(&osu, &mask).max_rows_per_group, 4);
    }

    #[test]
    fn isu_halves_max_load_fig12() {
        let p = fig7_profile();
        let policy = SelectivePolicy::with_theta(0.5, 20);
        let mask = policy.important_vertices(&p);
        let isu = interleaved(&p, 4);
        let load = update_load(&isu, &mask);
        assert_eq!(load.max_rows_per_group, 2);
        assert_eq!(load.total_rows, 4);
    }

    #[test]
    fn update_all_selects_everything_every_epoch() {
        let policy = SelectivePolicy::update_all();
        assert_eq!(policy.amortized_update_fraction(), 1.0);
        assert!(policy.updates_in_epoch(false, 13));
    }

    #[test]
    fn epoch_schedule_refreshes_stale_vertices_periodically() {
        let policy = SelectivePolicy::with_theta(0.5, 20);
        assert!(policy.updates_in_epoch(true, 7));
        assert!(!policy.updates_in_epoch(false, 7));
        assert!(policy.updates_in_epoch(false, 40));
    }

    #[test]
    fn amortized_fraction_formula() {
        let policy = SelectivePolicy::with_theta(0.5, 20);
        assert!((policy.amortized_update_fraction() - 0.525).abs() < 1e-12);
    }

    #[test]
    fn theta_one_marks_everything_important() {
        let p = fig7_profile();
        let mask = SelectivePolicy::with_theta(1.0, 20).important_vertices(&p);
        assert!(mask.iter().all(|&m| m));
    }

    #[test]
    #[should_panic(expected = "theta")]
    fn invalid_theta_rejected() {
        SelectivePolicy::with_theta(1.5, 20);
    }
}
