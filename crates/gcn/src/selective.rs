//! Stale-feature semantics of ISU's selective vertex updating.
//!
//! On the accelerator, the *Aggregation* stage reads combined features
//! from ReRAM crossbars; ISU refreshes important vertices' rows every
//! epoch and the rest every `stale_period` epochs (§VI-A). Numerically
//! this means aggregation sees a stale copy of a less-important
//! vertex's combined features between refreshes. [`StaleFeatureCache`]
//! reproduces that, per layer.

use gopim_linalg::Matrix;
use gopim_mapping::SelectivePolicy;

/// Per-layer cache of the crossbar-resident combined features.
#[derive(Debug, Clone)]
pub struct StaleFeatureCache {
    /// Cached feature matrix per layer (what the crossbar holds).
    layers: Vec<Option<Matrix>>,
    /// Importance mask per vertex.
    important: Vec<bool>,
    /// Vertices whose crossbar rows can no longer be written (the
    /// fault layer's dead groups): refreshes skip them forever.
    frozen: Vec<bool>,
    policy: SelectivePolicy,
}

impl StaleFeatureCache {
    /// Creates a cache for `num_layers` layers with an importance mask.
    pub fn new(num_layers: usize, important: Vec<bool>, policy: SelectivePolicy) -> Self {
        let frozen = vec![false; important.len()];
        StaleFeatureCache {
            layers: vec![None; num_layers],
            important,
            frozen,
            policy,
        }
    }

    /// Marks `vertices` as frozen: their cached rows are never
    /// refreshed again, modeling feature rows stranded on a dead
    /// crossbar. Out-of-range ids are ignored; freezing is permanent
    /// and idempotent.
    pub fn freeze(&mut self, vertices: &[u32]) {
        for &v in vertices {
            if let Some(f) = self.frozen.get_mut(v as usize) {
                *f = true;
            }
        }
    }

    /// Number of currently frozen vertices.
    pub fn num_frozen(&self) -> usize {
        self.frozen.iter().filter(|&&f| f).count()
    }

    /// Number of vertices marked unimportant (never refreshed eagerly).
    pub fn num_stale_candidates(&self) -> usize {
        self.important.iter().filter(|&&i| !i).count()
    }

    /// Applies the update schedule for `epoch` at `layer`: writes the
    /// rows that update this epoch into the cached matrix in place and
    /// lends that matrix out — it is what the aggregation actually
    /// sees — along with a mask of rows that were served stale (no
    /// gradient flows through those).
    ///
    /// # Panics
    ///
    /// Panics if `layer` is out of range or `fresh` has the wrong row
    /// count.
    pub fn observe(&mut self, layer: usize, epoch: usize, fresh: &Matrix) -> (&Matrix, Vec<bool>) {
        assert!(layer < self.layers.len(), "layer {layer} out of range");
        assert_eq!(
            fresh.rows(),
            self.important.len(),
            "one row per vertex expected"
        );
        let mut stale = vec![false; fresh.rows()];
        let cached = match &mut self.layers[layer] {
            // First epoch: everything is written.
            slot @ None => slot.insert(fresh.clone()),
            Some(cached) => {
                for (v, flag) in stale.iter_mut().enumerate() {
                    if !self.frozen[v] && self.policy.updates_in_epoch(self.important[v], epoch) {
                        cached.row_mut(v).copy_from_slice(fresh.row(v));
                    } else {
                        *flag = true;
                    }
                }
                cached
            }
        };
        (cached, stale)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn policy() -> SelectivePolicy {
        SelectivePolicy::with_theta(0.5, 4)
    }

    #[test]
    fn first_observation_writes_everything() {
        let mut cache = StaleFeatureCache::new(1, vec![true, false], policy());
        let fresh = Matrix::from_rows(&[&[1.0], &[2.0]]);
        let (seen, stale) = cache.observe(0, 0, &fresh);
        assert_eq!(*seen, fresh);
        assert_eq!(stale, vec![false, false]);
    }

    #[test]
    fn unimportant_rows_go_stale_between_refreshes() {
        let mut cache = StaleFeatureCache::new(1, vec![true, false], policy());
        let e0 = Matrix::from_rows(&[&[1.0], &[2.0]]);
        cache.observe(0, 0, &e0);
        let e1 = Matrix::from_rows(&[&[10.0], &[20.0]]);
        let (seen, stale) = cache.observe(0, 1, &e1);
        // Important row fresh, unimportant row still the epoch-0 value.
        assert_eq!(seen[(0, 0)], 10.0);
        assert_eq!(seen[(1, 0)], 2.0);
        assert_eq!(stale, vec![false, true]);
    }

    #[test]
    fn stale_rows_refresh_on_period() {
        let mut cache = StaleFeatureCache::new(1, vec![false, false], policy());
        cache.observe(0, 0, &Matrix::from_rows(&[&[1.0], &[1.0]]));
        cache.observe(0, 1, &Matrix::from_rows(&[&[2.0], &[2.0]]));
        // Epoch 4 is a refresh epoch (period 4).
        let (seen, stale) = cache.observe(0, 4, &Matrix::from_rows(&[&[5.0], &[5.0]]));
        assert_eq!(seen[(0, 0)], 5.0);
        assert!(stale.iter().all(|&s| !s));
    }

    #[test]
    fn frozen_rows_never_refresh_even_on_period() {
        let mut cache = StaleFeatureCache::new(1, vec![true, true], policy());
        cache.observe(0, 0, &Matrix::from_rows(&[&[1.0], &[2.0]]));
        cache.freeze(&[1, 99]); // out-of-range id ignored
        assert_eq!(cache.num_frozen(), 1);
        // Row 0 (important, live) refreshes; row 1 is frozen at its
        // epoch-0 value — even at a period-refresh epoch.
        let (seen, stale) = cache.observe(0, 4, &Matrix::from_rows(&[&[10.0], &[20.0]]));
        assert_eq!(seen[(0, 0)], 10.0);
        assert_eq!(seen[(1, 0)], 2.0);
        assert_eq!(stale, vec![false, true]);
    }

    #[test]
    fn empty_freeze_is_a_no_op() {
        let mk = || StaleFeatureCache::new(1, vec![true, false], policy());
        let mut plain = mk();
        let mut frozen = mk();
        frozen.freeze(&[]);
        for epoch in 0..6 {
            let fresh = Matrix::from_rows(&[&[epoch as f64], &[epoch as f64 + 0.5]]);
            let a = plain.observe(0, epoch, &fresh);
            let b = frozen.observe(0, epoch, &fresh);
            assert_eq!(a, b);
        }
    }

    #[test]
    fn layers_are_independent() {
        let mut cache = StaleFeatureCache::new(2, vec![false], policy());
        cache.observe(0, 0, &Matrix::from_rows(&[&[1.0]]));
        // Layer 1 first observed at epoch 1: must be fully written.
        let (seen, stale) = cache.observe(1, 1, &Matrix::from_rows(&[&[7.0]]));
        assert_eq!(seen[(0, 0)], 7.0);
        assert_eq!(stale, vec![false]);
    }
}
