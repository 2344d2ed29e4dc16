//! Degree sequences and statistics.
//!
//! GoPIM's performance model depends on graphs only through their degree
//! distribution, vertex count and feature dimension (§III, §V-A of the
//! paper). [`DegreeProfile`] captures exactly that, letting the analytic
//! simulator handle the full-size `products` dataset (2.45 M vertices,
//! 61.9 M edges) without materializing any edges.

/// A degree sequence: one entry per vertex.
///
/// # Example
///
/// ```
/// use gopim_graph::DegreeProfile;
///
/// let p = DegreeProfile::from_degrees(vec![3, 1, 2]);
/// assert_eq!(p.num_vertices(), 3);
/// assert_eq!(p.total_degree(), 6);
/// assert!((p.avg_degree() - 2.0).abs() < 1e-12);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DegreeProfile {
    degrees: Vec<u32>,
}

/// Summary statistics over a degree sequence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DegreeStats {
    /// Smallest degree.
    pub min: u32,
    /// Largest degree.
    pub max: u32,
    /// Mean degree.
    pub mean: f64,
    /// Population standard deviation of degrees.
    pub std_dev: f64,
}

impl DegreeProfile {
    /// Wraps an explicit degree sequence.
    pub fn from_degrees(degrees: Vec<u32>) -> Self {
        DegreeProfile { degrees }
    }

    /// Number of vertices.
    pub fn num_vertices(&self) -> usize {
        self.degrees.len()
    }

    /// Sum of all degrees (`2E` for an undirected graph).
    pub fn total_degree(&self) -> u64 {
        self.degrees.iter().map(|&d| u64::from(d)).sum()
    }

    /// Implied undirected edge count (`total_degree / 2`).
    pub fn num_edges(&self) -> u64 {
        self.total_degree() / 2
    }

    /// Mean degree; 0.0 for an empty profile.
    pub fn avg_degree(&self) -> f64 {
        if self.degrees.is_empty() {
            return 0.0;
        }
        self.total_degree() as f64 / self.degrees.len() as f64
    }

    /// Degree of vertex `v`.
    ///
    /// # Panics
    ///
    /// Panics if `v` is out of range.
    pub fn degree(&self, v: usize) -> u32 {
        self.degrees[v]
    }

    /// The raw degree slice.
    pub fn degrees(&self) -> &[u32] {
        &self.degrees
    }

    /// Whether the paper classifies this graph as *sparse*
    /// (average degree ≤ 8, §VI-C).
    pub fn is_sparse(&self) -> bool {
        self.avg_degree() <= 8.0
    }

    /// Vertex ids sorted by descending degree (ties broken by ascending
    /// id, so the order is deterministic).
    pub fn vertices_by_degree_desc(&self) -> Vec<u32> {
        let n = self.degrees.len();
        let max = self.degrees.iter().copied().max().unwrap_or(0) as usize;
        if max > n {
            // Counting buckets would outgrow the profile itself.
            let mut ids: Vec<u32> = (0..n as u32).collect();
            ids.sort_by(|&a, &b| {
                self.degrees[b as usize]
                    .cmp(&self.degrees[a as usize])
                    .then(a.cmp(&b))
            });
            return ids;
        }
        // Stable counting sort: bucket `max - d` holds degree d, so bucket
        // 0 is the highest degree; placing ids in ascending order keeps
        // them ascending within each bucket.
        let mut next = vec![0usize; max + 1];
        for &d in &self.degrees {
            next[max - d as usize] += 1;
        }
        let mut offset = 0;
        for slot in &mut next {
            let count = *slot;
            *slot = offset;
            offset += count;
        }
        let mut ids = vec![0u32; n];
        for (v, &d) in self.degrees.iter().enumerate() {
            let slot = &mut next[max - d as usize];
            ids[*slot] = v as u32;
            *slot += 1;
        }
        ids
    }

    /// Summary statistics.
    pub fn stats(&self) -> DegreeStats {
        if self.degrees.is_empty() {
            return DegreeStats {
                min: 0,
                max: 0,
                mean: 0.0,
                std_dev: 0.0,
            };
        }
        let min = self.degrees.iter().min().copied().unwrap_or(0);
        let max = self.degrees.iter().max().copied().unwrap_or(0);
        let mean = self.avg_degree();
        let var = self
            .degrees
            .iter()
            .map(|&d| {
                let diff = f64::from(d) - mean;
                diff * diff
            })
            .sum::<f64>()
            / self.degrees.len() as f64;
        DegreeStats {
            min,
            max,
            mean,
            std_dev: var.sqrt(),
        }
    }
}

impl gopim_cache::CanonicalHash for DegreeProfile {
    fn canonical_hash(&self, h: &mut gopim_cache::CanonicalHasher) {
        h.write_tag("graph.degree_profile/v1");
        let degrees = self.degrees();
        h.write_u64(degrees.len() as u64);
        for &d in degrees {
            h.write_u32(d);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_on_simple_sequence() {
        let p = DegreeProfile::from_degrees(vec![1, 2, 3, 4]);
        let s = p.stats();
        assert_eq!(s.min, 1);
        assert_eq!(s.max, 4);
        assert!((s.mean - 2.5).abs() < 1e-12);
        assert!((s.std_dev - (1.25f64).sqrt()).abs() < 1e-12);
    }

    #[test]
    fn empty_profile_has_zero_stats() {
        let p = DegreeProfile::from_degrees(vec![]);
        assert_eq!(p.avg_degree(), 0.0);
        assert_eq!(p.stats().max, 0);
    }

    #[test]
    fn sparse_classification_uses_threshold_eight() {
        assert!(DegreeProfile::from_degrees(vec![8, 8]).is_sparse());
        assert!(!DegreeProfile::from_degrees(vec![8, 9]).is_sparse());
    }

    #[test]
    fn degree_ranking_is_descending_and_deterministic() {
        let p = DegreeProfile::from_degrees(vec![5, 9, 9, 1]);
        assert_eq!(p.vertices_by_degree_desc(), vec![1, 2, 0, 3]);
    }

    #[test]
    fn edge_count_is_half_total_degree() {
        let p = DegreeProfile::from_degrees(vec![3, 3, 2]);
        assert_eq!(p.num_edges(), 4);
    }
}
