//! Vertex-to-crossbar-group assignment.

use gopim_graph::DegreeProfile;

/// An assignment of every vertex to a crossbar group (one group = the
/// set of wordlines of one crossbar holding vertex features).
///
/// Invariant: every vertex id `0..num_vertices` appears in exactly one
/// group, and no group exceeds `capacity`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct VertexMapping {
    groups: Vec<Vec<u32>>,
    capacity: usize,
    num_vertices: usize,
}

/// Per-group degree summary used by the paper's Fig. 6 analysis.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GroupDegreeSummary {
    /// Smallest per-group average degree.
    pub min_avg: f64,
    /// Largest per-group average degree.
    pub max_avg: f64,
    /// Mean of the per-group averages.
    pub mean_avg: f64,
}

impl VertexMapping {
    pub(crate) fn from_groups(groups: Vec<Vec<u32>>, capacity: usize) -> Self {
        let num_vertices = groups.iter().map(Vec::len).sum();
        VertexMapping {
            groups,
            capacity,
            num_vertices,
        }
    }

    /// The vertex groups, one per crossbar.
    pub fn groups(&self) -> &[Vec<u32>] {
        &self.groups
    }

    /// Number of crossbar groups.
    pub fn num_groups(&self) -> usize {
        self.groups.len()
    }

    /// Crossbar wordline capacity the mapping was built for.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Total vertices mapped.
    pub fn num_vertices(&self) -> usize {
        self.num_vertices
    }

    /// Average vertex degree of each group.
    ///
    /// # Panics
    ///
    /// Panics if `profile` covers fewer vertices than the mapping.
    pub fn group_avg_degrees(&self, profile: &DegreeProfile) -> Vec<f64> {
        self.groups
            .iter()
            .map(|g| {
                if g.is_empty() {
                    return 0.0;
                }
                let sum: u64 = g
                    .iter()
                    .map(|&v| u64::from(profile.degree(v as usize)))
                    .sum();
                sum as f64 / g.len() as f64
            })
            .collect()
    }

    /// Min/max/mean of the per-group average degrees (the quantity the
    /// paper plots in Fig. 6).
    ///
    /// # Panics
    ///
    /// Panics if the mapping is empty or `profile` is too small.
    pub fn degree_summary(&self, profile: &DegreeProfile) -> GroupDegreeSummary {
        let avgs = self.group_avg_degrees(profile);
        assert!(!avgs.is_empty(), "mapping has no groups");
        let min_avg = avgs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max_avg = avgs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let mean_avg = avgs.iter().sum::<f64>() / avgs.len() as f64;
        GroupDegreeSummary {
            min_avg,
            max_avg,
            mean_avg,
        }
    }

    /// Checks the mapping invariants (cover exactly once, capacity).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violation found.
    pub fn validate(&self) -> Result<(), String> {
        let mut seen = vec![false; self.num_vertices];
        for (i, g) in self.groups.iter().enumerate() {
            if g.len() > self.capacity {
                return Err(format!("group {i} exceeds capacity"));
            }
            for &v in g {
                let vu = v as usize;
                if vu >= self.num_vertices {
                    return Err(format!("vertex {v} out of range"));
                }
                if seen[vu] {
                    return Err(format!("vertex {v} mapped twice"));
                }
                seen[vu] = true;
            }
        }
        if let Some(v) = seen.iter().position(|&s| !s) {
            return Err(format!("vertex {v} not mapped"));
        }
        Ok(())
    }
}

/// Crossbar groups a mapping of `num_vertices` vertices uses at
/// `capacity` rows per crossbar: `⌈N / capacity⌉`, under either rule.
///
/// # Panics
///
/// Panics if `capacity == 0`.
#[inline]
pub fn num_groups(num_vertices: usize, capacity: usize) -> usize {
    assert!(capacity > 0, "capacity must be positive");
    num_vertices.div_ceil(capacity)
}

/// The index-based group rule: vertex `v` sits on crossbar
/// `v / capacity`.
#[inline]
pub fn index_group(v: usize, capacity: usize) -> usize {
    v / capacity
}

/// The interleaved group rule: the vertex at position `rank` of the
/// descending-degree ranking sits on crossbar `rank mod num_groups`.
/// Scope `s` is ranks `s·num_groups .. (s+1)·num_groups`, and the
/// `j`-th vertex of every scope goes to crossbar `j`.
#[inline]
pub fn interleaved_group(rank: usize, num_groups: usize) -> usize {
    rank % num_groups
}

/// The empty groups of a mapping of `num_vertices` vertices, each
/// with room for the `capacity` vertices it can hold (at most
/// `num_vertices`).
fn empty_groups(num_vertices: usize, capacity: usize) -> Vec<Vec<u32>> {
    let room = capacity.min(num_vertices);
    (0..num_groups(num_vertices, capacity))
        .map(|_| Vec::with_capacity(room))
        .collect()
}

/// Index-based mapping (the ReGraphX / SlimGNN baseline): vertices in
/// index order, `capacity` per crossbar ([`index_group`]).
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn index_based(num_vertices: usize, capacity: usize) -> VertexMapping {
    let mut groups = empty_groups(num_vertices, capacity);
    for v in 0..num_vertices {
        groups[index_group(v, capacity)].push(v as u32);
    }
    VertexMapping::from_groups(groups, capacity)
}

/// GoPIM's interleaved mapping (§VI-B): sort vertices by degree
/// descending, split the ranking into `capacity` scopes of `⌈N/K⌉`
/// vertices, then deal one vertex of each scope to every crossbar
/// round-robin ([`interleaved_group`]). Every crossbar receives a
/// balanced mix of degree classes.
///
/// # Panics
///
/// Panics if `capacity == 0`.
pub fn interleaved(profile: &DegreeProfile, capacity: usize) -> VertexMapping {
    let mut groups = empty_groups(profile.num_vertices(), capacity);
    let num_groups = groups.len();
    for (rank, &v) in profile.vertices_by_degree_desc().iter().enumerate() {
        groups[interleaved_group(rank, num_groups)].push(v);
    }
    VertexMapping::from_groups(groups, capacity)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn skewed_profile() -> DegreeProfile {
        // First half high-degree, second half low-degree — the index
        // locality of real OGB orderings.
        DegreeProfile::from_degrees((0..64u32).map(|i| if i < 32 { 1000 } else { 2 }).collect())
    }

    #[test]
    fn index_mapping_covers_all_vertices() {
        let m = index_based(100, 16);
        m.validate().unwrap();
        assert_eq!(m.num_groups(), 7);
        assert_eq!(m.groups()[6].len(), 4);
    }

    #[test]
    fn interleaved_mapping_covers_all_vertices() {
        let p = skewed_profile();
        let m = interleaved(&p, 16);
        m.validate().unwrap();
        assert_eq!(m.num_groups(), 4);
        assert!(m.groups().iter().all(|g| g.len() == 16));
    }

    #[test]
    fn index_mapping_is_skewed_on_local_profiles() {
        let p = skewed_profile();
        let m = index_based(p.num_vertices(), 16);
        let s = m.degree_summary(&p);
        assert_eq!(s.min_avg, 2.0);
        assert_eq!(s.max_avg, 1000.0);
    }

    #[test]
    fn interleaved_mapping_balances_degree_mass() {
        let p = skewed_profile();
        let m = interleaved(&p, 16);
        let s = m.degree_summary(&p);
        // Every group should get 8 high + 8 low ⇒ avg 501 everywhere.
        assert!((s.max_avg - s.min_avg).abs() < 1e-9, "{s:?}");
        assert!((s.mean_avg - 501.0).abs() < 1e-9);
    }

    #[test]
    fn interleaved_beats_index_on_balance() {
        let p = DegreeProfile::from_degrees((0..256u32).map(|i| 1 + (i * i) % 977).collect());
        let idx = index_based(p.num_vertices(), 32).degree_summary(&p);
        let ivl = interleaved(&p, 32).degree_summary(&p);
        let spread = |s: &GroupDegreeSummary| s.max_avg - s.min_avg;
        assert!(spread(&ivl) < spread(&idx));
    }

    #[test]
    fn ragged_tail_keeps_groups_within_capacity() {
        let p = DegreeProfile::from_degrees((0..13u32).map(|i| i + 1).collect());
        let m = interleaved(&p, 4);
        m.validate().unwrap();
        assert_eq!(m.num_groups(), 4);
    }

    #[test]
    fn empty_profile_yields_no_groups() {
        let p = DegreeProfile::from_degrees(vec![]);
        assert_eq!(interleaved(&p, 4).num_groups(), 0);
        assert_eq!(index_based(0, 4).num_groups(), 0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        index_based(4, 0);
    }
}
