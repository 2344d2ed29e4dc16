//! Vertex-to-crossbar mapping strategies and selective vertex updating
//! (the paper's §III Challenge 2 and §VI).
//!
//! A GCN's *Aggregation* stage keeps the vertex-feature matrix mapped on
//! crossbars; every feature refresh is a ReRAM write, serial within a
//! crossbar. Which vertices share a crossbar therefore determines the
//! update-time profile:
//!
//! - [`index_based`] mapping (ReGraphX/SlimGNN style) places vertices in
//!   index order — per-crossbar degree averages end up wildly skewed
//!   (paper Fig. 6), so *selective* updating saves little: some crossbar
//!   keeps all its high-degree vertices (paper Fig. 7, "OSU").
//! - [`interleaved`] mapping (GoPIM's ISU, §VI-B) sorts vertices by
//!   degree, splits them into `K` equal scopes and deals one vertex from
//!   each scope to every crossbar round-robin — balancing both degree
//!   mass and the update reduction (paper Fig. 11/12).
//!
//! Each rule is one function of a vertex's id ([`index_group`]) or of
//! its degree rank ([`interleaved_group`]); the mappings above and the
//! pipeline's workload build both apply them, the build without
//! materializing the groups.
//!
//! [`SelectivePolicy`] implements the adaptive-θ updating rule (§VI-C):
//! the top θ of vertices by degree refresh every epoch, the rest every
//! 20 epochs; θ = 50 % for dense graphs, 80 % for sparse ones.
//!
//! # Example: the paper's Fig. 7 / Fig. 12 worked example
//!
//! ```
//! use gopim_graph::DegreeProfile;
//! use gopim_mapping::{index_based, interleaved, SelectivePolicy, update_rows_per_group};
//!
//! let profile = DegreeProfile::from_degrees(vec![300, 500, 250, 450, 2, 15, 10, 1]);
//! let policy = SelectivePolicy::with_theta(0.5, 20);
//! let selected = policy.important_vertices(&profile);
//!
//! // OSU: V1–V4 all land on crossbar 0 ⇒ it still writes 4 rows.
//! let osu = index_based(profile.num_vertices(), 4);
//! assert_eq!(update_rows_per_group(&osu, &selected).iter().max(), Some(&4));
//!
//! // ISU: interleaving spreads them 2 + 2 ⇒ max 2 rows.
//! let isu = interleaved(&profile, 4);
//! assert_eq!(update_rows_per_group(&isu, &selected).iter().max(), Some(&2));
//! ```

#![warn(missing_docs)]

mod mapping;
mod remap;
mod selective;

pub use mapping::{
    index_based, index_group, interleaved, interleaved_group, num_groups, GroupDegreeSummary,
    VertexMapping,
};
pub use remap::{remap_to_spares, stranded_vertices, RemapOutcome};
pub use selective::{
    adaptive_theta, update_load, update_rows_per_group, SelectivePolicy, UpdateLoad, DENSE_THETA,
    SPARSE_THETA, STALE_PERIOD_EPOCHS,
};
