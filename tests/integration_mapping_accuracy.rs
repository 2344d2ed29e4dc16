//! Mapping ↔ accuracy integration: ISU's interleaved mapping must
//! balance real generated graphs, and its staleness semantics must keep
//! numeric GCN accuracy close to full updating at the adaptive θ.

use gopim_gcn::train::{train_gcn, TrainOptions};
use gopim_graph::datasets::Dataset;
use gopim_mapping::{
    adaptive_theta, index_based, interleaved, update_load, SelectivePolicy, DENSE_THETA,
    SPARSE_THETA,
};
use gopim_testkit::prop::{check_with, Config, Draw};

#[test]
fn interleaving_beats_index_mapping_on_all_real_profiles() {
    for dataset in [Dataset::Ddi, Dataset::Collab, Dataset::Arxiv, Dataset::Cora] {
        let profile = dataset.profile(7);
        let policy = SelectivePolicy::with_theta(adaptive_theta(&profile), 20);
        let mask = policy.important_vertices(&profile);
        let osu = update_load(&index_based(profile.num_vertices(), 64), &mask);
        let isu = update_load(&interleaved(&profile, 64), &mask);
        assert!(
            isu.max_rows_per_group < osu.max_rows_per_group,
            "{dataset}: isu {} vs osu {}",
            isu.max_rows_per_group,
            osu.max_rows_per_group
        );
        // Same total work, different balance.
        assert_eq!(isu.total_rows, osu.total_rows, "{dataset}");
    }
}

#[test]
fn adaptive_theta_keeps_accuracy_on_dense_and_sparse_stand_ins() {
    for (dataset, n) in [(Dataset::Ddi, 300), (Dataset::Cora, 300)] {
        let (graph, labels) = dataset.numeric_graph(n, 9);
        let profile = graph.to_degree_profile();
        let policy = SelectivePolicy::adaptive(&profile);

        let mut opts = TrainOptions::quick_test();
        opts.epochs = 40;
        let vanilla = train_gcn(&graph, &labels, &opts);
        opts.selective = Some(policy);
        let isu = train_gcn(&graph, &labels, &opts);
        assert!(
            vanilla.test_accuracy - isu.test_accuracy < 0.12,
            "{dataset}: vanilla {} vs isu {}",
            vanilla.test_accuracy,
            isu.test_accuracy
        );
    }
}

#[test]
fn staleness_refresh_period_matters_more_on_sparse_graphs() {
    // Cora-like sparse graph, very low θ: the sparse rule (80 %) should
    // do no worse than an aggressive 20 % threshold.
    let (graph, labels) = Dataset::Cora.numeric_graph(300, 4);
    let mut opts = TrainOptions::quick_test();
    opts.epochs = 40;
    opts.selective = Some(SelectivePolicy::with_theta(0.8, 20));
    let safe = train_gcn(&graph, &labels, &opts);
    opts.selective = Some(SelectivePolicy::with_theta(0.2, 20));
    let aggressive = train_gcn(&graph, &labels, &opts);
    assert!(
        safe.test_accuracy >= aggressive.test_accuracy - 0.05,
        "safe {} vs aggressive {}",
        safe.test_accuracy,
        aggressive.test_accuracy
    );
}

#[test]
fn adaptive_theta_follows_the_papers_density_rule() {
    // §IV-B: dense graphs update a small important set every epoch
    // (θ = 50 %), sparse graphs must keep most rows fresh (θ = 80 %).
    // ddi (avg degree 500.5) is dense; Cora (3.9) is sparse.
    assert_eq!(adaptive_theta(&Dataset::Ddi.profile(7)), DENSE_THETA);
    assert_eq!(adaptive_theta(&Dataset::Cora.profile(7)), SPARSE_THETA);
    const { assert!(SPARSE_THETA > DENSE_THETA) };
}

#[test]
fn interleaved_mapping_is_always_valid_and_balanced() {
    check_with(
        "interleaved_mapping_is_always_valid_and_balanced",
        Config::cases(16),
        |d: &mut Draw| {
            let n = d.draw("n", 65usize..2000);
            let avg = d.draw("avg", 2.0f64..60.0);
            let theta = d.draw("theta", 0.1f64..1.0);
            let profile = gopim_graph::generate::power_law_profile(n, avg, 0.8, 0.9, 3);
            let mapping = interleaved(&profile, 64);
            assert!(mapping.validate().is_ok());

            let policy = SelectivePolicy::with_theta(theta, 20);
            let mask = policy.important_vertices(&profile);
            let load = update_load(&mapping, &mask);
            let selected = mask.iter().filter(|&&m| m).count();
            let groups = mapping.num_groups();
            // Balance: the max-loaded group holds at most ⌈selected/groups⌉
            // + 1 selected rows.
            let fair = selected.div_ceil(groups) + 1;
            assert!(
                load.max_rows_per_group <= fair,
                "max {} vs fair {}",
                load.max_rows_per_group,
                fair
            );
        },
    );
}
