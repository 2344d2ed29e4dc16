//! Property-based tests for the graph substrate (gopim-testkit).

use gopim_graph::generate::{chung_lu, erdos_renyi, planted_partition, power_law_profile};
use gopim_graph::partition::MicroBatchPlan;
use gopim_graph::{CsrGraph, DegreeProfile};
use gopim_testkit::gen;
use gopim_testkit::prop::{check_with, Config};

#[test]
fn csr_from_arbitrary_edges_is_always_valid() {
    check_with(
        "csr_from_arbitrary_edges_is_always_valid",
        Config::cases(64),
        |d| {
            let (n, edges) = gen::edge_list(d, 64, 200);
            let g = CsrGraph::from_edges(n, &edges);
            assert!(g.validate().is_ok());
            // Handshake lemma.
            let total: usize = (0..n).map(|v| g.degree(v)).sum();
            assert_eq!(total, 2 * g.num_edges());
        },
    );
}

#[test]
fn induced_subgraph_preserves_validity_and_bounds() {
    check_with(
        "induced_subgraph_preserves_validity_and_bounds",
        Config::cases(64),
        |d| {
            let n = d.draw("n", 2usize..48);
            let edges = d.vec("edges", 0usize..120, |d| {
                (d.draw("u", 0..n as u32), d.draw("v", 0..n as u32))
            });
            let g = CsrGraph::from_edges(n, &edges);
            let keep_bits = d.vec("keep_bits", n..n + 1, |d| d.any_bool("bit"));
            let keep: Vec<u32> = (0..n as u32).filter(|&v| keep_bits[v as usize]).collect();
            let sub = g.induced_subgraph(&keep);
            assert!(sub.validate().is_ok());
            assert_eq!(sub.num_vertices(), keep.len());
            assert!(sub.num_edges() <= g.num_edges());
        },
    );
}

#[test]
fn power_law_profile_respects_bounds() {
    check_with(
        "power_law_profile_respects_bounds",
        Config::cases(64),
        |d| {
            let n = d.draw("n", 2usize..5000);
            let avg = d.draw("avg", 1.0f64..100.0).min((n - 1) as f64);
            let exponent = d.draw("exponent", 0.3f64..1.2);
            let locality = d.draw("locality", 0.0f64..1.0);
            let p = power_law_profile(n, avg, exponent, locality, 11);
            assert_eq!(p.num_vertices(), n);
            let s = p.stats();
            assert!(s.min >= 1);
            assert!(u64::from(s.max) <= (n as u64 - 1).min((60.0 * avg) as u64 + 2));
            // Calibration: mean within 15 % (jitter + clamping slack). At
            // tiny n a single rounding flip exceeds any fixed tolerance, so
            // only check once averaging has something to average over.
            if n >= 64 {
                assert!(
                    (s.mean - avg).abs() / avg < 0.15,
                    "mean {} vs {}",
                    s.mean,
                    avg
                );
            }
        },
    );
}

#[test]
fn degree_ranking_is_a_permutation_sorted_by_degree() {
    check_with(
        "degree_ranking_is_a_permutation_sorted_by_degree",
        Config::cases(64),
        |d| {
            // Degree bounds up to 2n: profiles whose max degree exceeds n
            // take the comparison sort, the rest the counting sort; small
            // bounds force many ties.
            let n = d.draw("n", 1usize..300);
            let bound = d.draw("bound", 1u32..2 * n as u32 + 2);
            let degrees = d.vec("degrees", n..n + 1, |d| d.draw("deg", 0..bound));
            let p = DegreeProfile::from_degrees(degrees.clone());
            let ranked = p.vertices_by_degree_desc();
            assert_eq!(ranked.len(), degrees.len());
            let mut seen = vec![false; degrees.len()];
            for w in ranked.windows(2) {
                let (a, b) = (degrees[w[0] as usize], degrees[w[1] as usize]);
                assert!(a > b || (a == b && w[0] < w[1]), "{w:?}: {a} then {b}");
            }
            for &v in &ranked {
                assert!(!seen[v as usize]);
                seen[v as usize] = true;
            }
        },
    );
}

#[test]
fn micro_batch_plan_partitions_exactly() {
    check_with(
        "micro_batch_plan_partitions_exactly",
        Config::cases(64),
        |d| {
            let n = d.draw("n", 0usize..10_000);
            let b = d.draw("b", 1usize..512);
            let plan = MicroBatchPlan::contiguous(n, b);
            let covered: usize = plan.iter().map(|r| r.len()).sum();
            assert_eq!(covered, n);
            for r in plan.iter() {
                assert!(r.len() <= b);
                assert!(!r.is_empty());
            }
        },
    );
}

#[test]
fn generators_produce_valid_graphs() {
    check_with("generators_produce_valid_graphs", Config::cases(64), |d| {
        let n = d.draw("n", 8usize..200);
        let avg = d.draw("avg", 1.0f64..12.0);
        let seed = d.draw("seed", 0u64..50);
        let er = erdos_renyi(n, avg, seed);
        assert!(er.validate().is_ok());
        let (sbm, labels) = planted_partition(n, 2 + (seed as usize % 3), avg, 4.0, seed);
        assert!(sbm.validate().is_ok());
        assert_eq!(labels.len(), n);
        let profile = power_law_profile(n, avg.max(1.0), 0.8, 0.5, seed);
        let cl = chung_lu(&profile, seed);
        assert!(cl.validate().is_ok());
    });
}
