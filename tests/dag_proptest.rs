//! Property tests on the DAG IR and SCORE over *random* DAGs: the adjacency
//! index and reachability agree with edge-list scans, transitivity detection
//! agrees with brute force, Algorithm 2 matches a per-edge reference and its
//! totals are consistent, every scheduler preset emits valid schedules, and
//! CELLO's traffic never exceeds the op-by-op oracle's.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule, ScheduleOptions};
use cello::core::score::classify::{classify, Classification, Dependency};
use cello::graph::dag::{EdgeId, NodeId, TensorDag};
use cello::graph::edge::TensorMeta;
use cello::graph::metrics::metrics;
use cello::graph::node::{Dominance, OpKind};
use cello::sim::baselines::{run_config, ConfigKind};
use cello::tensor::einsum::EinsumSpec;
use cello::tensor::shape::{RankExtent, RankId};
use proptest::prelude::*;

/// Three node flavors with distinct dominance.
fn spec(flavor: u8) -> EinsumSpec {
    match flavor % 3 {
        0 => EinsumSpec::from_parts(
            // uncontracted dominant (skewed update)
            vec![
                vec![RankId::new("m"), RankId::new("j")],
                vec![RankId::new("j"), RankId::new("n")],
            ],
            vec![RankId::new("m"), RankId::new("n")],
            &[
                RankExtent::dense("m", 50_000),
                RankExtent::dense("j", 16),
                RankExtent::dense("n", 16),
            ],
        ),
        1 => EinsumSpec::from_parts(
            // contracted dominant
            vec![
                vec![RankId::new("k"), RankId::new("p")],
                vec![RankId::new("k"), RankId::new("n")],
            ],
            vec![RankId::new("p"), RankId::new("n")],
            &[
                RankExtent::dense("k", 50_000),
                RankExtent::dense("p", 16),
                RankExtent::dense("n", 16),
            ],
        ),
        _ => EinsumSpec::parse(
            // balanced
            "mk,kn->mn",
            &[
                RankExtent::dense("m", 512),
                RankExtent::dense("k", 512),
                RankExtent::dense("n", 512),
            ],
        ),
    }
}

/// Edge rank sets: `EDGE_RANKS[f % 3]` is flavor `f`'s natural consumer
/// view, which shares its dominant rank; the last shares no flavor's.
const EDGE_RANKS: [&[&str]; 4] = [&["m", "j"], &["k", "n"], &["m", "k"], &["j", "n"]];

fn dst_ranks(flavor: u8) -> &'static [&'static str] {
    EDGE_RANKS[usize::from(flavor % 3)]
}

/// Builds a random DAG from (flavors, edge pairs); every edge carries its
/// consumer flavor's natural ranks, so every consumer shares its dominant
/// rank with its inputs.
fn build(flavors: &[u8], raw_edges: &[(usize, usize)]) -> TensorDag {
    build_with(flavors, raw_edges, |_, dst| dst_ranks(flavors[dst]))
}

/// Builds a random DAG from (flavors, edge pairs); `ranks(i, dst)` gives the
/// ranks raw edge `i` carries at its consumer `dst`.
fn build_with(
    flavors: &[u8],
    raw_edges: &[(usize, usize)],
    ranks: impl Fn(usize, usize) -> &'static [&'static str],
) -> TensorDag {
    let mut dag = TensorDag::new();
    for (i, &f) in flavors.iter().enumerate() {
        let words = match f % 3 {
            0 => 50_000 * 16,
            1 => 256,
            _ => 512 * 512,
        };
        dag.add_op(
            format!("op{i}"),
            spec(f),
            if f % 5 == 4 {
                OpKind::Inverse
            } else {
                OpKind::TensorMac
            },
            TensorMeta::dense(format!("T{i}"), &["m", "n"], words),
        );
    }
    let n = flavors.len();
    let mut seen = std::collections::HashSet::new();
    for (i, &(a, b)) in raw_edges.iter().enumerate() {
        let (src, dst) = (a % n, b % n);
        if src < dst && seen.insert((src, dst)) {
            dag.add_edge(NodeId(src), NodeId(dst), ranks(i, dst));
        }
    }
    dag
}

/// Reachability by a DFS that scans the whole edge list at every step.
fn reachable_by_scan(dag: &TensorDag, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; dag.node_count()];
    let mut stack = vec![from.0];
    while let Some(u) = stack.pop() {
        for (_, e) in dag.edges().filter(|(_, e)| e.src == u) {
            if e.dst == to.0 {
                return true;
            }
            if !seen[e.dst] {
                seen[e.dst] = true;
                stack.push(e.dst);
            }
        }
    }
    false
}

/// Algorithm 2 the slow way: per-pair `longest_path` queries for every edge
/// and dominant ranks re-derived at every use. `classify` answers all of an
/// edge's queries from one pass per source and must agree field for field.
fn classify_reference(dag: &TensorDag) -> Classification {
    let shares = |src: NodeId, consumer: NodeId| -> bool {
        let dominant = dag.node(consumer).spec.dominant().rank;
        dag.edges()
            .find(|(_, e)| e.src == src.0 && e.dst == consumer.0)
            .is_none_or(|(_, e)| e.shares_rank(dominant))
    };
    let mut deps = vec![Dependency::Sequential; dag.edge_count()];
    let mut transitive = vec![false; dag.edge_count()];
    let mut numcast = vec![0u32; dag.node_count()];
    for (eid, edge) in dag.edges() {
        let (src, dst) = (NodeId(edge.src), NodeId(edge.dst));
        let node = dag.node(src);
        let path = dag.longest_path(src, dst).expect("an edge is a path");
        let is_trans = path.len() > 2;
        transitive[eid.0] = is_trans;
        numcast[src.0] += u32::from(!is_trans);
        let contracted = node.dominance == Dominance::Contracted;
        let next_shared = shares(src, path[1]);
        let mut dep = if !contracted && !is_trans && next_shared {
            Dependency::Pipelineable
        } else {
            Dependency::Sequential
        };
        if contracted
            || node.kind != OpKind::TensorMac
            || !edge.shares_rank(dag.node(dst).spec.dominant().rank)
        {
            dep = Dependency::Sequential;
        }
        if !contracted && is_trans && next_shared {
            let writeback = (1..path.len() - 1).any(|w| {
                dag.node(path[w]).dominance == Dominance::Contracted
                    || !shares(path[w], path[w + 1])
            });
            dep = if writeback {
                Dependency::DelayedWriteback
            } else {
                Dependency::DelayedHold
            };
        }
        deps[eid.0] = dep;
    }
    Classification {
        deps,
        transitive,
        parallel_multicast: numcast.iter().map(|&c| c > 1).collect(),
        numcast,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The adjacency index lists exactly the edges a scan of `edges()`
    /// finds, in `EdgeId` order.
    #[test]
    fn adjacency_index_matches_edge_scan(
        flavors in proptest::collection::vec(0u8..15, 2..12),
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let dag = build(&flavors, &edges);
        for (nid, _) in dag.nodes() {
            let outs: Vec<EdgeId> = dag.edges()
                .filter(|(_, e)| e.src == nid.0).map(|(id, _)| id).collect();
            let ins: Vec<EdgeId> = dag.edges()
                .filter(|(_, e)| e.dst == nid.0).map(|(id, _)| id).collect();
            prop_assert_eq!(dag.out_edges(nid), outs.as_slice());
            prop_assert_eq!(dag.in_edges(nid), ins.as_slice());
        }
    }

    /// `reachable` agrees with a DFS over edge-list scans on every pair.
    #[test]
    fn reachability_matches_scan_dfs(
        flavors in proptest::collection::vec(0u8..15, 2..12),
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let dag = build(&flavors, &edges);
        for (a, _) in dag.nodes() {
            for (b, _) in dag.nodes() {
                let expect = a != b && reachable_by_scan(&dag, a, b);
                prop_assert_eq!(dag.reachable(a, b), expect, "{:?} -> {:?}", a, b);
            }
        }
    }

    /// Algorithm 2 with one longest-path pass per source matches the
    /// per-edge reference on every field. Edge ranks are drawn at random,
    /// so shared and unshared consumers (Rules 1, 3 and 4) both occur.
    #[test]
    fn classify_matches_per_edge_reference(
        flavors in proptest::collection::vec(0u8..15, 2..12),
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
        picks in proptest::collection::vec(0usize..4, 30),
    ) {
        let dag = build_with(&flavors, &edges, |i, _| EDGE_RANKS[picks[i]]);
        let got = classify(&dag);
        let want = classify_reference(&dag);
        prop_assert_eq!(got.deps, want.deps);
        prop_assert_eq!(got.transitive, want.transitive);
        prop_assert_eq!(got.numcast, want.numcast);
        prop_assert_eq!(got.parallel_multicast, want.parallel_multicast);
    }

    /// Longest-path transitivity detection matches brute-force path search.
    #[test]
    fn transitivity_matches_bruteforce(
        flavors in proptest::collection::vec(0u8..15, 2..12),
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let dag = build(&flavors, &edges);
        for (eid, _) in dag.edges() {
            prop_assert_eq!(
                dag.edge_is_transitive(eid),
                dag.edge_is_transitive_bruteforce(eid),
                "edge {:?}", eid
            );
        }
    }

    /// `metrics` counts exactly the edges the brute-force path search
    /// finds transitive.
    #[test]
    fn metrics_transitive_count_matches_bruteforce(
        flavors in proptest::collection::vec(0u8..15, 2..12),
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let dag = build(&flavors, &edges);
        let want = dag
            .edges()
            .filter(|&(id, _)| dag.edge_is_transitive_bruteforce(id))
            .count();
        prop_assert_eq!(metrics(&dag).transitive_edges, want);
    }

    /// Algorithm 2 assigns every edge exactly one dependency; numcast counts
    /// non-transitive out-edges; multicast ⇔ numcast > 1.
    #[test]
    fn classification_totals(
        flavors in proptest::collection::vec(0u8..15, 2..12),
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let dag = build(&flavors, &edges);
        let cls = classify(&dag);
        prop_assert_eq!(cls.histogram().iter().sum::<usize>(), dag.edge_count());
        for (nid, _) in dag.nodes() {
            let non_trans = dag.out_edges(nid).iter()
                .filter(|&&e| !cls.transitive[e.0]).count() as u32;
            prop_assert_eq!(cls.numcast[nid.0], non_trans);
            prop_assert_eq!(cls.parallel_multicast[nid.0], non_trans > 1);
        }
    }

    /// Every scheduler preset yields a validating schedule on random DAGs.
    #[test]
    fn schedules_always_validate(
        flavors in proptest::collection::vec(0u8..15, 2..12),
        edges in proptest::collection::vec((0usize..12, 0usize..12), 0..30),
    ) {
        let dag = build(&flavors, &edges);
        for opts in [
            ScheduleOptions::best_intra(),
            ScheduleOptions::flat(),
            ScheduleOptions::set_like(),
            ScheduleOptions::prelude_only(),
            ScheduleOptions::cello(),
        ] {
            let s = build_schedule(&dag, opts);
            prop_assert!(s.validate(&dag).is_ok(), "{:?}", opts);
            // Every node scheduled exactly once.
            let total: usize = s.phases.iter().map(|p| p.ops.len()).sum();
            prop_assert_eq!(total, dag.node_count());
        }
    }

    /// On arbitrary DAGs, CELLO's DRAM traffic never exceeds the op-by-op
    /// oracle's, and FLAT's never exceeds it either.
    #[test]
    fn traffic_ordering_on_random_dags(
        flavors in proptest::collection::vec(0u8..15, 2..10),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..24),
    ) {
        let dag = build(&flavors, &edges);
        let accel = CelloConfig::paper();
        let oracle = run_config(&dag, ConfigKind::Flexagon, &accel, "prop");
        let flat = run_config(&dag, ConfigKind::Flat, &accel, "prop");
        let cello = run_config(&dag, ConfigKind::Cello, &accel, "prop");
        prop_assert!(flat.dram_bytes <= oracle.dram_bytes);
        prop_assert!(cello.dram_bytes <= oracle.dram_bytes);
    }

    /// Terminal outputs always reach DRAM: traffic is at least the terminal
    /// footprint under every configuration.
    #[test]
    fn terminals_always_written(
        flavors in proptest::collection::vec(0u8..15, 2..10),
        edges in proptest::collection::vec((0usize..10, 0usize..10), 0..24),
    ) {
        let dag = build(&flavors, &edges);
        let accel = CelloConfig::paper();
        let wb = accel.word_bytes as u64;
        let term_bytes: u64 = dag
            .nodes()
            .filter(|(id, _)| dag.out_edges(*id).is_empty())
            .map(|(_, n)| n.output.words * wb)
            .sum();
        for kind in [ConfigKind::Flexagon, ConfigKind::Cello] {
            let r = run_config(&dag, kind, &accel, "prop");
            prop_assert!(
                r.stats.dram_write_bytes >= term_bytes,
                "{}: wrote {} < terminals {}",
                kind.label(), r.stats.dram_write_bytes, term_bytes
            );
        }
    }
}
