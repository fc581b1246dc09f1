//! Property tests for the DSE engine (`cello-search`): determinism of the
//! Pareto front under a fixed seed, the guarantee that tuning never loses
//! to the `ScheduleOptions::cello()` paper heuristic on the toy
//! chain/diamond DAGs, soundness of the tier-0 symbolic prune (it
//! never discards the sim-optimal candidate on exhaustively-coverable
//! spaces), and equivalence of the tier-0 front's O(1) scalar-bar
//! rejection with the plain admit-then-evict loop.

use cello::core::accel::CelloConfig;
use cello::core::score::binding::{build_schedule, ScheduleOptions};
use cello::graph::dag::TensorDag;
use cello::graph::edge::TensorMeta;
use cello::graph::node::OpKind;
use cello::search::{SearchSpace, Sketch, SpaceConfig, Strategy, Tier0Model, Tuner};
use cello::sim::evaluate::evaluate_schedule;
use cello::tensor::einsum::EinsumSpec;
use cello::tensor::shape::RankExtent;
use cello::workloads::cg::{build_cg_dag, CgParams};
use cello::workloads::datasets::G2_CIRCUIT;
use proptest::prelude::*;
use proptest::Strategy as _;

fn spec(m: u64) -> EinsumSpec {
    EinsumSpec::parse(
        "mk,kn->mn",
        &[
            RankExtent::dense("m", m),
            RankExtent::dense("k", 16),
            RankExtent::dense("n", 16),
        ],
    )
}

/// Linear producer→consumer chain of `n_ops` big tensors.
fn chain(n_ops: usize, m: u64) -> TensorDag {
    let mut dag = TensorDag::new();
    let mut prev = None;
    for i in 0..n_ops {
        let id = dag.add_op(
            format!("op{i}"),
            spec(m),
            OpKind::TensorMac,
            TensorMeta::dense(format!("T{i}"), &["m", "n"], m * 16),
        );
        if let Some(p) = prev {
            dag.add_edge(p, id, &["m", "k"]);
        } else {
            dag.add_external(
                TensorMeta::dense("In", &["m", "k"], m * 16),
                &[(id, &["m", "k"])],
            );
        }
        prev = Some(id);
    }
    dag
}

/// Diamond: one producer multicasting to `fanout` consumers, all joined.
fn diamond(fanout: usize, m: u64) -> TensorDag {
    let mut dag = TensorDag::new();
    let p = dag.add_op(
        "p",
        spec(m),
        OpKind::TensorMac,
        TensorMeta::dense("T0", &["m", "n"], m * 16),
    );
    let mut mids = Vec::new();
    for i in 0..fanout {
        let c = dag.add_op(
            format!("c{i}"),
            spec(m),
            OpKind::TensorMac,
            TensorMeta::dense(format!("M{i}"), &["m", "n"], m * 16),
        );
        dag.add_edge(p, c, &["m", "k"]);
        mids.push(c);
    }
    let join = dag.add_op(
        "join",
        spec(m),
        OpKind::TensorMac,
        TensorMeta::dense("Out", &["m", "n"], m * 16),
    );
    for c in mids {
        dag.add_edge(c, join, &["m", "k"]);
    }
    dag.add_external(
        TensorMeta::dense("In", &["m", "k"], m * 16),
        &[(p, &["m", "k"])],
    );
    dag
}

fn small_cfg() -> SpaceConfig {
    SpaceConfig {
        max_cut_points: 2,
        max_steer_tensors: 2,
        max_loop_order_nodes: 1,
        pipeline_words_choices: vec![65_536, 16_384],
        rf_words_choices: vec![16_384],
        node_choices: vec![1],
        max_chord_bias_tensors: 0,
        chord_bias_magnitudes: vec![1],
        repartition_profiles: Vec::new(),
        transfer_menu: Vec::new(),
        overbook_menu: Vec::new(),
    }
}

/// Heuristic cycles through the same evaluator the search uses.
fn heuristic_cycles(dag: &TensorDag, accel: &CelloConfig) -> u64 {
    let schedule = build_schedule(dag, ScheduleOptions::cello());
    evaluate_schedule(dag, &schedule, accel).cycles
}

/// The assignment stream `Tier0Model::prune` walks: the odometer when the
/// budget covers the space, the seeded sample otherwise.
fn sweep_stream(space: &SearchSpace, budget: u64, seed: u64) -> Vec<Vec<usize>> {
    let budget = budget.max(1);
    let total = space.exhaustive_size();
    if total <= budget {
        (0..total).map(|i| space.index_to_picks(i)).collect()
    } else {
        space.sample_assignments(budget as usize, seed)
    }
}

/// The tier-0 front without the scalar bar: for each assignment in turn,
/// drop it if a survivor's sketch dominates it, else drop the survivors it
/// dominates, admit it, and past `keep` evict the largest
/// `(scalar, admission order)`. Survivors' picks in admission order.
fn reference_front(model: &Tier0Model, stream: &[Vec<usize>], keep: usize) -> Vec<Vec<usize>> {
    let keep = keep.max(1);
    let mut kept: Vec<(Sketch, usize, &[usize])> = Vec::new();
    for (order, picks) in stream.iter().enumerate() {
        let sketch = model.sketch(picks);
        if kept.iter().any(|(k, _, _)| k.dominates(&sketch)) {
            continue;
        }
        kept.retain(|(k, _, _)| !sketch.dominates(k));
        kept.push((sketch, order, picks));
        if kept.len() > keep {
            let worst = (0..kept.len())
                .max_by_key(|&i| (kept[i].0.scalar(), kept[i].1))
                .unwrap();
            kept.remove(worst);
        }
    }
    kept.into_iter()
        .map(|(_, _, picks)| picks.to_vec())
        .collect()
}

/// `prune` keeps exactly the reference front's survivors, in order, at
/// `budget` and — in the sampled regime, where a smaller budget walks a
/// prefix of the same stream — at every budget up to `prefixes`, so a
/// divergence the later sweep would heal still shows.
fn assert_prune_matches_reference(
    dag: &TensorDag,
    cfg: &SpaceConfig,
    budget: u64,
    keep: usize,
    seed: u64,
    prefixes: u64,
) -> Result<(), TestCaseError> {
    let space = SearchSpace::from_dag(dag, cfg);
    let model = Tier0Model::new(dag, &CelloConfig::paper(), &space);
    let stream = sweep_stream(&space, budget, seed);
    let sampled = (stream.len() as u64) < space.exhaustive_size();
    let shorter = if sampled {
        1..prefixes.min(budget)
    } else {
        0..0
    };
    for b in shorter.chain([budget]) {
        let got = model.prune(&space, b, keep, seed);
        let walked = &stream[..stream.len().min(b as usize)];
        prop_assert_eq!(got.swept, walked.len() as u64);
        let want = reference_front(&model, walked, keep);
        prop_assert_eq!(
            got.kept,
            want,
            "budget {} keep {} seed {:#x}",
            b,
            keep,
            seed
        );
    }
    Ok(())
}

/// The benchmark's widest tier-0 sweep: G2_circuit CG over the widened
/// `{1, 4, 16, 64}`-node space, sampled at the quick trajectory's budget
/// and keep cap.
#[test]
fn tier0_prune_matches_reference_on_g2_circuit() {
    let dag = build_cg_dag(&CgParams::from_dataset(&G2_CIRCUIT, 16, 5));
    let cfg = SpaceConfig::widened_with_nodes(&[1, 4, 16, 64]);
    assert!(SearchSpace::from_dag(&dag, &cfg).exhaustive_size() > 49_152);
    assert_prune_matches_reference(&dag, &cfg, 49_152, 96, 0x7E40, 0).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Same seed + same DAG ⇒ bit-identical Pareto front (keys and costs),
    /// across two completely fresh tuners.
    #[test]
    fn random_search_is_deterministic(
        n_ops in 2usize..6,
        m in 10_000u64..200_000,
        seed in 0u64..1_000,
    ) {
        let dag = chain(n_ops, m);
        let accel = CelloConfig::paper();
        let run = || {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let out = tuner.tune(&Strategy::Random { samples: 24, seed });
            out.pareto
                .iter()
                .map(|e| (e.key, e.cost.cycles, e.cost.dram_bytes))
                .collect::<Vec<_>>()
        };
        prop_assert_eq!(run(), run());
    }

    /// Beam search is deterministic too (no seed at all — ties break on the
    /// canonical schedule key).
    #[test]
    fn beam_search_is_deterministic(
        fanout in 2usize..5,
        m in 10_000u64..200_000,
    ) {
        let dag = diamond(fanout, m);
        let accel = CelloConfig::paper();
        let run = || {
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let out = tuner.tune(&Strategy::Beam { width: 3 });
            (
                out.best_cycles.key,
                out.pareto.iter().map(|e| e.key).collect::<Vec<_>>(),
                out.evaluations,
            )
        };
        prop_assert_eq!(run(), run());
    }

    /// On chain DAGs the tuned schedule is never worse than the paper
    /// heuristic on cycles, under every strategy.
    #[test]
    fn tuned_never_worse_than_cello_on_chains(
        n_ops in 2usize..7,
        m in 10_000u64..500_000,
        seed in 0u64..100,
    ) {
        let dag = chain(n_ops, m);
        let accel = CelloConfig::paper();
        let base = heuristic_cycles(&dag, &accel);
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        for strategy in [
            Strategy::Beam { width: 3 },
            Strategy::Random { samples: 16, seed },
            Strategy::Exhaustive,
        ] {
            let out = tuner.tune(&strategy);
            prop_assert_eq!(out.baseline.cost.cycles, base, "baseline == heuristic");
            prop_assert!(
                out.best_cycles.cost.cycles <= base,
                "{:?}: tuned {} vs heuristic {}",
                strategy, out.best_cycles.cost.cycles, base
            );
        }
    }

    /// Tier-0's symbolic dominance prune is *sound* when its budget and
    /// keep cap cover the whole space: everything it discards is
    /// sketch-dominated by a survivor, and on these spaces that never
    /// loses the sim-optimal schedule — the funnel's rank-best cost equals
    /// exhaustive enumeration's on every objective, for both DAG shapes.
    #[test]
    fn tier0_never_discards_the_sim_optimum(
        n_ops in 2usize..5,
        fanout in 2usize..4,
        m in 10_000u64..300_000,
    ) {
        for dag in [chain(n_ops, m), diamond(fanout, m)] {
            let accel = CelloConfig::paper();
            let ex = Tuner::new(&dag, &accel, small_cfg()).tune(&Strategy::Exhaustive);
            let tuner = Tuner::new(&dag, &accel, small_cfg());
            let budget = tuner.space().exhaustive_size();
            let t0 = tuner.tune(&Strategy::Tier0 {
                budget,
                keep: usize::MAX >> 1,
            });
            prop_assert!(
                t0.candidates_seen >= ex.candidates_seen,
                "tier-0 swept the whole space ({} vs {})",
                t0.candidates_seen, ex.candidates_seen
            );
            prop_assert!(
                t0.evaluations <= ex.evaluations,
                "the prune must not add evaluations"
            );
            prop_assert_eq!(
                t0.best_cycles.cost, ex.best_cycles.cost,
                "rank-best must survive the symbolic prune"
            );
            prop_assert_eq!(
                t0.best_traffic.cost.total_traffic_bytes(),
                ex.best_traffic.cost.total_traffic_bytes(),
                "traffic-best must survive the symbolic prune"
            );
        }
    }

    /// Same guarantee on diamond DAGs.
    #[test]
    fn tuned_never_worse_than_cello_on_diamonds(
        fanout in 2usize..5,
        m in 10_000u64..500_000,
        seed in 0u64..100,
    ) {
        let dag = diamond(fanout, m);
        let accel = CelloConfig::paper();
        let base = heuristic_cycles(&dag, &accel);
        let tuner = Tuner::new(&dag, &accel, small_cfg());
        for strategy in [
            Strategy::Beam { width: 3 },
            Strategy::Random { samples: 16, seed },
        ] {
            let out = tuner.tune(&strategy);
            prop_assert!(
                out.best_cycles.cost.cycles <= base,
                "{:?}: tuned {} vs heuristic {}",
                strategy, out.best_cycles.cost.cycles, base
            );
            // And the Pareto front never contains a point dominated by the
            // baseline (the baseline is in the comparison set).
            for e in &out.pareto {
                prop_assert!(!out.baseline.cost.dominates(&e.cost), "{}", e.key.hex());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The bar-guarded front keeps exactly what the plain admit-then-evict
    /// loop keeps — same picks, same order — on chain and diamond DAGs, in
    /// the exhaustive and the sampled regime, with a cap of one, a small
    /// cap, and no cap.
    #[test]
    fn tier0_prune_matches_reference_front(
        diamond_shape in any::<bool>(),
        size in 2usize..5,
        m in 10_000u64..300_000,
        exhaustive in any::<bool>(),
        budget in 1u64..3_000,
        keep in (0u8..4, 2usize..16).prop_map(|(kind, small)| match kind {
            0 => 1,
            3 => usize::MAX >> 1,
            _ => small,
        }),
        seed in any::<u64>(),
    ) {
        let dag = if diamond_shape { diamond(size, m) } else { chain(size + 1, m) };
        // The small space is walked whole; the widened multi-node one is
        // far larger than any budget drawn here, so it is sampled.
        let (cfg, budget) = if exhaustive {
            let cfg = small_cfg();
            let total = SearchSpace::from_dag(&dag, &cfg).exhaustive_size();
            (cfg, total + budget % 3)
        } else {
            (SpaceConfig::widened_with_nodes(&[1, 4]), budget)
        };
        assert_prune_matches_reference(&dag, &cfg, budget, keep, seed, 512)?;
    }
}
