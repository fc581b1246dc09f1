//! Single-threaded replays of `Tuner::tune` through the search crate's
//! public functions, in the tuner's own order, timing every layer: space
//! derivation, tier-0 model and sweep, candidate assembly, SCORE schedule
//! build, schedule-key interning, surrogate scoring and exact simulation.
//!
//! A replay is only trusted when it reproduces the tuner's outcome; the
//! callers compare best key and evaluation counts and fail the run
//! otherwise.

use crate::Metrics;
use cello_core::accel::CelloConfig;
use cello_core::score::binding::Schedule;
use cello_graph::dag::TensorDag;
use cello_search::cost::rank;
use cello_search::{
    surrogate_cost, Candidate, Evaluated, ScheduleKey, SearchSpace, SpaceConfig, Tier0Model,
};
use cello_sim::evaluate::{evaluate_schedule, CostEstimate};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// Per-layer work and time of one replayed tune.
#[derive(Default)]
pub struct Layers {
    derive_ms: f64,
    model_ms: f64,
    sweep_ms: f64,
    swept: u64,
    kept: u64,
    assemble_ms: f64,
    build_ms: f64,
    builds: u64,
    key_ms: f64,
    /// Schedules built where the tuner deduplicates by key, and how many
    /// distinct keys they had.
    deduped: u64,
    distinct: u64,
    surrogate_ms: f64,
    surrogate_scored: u64,
    exact_ms: f64,
    exact_evals: u64,
    total_ms: f64,
}

/// What a replayed tune found.
pub struct Outcome {
    pub best_cycles: Evaluated,
    pub best_traffic: Evaluated,
    pub evaluations: u64,
    pub surrogate_scored: u64,
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// The exact tier with the tuner's memo semantics: each distinct schedule
/// key is simulated once per tune.
struct Exact<'a> {
    dag: &'a TensorDag,
    accel: &'a CelloConfig,
    memo: HashMap<ScheduleKey, CostEstimate>,
}

impl Exact<'_> {
    fn score(&mut self, candidates: Vec<Candidate>, l: &mut Layers) -> Vec<Evaluated> {
        let built = build_and_key(self.dag, candidates, l);
        built
            .into_iter()
            .map(|(candidate, schedule, key)| {
                let cost = *self.memo.entry(key).or_insert_with(|| {
                    let t = Instant::now();
                    let cost = evaluate_schedule(self.dag, &schedule, self.accel);
                    l.exact_ms += ms(t);
                    l.exact_evals += 1;
                    cost
                });
                Evaluated {
                    candidate,
                    key,
                    cost,
                }
            })
            .collect()
    }
}

/// Builds each candidate's schedule (SCORE) and interns its key, timing
/// the two layers separately.
fn build_and_key(
    dag: &TensorDag,
    candidates: Vec<Candidate>,
    l: &mut Layers,
) -> Vec<(Candidate, Schedule, ScheduleKey)> {
    candidates
        .into_iter()
        .map(|c| {
            let t = Instant::now();
            let schedule = c.build(dag);
            l.build_ms += ms(t);
            l.builds += 1;
            let t = Instant::now();
            let key = Candidate::interned_key(&schedule);
            l.key_ms += ms(t);
            (c, schedule, key)
        })
        .collect()
}

/// The tuner's report over the exactly evaluated set: fewest cycles, and
/// fewest total traffic bytes, ties broken by `rank`.
fn outcome(simulated: &[Evaluated], l: &Layers) -> Outcome {
    let best_cycles = simulated.iter().min_by(|a, b| rank(a, b));
    let best_traffic = simulated.iter().min_by(|a, b| {
        a.cost
            .total_traffic_bytes()
            .cmp(&b.cost.total_traffic_bytes())
            .then(rank(a, b))
    });
    Outcome {
        best_cycles: best_cycles.expect("baseline simulated").clone(),
        best_traffic: best_traffic.expect("baseline simulated").clone(),
        evaluations: l.exact_evals,
        surrogate_scored: l.surrogate_scored,
    }
}

fn derive(dag: &TensorDag, cfg: &SpaceConfig, l: &mut Layers) -> SearchSpace {
    let t = Instant::now();
    let space = SearchSpace::from_dag(dag, cfg);
    l.derive_ms = ms(t);
    space
}

/// `Strategy::Prefiltered { keep_frac, inner: Tier0 { budget, keep } }`:
/// tier-0 sweep, surrogate over the survivors, exact over the top
/// `keep_frac` of distinct schedules plus the paper heuristic.
pub fn funnel(
    dag: &TensorDag,
    accel: &CelloConfig,
    cfg: &SpaceConfig,
    (keep_frac, budget, keep, sweep_seed): (f64, u64, usize, u64),
) -> (Layers, Outcome) {
    let mut l = Layers::default();
    let started = Instant::now();
    let space = derive(dag, cfg, &mut l);

    let t = Instant::now();
    let model = Tier0Model::new(dag, accel, &space);
    l.model_ms = ms(t);
    let t = Instant::now();
    let pruned = model.prune(&space, budget, keep, sweep_seed);
    l.sweep_ms = ms(t);
    l.swept = pruned.swept;
    l.kept = pruned.kept.len() as u64;

    // Surrogate tier: the paper heuristic first, then the tier-0 survivors,
    // each distinct schedule scored once.
    let t = Instant::now();
    let baseline = space.assemble(&space.default_picks());
    let mut proposed = vec![baseline.clone()];
    proposed.extend(pruned.kept.iter().map(|p| space.assemble(p)));
    l.assemble_ms = ms(t);
    let built = build_and_key(dag, proposed, &mut l);
    l.deduped = built.len() as u64;
    let mut seen = HashSet::new();
    let distinct: Vec<_> = built
        .into_iter()
        .filter(|(_, _, k)| seen.insert(*k))
        .collect();
    l.distinct = distinct.len() as u64;
    let t = Instant::now();
    let mut uniq: Vec<Evaluated> = distinct
        .into_iter()
        .map(|(candidate, schedule, key)| Evaluated {
            cost: surrogate_cost(dag, &schedule, accel),
            candidate,
            key,
        })
        .collect();
    l.surrogate_ms = ms(t);
    l.surrogate_scored = uniq.len() as u64;

    // The rank cut, then the exact tier: baseline first, then survivors.
    uniq.sort_by(rank);
    let keep = ((keep_frac * uniq.len() as f64).ceil() as usize).clamp(1, uniq.len());
    let mut exact = Exact {
        dag,
        accel,
        memo: HashMap::new(),
    };
    let mut simulated = exact.score(vec![baseline], &mut l);
    let survivors = uniq[..keep].iter().map(|e| e.candidate.clone()).collect();
    simulated.extend(exact.score(survivors, &mut l));
    let out = outcome(&simulated, &l);
    l.total_ms = ms(started);
    (l, out)
}

/// `Strategy::Beam { width }` on the exact tier, unseeded: the paper
/// heuristic, then one decision per level, keeping the `width` best
/// prefixes (ties broken by pool order).
pub fn beam(
    dag: &TensorDag,
    accel: &CelloConfig,
    cfg: &SpaceConfig,
    width: usize,
) -> (Layers, Outcome) {
    let mut l = Layers::default();
    let started = Instant::now();
    let space = derive(dag, cfg, &mut l);
    let mut exact = Exact {
        dag,
        accel,
        memo: HashMap::new(),
    };
    let t = Instant::now();
    let baseline = space.assemble(&space.default_picks());
    let mut beam: Vec<(Vec<usize>, Candidate)> = vec![(Vec::new(), space.assemble(&[]))];
    l.assemble_ms += ms(t);
    let mut all = exact.score(vec![baseline], &mut l);
    for (di, d) in space.decisions.iter().enumerate() {
        let t = Instant::now();
        let mut pool: Vec<(Vec<usize>, Candidate)> = Vec::new();
        let mut members: HashSet<Vec<usize>> = HashSet::new();
        for (prefix, cand) in &beam {
            for choice in 0..d.choices.len() {
                let mut picks = prefix.clone();
                picks.push(choice);
                if members.insert(picks.clone()) {
                    let mut c = cand.clone();
                    space.apply_pick(&mut c, di, choice);
                    pool.push((picks, c));
                }
            }
        }
        l.assemble_ms += ms(t);
        let scored = exact.score(pool.iter().map(|(_, c)| c.clone()).collect(), &mut l);
        let mut ranked: Vec<(usize, &Evaluated)> = scored.iter().enumerate().collect();
        ranked.sort_by(|a, b| rank(a.1, b.1).then(a.0.cmp(&b.0)));
        beam = ranked
            .into_iter()
            .take(width.max(1))
            .map(|(i, _)| pool[i].clone())
            .collect();
        all.extend(scored);
    }
    l.deduped = l.builds;
    l.distinct = exact.memo.len() as u64;
    let out = outcome(&all, &l);
    l.total_ms = ms(started);
    (l, out)
}

/// Sets the per-layer metrics to the mean per replayed tune. Ratios whose
/// base is zero (a layer that never ran) stay unset, which reports 0.
pub fn record(all: &[Layers], m: &mut Metrics) {
    if all.is_empty() {
        return;
    }
    let n = all.len() as f64;
    let mean = |f: fn(&Layers) -> f64| all.iter().map(f).sum::<f64>() / n;
    let ratio = |m: &mut Metrics, name: &str, num: f64, den: f64| {
        if den > 0.0 {
            m.set(name, num / den);
        }
    };
    m.set("space.derive_ms", mean(|l| l.derive_ms));
    m.set("space.assemble_ms", mean(|l| l.assemble_ms));
    m.set("tier0.model_ms", mean(|l| l.model_ms));
    m.set("tier0.sweep_ms", mean(|l| l.sweep_ms));
    ratio(
        m,
        "tier0.ns_per_assignment",
        mean(|l| l.sweep_ms) * 1e6,
        mean(|l| l.swept as f64),
    );
    m.set("tier0.swept", mean(|l| l.swept as f64));
    m.set("tier0.kept", mean(|l| l.kept as f64));
    m.set("score.build_ms", mean(|l| l.build_ms));
    m.set("score.builds", mean(|l| l.builds as f64));
    ratio(
        m,
        "score.us_per_build",
        mean(|l| l.build_ms) * 1e3,
        mean(|l| l.builds as f64),
    );
    m.set("fingerprint.key_ms", mean(|l| l.key_ms));
    ratio(
        m,
        "dedup.distinct_ratio",
        mean(|l| l.distinct as f64),
        mean(|l| l.deduped as f64),
    );
    m.set("surrogate.ms", mean(|l| l.surrogate_ms));
    m.set("surrogate.scored", mean(|l| l.surrogate_scored as f64));
    m.set("sim.exact_ms", mean(|l| l.exact_ms));
    m.set("sim.evals", mean(|l| l.exact_evals as f64));
    ratio(
        m,
        "sim.us_per_eval",
        mean(|l| l.exact_ms) * 1e3,
        mean(|l| l.exact_evals as f64),
    );
    ratio(
        m,
        "funnel.promote_ratio",
        mean(|l| l.exact_evals as f64),
        mean(|l| l.surrogate_scored as f64),
    );
    m.set("trace.replay_ms", mean(|l| l.total_ms));
}
