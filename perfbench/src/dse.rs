//! The `dse-*` workloads: the three-tier tuning funnel
//! (`prefilter0.1+tier0b49152k96`) over the quick trajectory's three widened
//! spaces, a fresh `Tuner` per tune.
//!
//! The untraced run times whole `Tuner::tune` calls. The traced run replays
//! the funnel single-threaded through the search crate's public functions,
//! timing each layer, and fails unless every replay reproduces
//! `Tuner::tune`'s best key, exact-evaluation count and surrogate count.

use crate::calib::Calibration;
use crate::stats::{cpu_seconds, geomean, peak_rss_mb, Rng, Samples};
use crate::{replay, Metrics, Report, RunArgs};
use cello_core::accel::CelloConfig;
use cello_graph::dag::TensorDag;
use cello_search::{
    Evaluated, ScheduleKey, SearchOutcome, SearchSpace, SpaceConfig, Strategy, Tuner,
};
use cello_workloads::cg::{build_cg_dag, CgParams};
use cello_workloads::datasets::G2_CIRCUIT;
use cello_workloads::hpcg::{build_hpcg_dag, HpcgParams};
use std::time::Instant;

/// Surrogate-to-exact promotion fraction of the funnel.
const KEEP_FRAC: f64 = 0.1;
/// Tier-0 sketch budget (assignments swept per tune).
const TIER0_BUDGET: u64 = 49_152;
/// Tier-0 survivors promoted to the surrogate.
const TIER0_KEEP: usize = 96;
/// The tier-0 sweep seed `Tuner::tune` uses. The search crate keeps it
/// private; the replay's fidelity check fails if it drifts.
const TIER0_SWEEP_SEED: u64 = 0x7E40;
/// Fewest timed tunes per run, so p90 has at least ten samples beyond it.
const MIN_TUNES: usize = 120;

fn strategy() -> Strategy {
    Strategy::prefiltered(
        KEEP_FRAC,
        Strategy::Tier0 {
            budget: TIER0_BUDGET,
            keep: TIER0_KEEP,
        },
    )
}

/// One DAG plus the spaces its tunes cycle through.
struct Fixture {
    dag: TensorDag,
    accel: CelloConfig,
    spaces: Vec<(&'static str, SpaceConfig)>,
}

fn fixture(workload: &str) -> Fixture {
    let dag = match workload {
        "dse-cg" => build_cg_dag(&CgParams::from_dataset(&G2_CIRCUIT, 16, 5)),
        "dse-hpcg" => build_hpcg_dag(&HpcgParams {
            nx: 48,
            n: 16,
            iterations: 2,
        }),
        other => unreachable!("not a dse workload: {other}"),
    };
    let accel = CelloConfig::paper();
    let spaces = vec![
        ("1n", SpaceConfig::widened_with_nodes(&[1])),
        ("mesh", SpaceConfig::widened_with_nodes(&[1, 4, 16, 64])),
        (
            "pp",
            SpaceConfig::widened_with_nodes(&[1]).with_repartition(accel.sram_words()),
        ),
    ];
    Fixture { dag, accel, spaces }
}

/// What a tune of one space must reproduce on every later tune.
#[derive(Clone, Copy, PartialEq, Debug)]
struct Reference {
    best_key: ScheduleKey,
    cycles: u64,
    traffic: u64,
    energy_pj: f64,
    evaluations: u64,
    surrogate_scored: u64,
}

impl Reference {
    fn new(best_cycles: &Evaluated, best_traffic: &Evaluated, evals: u64, surrogate: u64) -> Self {
        Self {
            best_key: best_traffic.key,
            cycles: best_cycles.cost.cycles,
            traffic: best_traffic.cost.total_traffic_bytes(),
            energy_pj: best_cycles.cost.energy_pj,
            evaluations: evals,
            surrogate_scored: surrogate,
        }
    }

    fn of(out: &SearchOutcome) -> Self {
        let (e, s) = (out.evaluations, out.surrogate_scored);
        Self::new(&out.best_cycles, &out.best_traffic, e, s)
    }

    fn of_replay(out: &replay::Outcome) -> Self {
        let (e, s) = (out.evaluations, out.surrogate_scored);
        Self::new(&out.best_cycles, &out.best_traffic, e, s)
    }
}

/// One set-up: builds the fixture and derives each space's decision list
/// (`SearchSpace::from_dag`). Returns the fixture, the spaces' sizes and
/// the seconds it took.
fn set_up(workload: &str) -> (Fixture, Vec<u64>, f64) {
    let started = Instant::now();
    let fx = fixture(workload);
    let sizes = fx
        .spaces
        .iter()
        .map(|(_, cfg)| SearchSpace::from_dag(&fx.dag, cfg).exhaustive_size())
        .collect();
    (fx, sizes, started.elapsed().as_secs_f64())
}

/// Set-up repetitions spread over the timed loop, one before each round of
/// tunes, each between two calibration samples. `setup_s` is the median of
/// their scaled times; a repetition whose spaces differ in size from the
/// first fails.
struct SetUps<'a> {
    workload: &'a str,
    sizes: Vec<u64>,
    seconds: Samples,
}

impl SetUps<'_> {
    fn again(&mut self, calib: &mut Calibration, report: &mut Report) {
        let i = calib.sample(1);
        let (_, sizes, seconds) = set_up(self.workload);
        calib.sample(1);
        self.seconds.push(seconds / calib.slowdown(i));
        report.attempted += 1;
        if sizes != self.sizes {
            report.fail(format!(
                "set-up spaces disagree: {:?} vs {sizes:?}",
                self.sizes
            ));
        }
    }
}

/// Tunes each space once, untimed, for the references every timed tune is
/// checked against.
fn references(fx: &Fixture) -> Vec<Reference> {
    fx.spaces
        .iter()
        .map(|(_, cfg)| {
            Reference::of(&Tuner::new(&fx.dag, &fx.accel, cfg.clone()).tune(&strategy()))
        })
        .collect()
}

/// Space visiting order: round robin from a seeded start, so every run
/// tunes the three spaces equally often.
fn space_order(seed: u64, n: usize) -> Vec<usize> {
    let start = Rng::new(seed).below(n as u64) as usize;
    (0..n).map(|i| (start + i) % n).collect()
}

/// Untraced tunes in whole rounds over the spaces until `seconds` pass (and
/// at least `min_tunes` ran), each checked against its space's reference
/// and run between two calibration samples; `setups`, if given, repeats
/// the set-up before each round.
struct TuneLoop {
    /// Per-tune wall and process CPU time as measured.
    wall_ms: Samples,
    cpu_ms: Samples,
    /// The same, scaled to the calibration kernel's reference speed.
    ref_wall_ms: Samples,
    ref_cpu_ms: Samples,
    kernel_ms: f64,
    candidates: u64,
}

fn tune_loop(
    fx: &Fixture,
    refs: &[Reference],
    order: &[usize],
    seconds: f64,
    min_tunes: usize,
    mut setups: Option<&mut SetUps>,
    report: &mut Report,
) -> TuneLoop {
    let strategy = strategy();
    let mut calib = Calibration::default();
    let (mut wall_ms, mut cpu_ms) = (Samples::default(), Samples::default());
    let (mut ref_wall_ms, mut ref_cpu_ms) = (Samples::default(), Samples::default());
    let mut candidates = 0u64;
    let cpu = || cpu_seconds("self").expect("own /proc stat") * 1e3;
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || wall_ms.len() < min_tunes {
        if let Some(setups) = setups.as_deref_mut() {
            setups.again(&mut calib, report);
        }
        for &si in order {
            let i = calib.sample(1);
            let (t, cpu0) = (Instant::now(), cpu());
            let tuner = Tuner::new(&fx.dag, &fx.accel, fx.spaces[si].1.clone());
            let out = tuner.tune(&strategy);
            let (wall, used) = (t.elapsed().as_secs_f64() * 1e3, cpu() - cpu0);
            calib.sample(1);
            wall_ms.push(wall);
            cpu_ms.push(used);
            ref_wall_ms.push(wall / calib.slowdown(i));
            ref_cpu_ms.push(used / calib.slowdown(i));
            candidates += out.candidates_seen;
            report.attempted += 1;
            let got = Reference::of(&out);
            if got != refs[si] {
                report.fail(format!(
                    "space {}: tune gave {got:?}, first tune gave {:?}",
                    fx.spaces[si].0, refs[si]
                ));
            }
        }
    }
    TuneLoop {
        wall_ms,
        cpu_ms,
        ref_wall_ms,
        ref_cpu_ms,
        kernel_ms: calib.median_ms(),
        candidates,
    }
}

pub fn run(args: &RunArgs, report: &mut Report) -> Metrics {
    let mut calib = Calibration::default();
    let i = calib.sample(1);
    let (fx, sizes, first) = set_up(&args.workload);
    calib.sample(1);
    let first = first / calib.slowdown(i);
    let refs = references(&fx);
    let order = space_order(args.seed, fx.spaces.len());
    let mut m = Metrics::default();
    if args.trace {
        traced(&fx, &refs, &order, args.seconds, report, &mut m);
        return m;
    }
    let mut setups = SetUps {
        workload: &args.workload,
        sizes,
        seconds: Samples::default(),
    };
    setups.seconds.push(first);
    let run = tune_loop(
        &fx,
        &refs,
        &order,
        args.seconds,
        MIN_TUNES,
        Some(&mut setups),
        report,
    );
    let tunes = run.wall_ms.len() as f64;
    let p50 = run.ref_wall_ms.percentile(50.0);
    report.note(format!(
        "{} tunes at reference speed: p50 {p50:.3} ms, p90 {:.3} ms ({} beyond p90); {:.0} candidates/s",
        run.wall_ms.len(),
        run.ref_wall_ms.percentile(90.0),
        run.ref_wall_ms.beyond(90.0),
        run.candidates as f64 / (run.ref_wall_ms.sum() / 1e3),
    ));
    report.note(format!(
        "as measured: p50 {:.3} ms, p90 {:.3} ms; calibration kernel median {:.4} ms (reference {:.4} ms)",
        run.wall_ms.percentile(50.0),
        run.wall_ms.percentile(90.0),
        run.kernel_ms,
        crate::calib::REFERENCE_S * 1e3,
    ));
    m.set("setup_s", setups.seconds.percentile(50.0));
    m.set(
        "peak_rss_mb",
        peak_rss_mb("self").expect("own /proc status"),
    );
    m.set("latency_ms_p50", p50);
    m.set("latency_ms_p90", run.ref_wall_ms.percentile(90.0));
    // Every tune is a cold compile, so this is `latency_ms_p50` again: the
    // output contract wants every metric on every workload.
    m.set("cold_latency_ms_p50", p50);
    m.set("cpu_ms_per_op", run.ref_cpu_ms.sum() / tunes);
    m.set("ops_per_s", tunes / (run.ref_wall_ms.sum() / 1e3));
    let geo = |f: fn(&Reference) -> f64| geomean(&refs.iter().map(f).collect::<Vec<_>>());
    m.set("tuned_cycles", geo(|r| r.cycles as f64));
    m.set("tuned_traffic_bytes", geo(|r| r.traffic as f64));
    m.set("tuned_energy_pj", geo(|r| r.energy_pj));
    m
}

/// The traced run: a third of the time in untraced `Tuner::tune` calls
/// (for the tuner's CPU utilisation and the overhead baseline), the rest in
/// single-threaded replays, whole rounds over the spaces each.
fn traced(
    fx: &Fixture,
    refs: &[Reference],
    order: &[usize],
    seconds: f64,
    report: &mut Report,
    m: &mut Metrics,
) {
    let tunes = tune_loop(
        fx,
        refs,
        order,
        seconds / 3.0,
        2 * order.len(),
        None,
        report,
    );
    let wall_s = tunes.wall_ms.sum() / 1e3;
    m.set("tuner.parallel_util", tunes.cpu_ms.sum() / 1e3 / wall_s);
    m.set("tuner.candidates_per_sec", tunes.candidates as f64 / wall_s);

    let mut all = Vec::new();
    let started = Instant::now();
    while all.is_empty() || started.elapsed().as_secs_f64() < seconds * 2.0 / 3.0 {
        for &si in order {
            let (name, cfg) = &fx.spaces[si];
            let funnel = (KEEP_FRAC, TIER0_BUDGET, TIER0_KEEP, TIER0_SWEEP_SEED);
            let (layers, out) = replay::funnel(&fx.dag, &fx.accel, cfg, funnel);
            report.attempted += 1;
            let found = Reference::of_replay(&out);
            if found != refs[si] {
                report.fail(format!(
                    "replay of space {name} gave {found:?}, Tuner::tune gave {:?}",
                    refs[si]
                ));
            }
            all.push(layers);
        }
    }
    replay::record(&all, m);
    let tune_p50 = tunes.wall_ms.percentile(50.0);
    if let Some(replay_ms) = m.get("trace.replay_ms") {
        m.set("trace.overhead_ratio", replay_ms / tune_p50);
    }
    report.note(format!(
        "{} replays of Tuner::tune checked; {} untraced tunes, p50 {tune_p50:.3} ms",
        all.len(),
        tunes.wall_ms.len(),
    ));
}
