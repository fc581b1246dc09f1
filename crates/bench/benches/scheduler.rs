//! Criterion benchmarks for SCORE and the per-schedule work the tuner stacks
//! on it, on unrolled CG DAGs of 2, 5 and 10 iterations: Algorithm 2
//! classification, full schedule construction, the simulator's phase plan,
//! the surrogate's cost estimate, the tier-0 model build (one default
//! schedule per preset × SRAM split of the widened space), and the tier-0
//! sketch sweep (49 152 sampled assignments of the widened `{1,4,16,64}`-node
//! space, front capped at 96, as the quick trajectory runs it).
//!
//! DAG queries walk a per-node adjacency index, so `out_edges`/`in_edges`
//! are O(degree) and one longest-path pass is O(V+E). Classification runs
//! that pass once per source node: O(V·(V+E)) for the whole DAG, with every
//! edge's transitivity, `pathnext` and Rule 4 path read off its source's
//! table. The paper's tractability claim (§VI-B) is that SCORE schedules
//! without a search — 10 unrolled iterations take microseconds.
//!
//! The sweep costs one RNG draw and one O(decisions + pressure) sketch per
//! assignment; a newcomer at or above a full front's largest scalar is
//! rejected in O(1), the rest pay one O(keep) dominance scan.

use cello_core::accel::CelloConfig;
use cello_core::score::binding::{build_schedule, ScheduleOptions};
use cello_core::score::classify::classify;
use cello_search::{surrogate_cost, SearchSpace, SpaceConfig, Tier0Model};
use cello_sim::phases::plan_phases;
use cello_workloads::cg::{build_cg_dag, CgParams};
use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

const ITERATIONS: [u32; 3] = [2, 5, 10];

fn params(iterations: u32) -> CgParams {
    CgParams {
        m: 81_920,
        occupancy: 4.0,
        a_payload_words: 2 * 327_680 + 81_921,
        n: 16,
        nprime: 16,
        iterations,
        a_occupancy: None,
    }
}

fn bench_classify(c: &mut Criterion) {
    let mut g = c.benchmark_group("score/classify");
    for iters in ITERATIONS {
        let dag = build_cg_dag(&params(iters));
        g.bench_with_input(BenchmarkId::from_parameter(iters), &dag, |b, dag| {
            b.iter(|| black_box(classify(dag)))
        });
    }
    g.finish();
}

fn bench_build_schedule(c: &mut Criterion) {
    let mut g = c.benchmark_group("score/build_schedule");
    for iters in ITERATIONS {
        let dag = build_cg_dag(&params(iters));
        g.bench_with_input(BenchmarkId::from_parameter(iters), &dag, |b, dag| {
            b.iter(|| black_box(build_schedule(dag, ScheduleOptions::cello())))
        });
    }
    g.finish();
}

fn bench_plan_phases(c: &mut Criterion) {
    let mut g = c.benchmark_group("sim/plan_phases");
    for iters in ITERATIONS {
        let dag = build_cg_dag(&params(iters));
        let schedule = build_schedule(&dag, ScheduleOptions::cello());
        g.bench_with_input(BenchmarkId::from_parameter(iters), &dag, |b, dag| {
            b.iter(|| black_box(plan_phases(dag, &schedule)))
        });
    }
    g.finish();
}

fn bench_surrogate_cost(c: &mut Criterion) {
    let accel = CelloConfig::paper();
    let mut g = c.benchmark_group("search/surrogate_cost");
    for iters in ITERATIONS {
        let dag = build_cg_dag(&params(iters));
        let schedule = build_schedule(&dag, ScheduleOptions::cello());
        g.bench_with_input(BenchmarkId::from_parameter(iters), &dag, |b, dag| {
            b.iter(|| black_box(surrogate_cost(dag, &schedule, &accel)))
        });
    }
    g.finish();
}

fn bench_tier0_model(c: &mut Criterion) {
    let accel = CelloConfig::paper();
    let mut g = c.benchmark_group("search/tier0_model_new");
    g.sample_size(20);
    for iters in ITERATIONS {
        let dag = build_cg_dag(&params(iters));
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::widened());
        g.bench_with_input(BenchmarkId::from_parameter(iters), &dag, |b, dag| {
            b.iter(|| black_box(Tier0Model::new(dag, &accel, &space)))
        });
    }
    g.finish();
}

fn bench_tier0_prune(c: &mut Criterion) {
    let accel = CelloConfig::paper();
    let mut g = c.benchmark_group("search/tier0_prune");
    g.sample_size(10);
    for iters in ITERATIONS {
        let dag = build_cg_dag(&params(iters));
        let space = SearchSpace::from_dag(&dag, &SpaceConfig::widened_with_nodes(&[1, 4, 16, 64]));
        let model = Tier0Model::new(&dag, &accel, &space);
        g.bench_with_input(BenchmarkId::from_parameter(iters), &space, |b, space| {
            b.iter(|| black_box(model.prune(space, 49_152, 96, 0x7E40)))
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    bench_classify,
    bench_build_schedule,
    bench_plan_phases,
    bench_surrogate_cost,
    bench_tier0_model,
    bench_tier0_prune
);
criterion_main!(benches);
