//! The cello performance benchmark: one process runs one workload for a
//! fixed time and prints its metrics, the last stdout line being
//!
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {name: {"value": .., "unit": ..}}}`
//!
//! Usage: `perfbench --workload <dse-cg|dse-hpcg|serve-hit|serve-churn>
//!   --seed <n> --seconds <s> --trace <0|1> --daemon <cello_serve binary>
//!   --scratch <dir>` (`perfbench/run.py` builds both binaries and passes
//! the last two). `--trace 0` reports the end-to-end metrics, `--trace 1`
//! the per-layer ones from a separate run that times calls into each layer
//! from this crate. Metric definitions live in `BENCHMARK.json` and
//! `perfbench/README.md`.

mod calib;
mod dse;
mod replay;
mod serve;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics (`--trace 0`), reported on every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("latency_ms_p50", "ms"),
    ("latency_ms_p90", "ms"),
    ("cold_latency_ms_p50", "ms"),
    ("cpu_ms_per_op", "ms"),
    ("ops_per_s", "1/s"),
    ("tuned_cycles", "cycles"),
    ("tuned_traffic_bytes", "bytes"),
    ("tuned_energy_pj", "pJ"),
];

/// Per-layer metrics (`--trace 1`). A layer that does no work on a
/// workload reports 0 there.
const PER_LAYER: &[(&str, &str)] = &[
    ("space.derive_ms", "ms"),
    ("space.assemble_ms", "ms"),
    ("tier0.model_ms", "ms"),
    ("tier0.sweep_ms", "ms"),
    ("tier0.ns_per_assignment", "ns"),
    ("tier0.swept", "count"),
    ("tier0.kept", "count"),
    ("score.build_ms", "ms"),
    ("score.builds", "count"),
    ("score.us_per_build", "us"),
    ("fingerprint.key_ms", "ms"),
    ("dedup.distinct_ratio", "ratio"),
    ("surrogate.ms", "ms"),
    ("surrogate.scored", "count"),
    ("sim.exact_ms", "ms"),
    ("sim.evals", "count"),
    ("sim.us_per_eval", "us"),
    ("funnel.promote_ratio", "ratio"),
    ("tuner.parallel_util", "ratio"),
    ("tuner.candidates_per_sec", "1/s"),
    ("trace.replay_ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("serve.build_us_p50", "us"),
    ("serve.lookup_us_p50", "us"),
    ("serve.respond_us_p50", "us"),
    ("serve.wire_us_p50", "us"),
    ("serve.tune_ms_p50", "ms"),
    ("serve.coalesce_wait_ms", "ms"),
    ("serve.spans", "count"),
    ("store.lookup_us_p50", "us"),
    ("store.insert_us_p50", "us"),
    ("serve.hit_ratio", "ratio"),
    ("serve.misses", "count"),
    ("serve.warm", "count"),
    ("serve.coalesced", "count"),
    ("store.records", "count"),
    ("store.bytes", "bytes"),
];

const WORKLOADS: &[&str] = &["dse-cg", "dse-hpcg", "serve-hit", "serve-churn"];

pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub daemon: std::path::PathBuf,
    pub scratch: std::path::PathBuf,
}

fn parse_args() -> Result<RunArgs, String> {
    let mut flags: BTreeMap<String, String> = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        flags.insert(flag, value);
    }
    let mut take = |flag: &str| flags.remove(flag).ok_or_else(|| format!("missing {flag}"));
    let workload = take("--workload")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {WORKLOADS:?}"
        ));
    }
    let seed = take("--seed")?
        .parse()
        .map_err(|_| "--seed needs an integer")?;
    let seconds: f64 = take("--seconds")?
        .parse()
        .map_err(|_| "--seconds needs a number")?;
    if !(seconds > 0.0 && seconds <= 120.0) {
        return Err("--seconds must be in (0, 120]".into());
    }
    let trace = match take("--trace")?.as_str() {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, got {other:?}")),
    };
    let daemon = take("--daemon")?.into();
    let scratch = take("--scratch")?.into();
    if let Some(extra) = flags.keys().next() {
        return Err(format!("unknown argument {extra:?}"));
    }
    Ok(RunArgs {
        workload,
        seed,
        seconds,
        trace,
        daemon,
        scratch,
    })
}

/// Check tallies plus human-readable notes printed above the result line.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    notes: Vec<String>,
}

impl Report {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        if self.failed <= 10 {
            self.notes.push(format!("FAILED: {why}"));
        }
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }
}

/// Named metric values of one run.
#[derive(Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// Records `name`, which must be declared in `END_TO_END` or
    /// `PER_LAYER`.
    pub fn set(&mut self, name: &str, value: f64) {
        let known = END_TO_END.iter().chain(PER_LAYER).find(|(n, _)| *n == name);
        let (name, _) = known.unwrap_or_else(|| panic!("undeclared metric {name}"));
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut report = Report::default();
    let result = if args.workload.starts_with("dse-") {
        Ok(dse::run(&args, &mut report))
    } else {
        serve::run(&args, &mut report)
    };
    let metrics = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(1);
        }
    };
    if report.attempted == 0 {
        eprintln!("perfbench: {} attempted nothing", args.workload);
        return ExitCode::from(1);
    }
    let declared = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::new();
    for (name, unit) in declared {
        let value = match metrics.0.get(name) {
            Some(v) => *v,
            // Per-layer: this workload never enters the layer.
            None if args.trace => 0.0,
            None => {
                eprintln!("perfbench: {} did not measure {name}", args.workload);
                return ExitCode::from(1);
            }
        };
        println!("{:<28} {:>18.6} {unit}", name, value);
        fields.push(format!(
            "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            json_number(value)
        ));
    }
    for line in &report.notes {
        println!("# {line}");
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        report.failed == 0,
        report.attempted,
        report.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
