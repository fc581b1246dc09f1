//! The `serve-*` workloads: a closed loop over one connection to the
//! shipped `cello_serve` daemon over loopback.
//!
//! Set-up boots the daemon on a fresh cache directory and pre-warms its
//! store with the request catalogue (`SETUP_REPS` times; `setup_s` is the
//! median). `serve-hit` then sends only catalogue repeats, every one a
//! store hit; `serve-churn` mixes in never-seen fingerprints (cold compile
//! plus store write) and near-misses of a catalogue family (warm start).
//! The traced run also scrapes the daemon's flight recorder (`trace` op,
//! in windows so no request is lost), its `metrics` op, and times
//! `ScheduleStore::lookup`/`insert` on the run's own records.

use crate::calib::Calibration;
use crate::stats::{cpu_seconds, geomean, peak_rss_mb, Rng, Samples};
use crate::{replay, Metrics, Report, RunArgs};
use cello_bench::json::Json;
use cello_core::accel::CelloConfig;
use cello_search::fingerprint::{fingerprint, Fingerprint};
use cello_search::{SpaceConfig, Strategy};
use cello_serve::protocol::{CacheTag, Request, Response};
use cello_serve::ScheduleStore;
use cello_workloads::cg::{build_cg_dag, CgParams};
use std::collections::{BTreeMap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Daemon workers: no more than the two cores. The client sends over one
/// connection: the benchmark and the daemon share one CPU (`run.py` pins
/// them), so a second connection's requests would wait on the scheduler's
/// time slices, and their latency would time those.
const WORKERS: usize = 2;

/// Set-up repetitions (boot + pre-warm on a fresh cache each) before the
/// timed loop, the last one's daemon serving it, and after it (untraced
/// runs only). The host's speed shifts over seconds, so set-ups on both
/// sides of the loop time it at two moments 20 s apart.
const SETUP_REPS: usize = 5;
const SETUP_REPS_AFTER: usize = 4;
/// `serve-churn` request mix per block: 14% never-seen, 30% near misses,
/// 56% catalogue repeats. The shares are synthetic (the repo records no
/// production traffic), chosen for steady percentiles: with the catalogue's
/// five entries weighed alike, p50 falls in the middle of the slowest
/// entry's hits (at 89% of the hits) and p90 inside the cold and warm
/// compiles (at 77% of them), away from the boundaries between kinds and
/// entries. The hit share keeps above loadgen's 50% floor.
const BLOCK: usize = 50;
const COLD_PER_BLOCK: usize = 7;
const WARM_PER_BLOCK: usize = 15;
/// Near-miss SRAM sizes, each used once per family so no near miss
/// repeats. 160 sizes per family last a 20 s run at over three times the
/// ~40 requests/s one connection gets on a 2-vCPU host, so the shares hold
/// on faster hosts; when one runs out, its family's near misses become
/// repeats. The catalogue asks for 4 MiB.
const NEAR_MISS_SRAM_MB: std::ops::RangeInclusive<u64> = 5..=164;
/// Flight-recorder depth in the traced run, and how many requests may pass
/// between two scrapes (a quarter of it, so no span is evicted unseen).
const FLIGHT_DEPTH: usize = 2048;
const SCRAPE_EVERY: u64 = 512;
/// Traced run: seconds spent timing direct store calls, and replaying
/// cold compiles (at least one of each either way).
const STORE_TIMING_S: f64 = 1.0;
const COLD_REPLAY_S: f64 = 2.0;
/// The closed loop runs in epochs of this many seconds; between two, the
/// client waits while the calibration kernel is timed `KERNEL_REPS` times
/// on an idle host (the median is kept), and an epoch's requests are
/// scaled by the calibrations on both sides of it.
const EPOCH_S: f64 = 0.1;
const KERNEL_REPS: usize = 3;
/// How long the daemon may take to exit after `shutdown`.
const DAEMON_DEADLINE: Duration = Duration::from_secs(20);

/// The pre-warmed key set: loadgen's request mix (its five built-in
/// `beam8` widened CG, HPCG, GCN and BiCGStab requests; its optional Matrix
/// Market entry needs a file and is left out). Every entry is its own
/// family (DAG + strategy), so the pre-warm compiles are all cold and their
/// results deterministic.
fn catalogue() -> Vec<Request> {
    let req = |workload: &str, dataset: Option<&str>, iterations: u32, nodes: &[u64]| {
        let mut r = Request::cg("fv1");
        r.workload = workload.into();
        r.dataset = dataset.map(Into::into);
        r.iterations = iterations;
        r.nodes = nodes.to_vec();
        r.strategy = "beam8".into();
        r.widened = true;
        r
    };
    let mut g2 = req("cg", Some("G2_circuit"), 5, &[1, 4]);
    g2.per_phase_sram = true;
    let mut hpcg32 = req("hpcg", None, 4, &[1]);
    hpcg32.nx = Some(32);
    let mut cora = req("gcn", Some("cora"), 2, &[1, 4]);
    cora.layers = 3;
    vec![
        g2,
        req("cg", Some("fv1"), 6, &[1]),
        hpcg32,
        cora,
        req("bicgstab", Some("NASA4704"), 3, &[1]),
    ]
}

/// A never-seen CG fingerprint: G2_circuit's shape with the matrix order
/// nudged by `nudge` rows (a few thousand at most in a run), so the DAG
/// (and its family) is new while the compile cost stays that of its
/// neighbours.
fn never_seen(nudge: u64) -> Request {
    let mut r = Request::cg("G2_circuit");
    r.dataset = None;
    r.m = Some(150_102 + nudge);
    r.nnz = Some(726_674 + 5 * nudge);
    r.iterations = 3;
    r.nodes = vec![1, 4];
    r.strategy = "beam8".into();
    r.widened = true;
    r
}

/// A running daemon on its own cache directory; dropping it kills the
/// process if it is still alive and removes the directory.
struct Daemon {
    child: Child,
    /// Held open so the daemon's exit message has somewhere to go.
    _stdout: BufReader<ChildStdout>,
    addr: String,
    cache_dir: PathBuf,
}

impl Daemon {
    fn boot(bin: &Path, cache_dir: PathBuf, flight_depth: usize) -> Result<Self, String> {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let mut child = Command::new(bin)
            .args(["--addr", "127.0.0.1:0", "--workers", &WORKERS.to_string()])
            .arg("--cache-dir")
            .arg(&cache_dir)
            .args(["--flight-depth", &flight_depth.to_string()])
            .env("CELLO_LOG", "off")
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {bin:?}: {e}"))?;
        // The daemon's first stdout line names the bound address.
        let stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: String::new(),
            cache_dir,
        };
        let mut line = String::new();
        daemon
            ._stdout
            .read_line(&mut line)
            .map_err(|e| format!("daemon stdout: {e}"))?;
        daemon.addr = line
            .strip_prefix("cello_serve listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .ok_or_else(|| format!("unexpected daemon banner {line:?}"))?
            .to_string();
        Ok(daemon)
    }

    fn pid(&self) -> String {
        self.child.id().to_string()
    }

    fn connect(&self) -> Result<Conn, String> {
        let stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("set_nodelay: {e}"))?;
        let writer = stream
            .try_clone()
            .map_err(|e| format!("clone stream: {e}"))?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
        })
    }

    /// Sends `shutdown` (all client connections must be closed, or the
    /// daemon waits for them) and waits for the process to exit.
    fn shutdown(mut self) -> Result<(), String> {
        self.connect()?.call("{\"op\": \"shutdown\"}")?;
        let deadline = Instant::now() + DAEMON_DEADLINE;
        while Instant::now() < deadline {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("daemon exited with {status}")),
                Ok(None) => std::thread::sleep(Duration::from_millis(5)),
                Err(e) => return Err(format!("waiting for daemon: {e}")),
            }
        }
        Err("daemon did not exit after shutdown".into())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.cache_dir);
    }
}

/// One client connection: a request line out, a response line back.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn call(&mut self, line: &str) -> Result<String, String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(0) => Err("daemon closed the connection".into()),
            Ok(_) => Ok(reply),
            Err(e) => Err(format!("receive: {e}")),
        }
    }
}

/// What the first compile of a catalogue entry answered.
#[derive(Clone, PartialEq, Debug)]
struct Answer {
    fingerprint: String,
    best_key: String,
    cycles: u64,
    traffic: u64,
    energy_pj: f64,
}

impl Answer {
    fn of(r: &Response) -> Self {
        Self {
            fingerprint: r.fingerprint.clone(),
            best_key: r.best_key.clone(),
            cycles: r.tuned_cycles,
            traffic: r.tuned_traffic_bytes,
            energy_pj: r.tuned_energy_pj,
        }
    }
}

fn parse_response(line: &str) -> Result<Response, String> {
    let doc = Json::parse(line.trim()).map_err(|e| format!("unparsable response: {e}"))?;
    Response::from_json(&doc).map_err(|e| e.to_string())
}

/// Boots a daemon and compiles the catalogue over one connection, one
/// request at a time, so each compile's latency is its own. The boot and
/// each compile run between two calibration samples and are scaled by
/// them. Returns the daemon, each entry's answer, the scaled set-up
/// seconds and the scaled pre-warm compile latencies in ms.
fn boot_and_prewarm(
    args: &RunArgs,
    rep: usize,
    flight_depth: usize,
    calib: &mut Calibration,
) -> Result<(Daemon, Vec<Answer>, f64, Vec<f64>), String> {
    let cache = args
        .scratch
        .join(format!("cache-{}-{rep}", std::process::id()));
    let i = calib.sample(KERNEL_REPS);
    let t = Instant::now();
    let daemon = Daemon::boot(&args.daemon, cache, flight_depth)?;
    let mut conn = daemon.connect()?;
    let mut seconds = t.elapsed().as_secs_f64();
    calib.sample(KERNEL_REPS);
    seconds /= calib.slowdown(i);
    let mut answers = Vec::new();
    let mut latencies = Vec::new();
    for (i, mut req) in catalogue().into_iter().enumerate() {
        // Outside the timed loop's id range.
        req.id = (1 << 50) | i as u64;
        let t = Instant::now();
        let resp = parse_response(&conn.call(&req.to_line())?)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        let c = calib.sample(KERNEL_REPS);
        let ms = ms / calib.slowdown(c - 1);
        latencies.push(ms);
        seconds += ms / 1e3;
        if resp.cache != CacheTag::Miss {
            return Err(format!("pre-warm of entry {i} was {:?}", resp.cache));
        }
        answers.push(Answer::of(&resp));
    }
    Ok((daemon, answers, seconds, latencies))
}

/// Set-up times and pre-warm compile latencies over the repetitions, both
/// scaled to the reference speed; each repetition must answer like the
/// first.
#[derive(Default)]
struct SetUps {
    seconds: Samples,
    prewarm_ms: Samples,
    first: Option<Vec<Answer>>,
    calib: Calibration,
}

impl SetUps {
    fn again(
        &mut self,
        args: &RunArgs,
        rep: usize,
        flight_depth: usize,
        report: &mut Report,
    ) -> Result<(Daemon, Vec<Answer>), String> {
        let (daemon, answers, seconds, latencies) =
            boot_and_prewarm(args, rep, flight_depth, &mut self.calib)?;
        self.seconds.push(seconds);
        latencies
            .into_iter()
            .for_each(|ms| self.prewarm_ms.push(ms));
        match &self.first {
            Some(first) if *first != answers => report.fail(format!(
                "pre-warm answers differ between boots: {first:?} vs {answers:?}"
            )),
            Some(_) => {}
            None => self.first = Some(answers.clone()),
        }
        Ok((daemon, answers))
    }
}

/// One timed request.
struct Sample {
    id: u64,
    /// Latency as measured; `ref_ms` scaled to the reference speed.
    ms: f64,
    ref_ms: f64,
    /// Epoch the request ran in.
    epoch: usize,
    tag: CacheTag,
    /// Catalogue entry of a repeat or near miss.
    entry: usize,
}

/// Which kind of request the stream sent, and so which tag it expects.
#[derive(Clone, Copy, PartialEq)]
enum Kind {
    /// A catalogue entry again: a store hit.
    Repeat,
    /// A catalogue entry at a new SRAM size: a warm start from its family.
    Warm,
    /// A never-seen workload: a cold compile.
    Cold,
}

/// Seeded request stream, in blocks of `BLOCK` requests
/// holding exactly `COLD_PER_BLOCK` never-seen requests (churn),
/// `WARM_PER_BLOCK` near misses (churn) and repeats for the rest, in seeded
/// order. Repeats and near misses walk shuffled decks of the catalogue, so
/// every run weights its entries alike.
struct Stream {
    rng: Rng,
    sent: u64,
    entries: Vec<Request>,
    block: Vec<Kind>,
    repeats: Vec<usize>,
    families: Vec<usize>,
    /// Per catalogue entry, its unused near-miss SRAM sizes in MiB.
    sram_sizes: Vec<Vec<u64>>,
}

impl Stream {
    fn new(seed: u64, churn: bool) -> Self {
        let entries = catalogue();
        let mut rng = Rng::new(seed);
        let sram_sizes = (0..entries.len())
            .map(|_| {
                let mut sizes: Vec<u64> = NEAR_MISS_SRAM_MB.collect();
                rng.shuffle(&mut sizes);
                sizes
            })
            .collect();
        let (cold, warm) = if churn {
            (COLD_PER_BLOCK, WARM_PER_BLOCK)
        } else {
            (0, 0)
        };
        let mut block = vec![Kind::Cold; cold];
        block.extend(vec![Kind::Warm; warm]);
        block.extend(vec![Kind::Repeat; BLOCK - cold - warm]);
        Self {
            rng,
            sent: 0,
            entries,
            block,
            repeats: Vec::new(),
            families: Vec::new(),
            sram_sizes,
        }
    }

    /// Next entry of a deck of catalogue indices, reshuffled when empty.
    fn deal(rng: &mut Rng, deck: &mut Vec<usize>, n: usize) -> usize {
        if deck.is_empty() {
            deck.extend(0..n);
            rng.shuffle(deck);
        }
        deck.pop().expect("refilled")
    }

    fn next(&mut self) -> (Request, Kind, usize) {
        let at = (self.sent % BLOCK as u64) as usize;
        if at == 0 {
            self.rng.shuffle(&mut self.block);
        }
        self.sent += 1;
        let n = self.entries.len();
        let (mut req, kind, entry) = match self.block[at] {
            Kind::Cold => {
                // Distinct per request; each run has a fresh store, so
                // small nudges are never seen before.
                (never_seen(self.sent), Kind::Cold, usize::MAX)
            }
            Kind::Warm => {
                let entry = Self::deal(&mut self.rng, &mut self.families, n);
                let mut req = self.entries[entry].clone();
                match self.sram_sizes[entry].pop() {
                    Some(mb) => {
                        req.sram_mb = mb;
                        (req, Kind::Warm, entry)
                    }
                    // This family's near misses are used up: repeat it.
                    None => (req, Kind::Repeat, entry),
                }
            }
            Kind::Repeat => {
                let entry = Self::deal(&mut self.rng, &mut self.repeats, n);
                (self.entries[entry].clone(), Kind::Repeat, entry)
            }
        };
        req.id = self.sent;
        (req, kind, entry)
    }
}

/// Checks one response against what its request kind must produce.
fn check(resp: &Response, kind: Kind, entry: usize, answers: &[Answer]) -> Result<(), String> {
    match kind {
        Kind::Repeat => {
            let want = &answers[entry];
            if resp.cache != CacheTag::Hit {
                return Err(format!("repeat of entry {entry} was {:?}", resp.cache));
            }
            if Answer::of(resp) != *want {
                return Err(format!(
                    "hit on entry {entry} answered {:?}, first compile {want:?}",
                    Answer::of(resp)
                ));
            }
        }
        Kind::Warm if resp.cache != CacheTag::Warm => {
            return Err(format!("near miss was {:?}", resp.cache))
        }
        Kind::Cold if resp.cache != CacheTag::Miss => {
            return Err(format!("never-seen fingerprint was {:?}", resp.cache))
        }
        _ => {}
    }
    Ok(())
}

/// Everything the closed loop observed.
struct LoopResult {
    samples: Vec<Sample>,
    /// Seconds the client was sending, pauses for calibration left out;
    /// `ref_wall_s` the same at the reference speed.
    wall_s: f64,
    ref_wall_s: f64,
    kernel_ms: f64,
    /// Request span trees scraped from the flight recorder (traced run).
    flights: HashMap<u64, Flight>,
    /// Never-seen requests and their answers.
    colds: Vec<(Request, Response)>,
}

/// Runs the closed-loop client in epochs of `EPOCH_S` until `seconds` of
/// epochs pass, timing the calibration kernel before the first epoch and
/// after each. When `scrape`, the client also pulls the flight recorder
/// whenever `SCRAPE_EVERY` requests have passed since its last pull, and
/// once more at the end.
fn closed_loop(
    daemon: &Daemon,
    args: &RunArgs,
    answers: &[Answer],
    scrape: bool,
    report: &mut Report,
) -> Result<LoopResult, String> {
    let mut client = Client {
        conn: daemon.connect()?,
        stream: Stream::new(args.seed, args.workload == "serve-churn"),
        answers,
        scrape,
        scraped_at: 0,
        samples: Vec::new(),
        colds: Vec::new(),
        flights: HashMap::new(),
    };
    let mut calib = Calibration::default();
    let mut epoch_s: Vec<f64> = Vec::new();
    while epoch_s.iter().sum::<f64>() < args.seconds {
        calib.sample(KERNEL_REPS);
        let t = Instant::now();
        client.run_epoch(epoch_s.len(), report)?;
        epoch_s.push(t.elapsed().as_secs_f64());
    }
    calib.sample(KERNEL_REPS);
    if scrape {
        merge_flights(&mut client.conn, &mut client.flights)?;
    }
    let ref_wall_s = (0..epoch_s.len())
        .map(|e| epoch_s[e] / calib.slowdown(e))
        .sum();
    for s in &mut client.samples {
        s.ref_ms = s.ms / calib.slowdown(s.epoch);
    }
    Ok(LoopResult {
        samples: client.samples,
        wall_s: epoch_s.iter().sum(),
        ref_wall_s,
        kernel_ms: calib.median_ms(),
        flights: client.flights,
        colds: client.colds,
    })
}

/// The closed loop's client and what it saw.
struct Client<'a> {
    conn: Conn,
    stream: Stream,
    answers: &'a [Answer],
    /// Whether the client pulls the flight recorder, and how many requests
    /// it had sent at its last pull.
    scrape: bool,
    scraped_at: u64,
    samples: Vec<Sample>,
    colds: Vec<(Request, Response)>,
    flights: HashMap<u64, Flight>,
}

impl Client<'_> {
    /// Sends requests for `EPOCH_S`, the last one possibly running over.
    fn run_epoch(&mut self, epoch: usize, report: &mut Report) -> Result<(), String> {
        let end = Instant::now() + Duration::from_secs_f64(EPOCH_S);
        while Instant::now() < end {
            self.one(epoch, report)?;
        }
        Ok(())
    }

    fn one(&mut self, epoch: usize, report: &mut Report) -> Result<(), String> {
        let (req, kind, entry) = self.stream.next();
        let t = Instant::now();
        let line = self.conn.call(&req.to_line())?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        report.attempted += 1;
        match parse_response(&line).and_then(|r| check(&r, kind, entry, self.answers).map(|()| r)) {
            Ok(resp) => {
                self.samples.push(Sample {
                    id: req.id,
                    ms,
                    ref_ms: ms,
                    epoch,
                    tag: resp.cache,
                    entry,
                });
                if kind == Kind::Cold {
                    self.colds.push((req, resp));
                }
            }
            Err(e) => report.fail(e),
        }
        if self.scrape && self.stream.sent - self.scraped_at >= SCRAPE_EVERY {
            self.scraped_at = self.stream.sent;
            merge_flights(&mut self.conn, &mut self.flights)?;
        }
        Ok(())
    }
}

/// Stage durations of one request's span tree, in µs.
#[derive(Default)]
struct Flight {
    request: f64,
    build: f64,
    lookup: f64,
    respond: f64,
    coalesce: Option<f64>,
    tune: Option<f64>,
}

/// Pulls the daemon's flight recorder and files every request tree under
/// its request id.
fn merge_flights(conn: &mut Conn, into: &mut HashMap<u64, Flight>) -> Result<(), String> {
    let doc = Json::parse(conn.call("{\"op\": \"trace\"}")?.trim())
        .map_err(|e| format!("unparsable trace: {e}"))?;
    let events = doc
        .get("trace")
        .and_then(|t| t.get("traceEvents"))
        .and_then(Json::as_array)
        .ok_or("trace response without traceEvents")?;
    // Each root (`request`) owns one tid; its stage spans share it.
    let mut by_tid: BTreeMap<u64, (Option<u64>, Flight)> = BTreeMap::new();
    for e in events {
        let num = |k: &str| {
            e.get(k)
                .and_then(Json::as_f64)
                .ok_or(format!("trace event without {k}"))
        };
        let (tid, dur) = (num("tid")? as u64, num("dur")?);
        let (id, flight) = by_tid.entry(tid).or_default();
        match e.get("name").and_then(Json::as_str).unwrap_or("") {
            "request" => {
                *id = e
                    .get("args")
                    .and_then(|a| a.get("id"))
                    .and_then(Json::as_f64)
                    .map(|v| v as u64);
                flight.request = dur;
            }
            "build" => flight.build = dur,
            "lookup" => flight.lookup = dur,
            "respond" => flight.respond = dur,
            "coalesce" => flight.coalesce = Some(dur),
            "tune" => flight.tune = Some(dur),
            _ => {}
        }
    }
    for (id, flight) in by_tid.into_values() {
        let id = id.ok_or("request span without an id")?;
        into.insert(id, flight);
    }
    Ok(())
}

/// The `metrics` op's counters.
fn counters(daemon: &Daemon) -> Result<HashMap<String, f64>, String> {
    let doc = Json::parse(daemon.connect()?.call("{\"op\": \"metrics\"}")?.trim())
        .map_err(|e| format!("unparsable metrics: {e}"))?;
    let Some(Json::Obj(members)) = doc.get("counters") else {
        return Err("metrics response without counters".into());
    };
    Ok(members
        .iter()
        .filter_map(|(k, v)| v.as_f64().map(|v| (k.clone(), v)))
        .collect())
}

/// The cache directory's records: count and bytes on disk.
fn store_footprint(dir: &Path) -> Result<(u64, u64), String> {
    let mut records = 0;
    let mut bytes = 0;
    for entry in std::fs::read_dir(dir).map_err(|e| format!("scan {dir:?}: {e}"))? {
        let entry = entry.map_err(|e| format!("scan {dir:?}: {e}"))?;
        if entry.path().extension().and_then(|e| e.to_str()) == Some("json") {
            records += 1;
            bytes += entry.metadata().map_err(|e| format!("stat: {e}"))?.len();
        }
    }
    Ok((records, bytes))
}

/// Times `ScheduleStore::lookup` on every record the run left in the
/// daemon's cache, and `insert` of each into a scratch store, over
/// repeated passes until `seconds` pass (and at least one pass ran).
/// Returns the µs samples of each.
fn time_store(
    cache_dir: &Path,
    scratch: &Path,
    seconds: f64,
) -> Result<(Samples, Samples), String> {
    let mut fps = Vec::new();
    for entry in std::fs::read_dir(cache_dir).map_err(|e| format!("scan {cache_dir:?}: {e}"))? {
        let path = entry.map_err(|e| format!("scan: {e}"))?.path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        let text = std::fs::read_to_string(&path).map_err(|e| format!("read {path:?}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("record {path:?}: {e}"))?;
        let field = |k: &str| {
            doc.get(k)
                .and_then(Json::as_str)
                .map(String::from)
                .ok_or(format!("record {path:?} without {k}"))
        };
        fps.push(Fingerprint {
            hash: field("fingerprint")?,
            family: field("family")?,
            canon: field("canon")?,
        });
    }
    fps.sort_by(|a, b| a.hash.cmp(&b.hash));
    let store = ScheduleStore::open(cache_dir).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_dir_all(scratch);
    let copy = ScheduleStore::open(scratch).map_err(|e| e.to_string())?;
    let (mut lookups, mut inserts) = (Samples::default(), Samples::default());
    let started = Instant::now();
    while lookups.len() == 0 || started.elapsed().as_secs_f64() < seconds {
        for fp in &fps {
            let t = Instant::now();
            let rec = store
                .lookup(fp)
                .ok_or(format!("stored record {} not found", fp.hash))?;
            lookups.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            copy.insert(fp, &rec).map_err(|e| e.to_string())?;
            inserts.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    let _ = std::fs::remove_dir_all(scratch);
    Ok((lookups, inserts))
}

pub fn run(args: &RunArgs, report: &mut Report) -> Result<Metrics, String> {
    std::fs::create_dir_all(&args.scratch)
        .map_err(|e| format!("create {:?}: {e}", args.scratch))?;
    let depth = if args.trace {
        FLIGHT_DEPTH
    } else {
        cello_serve::DEFAULT_FLIGHT_DEPTH
    };
    let mut setups = SetUps::default();
    let mut kept: Option<(Daemon, Vec<Answer>)> = None;
    for rep in 0..SETUP_REPS {
        let (daemon, answers) = setups.again(args, rep, depth, report)?;
        if let Some((previous, _)) = kept.replace((daemon, answers)) {
            previous.shutdown()?;
        }
    }
    let (daemon, answers) = kept.expect("at least one set-up repetition");
    let pid = daemon.pid();

    let mut m = Metrics::default();
    let before = if args.trace {
        counters(&daemon)?
    } else {
        HashMap::new()
    };
    let cpu0 = cpu_seconds(&pid)?;
    let run = closed_loop(&daemon, args, &answers, args.trace, report)?;
    let cpu_s = cpu_seconds(&pid)? - cpu0;
    let mut latency = Samples::default();
    let mut cold = Samples::default();
    for s in &run.samples {
        latency.push(s.ref_ms);
        if matches!(s.tag, CacheTag::Miss | CacheTag::Warm) {
            cold.push(s.ref_ms);
        }
    }
    let mut hit_p50 = Vec::new();
    for entry in 0..answers.len() {
        let mut hits = Samples::default();
        for s in run
            .samples
            .iter()
            .filter(|s| s.entry == entry && s.tag == CacheTag::Hit)
        {
            hits.push(s.ref_ms);
        }
        hit_p50.push(format!("{:.3}", hits.percentile(50.0)));
    }
    report.note(format!(
        "hit p50 ms per catalogue entry: {}",
        hit_p50.join(" ")
    ));
    for (name, tag) in [("miss", CacheTag::Miss), ("warm", CacheTag::Warm)] {
        let mut kind = Samples::default();
        for s in run.samples.iter().filter(|s| s.tag == tag) {
            kind.push(s.ref_ms);
        }
        if kind.len() > 0 {
            let deciles: Vec<String> = (1..10)
                .map(|d| format!("{:.1}", kind.percentile(d as f64 * 10.0)))
                .collect();
            report.note(format!(
                "{name} deciles ms over {}: {}",
                kind.len(),
                deciles.join(" ")
            ));
        }
    }
    report.note(format!(
        "{} requests ({} cold/warm) at reference speed: p50 {:.4} ms, p90 {:.4} ms ({} beyond p90)",
        latency.len(),
        cold.len(),
        latency.percentile(50.0),
        latency.percentile(90.0),
        latency.beyond(90.0),
    ));
    let mut measured = Samples::default();
    run.samples.iter().for_each(|s| measured.push(s.ms));
    report.note(format!(
        "as measured: p50 {:.4} ms, p90 {:.4} ms, {:.1} requests/s; calibration kernel median {:.4} ms (reference {:.4} ms)",
        measured.percentile(50.0),
        measured.percentile(90.0),
        latency.len() as f64 / run.wall_s,
        run.kernel_ms,
        crate::calib::REFERENCE_S * 1e3,
    ));

    if args.trace {
        traced(args, &daemon, &run, &before, report, &mut m)?;
        daemon.shutdown()?;
        return Ok(m);
    }
    m.set("peak_rss_mb", peak_rss_mb(&pid)?);
    daemon.shutdown()?;
    for rep in SETUP_REPS..SETUP_REPS + SETUP_REPS_AFTER {
        setups.again(args, rep, depth, report)?.0.shutdown()?;
    }
    if args.workload == "serve-hit" {
        // The timed loop is all hits; its cold compiles are the pre-warm.
        cold = setups.prewarm_ms;
    }
    report.note(format!(
        "{} set-ups; cold p50 {:.3} ms over {}",
        setups.seconds.len(),
        cold.percentile(50.0),
        cold.len()
    ));
    m.set("setup_s", setups.seconds.percentile(50.0));
    m.set("latency_ms_p50", latency.percentile(50.0));
    m.set("latency_ms_p90", latency.percentile(90.0));
    m.set("cold_latency_ms_p50", cold.percentile(50.0));
    let ref_cpu_s = cpu_s * run.ref_wall_s / run.wall_s;
    m.set(
        "cpu_ms_per_op",
        ref_cpu_s * 1e3 / latency.len().max(1) as f64,
    );
    m.set("ops_per_s", latency.len() as f64 / run.ref_wall_s);
    let geo = |f: fn(&Answer) -> f64| geomean(&answers.iter().map(f).collect::<Vec<_>>());
    m.set("tuned_cycles", geo(|a| a.cycles as f64));
    m.set("tuned_traffic_bytes", geo(|a| a.traffic as f64));
    m.set("tuned_energy_pj", geo(|a| a.energy_pj));
    Ok(m)
}

/// Per-layer metrics of the serve workloads from the scraped span trees,
/// the `metrics` op, the cache directory and direct store calls.
fn traced(
    args: &RunArgs,
    daemon: &Daemon,
    run: &LoopResult,
    before: &HashMap<String, f64>,
    report: &mut Report,
    m: &mut Metrics,
) -> Result<(), String> {
    let mut build = Samples::default();
    let mut lookup = Samples::default();
    let mut respond = Samples::default();
    let mut wire = Samples::default();
    let mut tune = Samples::default();
    // `tune` spans of cold compiles only, the work the replays redo.
    let mut tune_cold = Samples::default();
    let mut wait = Samples::default();
    let mut matched = 0usize;
    for s in &run.samples {
        let Some(f) = run.flights.get(&s.id) else {
            continue;
        };
        matched += 1;
        build.push(f.build);
        lookup.push(f.lookup);
        respond.push(f.respond);
        wire.push(s.ms * 1e3 - f.request);
        if let Some(t) = f.tune {
            tune.push(t / 1e3);
            if s.tag == CacheTag::Miss {
                tune_cold.push(t / 1e3);
            }
        }
        if let Some(c) = f.coalesce {
            wait.push((c - f.tune.unwrap_or(0.0)) / 1e3);
        }
    }
    if matched != run.samples.len() {
        report.fail(format!(
            "flight recorder holds {matched} of {} request span trees",
            run.samples.len()
        ));
    }
    m.set("serve.spans", matched as f64);
    m.set("serve.build_us_p50", build.percentile(50.0));
    m.set("serve.lookup_us_p50", lookup.percentile(50.0));
    m.set("serve.respond_us_p50", respond.percentile(50.0));
    m.set("serve.wire_us_p50", wire.percentile(50.0));
    m.set("serve.tune_ms_p50", tune.percentile(50.0));
    m.set("serve.coalesce_wait_ms", wait.percentile(50.0));

    let after = counters(daemon)?;
    let delta =
        |k: &str| after.get(k).copied().unwrap_or(0.0) - before.get(k).copied().unwrap_or(0.0);
    m.set(
        "serve.hit_ratio",
        delta("cache_hits") / delta("requests_total").max(1.0),
    );
    m.set("serve.misses", delta("cache_misses"));
    m.set("serve.warm", delta("cache_warm"));
    m.set("serve.coalesced", delta("coalesced_requests"));
    let (records, bytes) = store_footprint(&daemon.cache_dir)?;
    m.set("store.records", records as f64);
    m.set("store.bytes", bytes as f64);

    let scratch = args.scratch.join(format!("store-{}", std::process::id()));
    let (lookups, inserts) = time_store(&daemon.cache_dir, &scratch, STORE_TIMING_S)?;
    m.set("store.lookup_us_p50", lookups.percentile(50.0));
    m.set("store.insert_us_p50", inserts.percentile(50.0));

    // The cold compiles' layers: replay never-seen requests for
    // `COLD_REPLAY_S` (at least one when any ran).
    let started = Instant::now();
    let mut layers = Vec::new();
    for (req, resp) in &run.colds {
        if !layers.is_empty() && started.elapsed().as_secs_f64() >= COLD_REPLAY_S {
            break;
        }
        report.attempted += 1;
        match replay_cold(req, resp) {
            Ok(l) => layers.push(l),
            Err(e) => report.fail(e),
        }
    }
    replay::record(&layers, m);
    if let (Some(replay_ms), false) = (m.get("trace.replay_ms"), tune_cold.len() == 0) {
        m.set(
            "trace.overhead_ratio",
            replay_ms / tune_cold.percentile(50.0),
        );
    }
    report.note(format!(
        "{matched} span trees for {} requests; {} store lookups/inserts timed; {} cold compiles replayed",
        run.samples.len(),
        lookups.len(),
        layers.len(),
    ));
    Ok(())
}

/// Rebuilds a never-seen request's workload the way the daemon does,
/// checks it fingerprints identically, and replays its cold beam compile;
/// the replay must reproduce the daemon's answer.
fn replay_cold(req: &Request, resp: &Response) -> Result<replay::Layers, String> {
    let Some(Strategy::Beam { width }) = Strategy::parse(&req.strategy) else {
        return Err(format!(
            "cold request strategy {} is not a beam",
            req.strategy
        ));
    };
    let (m, nnz) = req.m.zip(req.nnz).ok_or("cold request without m/nnz")?;
    let dag = build_cg_dag(&CgParams {
        m,
        occupancy: nnz as f64 / m as f64,
        a_payload_words: 2 * nnz + m + 1,
        n: req.n,
        nprime: req.n,
        iterations: req.iterations,
        a_occupancy: None,
    });
    let accel = CelloConfig::paper().with_sram_bytes(req.sram_mb << 20);
    let cfg = SpaceConfig::widened_with_nodes(&req.nodes);
    if fingerprint(&dag, &accel, &cfg, &Strategy::Beam { width }).hash != resp.fingerprint {
        return Err(format!(
            "rebuilt request {} fingerprints unlike the daemon",
            req.id
        ));
    }
    let (layers, out) = replay::beam(&dag, &accel, &cfg, width);
    let found = (
        out.best_traffic.key.hex(),
        out.evaluations,
        out.best_cycles.cost.cycles,
    );
    let served = (resp.best_key.clone(), resp.evaluations, resp.tuned_cycles);
    if found != served {
        return Err(format!(
            "replay of request {} found (key, evals, cycles) {found:?}, daemon {served:?}",
            req.id
        ));
    }
    Ok(layers)
}
