//! End-to-end and per-layer benchmark of the vlsi-route workspace.
//!
//! ```text
//! perfbench --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! Generates one workload's inputs from the seed, runs them through the
//! library's public entry points for about `S` seconds, checks every
//! output, and prints one JSON result line as the last line of stdout:
//! the end-to-end metrics with `--trace 0`, the per-layer metrics (from
//! a traced run that also writes a span file) with `--trace 1`. See
//! `perfbench/README.md` for the workloads and metrics.

mod channels;
mod chips;
mod gate;
mod measure;
mod serve;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use route_benchdata::rng::SplitMix64;
use route_model::{NetId, RouteObserver, RouterStats, SearchKind, SearchProbe};
use route_proto::Json;

use crate::gate::Tally;
use crate::measure::Tracer;

/// Worker threads any workload may use: the machine's parallelism,
/// capped at two.
const MAX_JOBS: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
const WORKLOADS: [&str; 4] = ["channels_batch", "switchbox_serve", "chip_c1", "chip_congested"];

/// The end-to-end metrics every `--trace 0` run prints, with units.
const END_TO_END: [(&str, &str); 9] = [
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("nets_per_s", "1/s"),
    ("nets_routed", "count"),
    ("wire_per_net", "cells"),
    ("vias_per_net", "count"),
    ("latency_p50_ms", "ms"),
    ("latency_p95_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every `--trace 1` run prints, with units. A
/// layer a workload does not exercise reads 0 there.
const PER_LAYER: [(&str, &str); 43] = [
    ("benchdata.gen_s", "s"),
    ("engine.busy_s", "s"),
    ("engine.parallelism", "ratio"),
    ("engine.max_instance_ms", "ms"),
    ("router.expanded", "count"),
    ("router.hard_routes", "count"),
    ("router.soft_routes", "count"),
    ("router.weak_pushes", "count"),
    ("router.rips", "count"),
    ("router.events", "count"),
    ("router.rips_per_net", "ratio"),
    ("maze.searches", "count"),
    ("maze.expanded_per_search", "ratio"),
    ("maze.found_ratio", "ratio"),
    ("maze.heap_peak_max", "count"),
    ("recover.retried", "count"),
    ("recover.fell_back", "count"),
    ("recover.salvaged", "count"),
    ("journal.bytes", "bytes"),
    ("journal.records", "count"),
    ("journal.append_ms", "ms"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.queue_wait_p95_ms", "ms"),
    ("serve.route_p50_ms", "ms"),
    ("serve.rejected", "count"),
    ("serve.generator_late_ms", "ms"),
    ("proto.codec_ms", "ms"),
    ("proto.bytes", "bytes"),
    ("global.plan_s", "s"),
    ("global.tiles_routed", "count"),
    ("global.tiles_errored", "count"),
    ("global.crossings", "count"),
    ("global.dropped", "count"),
    ("global.seams_repaired", "count"),
    ("global.seam_escalations", "count"),
    ("global.seam_ripups", "count"),
    ("global.seam_completed", "count"),
    ("global.fallback_completed", "count"),
    ("global.pruned_steps", "count"),
    ("global.seam_searches", "count"),
    ("global.seam_expanded", "count"),
    ("verify.s", "s"),
    // Traced minus untraced `wall_s`.
    ("trace.overhead_s", "s"),
];

/// Command-line settings of one run.
pub struct RunCfg {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub jobs: usize,
    /// Scratch directory of this run (journals, span file).
    pub out_dir: PathBuf,
}

impl RunCfg {
    /// Directory of the workload's journal(s).
    pub fn journal_dir(&self) -> PathBuf {
        self.out_dir.join("journal")
    }
}

/// The seed of the `index`-th generated input of a run.
pub fn derive_seed(seed: u64, index: usize) -> u64 {
    let mut rng = SplitMix64::new(seed ^ (index as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15));
    rng.next_u64()
}

/// Why an operation failed.
pub enum Failure {
    /// It panicked, errored or was refused.
    Error(String),
    /// It produced an output that failed the correctness gate.
    Wrong(String),
}

/// Named per-layer values; names outside [`PER_LAYER`] are a bug.
#[derive(Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "unknown per-layer metric {name}");
        self.0.insert(name, value);
    }

    /// The rip-up router's own work counters.
    pub fn router(&mut self, s: &RouterStats, nets: u64) {
        self.set("router.expanded", s.expanded as f64);
        self.set("router.hard_routes", s.hard_routes as f64);
        self.set("router.soft_routes", s.soft_routes as f64);
        self.set("router.weak_pushes", s.weak_pushes as f64);
        self.set("router.rips", s.rips as f64);
        self.set("router.events", s.events as f64);
        self.set("router.rips_per_net", s.rips as f64 / nets.max(1) as f64);
    }

    /// Maze-search effort seen through [`SearchProbe`]s.
    pub fn probes(&mut self, p: &ProbeCounter) {
        self.set("maze.searches", p.searches as f64);
        self.set("maze.expanded_per_search", p.expanded as f64 / p.searches.max(1) as f64);
        self.set("maze.found_ratio", p.found as f64 / p.searches.max(1) as f64);
        self.set("maze.heap_peak_max", p.heap_peak_max as f64);
    }
}

/// Counts maze searches through the router's observer hook.
#[derive(Default)]
pub struct ProbeCounter {
    pub searches: u64,
    pub expanded: u64,
    pub found: u64,
    pub heap_peak_max: u64,
}

impl ProbeCounter {
    /// Adds another counter's searches into this one.
    pub fn merge(&mut self, other: &ProbeCounter) {
        self.searches += other.searches;
        self.expanded += other.expanded;
        self.found += other.found;
        self.heap_peak_max = self.heap_peak_max.max(other.heap_peak_max);
    }
}

impl RouteObserver for ProbeCounter {
    fn on_search_done(&mut self, _net: NetId, _kind: SearchKind, probe: SearchProbe) {
        self.searches += 1;
        self.expanded += probe.expanded;
        self.found += u64::from(probe.found);
        self.heap_peak_max = self.heap_peak_max.max(probe.heap_peak);
    }
}

/// Everything a workload run reports.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Operations whose output failed the gate (a subset of `failed`).
    pub wrong: u64,
    /// Distinct failure descriptions, for stderr.
    pub notes: Vec<String>,
    pub setup_s: f64,
    pub wall_s: f64,
    /// Totals of one measured unit (a round, or the whole request run).
    pub tally: Tally,
    pub latencies_ms: Vec<f64>,
    pub peak_rss_mb: f64,
    pub layers: Layers,
}

impl Outcome {
    pub fn new(setup_s: f64, peak_rss_mb: f64) -> Outcome {
        Outcome { setup_s, peak_rss_mb, ..Outcome::default() }
    }

    /// Counts one operation.
    pub fn op(&mut self, verdict: Result<(), Failure>) {
        self.attempted += 1;
        let note = match verdict {
            Ok(()) => return,
            Err(Failure::Error(note)) => note,
            Err(Failure::Wrong(note)) => {
                self.wrong += 1;
                note
            }
        };
        self.failed += 1;
        if self.notes.len() < 20 && !self.notes.contains(&note) {
            self.notes.push(note);
        }
    }

    fn end_to_end(&self) -> Vec<(&'static str, &'static str, f64)> {
        let nets = self.tally.nets_routed as f64;
        let per_net = |x: u64| x as f64 / nets.max(1.0);
        let values = [
            self.setup_s,
            self.wall_s,
            nets / self.wall_s,
            nets,
            per_net(self.tally.wire),
            per_net(self.tally.vias),
            measure::quantile(&self.latencies_ms, 0.50),
            measure::quantile(&self.latencies_ms, 0.95),
            self.peak_rss_mb,
        ];
        END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, u, v)).collect()
    }

    fn per_layer(&self) -> Vec<(&'static str, &'static str, f64)> {
        PER_LAYER
            .iter()
            .map(|&(n, u)| (n, u, self.layers.0.get(n).copied().unwrap_or(0.0)))
            .collect()
    }
}

/// Size in bytes and line count of a file (0, 0 if absent).
pub fn file_stats(path: &std::path::Path) -> (f64, f64) {
    let text = std::fs::read(path).unwrap_or_default();
    (text.len() as f64, text.iter().filter(|&&b| b == b'\n').count() as f64)
}

/// The revision of the source tree the run starts in, read from
/// `.git` in the working directory and followed through one symbolic
/// ref (loose or packed); `unknown` for a tree without git metadata.
fn commit() -> String {
    let read = |name: &str| std::fs::read_to_string(Path::new(".git").join(name)).ok();
    let Some(head) = read("HEAD") else { return "unknown".to_string() };
    let head = head.trim();
    let Some(name) = head.strip_prefix("ref: ") else { return head.to_string() };
    read(name)
        .map(|sha| sha.trim().to_string())
        .or_else(|| {
            read("packed-refs")?.lines().find_map(|l| {
                let (sha, r) = l.split_once(' ')?;
                (r == name).then(|| sha.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// Machine and build description recorded with every result.
fn environment(cfg: &RunCfg) -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpuinfo = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let cpu = cpuinfo
        .lines()
        .find_map(|l| l.strip_prefix("model name"))
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    let online = cpuinfo.lines().filter(|l| l.starts_with("processor")).count();
    Json::obj([
        ("workload", Json::str(cfg.workload)),
        ("seed", Json::from(cfg.seed)),
        ("seconds", Json::from(cfg.seconds)),
        ("trace", Json::from(u64::from(cfg.trace))),
        ("jobs", Json::from(cfg.jobs)),
        ("nproc", Json::from(nproc)),
        ("cpus_online", Json::from(online)),
        ("cpu", Json::str(cpu)),
        ("commit", Json::str(commit())),
        ("rustc", Json::str(env!("PERFBENCH_RUSTC"))),
    ])
}

/// Writes the traced run's spans next to the run's other outputs.
pub fn write_trace(tracer: &Tracer, cfg: &RunCfg) -> Result<(), String> {
    let path = cfg.out_dir.join("trace.json");
    let spans = tracer.write(&path, environment(cfg)).map_err(|e| format!("trace file: {e}"))?;
    eprintln!("trace: {spans} spans in {}", path.display());
    Ok(())
}

fn parse_args() -> Result<RunCfg, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(*WORKLOADS.iter().find(|w| **w == value.as_str()).ok_or_else(|| {
                        format!("unknown workload `{value}` ({})", WORKLOADS.join("|"))
                    })?);
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    let seed = seed.unwrap_or(1);
    let trace = trace.unwrap_or(false);
    let jobs = std::thread::available_parallelism().map_or(1, |n| n.get()).min(MAX_JOBS);
    let out_dir = PathBuf::from(".bench_out").join(format!(
        "{workload}-s{seed}-t{}-p{}",
        u8::from(trace),
        std::process::id()
    ));
    Ok(RunCfg { workload, seed, seconds: seconds.unwrap_or(10.0), trace, jobs, out_dir })
}

fn render(out: &Outcome, metrics: &[(&str, &str, f64)]) -> Result<String, String> {
    let mut pairs = Vec::with_capacity(metrics.len());
    for &(name, unit, value) in metrics {
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite ({value})"));
        }
        pairs.push((name, Json::obj([("value", Json::from(value)), ("unit", Json::str(unit))])));
    }
    let doc = Json::obj([
        ("correct", Json::Bool(out.wrong == 0)),
        ("attempted", Json::from(out.attempted)),
        ("failed", Json::from(out.failed)),
        ("metrics", Json::obj(pairs)),
    ]);
    Ok(doc.render_compact())
}

fn run() -> Result<String, String> {
    let cfg = parse_args()?;
    measure::capture_panics();
    std::fs::create_dir_all(&cfg.out_dir).map_err(|e| format!("output dir: {e}"))?;
    println!("{}", Json::obj([("env", environment(&cfg))]).render_compact());
    let out = match cfg.workload {
        "channels_batch" => channels::run(&cfg),
        "switchbox_serve" => serve::run(&cfg),
        "chip_c1" => chips::run_c1(&cfg),
        _ => chips::run_congested(&cfg),
    };
    // Journals are scratch; the span file of a traced run stays.
    let _ = std::fs::remove_dir_all(cfg.journal_dir());
    if !cfg.trace {
        let _ = std::fs::remove_dir_all(&cfg.out_dir);
        // Only succeeds if no other run left anything there.
        if let Some(parent) = cfg.out_dir.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
    let out = out?;
    for note in &out.notes {
        eprintln!("failed operation: {note}");
    }
    let mut panics = measure::panic_messages();
    panics.dedup();
    for p in panics.iter().take(10) {
        eprintln!("panic: {p}");
    }
    if out.attempted == 0 {
        return Err("no operation ran".to_string());
    }
    let metrics = if cfg.trace { out.per_layer() } else { out.end_to_end() };
    render(&out, &metrics)
}

fn main() -> ExitCode {
    match run() {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
