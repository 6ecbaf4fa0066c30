//! `channels_batch`: seeded generated channels routed as one supervised
//! batch — the `vroute batch --jobs 2 --retries 1 --journal DIR` path.
//! An operation is one channel instance; a round routes the whole batch
//! once, and rounds repeat until the time budget is spent.

use mighty::{
    EngineConfig, EngineStats, MightyRouter, RetryPolicy, RouteEngine, RouterConfig, RunJournal,
    Supervisor,
};
use route_benchdata::format::write_problem;
use route_benchdata::gen::ChannelGen;
use route_model::{NetId, Problem, Routing};

use crate::gate::{self, Tally};
use crate::measure::{median, Budget, Setups, Tracer};
use crate::{derive_seed, file_stats, Failure, Layers, Outcome, ProbeCounter, RunCfg};

/// Tracks above channel density each instance gets: enough slack that
/// the batch measures routing, not infeasibility handling.
const TRACK_SLACK: usize = 3;

/// The batch's fixed shape ladder, cycled over the instances: (width,
/// nets, extra pin percent, span window). Only pin placement comes from
/// the seed, so every seed routes the same number of nets.
const SHAPES: [(usize, u32, u32, usize); 3] = [(40, 16, 0, 13), (60, 25, 30, 20), (80, 34, 40, 26)];

/// Instances per batch. A few instances per seed take 50 to 330 ms
/// against a median of 3 ms, so a batch of 480 took 0.8 to 1.6 s
/// depending on the seed alone; three times as many instances even that
/// out.
const INSTANCES: usize = 1440;

struct Inputs {
    problems: Vec<Problem>,
    keys: Vec<(String, u64)>,
    gen_s: f64,
}

fn generate(seed: u64, cfg: &RunCfg) -> Result<Inputs, String> {
    let t0 = std::time::Instant::now();
    let mut problems = Vec::with_capacity(INSTANCES);
    let mut keys = Vec::with_capacity(INSTANCES);
    for i in 0..INSTANCES {
        let (width, nets, extra_pin_pct, span_window) = SHAPES[i % SHAPES.len()];
        let spec =
            ChannelGen { width, nets, extra_pin_pct, span_window, seed: derive_seed(seed, i) }
                .build();
        let problem = spec.to_problem(spec.density() as usize + TRACK_SLACK);
        keys.push((format!("ch-{i}"), RunJournal::fingerprint(&write_problem(&problem))));
        problems.push(problem);
    }
    let gen_s = t0.elapsed().as_secs_f64();
    std::fs::create_dir_all(cfg.journal_dir()).map_err(|e| format!("journal dir: {e}"))?;
    Ok(Inputs { problems, keys, gen_s })
}

/// What one round leaves behind for the gate and the metrics.
struct Round {
    wall_s: f64,
    /// Per-instance (checksum, failed set), `None` for errors.
    outputs: Vec<Option<(u64, Vec<NetId>)>>,
    stats: EngineStats,
}

/// Routes the batch once. Each instance's routing goes into `kept`,
/// replacing the one of an earlier round, so the gate reads the last
/// routing of every instance without holding a whole batch per round.
fn round(
    inputs: &Inputs,
    cfg: &RunCfg,
    tracer: &Tracer,
    op: u64,
    kept: &mut [Option<Routing>],
    latencies: &mut Vec<f64>,
) -> Result<Round, String> {
    let engine = RouteEngine::new(
        EngineConfig::builder().jobs(cfg.jobs).build().map_err(|e| e.to_string())?,
    );
    let supervisor = Supervisor::new(RouterConfig::default(), RetryPolicy::with_retries(1));
    let t0 = std::time::Instant::now();
    let span = tracer.begin("engine.route_batch_supervised", op, Tracer::root(), 0);
    let journal = RunJournal::create(&cfg.journal_dir(), &inputs.keys)
        .map_err(|e| format!("journal: {e}"))?;
    let batch = crate::measure::isolate(|| {
        engine.route_batch_supervised(&supervisor, &inputs.problems, Some(&journal))
    })?;
    tracer.end(span);
    let wall_s = t0.elapsed().as_secs_f64();
    if let Some(err) = journal.take_error() {
        return Err(format!("journal write: {err}"));
    }
    latencies.extend(batch.timings.iter().map(|t| t.as_secs_f64() * 1e3));
    let outputs = batch
        .outcomes
        .into_iter()
        .zip(kept.iter_mut())
        .map(|(o, slot)| match o.and_then(|o| o.result) {
            Some(Ok(routing)) => {
                let output = (routing.db.checksum(), routing.failed.clone());
                *slot = Some(routing);
                Some(output)
            }
            _ => None,
        })
        .collect();
    Ok(Round { wall_s, outputs, stats: batch.stats })
}

/// Everything the measured rounds of a run leave behind.
struct Measured {
    rounds: Vec<Result<Round, String>>,
    /// The last routing of every instance.
    kept: Vec<Option<Routing>>,
    /// Per-instance routing times of every round, in ms.
    latencies: Vec<f64>,
}

/// Runs the measured rounds for the run's budget, with a set-up sample
/// between rounds when one is due.
fn measure(inputs: &Inputs, cfg: &RunCfg, tracer: &Tracer, setups: &mut dyn FnMut()) -> Measured {
    let mut budget = Budget::new(cfg.seconds);
    let mut rounds = Vec::new();
    let mut kept: Vec<Option<Routing>> = inputs.problems.iter().map(|_| None).collect();
    let mut latencies = Vec::new();
    while budget.next_round() {
        if !rounds.is_empty() {
            setups();
        }
        let op = rounds.len() as u64;
        rounds.push(round(inputs, cfg, tracer, op, &mut kept, &mut latencies));
    }
    Measured { rounds, kept, latencies }
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    let (mut setups, inputs) = Setups::start(
        |_| generate(cfg.seed, cfg),
        |r| r.as_ref().map_or(0, |i| i.keys.iter().fold(0, |h, k| h ^ k.1.rotate_left(7))),
        cfg.seconds,
    );
    let inputs = inputs?;
    let Measured { rounds, kept, latencies } =
        measure(&inputs, cfg, &Tracer::new(false), &mut || setups.tick());
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let setup_s = setups.finish()?;

    let mut out = Outcome::new(setup_s, peak_rss_mb);
    out.latencies_ms = latencies;
    let walls: Vec<f64> = rounds.iter().filter_map(|r| r.as_ref().ok()).map(|r| r.wall_s).collect();
    out.wall_s = median(&walls);

    // Gate: each instance's last routing is checked in full; every round
    // that routed the instance must reproduce it exactly.
    let mut verify_s = 0.0;
    let verdicts: Vec<Option<Result<Tally, String>>> = kept
        .iter()
        .zip(&inputs.problems)
        .enumerate()
        .map(|(i, (routing, problem))| {
            routing.as_ref().map(|r| {
                gate::check(problem, &r.db, &r.failed, &mut verify_s)
                    .map_err(|e| format!("instance {i}: {e}"))
            })
        })
        .collect();
    for r in &rounds {
        match r {
            Err(e) => (0..INSTANCES).for_each(|_| out.op(Err(Failure::Error(e.clone())))),
            Ok(r) => {
                for (i, output) in r.outputs.iter().enumerate() {
                    let reference = kept[i].as_ref().map(|k| (k.db.checksum(), &k.failed));
                    out.op(match (output, &verdicts[i]) {
                        (None, _) | (_, None) => {
                            Err(Failure::Error(format!("instance {i}: routing error")))
                        }
                        (Some(_), Some(Err(e))) => Err(Failure::Wrong(e.clone())),
                        (Some((sum, failed)), Some(Ok(_))) if reference == Some((*sum, failed)) => {
                            Ok(())
                        }
                        (Some(_), Some(Ok(_))) => {
                            Err(Failure::Wrong(format!("instance {i}: rounds disagree")))
                        }
                    });
                }
            }
        }
    }
    for t in verdicts.iter().flatten().flatten() {
        out.tally.add(*t);
    }

    let mut layers = Layers::default();
    layers.set("benchdata.gen_s", inputs.gen_s);
    layers.set("verify.s", verify_s);
    if cfg.trace {
        trace(&inputs, cfg, out.wall_s, &mut layers)?;
    }
    out.layers = layers;
    Ok(out)
}

/// The traced half of a `--trace 1` run: the same rounds with spans
/// around every call, then one observed pass of the rip-up router over
/// the batch for the router and maze counters (the supervised engine
/// path accepts no observer).
fn trace(
    inputs: &Inputs,
    cfg: &RunCfg,
    untraced_wall_s: f64,
    layers: &mut Layers,
) -> Result<(), String> {
    let tracer = Tracer::new(true);
    let rounds = measure(inputs, cfg, &tracer, &mut || {}).rounds;
    let ok: Vec<&Round> = rounds.iter().filter_map(|r| r.as_ref().ok()).collect();
    let last = ok.last().ok_or("no traced round succeeded")?;
    let walls: Vec<f64> = ok.iter().map(|r| r.wall_s).collect();
    let traced_wall = median(&walls);
    let stats = &last.stats;
    let busy: Vec<f64> = ok.iter().map(|r| r.stats.busy_ms as f64 / 1e3).collect();
    layers.set("engine.busy_s", median(&busy));
    layers.set("engine.parallelism", median(&busy) / (traced_wall * stats.jobs as f64));
    layers.set(
        "engine.max_instance_ms",
        ok.iter().map(|r| r.stats.max_instance_ms).max().unwrap_or(0) as f64,
    );
    layers.set("recover.retried", stats.retried as f64);
    layers.set("recover.fell_back", stats.fell_back as f64);
    layers.set("recover.salvaged", stats.salvaged as f64);
    let (bytes, records) = file_stats(&cfg.journal_dir().join(RunJournal::FILE_NAME));
    layers.set("journal.bytes", bytes);
    layers.set("journal.records", records);
    layers.set("trace.overhead_s", traced_wall - untraced_wall_s);

    let router = MightyRouter::new(RouterConfig::default());
    let mut probes = ProbeCounter::default();
    let mut stats = route_model::RouterStats::default();
    let mut nets = 0u64;
    for (i, problem) in inputs.problems.iter().enumerate() {
        let outcome = tracer.scope("router.route_observed", i as u64, Tracer::root(), 0, || {
            router.route_observed(problem, &mut probes)
        });
        stats.absorb(outcome.stats());
        nets += problem.nets().len() as u64;
    }
    layers.router(&stats, nets);
    layers.probes(&probes);
    crate::write_trace(&tracer, cfg)
}
