//! The chip workloads: `chip_c1`, the full C1 chip through
//! `route_hierarchical`, and `chip_congested`, a seeded draw of small
//! congested chips through `route_hierarchical_supervised` with retries,
//! Lee fallback and a crash-safe chip journal. An operation is one chip.

use std::collections::BTreeSet;
use std::time::Instant;

use mighty::ChipJournal;
use route_benchdata::gen::ChipGen;
use route_global::{
    plan_with, route_hierarchical, route_hierarchical_observed, route_hierarchical_supervised,
    ChipStats, ChipSupervision, GlobalConfig, GlobalOutcome, GlobalStats, PlanOrder, TileGrid,
};
use route_model::{NetId, Problem};

use crate::gate::{self, Tally};
use crate::measure::{isolate, median, Budget, Setups, Tracer};
use crate::{derive_seed, file_stats, Failure, Layers, Outcome, ProbeCounter, RunCfg};

/// Tile side of the C1 chip.
const C1_TILE: u32 = 32;

/// Tile side of the congested chips.
const CONGESTED_TILE: u32 = 16;

/// Size of every congested chip (side, nets, macros): the smallest
/// member of the `ChipGen` class of CI's quick config, which runs from
/// 32x32 with 80 nets up to 48x48 with 150 nets. The larger members took
/// 0.6 to 6.7 s per chip, seed to seed, too unsteady for a round's time
/// to be bounded; this one still fails nets after several seam
/// escalations per chip. Placement comes from the seed, the size does
/// not, so every seed routes the same number of nets.
const CONGESTED: (u32, u32, u32) = (32, 80, 2);

/// Chips per congested round.
const CONGESTED_CHIPS: usize = 30;

/// Placement seed of the C1 chip. The chip is ROADMAP's C1
/// configuration, whatever `--seed` says: one chip's time swings from 7
/// to 33 s across placement seeds (the slowest tiles set it), a spread no
/// bound of one chip per run could hold.
const C1_SEED: u64 = 1;

/// Times the C1 chip is routed in a `--trace 0` run, whatever
/// `--seconds` says. One chip takes 12 to 20 s on the reference machine,
/// and chip-to-chip times of the same run differ as much as those of
/// different runs, so a run of one chip reports one draw of the
/// machine's drift; `wall_s` is the median (here the mean) of the chips.
/// A third chip would make every run half again as long.
const C1_ROUNDS: usize = 2;

fn c1() -> ChipGen {
    ChipGen { width: 512, height: 512, nets: 10_560, macros: 24, ..ChipGen::small(C1_SEED) }
}

fn congested(seed: u64) -> Vec<ChipGen> {
    (0..CONGESTED_CHIPS)
        .map(|i| {
            let (side, nets, macros) = CONGESTED;
            ChipGen {
                width: side,
                height: side,
                nets,
                macros,
                ..ChipGen::small(derive_seed(seed, i))
            }
        })
        .collect()
}

/// An order-sensitive fingerprint of a chip's pins, to prove set-up
/// repetitions generate the same chips.
fn fingerprint(problems: &[Problem]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for p in problems {
        for net in p.nets() {
            for pin in &net.pins {
                for v in [pin.at.x as u64, pin.at.y as u64] {
                    h = (h ^ v).wrapping_mul(0x100_0000_01b3);
                }
            }
        }
    }
    h
}

struct Inputs {
    problems: Vec<Problem>,
    gen_s: f64,
}

fn generate(gens: &[ChipGen], cfg: &RunCfg, journals: bool) -> Result<Inputs, String> {
    let t0 = Instant::now();
    let problems = gens.iter().map(ChipGen::build).collect();
    let gen_s = t0.elapsed().as_secs_f64();
    if journals {
        for i in 0..gens.len() {
            std::fs::create_dir_all(chip_journal(cfg, i))
                .map_err(|e| format!("journal dir: {e}"))?;
        }
    }
    Ok(Inputs { problems, gen_s })
}

fn chip_journal(cfg: &RunCfg, chip: usize) -> std::path::PathBuf {
    cfg.journal_dir().join(format!("chip-{chip}"))
}

/// What one routed chip leaves behind.
struct Chip {
    latency_ms: f64,
    outcome: Result<GlobalOutcome, String>,
}

impl Chip {
    fn output(&self) -> Option<(u64, &[NetId])> {
        self.outcome.as_ref().ok().map(|o| (o.db().checksum(), o.failed()))
    }
}

/// Routes every problem once (one round), each chip isolated, with a
/// set-up sample between chips when one is due. Returns the round's
/// routing time (the sum of its chips' times, which leaves the set-up
/// samples out) and its chips.
fn round(
    inputs: &Inputs,
    tracer: &Tracer,
    index: u64,
    route: &dyn Fn(usize, &Problem) -> Result<GlobalOutcome, String>,
    setups: &mut dyn FnMut(),
) -> (f64, Vec<Chip>) {
    let mut chips = Vec::with_capacity(inputs.problems.len());
    for (i, p) in inputs.problems.iter().enumerate() {
        if i > 0 {
            setups();
        }
        let c0 = Instant::now();
        let op = index * inputs.problems.len() as u64 + i as u64;
        let outcome = tracer.scope("global.route_chip", op, Tracer::root(), 0, || {
            isolate(|| route(i, p)).and_then(|r| r)
        });
        chips.push(Chip { latency_ms: c0.elapsed().as_secs_f64() * 1e3, outcome });
    }
    (chips.iter().map(|c| c.latency_ms).sum::<f64>() / 1e3, chips)
}

/// Runs `fixed` rounds, or as many as fit the run's budget; returns
/// per-round walls and chips.
fn measure(
    inputs: &Inputs,
    cfg: &RunCfg,
    tracer: &Tracer,
    route: &dyn Fn(usize, &Problem) -> Result<GlobalOutcome, String>,
    fixed: Option<usize>,
    setups: &mut dyn FnMut(),
) -> Vec<(f64, Vec<Chip>)> {
    let mut budget = Budget::new(cfg.seconds);
    let mut rounds = Vec::new();
    while fixed.map_or_else(|| budget.next_round(), |n| rounds.len() < n) {
        if !rounds.is_empty() {
            setups();
        }
        rounds.push(round(inputs, tracer, rounds.len() as u64, route, setups));
    }
    rounds
}

/// Gates each chip's last routed output in full and every other round's
/// output of that chip against it, and fills the end-to-end fields of
/// `out`.
fn judge(inputs: &Inputs, rounds: &[(f64, Vec<Chip>)], out: &mut Outcome) -> f64 {
    let mut verify_s = 0.0;
    let reference: Vec<Option<&GlobalOutcome>> = (0..inputs.problems.len())
        .map(|i| rounds.iter().rev().find_map(|(_, chips)| chips[i].outcome.as_ref().ok()))
        .collect();
    let verdicts: Vec<Option<Result<Tally, String>>> = reference
        .iter()
        .zip(&inputs.problems)
        .enumerate()
        .map(|(i, (o, problem))| {
            o.map(|o| {
                gate::check(problem, o.db(), o.failed(), &mut verify_s)
                    .map_err(|e| format!("chip {i}: {e}"))
            })
        })
        .collect();
    for (_, chips) in rounds {
        for (i, chip) in chips.iter().enumerate() {
            out.latencies_ms.push(chip.latency_ms);
            let expected = reference[i].map(|o| (o.db().checksum(), o.failed()));
            out.op(match &chip.outcome {
                Err(e) => Err(Failure::Error(format!("chip {i}: {e}"))),
                Ok(o) => match (o.journal_error(), &verdicts[i]) {
                    (Some(e), _) => Err(Failure::Error(format!("chip {i}: journal: {e}"))),
                    (None, Some(Err(e))) => Err(Failure::Wrong(e.clone())),
                    (None, Some(Ok(_))) if chip.output() == expected => Ok(()),
                    (None, _) => Err(Failure::Wrong(format!("chip {i}: rounds disagree"))),
                },
            });
        }
    }
    for t in verdicts.iter().flatten().flatten() {
        out.tally.add(*t);
    }
    let walls: Vec<f64> = rounds.iter().map(|(w, _)| *w).collect();
    out.wall_s = median(&walls);
    verify_s
}

/// The chip-flow counters of every routed chip of a round, summed.
fn chip_counters(chips: &[Chip], layers: &mut Layers) {
    let mut c = ChipStats::default();
    let mut g = GlobalStats::default();
    for o in chips.iter().filter_map(|c| c.outcome.as_ref().ok()) {
        let (s, t) = (o.chip_stats(), o.stats());
        c.tiles_routed += s.tiles_routed;
        c.tiles_errored += s.tiles_errored;
        c.tiles_retried += s.tiles_retried;
        c.tiles_fell_back += s.tiles_fell_back;
        c.tiles_salvaged += s.tiles_salvaged;
        c.seam_escalations += s.seam_escalations;
        c.seams_repaired += s.seams_repaired;
        c.seam_ripups += s.seam_ripups;
        c.seam_completed += s.seam_completed;
        c.pruned_steps += s.pruned_steps;
        g.crossings += t.crossings;
        g.dropped += t.dropped;
        g.fallback_completed += t.fallback_completed;
    }
    layers.set("global.tiles_routed", c.tiles_routed as f64);
    layers.set("global.tiles_errored", c.tiles_errored as f64);
    layers.set("global.crossings", g.crossings as f64);
    layers.set("global.dropped", g.dropped as f64);
    layers.set("global.seams_repaired", c.seams_repaired as f64);
    layers.set("global.seam_escalations", c.seam_escalations as f64);
    layers.set("global.seam_ripups", c.seam_ripups as f64);
    layers.set("global.seam_completed", c.seam_completed as f64);
    layers.set("global.fallback_completed", g.fallback_completed as f64);
    layers.set("global.pruned_steps", c.pruned_steps as f64);
    layers.set("recover.retried", c.tiles_retried as f64);
    layers.set("recover.fell_back", c.tiles_fell_back as f64);
    layers.set("recover.salvaged", c.tiles_salvaged as f64);
}

/// Times the planning stage on its own: tile grid plus global plan.
fn plan_seconds(inputs: &Inputs, tile: u32, tracer: &Tracer) -> f64 {
    let t0 = Instant::now();
    for (i, p) in inputs.problems.iter().enumerate() {
        tracer.scope("global.plan", i as u64, Tracer::root(), 0, || {
            let tiles = TileGrid::new(p, tile);
            std::hint::black_box(plan_with(p, &tiles, PlanOrder::Bbox, &BTreeSet::new()));
        });
    }
    t0.elapsed().as_secs_f64()
}

fn global_config(cfg: &RunCfg, tile: u32) -> GlobalConfig {
    GlobalConfig { tile, jobs: cfg.jobs, ..GlobalConfig::default() }
}

pub fn run_c1(cfg: &RunCfg) -> Result<Outcome, String> {
    let gens = [c1()];
    let (mut setups, inputs) = Setups::start(
        |_| generate(&gens, cfg, false),
        |r| r.as_ref().map_or(0, |i| fingerprint(&i.problems)),
        cfg.seconds,
    );
    let inputs = inputs?;
    let gcfg = global_config(cfg, C1_TILE);
    let route = |_: usize, p: &Problem| Ok(route_hierarchical(p, &gcfg));
    // A traced run reports no end-to-end metric: one untraced chip is
    // enough for the tracing overhead.
    let chips = if cfg.trace { 1 } else { C1_ROUNDS };
    let rounds =
        measure(&inputs, cfg, &Tracer::new(false), &route, Some(chips), &mut || setups.tick());
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let mut out = Outcome::new(setups.finish()?, peak_rss_mb);
    let verify_s = judge(&inputs, &rounds, &mut out);
    let walls: Vec<String> = rounds.iter().map(|(w, _)| format!("{w:.3}")).collect();
    eprintln!("chip times: {} s", walls.join(" "));

    let mut layers = Layers::default();
    layers.set("benchdata.gen_s", inputs.gen_s);
    layers.set("verify.s", verify_s);
    if cfg.trace {
        let tracer = Tracer::new(true);
        layers.set("global.plan_s", plan_seconds(&inputs, C1_TILE, &tracer));
        let probes = std::cell::RefCell::new(ProbeCounter::default());
        let observed = |_: usize, p: &Problem| {
            Ok(route_hierarchical_observed(p, &gcfg, &mut *probes.borrow_mut()))
        };
        let traced = measure(&inputs, cfg, &tracer, &observed, Some(1), &mut || {});
        let walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        layers.set("trace.overhead_s", median(&walls) - out.wall_s);
        if let Some((_, chips)) = traced.last() {
            chip_counters(chips, &mut layers);
        }
        // Seam searches of the one traced chip.
        let p = probes.into_inner();
        layers.set("global.seam_searches", p.searches as f64);
        layers.set("global.seam_expanded", p.expanded as f64);
        crate::write_trace(&tracer, cfg)?;
    }
    out.layers = layers;
    Ok(out)
}

pub fn run_congested(cfg: &RunCfg) -> Result<Outcome, String> {
    let gens = congested(cfg.seed);
    let (mut setups, inputs) = Setups::start(
        |_| generate(&gens, cfg, true),
        |r| r.as_ref().map_or(0, |i| fingerprint(&i.problems)),
        cfg.seconds,
    );
    let inputs = inputs?;
    let gcfg = global_config(cfg, CONGESTED_TILE);
    let supervision = ChipSupervision { retries: 1, fallback: true, seed: cfg.seed, fault: None };
    let route = |i: usize, p: &Problem| {
        let journal =
            ChipJournal::create(&chip_journal(cfg, i)).map_err(|e| format!("journal: {e}"))?;
        Ok(route_hierarchical_supervised(p, &gcfg, &supervision, Some(&journal)))
    };
    let rounds = measure(&inputs, cfg, &Tracer::new(false), &route, None, &mut || setups.tick());
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let mut out = Outcome::new(setups.finish()?, peak_rss_mb);
    let verify_s = judge(&inputs, &rounds, &mut out);

    let mut layers = Layers::default();
    layers.set("benchdata.gen_s", inputs.gen_s);
    layers.set("verify.s", verify_s);
    if cfg.trace {
        let tracer = Tracer::new(true);
        layers.set("global.plan_s", plan_seconds(&inputs, CONGESTED_TILE, &tracer));
        let traced = measure(&inputs, cfg, &tracer, &route, None, &mut || {});
        let walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        layers.set("trace.overhead_s", median(&walls) - out.wall_s);
        if let Some((_, chips)) = traced.last() {
            chip_counters(chips, &mut layers);
        }
        let (mut bytes, mut records) = (0.0, 0.0);
        for i in 0..inputs.problems.len() {
            let (b, r) = file_stats(&chip_journal(cfg, i).join(ChipJournal::FILE_NAME));
            bytes += b;
            records += r;
        }
        layers.set("journal.bytes", bytes);
        layers.set("journal.records", records);
        crate::write_trace(&tracer, cfg)?;
    }
    out.layers = layers;
    Ok(out)
}
