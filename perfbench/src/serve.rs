//! `switchbox_serve`: an open-loop request stream into the routing
//! service. One generator thread submits dense switchboxes to a warm
//! [`RouteService`] at a fixed rate, doing per request what
//! the `vroute serve` daemon does: encode and decode the wire request,
//! journal it before routing, and after the reply verify, encode the
//! response, decode it client-side and journal the completion. An
//! operation is one request; its latency runs from its due time on the
//! schedule to its decoded reply.

use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use mighty::{
    JobDone, JobSpec, MightyRouter, RouteService, RouterConfig, ServeJournal, ServiceConfig,
    ServiceReply,
};
use route_benchdata::format::{parse_problem, write_problem};
use route_benchdata::gen::SwitchboxGen;
use route_model::{Problem, RouteError, RouterStats, Routing};
use route_proto::{
    decode_request, decode_server_msg, encode_request, response_err, response_ok, ErrorCode, Json,
    Request as WireRequest, RouteOutcomeReport, RouteRequest, ServerMsg, WireError,
};
use route_verify::verify;

use crate::gate;
use crate::measure::{median, quantile, Setups, SpanId, Tracer};
use crate::{derive_seed, file_stats, Failure, Layers, Outcome, ProbeCounter, RunCfg};

/// Offered load in requests per second: about a third of the two-worker
/// service's saturation throughput on the reference machine, and half of
/// it while that machine runs slow (see the README). Fixed, so the
/// schedule never depends on the machine.
const RATE_PER_S: f64 = 35.0;

/// Switchbox shape: 16x16 with 24 two-pin nets uses 48 of the 60
/// boundary slots, dense enough that the router rips up heavily.
const BOX: (u32, u32, u32) = (16, 16, 24);

/// Warm-up jobs per worker before the schedule starts. They route one
/// fixed box, so the set-up cost does not depend on the seed.
const WARM_JOBS: usize = 2;

/// Seed of the warm-up box.
const WARM_SEED: u64 = 0x3a11;

/// The open-loop request stream: request `i` routes `boxes[i]` and is
/// due `i / RATE_PER_S` seconds after the start, whatever happened to
/// the requests before it. Every request carries its own box, drawn
/// from the seed.
struct Inputs {
    boxes: Vec<Problem>,
    /// Instance texts, as a client would read them from files.
    texts: Vec<String>,
    gen_s: f64,
}

impl Inputs {
    fn due(&self, i: usize) -> Duration {
        Duration::from_secs_f64(i as f64 / RATE_PER_S)
    }
}

fn generate(seed: u64, seconds: f64) -> Inputs {
    let t0 = Instant::now();
    let n = ((RATE_PER_S * seconds).round() as usize).max(1);
    let (width, height, nets) = BOX;
    let boxes: Vec<Problem> = (0..n)
        .map(|i| SwitchboxGen { width, height, nets, seed: derive_seed(seed, i) }.build())
        .collect();
    let texts = boxes.iter().map(write_problem).collect();
    Inputs { boxes, texts, gen_s: t0.elapsed().as_secs_f64() }
}

/// A started, warmed service with its journal.
struct Server {
    service: RouteService,
    journal: ServeJournal,
    /// The journal's directory.
    dir: PathBuf,
}

/// Starts and warms a service journaling into `dir`.
fn start(cfg: &RunCfg, dir: PathBuf) -> Result<Server, String> {
    let config = ServiceConfig::builder()
        .workers(cfg.jobs)
        .queue_capacity(256)
        .build()
        .map_err(|e| e.to_string())?;
    let service = RouteService::start(config).map_err(|e| e.to_string())?;
    let journal = ServeJournal::create(&dir).map_err(|e| format!("journal: {e}"))?;
    let (tx, rx) = mpsc::channel();
    let warm = WARM_JOBS * cfg.jobs;
    let (width, height, nets) = BOX;
    let problem = SwitchboxGen { width, height, nets, seed: WARM_SEED }.build();
    for i in 0..warm {
        service
            .submit(JobSpec::new(i as u64, problem.clone()), tx.clone())
            .map_err(|e| format!("warm-up: {e}"))?;
    }
    for _ in 0..warm {
        rx.recv().map_err(|_| "warm-up reply lost".to_string())?;
    }
    Ok(Server { service, journal, dir })
}

/// Per-request record the collector fills.
struct Reply {
    latency_ms: f64,
    queued_ms: u64,
    route_ms: u64,
    /// The decoded `result` object of an `ok` response, or the refusal.
    result: Result<Json, String>,
    routing: Option<Routing>,
}

/// Timings the traced phase sums per layer.
#[derive(Default)]
struct LayerClock {
    codec_ns: AtomicU64,
    journal_ns: AtomicU64,
    /// Encoded request bytes. Replies carry their timings, so their
    /// length would not repeat from run to run; requests do.
    request_bytes: AtomicU64,
}

impl LayerClock {
    fn time<T>(counter: &AtomicU64, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        counter.fetch_add(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

struct Phase {
    replies: Vec<Option<Reply>>,
    wall_s: f64,
    late_max_ms: f64,
    rejected: u64,
}

/// Runs the schedule once against `server`.
fn phase(server: &Server, inputs: &Inputs, tracer: &Tracer, clock: &LayerClock) -> Phase {
    let n = inputs.boxes.len();
    let rids: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(0)).collect();
    let spans: Vec<AtomicU64> = (0..n).map(|_| AtomicU64::new(u64::MAX)).collect();
    let refused = AtomicUsize::new(0);
    let late_ns = AtomicU64::new(0);
    let rejected_before = server.service.stats().rejected;
    let (tx, rx) = mpsc::channel::<ServiceReply>();
    let mut replies: Vec<Option<Reply>> = (0..n).map(|_| None).collect();
    let start = Instant::now();
    let mut last_reply = start;

    std::thread::scope(|s| {
        // Generator: submits request i at its due time, whatever the
        // state of earlier requests (open loop).
        let (rids, spans, refused, late_ns) = (&rids, &spans, &refused, &late_ns);
        let replies_tx = tx;
        let generator = s.spawn(move || {
            for i in 0..n {
                let due = start + inputs.due(i);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let late = Instant::now().saturating_duration_since(due).as_nanos() as u64;
                late_ns.fetch_max(late, Ordering::Relaxed);
                let root = tracer.begin("serve.request", i as u64, Tracer::root(), 1);
                spans[i].store(root.index().unwrap_or(u64::MAX), Ordering::Relaxed);
                let req = Request { i, rid: &rids[i], root };
                if !submit_one(server, inputs, &req, &replies_tx, tracer, clock) {
                    refused.fetch_add(1, Ordering::SeqCst);
                    tracer.end(root);
                }
            }
        });

        // Collector: replies in completion order, each finished as the
        // daemon finishes it.
        let mut answered = 0usize;
        while answered + refused.load(Ordering::SeqCst) < n || !generator.is_finished() {
            let Ok(ServiceReply::Done(done)) = rx.recv_timeout(Duration::from_millis(20)) else {
                continue;
            };
            let i = done.tag as usize;
            let root = SpanId::from_index(spans[i].load(Ordering::Relaxed));
            let req = Request { i, rid: &rids[i], root };
            let mut reply = finish_one(server, inputs, *done, &req, tracer, clock);
            let now = Instant::now();
            last_reply = last_reply.max(now);
            reply.latency_ms =
                now.saturating_duration_since(start + inputs.due(i)).as_secs_f64() * 1e3;
            replies[i] = Some(reply);
            tracer.end(root);
            answered += 1;
        }
        let _ = generator.join();
    });

    // Refused requests still get an error response and a journal
    // completion, like the daemon's. Their latency counts to the end of
    // the phase, so a refusal never improves a percentile.
    let end = Instant::now();
    for (i, slot) in replies.iter_mut().enumerate() {
        if slot.is_none() {
            let err = WireError::new(ErrorCode::Overloaded, "refused");
            let line = response_err(Some(&format!("r{i}")), &err).render_compact();
            server.journal.done(rids[i].load(Ordering::Relaxed), err.code.as_str());
            *slot = Some(Reply {
                latency_ms: end.saturating_duration_since(start + inputs.due(i)).as_secs_f64()
                    * 1e3,
                queued_ms: 0,
                route_ms: 0,
                result: Err(line),
                routing: None,
            });
        }
    }
    Phase {
        replies,
        wall_s: last_reply.saturating_duration_since(start).as_secs_f64(),
        late_max_ms: late_ns.load(Ordering::Relaxed) as f64 / 1e6,
        rejected: server.service.stats().rejected - rejected_before,
    }
}

/// One scheduled request on its way into the service.
struct Request<'a> {
    i: usize,
    /// Where the journal rid goes, before the job can complete.
    rid: &'a AtomicU64,
    root: SpanId,
}

/// The daemon's request half: encode (client), journal, decode and
/// parse (server), submit. Returns false if the request was refused.
fn submit_one(
    server: &Server,
    inputs: &Inputs,
    req: &Request,
    tx: &mpsc::Sender<ServiceReply>,
    tracer: &Tracer,
    clock: &LayerClock,
) -> bool {
    let (op, root) = (req.i as u64, req.root);
    let line = tracer.scope("proto.encode_request", op, root, 1, || {
        LayerClock::time(&clock.codec_ns, || {
            let mut wire = RouteRequest::new(inputs.texts[req.i].as_str());
            wire.id = Some(format!("r{}", req.i));
            encode_request(&WireRequest::Route(wire)).render_compact()
        })
    });
    clock.request_bytes.fetch_add(line.len() as u64 + 1, Ordering::Relaxed);
    let rid = tracer.scope("journal.accept", op, root, 1, || {
        LayerClock::time(&clock.journal_ns, || server.journal.accept(&line))
    });
    req.rid.store(rid, Ordering::SeqCst);
    let problem = tracer.scope("proto.decode_request", op, root, 1, || {
        LayerClock::time(&clock.codec_ns, || match decode_request(&line) {
            Ok(WireRequest::Route(r)) => parse_problem(&r.instance).ok(),
            _ => None,
        })
    });
    let Some(problem) = problem else { return false };
    let spec = JobSpec::new(op, problem);
    tracer.scope("service.submit", op, root, 1, || server.service.submit(spec, tx.clone())).is_ok()
}

/// The daemon's reply half: verify, build and render the response,
/// decode it client-side, journal the completion. The caller fills in
/// the latency.
fn finish_one(
    server: &Server,
    inputs: &Inputs,
    done: JobDone,
    req: &Request,
    tracer: &Tracer,
    clock: &LayerClock,
) -> Reply {
    let (i, op, root) = (req.i, req.i as u64, req.root);
    let problem = &inputs.boxes[i];
    let route_ms = done.total_ms.saturating_sub(done.queued_ms);
    let (report, routing) = match done.result {
        Ok(routing) => {
            let report = tracer.scope("verify.reply", op, root, 2, || verify(problem, &routing.db));
            let stats = routing.db.stats();
            let outcome = RouteOutcomeReport::Routed {
                legal: report.is_clean() || report.is_legal_but_incomplete(),
                complete: routing.is_complete(),
                wire: stats.wirelength,
                vias: stats.vias,
                checksum: routing.db.checksum(),
            };
            (outcome, Some(routing))
        }
        Err(RouteError::Infeasible { reason }) => (RouteOutcomeReport::Infeasible { reason }, None),
        Err(e) => (RouteOutcomeReport::Failed { error: e.to_string() }, None),
    };
    let status = report.status();
    let id = format!("r{i}");
    let decoded = tracer.scope("proto.reply", op, root, 2, || {
        LayerClock::time(&clock.codec_ns, || {
            let mut pairs = report.pairs();
            pairs.push(("ms".to_string(), Json::from(done.total_ms)));
            pairs.push(("queued_ms".to_string(), Json::from(done.queued_ms)));
            let line = response_ok(Some(&id), Json::Obj(pairs)).render_compact();
            match decode_server_msg(&line) {
                Ok(ServerMsg::Ok { id: Some(got), result }) if got == id => Ok(result),
                Ok(other) => Err(format!("unexpected reply {other:?}")),
                Err(e) => Err(e.to_string()),
            }
        })
    });
    tracer.scope("journal.done", op, root, 2, || {
        LayerClock::time(&clock.journal_ns, || {
            server.journal.done(req.rid.load(Ordering::SeqCst), status)
        })
    });
    Reply { latency_ms: 0.0, queued_ms: done.queued_ms, route_ms, result: decoded, routing }
}

/// Gate one reply against the cold-routing checksum of its problem.
fn check(
    reply: &Reply,
    problem: &Problem,
    cold: u64,
    verify_s: &mut f64,
) -> Result<gate::Tally, Failure> {
    let result = reply.result.as_ref().map_err(|e| Failure::Error(e.clone()))?;
    match result.get("status").and_then(Json::as_str).unwrap_or("missing") {
        "complete" | "incomplete" => {}
        "illegal" => return Err(Failure::Wrong("reply status illegal".into())),
        other => return Err(Failure::Error(format!("reply status {other}"))),
    }
    let checksum = result.get("checksum").and_then(Json::as_str).unwrap_or_default();
    if checksum != format!("{cold:016x}") {
        return Err(Failure::Wrong(format!("checksum {checksum} differs from cold {cold:016x}")));
    }
    let routing = reply.routing.as_ref().ok_or_else(|| Failure::Wrong("no routing".into()))?;
    gate::check(problem, &routing.db, &routing.failed, verify_s).map_err(Failure::Wrong)
}

/// Cold routing of every box by a fresh router, split over `jobs`
/// threads: the parity reference for the replies' checksums, and the
/// source of the router and maze counters.
fn cold_route(boxes: &[Problem], jobs: usize) -> (Vec<u64>, RouterStats, ProbeCounter) {
    let chunk = boxes.len().div_ceil(jobs.max(1)).max(1);
    let parts: Vec<(Vec<u64>, RouterStats, ProbeCounter)> = std::thread::scope(|s| {
        let handles: Vec<_> = boxes
            .chunks(chunk)
            .map(|part| {
                s.spawn(move || {
                    let router = MightyRouter::new(RouterConfig::default());
                    let mut stats = RouterStats::default();
                    let mut probes = ProbeCounter::default();
                    let sums = part
                        .iter()
                        .map(|p| {
                            let outcome = router.route_observed(p, &mut probes);
                            stats.absorb(outcome.stats());
                            outcome.db().checksum()
                        })
                        .collect();
                    (sums, stats, probes)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("cold routing thread")).collect()
    });
    let mut all =
        (Vec::with_capacity(boxes.len()), RouterStats::default(), ProbeCounter::default());
    for (sums, stats, probes) in parts {
        all.0.extend(sums);
        all.1.absorb(&stats);
        all.2.merge(&probes);
    }
    all
}

pub fn run(cfg: &RunCfg) -> Result<Outcome, String> {
    // Every set-up repetition journals into a directory of its own, so
    // none truncates the journal of the service the run uses. The
    // open-loop phase has no gaps between operations, so its set-up
    // samples come from the windows before and after it.
    let (setups, (inputs, server)) = Setups::start(
        |k| {
            let dir = cfg.journal_dir().join(format!("setup-{k}"));
            (generate(cfg.seed, cfg.seconds), start(cfg, dir))
        },
        |(inputs, _)| {
            inputs
                .texts
                .iter()
                .fold(0u64, |h, t| h.rotate_left(5) ^ mighty::RunJournal::fingerprint(t))
        },
        cfg.seconds,
    );
    let server = server?;
    let clock = LayerClock::default();
    let untraced = phase(&server, &inputs, &Tracer::new(false), &clock);
    let peak_rss_mb = crate::measure::peak_rss_mb();
    let setup_s = setups.finish()?;

    // Gate: every reply against cold routing of the same box.
    let (cold, router_stats, probes) = cold_route(&inputs.boxes, cfg.jobs);
    let mut out = Outcome::new(setup_s, peak_rss_mb);
    let mut verify_s = 0.0;
    for (i, reply) in untraced.replies.iter().enumerate() {
        let reply = reply.as_ref().expect("phase fills every reply");
        match check(reply, &inputs.boxes[i], cold[i], &mut verify_s) {
            Ok(t) => {
                out.tally.add(t);
                out.op(Ok(()));
            }
            Err(f) => out.op(Err(f)),
        }
        out.latencies_ms.push(reply.latency_ms);
    }
    out.wall_s = untraced.wall_s;

    let mut layers = Layers::default();
    layers.set("benchdata.gen_s", inputs.gen_s);
    layers.set("verify.s", verify_s);
    if cfg.trace {
        let nets = inputs.boxes.iter().map(|p| p.nets().len() as u64).sum();
        layers.router(&router_stats, nets);
        layers.probes(&probes);
        let tracer = Tracer::new(true);
        let clock = LayerClock::default();
        let path = server.dir.join(ServeJournal::FILE_NAME);
        let (bytes0, records0) = file_stats(&path);
        let traced = phase(&server, &inputs, &tracer, &clock);
        let (bytes1, records1) = file_stats(&path);
        let replies: Vec<&Reply> = traced.replies.iter().flatten().collect();
        let queued: Vec<f64> = replies.iter().map(|r| r.queued_ms as f64).collect();
        let routed: Vec<f64> = replies.iter().map(|r| r.route_ms as f64).collect();
        layers.set("serve.queue_wait_p50_ms", median(&queued));
        layers.set("serve.queue_wait_p95_ms", quantile(&queued, 0.95));
        layers.set("serve.route_p50_ms", median(&routed));
        layers.set("serve.rejected", traced.rejected as f64);
        layers.set("serve.generator_late_ms", traced.late_max_ms);
        layers.set("proto.codec_ms", clock.codec_ns.load(Ordering::Relaxed) as f64 / 1e6);
        layers.set("proto.bytes", clock.request_bytes.load(Ordering::Relaxed) as f64);
        layers.set("journal.append_ms", clock.journal_ns.load(Ordering::Relaxed) as f64 / 1e6);
        layers.set("journal.bytes", bytes1 - bytes0);
        layers.set("journal.records", records1 - records0);
        layers.set("trace.overhead_s", traced.wall_s - untraced.wall_s);
        crate::write_trace(&tracer, cfg)?;
    }
    server.service.shutdown();
    out.layers = layers;
    Ok(out)
}
