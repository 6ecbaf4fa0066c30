//! Measurement plumbing shared by every workload: quantiles, the run's
//! time budget, repeated set-up, peak memory, panic capture and the
//! in-memory span recorder behind `--trace 1`.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use route_proto::Json;

/// Set-up samples a run aims for, spread over its whole length.
const SETUP_SAMPLES: f64 = 24.0;

/// Set-up samples taken back to back right before the measured phase,
/// and again right after it.
const SETUP_WINDOW_SAMPLES: usize = 6;

/// The `q`-quantile of `values` by linear interpolation between closest
/// ranks (the "inclusive" method). Returns 0 for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// The median of `values` (0 for an empty slice).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The repeated set-up behind `setup_s`. One set-up takes 2 to 300 ms
/// of memory-bound work, and the reference machine runs such work up to
/// 2x slower while other tenants load its memory, in spells from under
/// a second to minutes. So the samples are spread over the whole run: a
/// few before the measured phase, one between operations whenever a
/// 24th of the run has passed, a few after it, and then one every 24th
/// until the run's time is up. `setup_s` is their minimum, the set-up's
/// cost outside those spells: a median would follow how much of the run
/// the spells cover, which changes from run to run.
///
/// Every repetition must produce the same inputs (`fingerprint`
/// compares them), so a generator that stopped being a pure function of
/// its seed shows up as an error instead of as timing noise.
pub struct Setups<'a, T> {
    /// Builds the inputs; the argument numbers the repetition.
    make: Box<dyn FnMut(usize) -> T + 'a>,
    fingerprint: Box<dyn Fn(&T) -> u64 + 'a>,
    print: u64,
    times: Vec<f64>,
    every: Duration,
    last: Instant,
    /// When the run's time is up.
    end: Instant,
    error: Option<String>,
}

impl<'a, T> Setups<'a, T> {
    /// Times the first set-up, then samples the window before the
    /// measured phase of a `seconds` run. Returns the first set-up's
    /// product, which the run uses.
    pub fn start(
        mut make: impl FnMut(usize) -> T + 'a,
        fingerprint: impl Fn(&T) -> u64 + 'a,
        seconds: f64,
    ) -> (Setups<'a, T>, T) {
        let t0 = Instant::now();
        let product = make(0);
        let first = t0.elapsed().as_secs_f64();
        let mut setups = Setups {
            print: fingerprint(&product),
            make: Box::new(make),
            fingerprint: Box::new(fingerprint),
            times: vec![first],
            every: Duration::from_secs_f64(seconds / SETUP_SAMPLES),
            last: Instant::now(),
            end: t0 + Duration::from_secs_f64(seconds),
            error: None,
        };
        setups.window();
        (setups, product)
    }

    /// One timed repetition. Its product is dropped (a started service
    /// shuts down) outside the timed region.
    fn sample(&mut self) {
        let t0 = Instant::now();
        let product = (self.make)(self.times.len());
        self.times.push(t0.elapsed().as_secs_f64());
        let print = (self.fingerprint)(&product);
        if print != self.print && self.error.is_none() {
            self.error =
                Some(format!("set-up is not deterministic: {:016x} vs {print:016x}", self.print));
        }
        drop(product);
        self.last = Instant::now();
    }

    /// Samples [`SETUP_WINDOW_SAMPLES`] times back to back.
    fn window(&mut self) {
        for _ in 0..SETUP_WINDOW_SAMPLES {
            self.sample();
        }
    }

    /// Called between two operations of the measured phase, outside
    /// their timed regions: takes a sample if one is due.
    pub fn tick(&mut self) {
        if self.last.elapsed() >= self.every {
            self.sample();
        }
    }

    /// Samples the window after the measured phase and on, one every
    /// 24th of the run, while the run has time left; returns the
    /// fastest set-up in seconds.
    pub fn finish(mut self) -> Result<f64, String> {
        self.window();
        while self.last + self.every < self.end {
            std::thread::sleep((self.last + self.every).saturating_duration_since(Instant::now()));
            self.sample();
        }
        if let Some(e) = self.error {
            return Err(e);
        }
        let fastest = quantile(&self.times, 0.0);
        eprintln!(
            "set-up: {} samples, min {fastest:.6} median {:.6} max {:.6} s",
            self.times.len(),
            median(&self.times),
            quantile(&self.times, 1.0)
        );
        Ok(fastest)
    }
}

/// The time budget of a run's measured phase: a new round starts only
/// while its predicted end (the mean round so far) stays inside the
/// budget, and at least one round always runs.
pub struct Budget {
    start: Instant,
    limit: Duration,
    rounds: u32,
}

impl Budget {
    /// A budget of `seconds` starting now.
    pub fn new(seconds: f64) -> Budget {
        Budget { start: Instant::now(), limit: Duration::from_secs_f64(seconds), rounds: 0 }
    }

    /// Whether another round fits; counts it if so.
    pub fn next_round(&mut self) -> bool {
        let elapsed = self.start.elapsed();
        let fits = match self.rounds {
            0 => true,
            n => elapsed + elapsed / n < self.limit,
        };
        if fits {
            self.rounds += 1;
        }
        fits
    }
}

/// The process's peak resident set (`VmHWM`), in MiB; 0 where
/// `/proc/self/status` is unavailable.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Panic messages caught by [`isolate`], in order.
static PANICS: Mutex<Vec<String>> = Mutex::new(Vec::new());

/// Installs a panic hook that records messages instead of printing a
/// backtrace for every isolated operation; [`panic_messages`] returns
/// them at the end of the run.
pub fn capture_panics() {
    panic::set_hook(Box::new(|info| {
        let at = info.location().map(|l| format!(" at {}:{}", l.file(), l.line()));
        let msg = payload_text(info.payload());
        if let Ok(mut list) = PANICS.lock() {
            list.push(format!("{msg}{}", at.unwrap_or_default()));
        }
    }));
}

/// Every panic message recorded so far.
pub fn panic_messages() -> Vec<String> {
    PANICS.lock().map(|l| l.clone()).unwrap_or_default()
}

fn payload_text(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// Runs one operation, turning a panic into an error so it counts as a
/// failed operation instead of ending the run.
pub fn isolate<T>(op: impl FnOnce() -> T) -> Result<T, String> {
    panic::catch_unwind(AssertUnwindSafe(op))
        .map_err(|p| format!("panicked: {}", payload_text(&*p)))
}

/// One recorded span: a named interval around a call into a layer.
struct Span {
    name: &'static str,
    start: Duration,
    end: Duration,
    /// Index of the enclosing span, if any.
    parent: Option<usize>,
    /// The operation (instance, request, chip) the span belongs to.
    op: u64,
    thread: u64,
}

/// In-memory span recorder. Disabled recorders cost one branch per
/// call; enabled ones push under a mutex and write everything once, as
/// a Chrome trace-event file, when the run ends.
pub struct Tracer {
    origin: Instant,
    spans: Option<Mutex<Vec<Span>>>,
}

/// Identifies a started span; pass it to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct SpanId(Option<usize>);

impl SpanId {
    /// The span's index, for handing it to another thread.
    pub fn index(self) -> Option<u64> {
        self.0.map(|i| i as u64)
    }

    /// The inverse of [`index`](SpanId::index); `u64::MAX` is no span.
    pub fn from_index(index: u64) -> SpanId {
        SpanId((index != u64::MAX).then_some(index as usize))
    }
}

impl Tracer {
    /// A recorder that records only when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer { origin: Instant::now(), spans: enabled.then(|| Mutex::new(Vec::new())) }
    }

    /// Opens a span named `name` for operation `op` under `parent`.
    pub fn begin(&self, name: &'static str, op: u64, parent: SpanId, thread: u64) -> SpanId {
        let Some(spans) = &self.spans else { return SpanId(None) };
        let start = self.origin.elapsed();
        let mut list = spans.lock().expect("span list mutex");
        list.push(Span { name, start, end: start, parent: parent.0, op, thread });
        SpanId(Some(list.len() - 1))
    }

    /// Closes `span`.
    pub fn end(&self, span: SpanId) {
        if let (Some(spans), Some(idx)) = (&self.spans, span.0) {
            let end = self.origin.elapsed();
            spans.lock().expect("span list mutex")[idx].end = end;
        }
    }

    /// Times `f` inside a span.
    pub fn scope<T>(
        &self,
        name: &'static str,
        op: u64,
        parent: SpanId,
        thread: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let span = self.begin(name, op, parent, thread);
        let out = f();
        self.end(span);
        out
    }

    /// The top-level parent.
    pub fn root() -> SpanId {
        SpanId(None)
    }

    /// Writes the recorded spans to `path` in the Chrome trace-event
    /// format (opens in Perfetto or `chrome://tracing`), with `env` as
    /// the file's metadata. Returns the number of spans written.
    pub fn write(&self, path: &Path, env: Json) -> std::io::Result<usize> {
        let Some(spans) = &self.spans else { return Ok(0) };
        let list = spans.lock().expect("span list mutex");
        let us = |d: Duration| Json::from(d.as_secs_f64() * 1e6);
        let events = list.iter().enumerate().map(|(i, s)| {
            Json::obj([
                ("name", Json::str(s.name)),
                ("ph", Json::str("X")),
                ("pid", Json::from(1u64)),
                ("tid", Json::from(s.thread)),
                ("ts", us(s.start)),
                ("dur", us(s.end.saturating_sub(s.start))),
                (
                    "args",
                    Json::obj([
                        ("span", Json::from(i)),
                        ("parent", s.parent.map_or(Json::Null, Json::from)),
                        ("op", Json::from(s.op)),
                    ]),
                ),
            ])
        });
        let doc = Json::obj([("traceEvents", Json::arr(events)), ("metadata", env)]);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, doc.render_compact())?;
        Ok(list.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_like_python_inclusive() {
        let v = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn isolate_turns_panics_into_errors() {
        assert_eq!(isolate(|| 3), Ok(3));
        assert!(isolate(|| panic!("boom")).unwrap_err().contains("boom"));
    }
}
