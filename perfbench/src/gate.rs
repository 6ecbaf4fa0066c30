//! The correctness gate every operation's output passes after the
//! measured phase: the routing must be verifier-legal and its claimed
//! failed set must equal the nets the database actually leaves
//! disconnected.

use std::collections::BTreeSet;
use std::time::Instant;

use route_model::{NetId, Problem, RouteDb};
use route_verify::{verify, Violation};

/// Wiring totals of one accepted output.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Tally {
    /// Nets fully connected.
    pub nets_routed: u64,
    /// Wire cells (occupied slots beyond the pins).
    pub wire: u64,
    /// Vias.
    pub vias: u64,
}

impl Tally {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Tally) {
        self.nets_routed += other.nets_routed;
        self.wire += other.wire;
        self.vias += other.vias;
    }
}

/// Checks one output and returns its tally, adding the time spent in
/// `route_verify::verify` to `verify_s`.
///
/// # Errors
///
/// Describes the first way the output is wrong: an illegal database, or
/// a failed set that differs from the recomputed disconnected set.
pub fn check(
    problem: &Problem,
    db: &RouteDb,
    claimed_failed: &[NetId],
    verify_s: &mut f64,
) -> Result<Tally, String> {
    let t0 = Instant::now();
    let report = verify(problem, db);
    *verify_s += t0.elapsed().as_secs_f64();
    let mut reported = BTreeSet::new();
    for v in report.violations() {
        match v {
            Violation::Disconnected { net, .. } => {
                reported.insert(*net);
            }
            other => return Err(format!("illegal routing: {other}")),
        }
    }
    let recomputed: BTreeSet<NetId> =
        problem.nets().iter().map(|n| n.id).filter(|&id| !db.is_net_connected(id)).collect();
    let claimed: BTreeSet<NetId> = claimed_failed.iter().copied().collect();
    if claimed != recomputed || reported != recomputed {
        return Err(format!(
            "dishonest failed set: claimed {} nets, database leaves {} disconnected \
             (verifier reports {})",
            claimed.len(),
            recomputed.len(),
            reported.len()
        ));
    }
    let stats = db.stats();
    Ok(Tally {
        nets_routed: (problem.nets().len() - recomputed.len()) as u64,
        wire: stats.wirelength,
        vias: stats.vias,
    })
}
