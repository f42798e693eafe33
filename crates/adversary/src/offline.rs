//! Offline peers and merge-storm reconvergence.
//!
//! A gossip run with a scheduled crash window models a whole peer
//! offline while the network keeps committing; [`merge_storm_report`]
//! extracts that peer's catch-up episode (duration, bytes shipped,
//! snapshot vs replay) from the run's dissemination metrics.

use crate::byzantine::AdversarialRun;

/// A network-level merge storm: what it took gossip anti-entropy to
/// bring a crashed (offline) peer back to the committed height.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StormOutcome {
    /// Rejoin-to-caught-up duration in simulated seconds.
    pub catch_up_secs: f64,
    /// Bytes shipped to the peer during the episode.
    pub bytes_shipped: u64,
    /// Whether catch-up installed a donor snapshot (bounded storm)
    /// rather than replaying every missed block.
    pub used_snapshot: bool,
}

/// Extracts peer `peer`'s *completed* catch-up episode from a run (the
/// longest one, if it rejoined more than once). `None` when the run
/// recorded no completed episode for that peer — e.g. no crash was
/// scheduled, or it never caught up.
pub fn merge_storm_report(run: &AdversarialRun, peer: usize) -> Option<StormOutcome> {
    let dissemination = run.metrics.dissemination.as_ref()?;
    dissemination
        .catch_up
        .iter()
        .filter(|e| e.peer == peer && !e.is_abandoned())
        .max_by_key(|e| e.duration())
        .map(|episode| StormOutcome {
            catch_up_secs: episode.duration().as_secs_f64(),
            bytes_shipped: episode.bytes_shipped,
            used_snapshot: episode.used_snapshot(),
        })
}
