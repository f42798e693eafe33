//! A name only: the commit-path configuration `perf/` spells.
//!
//! A peer has one commit path, Algorithm 1's sequential pass in block
//! order: [`Peer::process_block`](crate::peer::Peer::process_block)
//! verifies the ingress hash, screens duplicate ids, checks
//! endorsements, runs the validator and re-seals, one block after its
//! predecessor commits. [`ValidationPipeline`] names that path and
//! nothing else; it is kept, with [`ValidationPipeline::pipelined`],
//! because `perf/` configures peers with it (DESIGN.md §4.10).

/// The commit path a peer runs. There is one.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum ValidationPipeline {
    /// Validate transactions one after another on the calling thread.
    #[default]
    Sequential,
}

impl ValidationPipeline {
    /// Returns [`ValidationPipeline::Sequential`], whatever `workers`
    /// says. Pinned for `perf/` (DESIGN.md §4.10).
    pub fn pipelined(_workers: usize) -> Self {
        ValidationPipeline::Sequential
    }
}
