//! Value versions.
//!
//! Fabric versions every world-state value with the *height* of the
//! transaction that committed it: the pair `(block number, transaction
//! number within the block)`. MVCC validation (§3 of the paper) compares
//! the version recorded in a transaction's read set against the current
//! version in the world state.

use std::fmt;

/// A committed transaction's position: `(block number, tx number)`.
///
/// # Examples
///
/// ```
/// use fabriccrdt_ledger::version::Height;
///
/// let earlier = Height::new(4, 7);
/// let later = Height::new(5, 0);
/// assert!(earlier < later);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Height {
    /// Block number (the genesis block is 0).
    pub block_num: u64,
    /// Transaction index within the block.
    pub tx_num: u64,
}

impl Height {
    /// Creates a height.
    pub fn new(block_num: u64, tx_num: u64) -> Self {
        Height { block_num, tx_num }
    }

    /// The height used for values seeded at genesis.
    pub fn genesis() -> Self {
        Height::new(0, 0)
    }
}

impl fmt::Display for Height {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.block_num, self.tx_num)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ordering_is_block_then_tx() {
        assert!(Height::new(1, 9) < Height::new(2, 0));
        assert!(Height::new(2, 0) < Height::new(2, 1));
        assert_eq!(Height::new(3, 3), Height::new(3, 3));
    }

    #[test]
    fn genesis_is_minimal() {
        assert!(Height::genesis() <= Height::new(0, 1));
        assert!(Height::genesis() <= Height::new(1, 0));
    }

    #[test]
    fn display() {
        assert_eq!(Height::new(5, 12).to_string(), "5:12");
    }
}
