//! Endorsement policies.
//!
//! An endorsement policy "specifies which peers from which organizations
//! are required to execute and sign the proposal" (§2.1). The common
//! Fabric forms — `AND(org1, org2, …)`, `OR(…)`, `OutOf(n, …)` — all
//! reduce to *n-of-m over organizations*, which is what this type models.

use std::fmt;

/// An n-of-m endorsement policy over organizations.
///
/// # Examples
///
/// ```
/// use fabriccrdt_fabric::EndorsementPolicy;
///
/// let policy = EndorsementPolicy::all_of(["org1", "org2", "org3"]);
/// assert!(policy.is_satisfied_by(["org1", "org2", "org3"]));
/// assert!(!policy.is_satisfied_by(["org1", "org2"]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndorsementPolicy {
    required: usize,
    orgs: Vec<String>,
}

impl EndorsementPolicy {
    /// `n`-of the listed organizations.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero, the org list is empty or names more than
    /// 64 organizations (one bit each of an org mask), or `n` exceeds
    /// the number of organizations.
    pub fn out_of<I, S>(n: usize, orgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let mut orgs: Vec<String> = orgs.into_iter().map(Into::into).collect();
        orgs.sort_unstable();
        orgs.dedup();
        assert!(!orgs.is_empty(), "policy requires at least one org");
        assert!(orgs.len() <= 64, "policy names at most 64 orgs");
        assert!(
            n >= 1 && n <= orgs.len(),
            "policy threshold must be in 1..=orgs"
        );
        EndorsementPolicy { required: n, orgs }
    }

    /// `AND` over all listed organizations.
    pub fn all_of<I, S>(orgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        let orgs: Vec<String> = orgs.into_iter().map(Into::into).collect();
        let n = {
            let mut unique = orgs.clone();
            unique.sort_unstable();
            unique.dedup();
            unique.len()
        };
        Self::out_of(n, orgs)
    }

    /// `OR` over the listed organizations (any single one suffices).
    pub fn any_of<I, S>(orgs: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Self::out_of(1, orgs)
    }

    /// The organizations named by the policy.
    pub fn orgs(&self) -> &[String] {
        &self.orgs
    }

    /// How many distinct named organizations must endorse.
    pub fn required(&self) -> usize {
        self.required
    }

    /// The bit `org` sets in an org mask: bit `i` for the policy's
    /// `i`-th organization in name order, 0 for one it does not name.
    pub fn org_bit(&self, org: &str) -> u64 {
        self.orgs
            .binary_search_by(|known| known.as_str().cmp(org))
            .map_or(0, |i| 1 << i)
    }

    /// Whether the organizations whose [`EndorsementPolicy::org_bit`]s
    /// `mask` sets satisfy the policy. Bits it names no org for do not
    /// count.
    pub fn is_satisfied_by_mask(&self, mask: u64) -> bool {
        let named = u64::MAX >> (64 - self.orgs.len());
        (mask & named).count_ones() as usize >= self.required
    }

    /// Checks whether endorsements from `endorsing_orgs` satisfy the
    /// policy, through their org mask. Duplicate org entries count once;
    /// unknown orgs are ignored.
    pub fn is_satisfied_by<I, S>(&self, endorsing_orgs: I) -> bool
    where
        I: IntoIterator<Item = S>,
        S: AsRef<str>,
    {
        let mask = endorsing_orgs
            .into_iter()
            .fold(0, |mask, org| mask | self.org_bit(org.as_ref()));
        self.is_satisfied_by_mask(mask)
    }
}

impl fmt::Display for EndorsementPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "OutOf({}, {})", self.required, self.orgs.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_of_requires_every_org() {
        let p = EndorsementPolicy::all_of(["org1", "org2"]);
        assert!(p.is_satisfied_by(["org1", "org2"]));
        assert!(p.is_satisfied_by(["org2", "org1", "org1"]));
        assert!(!p.is_satisfied_by(["org1"]));
        assert!(!p.is_satisfied_by(Vec::<&str>::new()));
    }

    #[test]
    fn any_of_requires_one() {
        let p = EndorsementPolicy::any_of(["org1", "org2", "org3"]);
        assert!(p.is_satisfied_by(["org2"]));
        assert!(!p.is_satisfied_by(["org9"]));
    }

    #[test]
    fn out_of_threshold() {
        let p = EndorsementPolicy::out_of(2, ["org1", "org2", "org3"]);
        assert!(p.is_satisfied_by(["org1", "org3"]));
        assert!(!p.is_satisfied_by(["org3"]));
        assert_eq!(p.required(), 2);
    }

    #[test]
    fn unknown_orgs_do_not_count() {
        let p = EndorsementPolicy::out_of(2, ["org1", "org2"]);
        assert!(!p.is_satisfied_by(["org1", "mallory", "intruder"]));
    }

    #[test]
    fn duplicate_orgs_count_once() {
        let p = EndorsementPolicy::out_of(2, ["org1", "org2"]);
        assert!(!p.is_satisfied_by(["org1", "org1", "org1"]));
    }

    #[test]
    fn constructor_dedupes_org_list() {
        let p = EndorsementPolicy::all_of(["org1", "org1", "org2"]);
        assert_eq!(p.orgs().len(), 2);
        assert_eq!(p.required(), 2);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn zero_threshold_panics() {
        EndorsementPolicy::out_of(0, ["org1"]);
    }

    #[test]
    #[should_panic(expected = "threshold")]
    fn excessive_threshold_panics() {
        EndorsementPolicy::out_of(3, ["org1", "org2"]);
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn empty_orgs_panics() {
        EndorsementPolicy::out_of(1, Vec::<&str>::new());
    }

    #[test]
    fn org_bits_follow_name_order() {
        let p = EndorsementPolicy::out_of(2, ["org3", "org1", "org2"]);
        assert_eq!(
            ["org1", "org2", "org3", "org9"].map(|o| p.org_bit(o)),
            [1, 2, 4, 0]
        );
        assert!(p.is_satisfied_by_mask(0b101));
        assert!(!p.is_satisfied_by_mask(0b100));
        assert!(!p.is_satisfied_by_mask(0b1000 | 0b1), "an unnamed bit");
        let widest = EndorsementPolicy::all_of((0..64).map(|i| format!("org{i:02}")));
        assert!(widest.is_satisfied_by_mask(u64::MAX));
        assert!(!widest.is_satisfied_by_mask(u64::MAX >> 1));
        assert_eq!(widest.org_bit("org63"), 1 << 63);
    }

    #[test]
    #[should_panic(expected = "at most 64")]
    fn more_orgs_than_mask_bits_panics() {
        EndorsementPolicy::any_of((0..65).map(|i| format!("org{i}")));
    }

    #[test]
    fn display() {
        let p = EndorsementPolicy::out_of(2, ["b", "a"]);
        assert_eq!(p.to_string(), "OutOf(2, a, b)");
    }
}
