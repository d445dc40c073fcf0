//! Tree configuration derived from page geometry.

use wnrs_storage::PAPER_PAGE_SIZE;

/// Serialized node header: level (u32) + entry count (u32).
pub const NODE_HEADER_BYTES: usize = 8;
/// Serialized entry: child/item id (u64) + 2·d coordinates (f64 each).
#[must_use]
pub fn entry_bytes(dim: usize) -> usize {
    8 + 16 * dim
}

/// Structural parameters of an R\*-tree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RTreeConfig {
    /// Maximum entries per node (`M`).
    pub max_entries: usize,
    /// Minimum entries per non-root node (`m`); R\* recommends `0.4·M`.
    pub min_entries: usize,
    /// Entries removed for forced reinsertion on first overflow per level
    /// (`p`); R\* recommends `0.3·M`. Zero disables reinsertion.
    pub reinsert_count: usize,
}

impl RTreeConfig {
    /// A configuration with explicit `M`; derives `m = ⌈0.4·M⌉` and
    /// `p = ⌊0.3·M⌋` per the R\* paper's recommendation.
    ///
    /// # Panics
    ///
    /// Panics if `max_entries < 4` (splits need at least two entries per
    /// side, and forced reinsertion needs slack).
    #[must_use]
    pub fn with_max_entries(max_entries: usize) -> Self {
        assert!(
            max_entries >= 4,
            "R*-tree needs max_entries ≥ 4, got {max_entries}"
        );
        let min_entries = ((max_entries as f64 * 0.4).ceil() as usize).max(2);
        let reinsert_count = ((max_entries as f64 * 0.3).floor() as usize).min(max_entries - 2);
        Self {
            max_entries,
            min_entries,
            reinsert_count,
        }
    }

    /// The configuration induced by storing one node per `page_size`-byte
    /// page for `dim`-dimensional data.
    ///
    /// # Panics
    ///
    /// Panics if the page cannot hold at least 4 entries.
    #[must_use]
    pub fn for_page_size(page_size: usize, dim: usize) -> Self {
        assert!(dim > 0, "dimensionality must be positive");
        let usable = page_size.saturating_sub(NODE_HEADER_BYTES);
        let max = usable / entry_bytes(dim);
        assert!(
            max >= 4,
            "page of {page_size} bytes holds only {max} {dim}-d entries; need ≥ 4"
        );
        Self::with_max_entries(max)
    }

    /// The paper's experimental configuration: 1536-byte pages.
    #[must_use]
    pub fn paper_default(dim: usize) -> Self {
        Self::for_page_size(PAPER_PAGE_SIZE, dim)
    }

    /// Validates internal consistency (used by the structure checker).
    pub fn is_valid(&self) -> bool {
        self.min_entries >= 2
            && self.min_entries <= self.max_entries / 2
            && self.reinsert_count <= self.max_entries.saturating_sub(2)
    }
}

impl Default for RTreeConfig {
    /// Defaults to the paper's page geometry in two dimensions.
    fn default() -> Self {
        Self::paper_default(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_page_fanout_2d() {
        // (1536 − 8) / (8 + 32) = 38 entries.
        let c = RTreeConfig::paper_default(2);
        assert_eq!(c.max_entries, 38);
        assert_eq!(c.min_entries, 16); // ⌈0.4·38⌉
        assert_eq!(c.reinsert_count, 11); // ⌊0.3·38⌋
        assert!(c.is_valid());
    }

    #[test]
    fn fanout_shrinks_with_dimension() {
        let d2 = RTreeConfig::paper_default(2);
        let d5 = RTreeConfig::paper_default(5);
        assert!(d5.max_entries < d2.max_entries);
        assert!(d5.is_valid());
    }

    #[test]
    fn explicit_max_entries() {
        let c = RTreeConfig::with_max_entries(10);
        assert_eq!(c.min_entries, 4);
        assert_eq!(c.reinsert_count, 3);
        assert!(c.is_valid());
    }

    #[test]
    fn minimum_viable_config() {
        let c = RTreeConfig::with_max_entries(4);
        assert_eq!(c.min_entries, 2);
        assert!(c.reinsert_count <= 2);
        assert!(c.is_valid());
    }

    #[test]
    #[should_panic(expected = "max_entries ≥ 4")]
    fn tiny_fanout_rejected() {
        let _ = RTreeConfig::with_max_entries(3);
    }

    #[test]
    #[should_panic(expected = "need ≥ 4")]
    fn tiny_page_rejected() {
        let _ = RTreeConfig::for_page_size(64, 8);
    }
}
