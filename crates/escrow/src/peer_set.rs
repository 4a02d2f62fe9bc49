//! [`PeerSet`]: the per-update "already asked" set of the selecting loop.

use avdb_types::SiteId;

/// A set of sites as a bitset plus a member count.
///
/// The shortage loop probes "was this peer asked already?" for every
/// candidate of every AV round and charges its round budget by the
/// number asked, so both are O(1) here instead of a scan over a list.
#[derive(Clone, Debug, Default)]
pub struct PeerSet {
    words: Vec<u64>,
    len: usize,
}

impl PeerSet {
    /// An empty set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether `site` is a member.
    #[inline]
    pub fn contains(&self, site: SiteId) -> bool {
        let i = site.index();
        self.words.get(i / 64).is_some_and(|w| w & (1 << (i % 64)) != 0)
    }

    /// Adds `site`; returns whether it was newly added.
    pub fn insert(&mut self, site: SiteId) -> bool {
        let i = site.index();
        if self.words.len() <= i / 64 {
            self.words.resize(i / 64 + 1, 0);
        }
        let word = &mut self.words[i / 64];
        let bit = 1 << (i % 64);
        let added = *word & bit == 0;
        *word |= bit;
        self.len += usize::from(added);
        added
    }

    /// Removes `site`; returns whether it was a member.
    pub fn remove(&mut self, site: SiteId) -> bool {
        let i = site.index();
        let Some(word) = self.words.get_mut(i / 64) else { return false };
        let bit = 1 << (i % 64);
        let present = *word & bit != 0;
        *word &= !bit;
        self.len -= usize::from(present);
        present
    }

    /// Number of members.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the set has no members.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Removes every member, keeping the allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }
}

/// Sets are equal when they have the same members, however many
/// (trailing zero) words either has grown.
impl PartialEq for PeerSet {
    fn eq(&self, other: &Self) -> bool {
        let (long, short) = if self.words.len() >= other.words.len() {
            (&self.words, &other.words)
        } else {
            (&other.words, &self.words)
        };
        long[..short.len()] == short[..] && long[short.len()..].iter().all(|&w| w == 0)
    }
}

impl Eq for PeerSet {}

impl FromIterator<SiteId> for PeerSet {
    fn from_iter<I: IntoIterator<Item = SiteId>>(iter: I) -> Self {
        let mut set = PeerSet::new();
        for s in iter {
            set.insert(s);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn insert_remove_count_across_word_boundaries() {
        let mut s = PeerSet::new();
        assert!(s.is_empty());
        for id in [0u32, 63, 64, 127, 128, 129] {
            assert!(s.insert(SiteId(id)));
            assert!(!s.insert(SiteId(id)), "re-insert is a no-op");
        }
        assert_eq!(s.len(), 6);
        assert!(s.contains(SiteId(64)) && !s.contains(SiteId(65)));
        assert!(!s.contains(SiteId(4000)), "beyond the words is absent");
        assert!(s.remove(SiteId(64)));
        assert!(!s.remove(SiteId(64)));
        assert!(!s.remove(SiteId(4000)));
        assert_eq!(s.len(), 5);
        assert_eq!(s, [0, 63, 127, 128, 129].map(SiteId).into_iter().collect());
        s.clear();
        assert!(s.is_empty() && !s.contains(SiteId(0)));
        assert_eq!(s, PeerSet::new(), "cleared words still compare equal to none");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn matches_a_btree_set(ops in prop::collection::vec((any::<bool>(), 0u32..200), 0..120)) {
            let mut set = PeerSet::new();
            let mut model = BTreeSet::new();
            for (add, id) in ops {
                let site = SiteId(id);
                if add {
                    prop_assert_eq!(set.insert(site), model.insert(site));
                } else {
                    prop_assert_eq!(set.remove(site), model.remove(&site));
                }
                prop_assert_eq!(set.len(), model.len());
            }
            prop_assert_eq!(&set, &model.iter().copied().collect::<PeerSet>());
            for id in 0..210u32 {
                prop_assert_eq!(set.contains(SiteId(id)), model.contains(&SiteId(id)));
            }
        }
    }
}
