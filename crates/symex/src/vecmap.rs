//! A small ordered map stored as a sorted vector.
//!
//! Query maps hold a handful of entries and are cloned at every fork, so a
//! flat sorted vector beats a B-tree: one allocation per clone instead of
//! one per node, and iteration visits keys in the same ascending order.

/// An ordered map from `K` to `V`, iterating in ascending key order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct VecMap<K, V> {
    entries: Vec<(K, V)>,
}

impl<K, V> Default for VecMap<K, V> {
    fn default() -> Self {
        VecMap { entries: Vec::new() }
    }
}

impl<K: Ord + Copy, V> VecMap<K, V> {
    fn find(&self, k: &K) -> Result<usize, usize> {
        self.entries.binary_search_by(|(e, _)| e.cmp(k))
    }

    /// True if the map has no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The value at `k`.
    pub fn get(&self, k: &K) -> Option<&V> {
        self.find(k).ok().map(|i| &self.entries[i].1)
    }

    /// The value at `k`, mutably.
    pub fn get_mut(&mut self, k: &K) -> Option<&mut V> {
        self.find(k).ok().map(|i| &mut self.entries[i].1)
    }

    /// True if `k` has a value.
    pub fn contains_key(&self, k: &K) -> bool {
        self.find(k).is_ok()
    }

    /// Sets `k` to `v`, returning the previous value.
    pub fn insert(&mut self, k: K, v: V) -> Option<V> {
        match self.find(&k) {
            Ok(i) => Some(std::mem::replace(&mut self.entries[i].1, v)),
            Err(i) => {
                self.entries.insert(i, (k, v));
                None
            }
        }
    }

    /// Removes `k`, returning its value.
    pub fn remove(&mut self, k: &K) -> Option<V> {
        self.find(k).ok().map(|i| self.entries.remove(i).1)
    }

    /// Removes every entry.
    pub fn clear(&mut self) {
        self.entries.clear();
    }

    /// Keeps only the entries satisfying `keep`.
    pub fn retain(&mut self, mut keep: impl FnMut(&K, &mut V) -> bool) {
        self.entries.retain_mut(|(k, v)| keep(k, v));
    }

    /// Entries in ascending key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.entries.iter().map(|(k, v)| (k, v))
    }

    /// Keys in ascending order.
    pub fn keys(&self) -> impl Iterator<Item = &K> {
        self.entries.iter().map(|(k, _)| k)
    }

    /// Values in ascending key order.
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.iter().map(|(_, v)| v)
    }

    /// Values in ascending key order, mutably.
    pub fn values_mut(&mut self) -> impl Iterator<Item = &mut V> {
        self.entries.iter_mut().map(|(_, v)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn iterates_in_key_order_like_a_btreemap() {
        let mut m = VecMap::default();
        let mut b = std::collections::BTreeMap::new();
        for (k, v) in [(5, 'a'), (1, 'b'), (3, 'c'), (1, 'd'), (9, 'e')] {
            assert_eq!(m.insert(k, v), b.insert(k, v));
        }
        assert_eq!(m.remove(&3), b.remove(&3));
        assert_eq!(m.remove(&4), b.remove(&4));
        assert!(m.iter().eq(b.iter()));
        assert_eq!(m.get(&1), Some(&'d'));
        assert!(!m.contains_key(&3));
        m.retain(|k, _| *k > 1);
        assert_eq!(m.keys().copied().collect::<Vec<_>>(), vec![5, 9]);
    }
}
