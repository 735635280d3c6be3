//! A concurrent memoization cache for translated programs.
//!
//! Parallel experiment grids run the same program under many (technique ×
//! predictor × cache) cells, and translating the program source into a
//! loadable image is pure and deterministic — so workers should pay it
//! once per program, not once per cell. [`Memo`] is the handle the bench
//! harness holds: a keyed map of `Arc`-shared values built on first
//! touch.
//!
//! Values must be immutable once built (the cache hands out shared
//! references). Mutable per-run state — a [`crate::Translation`] being
//! quickened, a [`crate::Measurement`] — stays per-cell and is never
//! cached here.

use std::collections::HashMap;
use std::hash::Hash;
use std::sync::{Arc, Mutex};

/// A keyed build-once cache: `get_or_build` returns the shared value for
/// a key, building it on the first request.
///
/// Builds run *outside* the map lock, so a slow build for one program
/// never blocks workers fetching another. Two workers racing on the same
/// fresh key may both build; the first insert wins and the loser's value
/// is dropped — harmless because builds are required to be deterministic.
///
/// # Examples
///
/// ```
/// use ivm_core::Memo;
///
/// let cache: Memo<&'static str, Vec<u32>> = Memo::new();
/// let a = cache.get_or_build("squares", || (0..4).map(|i| i * i).collect());
/// let b = cache.get_or_build("squares", || unreachable!("already cached"));
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// ```
#[derive(Debug)]
pub struct Memo<K, V> {
    map: Mutex<HashMap<K, Arc<V>>>,
}

impl<K: Eq + Hash + Clone, V> Memo<K, V> {
    /// An empty cache.
    #[must_use]
    pub fn new() -> Self {
        Self { map: Mutex::new(HashMap::new()) }
    }

    /// The cached value for `key`, building it with `build` if absent.
    ///
    /// # Panics
    ///
    /// Panics if the internal lock was poisoned (a builder panicked while
    /// *inserting*, which cannot happen for panic-free `Arc` clones).
    pub fn get_or_build(&self, key: K, build: impl FnOnce() -> V) -> Arc<V> {
        if let Some(v) = self.map.lock().expect("memo lock").get(&key) {
            return Arc::clone(v);
        }
        let fresh = Arc::new(build());
        let mut map = self.map.lock().expect("memo lock");
        Arc::clone(map.entry(key).or_insert(fresh))
    }
}

impl<K: Eq + Hash + Clone, V> Default for Memo<K, V> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builds_once_per_key() {
        let calls = std::sync::atomic::AtomicUsize::new(0);
        let memo: Memo<u32, u32> = Memo::new();
        for _ in 0..5 {
            let v = memo.get_or_build(7, || {
                calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                42
            });
            assert_eq!(*v, 42);
        }
        assert_eq!(calls.load(std::sync::atomic::Ordering::Relaxed), 1);
    }

    #[test]
    fn distinct_keys_get_distinct_values() {
        let memo: Memo<&'static str, String> = Memo::new();
        let a = memo.get_or_build("a", || "va".to_owned());
        let b = memo.get_or_build("b", || "vb".to_owned());
        assert_eq!((a.as_str(), b.as_str()), ("va", "vb"));
        let a2 = memo.get_or_build("a", || unreachable!("already cached"));
        assert!(Arc::ptr_eq(&a, &a2));
    }

    #[test]
    fn concurrent_racers_agree_on_one_value() {
        let memo: Memo<u32, u64> = Memo::new();
        let values: Vec<Arc<u64>> = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..8).map(|_| scope.spawn(|| Arc::clone(&memo.get_or_build(1, || 99)))).collect();
            handles.into_iter().map(|h| h.join().expect("no panic")).collect()
        });
        assert!(values.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        // The racers' winner is the one value the key keeps.
        let after = memo.get_or_build(1, || unreachable!("already cached"));
        assert!(Arc::ptr_eq(&after, &values[0]));
    }
}
