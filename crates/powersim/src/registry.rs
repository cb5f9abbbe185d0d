//! A bounded, process-wide LRU registry of shared immutable values:
//! a `String`-fingerprinted map of `Arc<T>` handles with a capacity
//! bound and least-recently-used eviction. `pbc_core::CurveTable` keeps
//! its shared tables in one, so every serve session of a class reads
//! the table one build made. Eviction only drops the registry's route
//! to a value — live `Arc` holders keep theirs — so a registry can never
//! invalidate a handle it already gave out. That is exactly the
//! lock-free read discipline the steady-state fast path needs: readers
//! clone an `Arc` once and then never touch the registry mutex again.

use pbc_types::Result;
use std::collections::HashMap;
use std::sync::{Arc, Mutex, MutexGuard};

/// Poison-tolerant lock: a panicking holder must not wedge every later
/// caller (the sweep's panic contract re-raises on the calling thread,
/// so the data behind the mutex is still consistent).
pub(crate) fn lock<'a, T>(m: &'a Mutex<T>) -> MutexGuard<'a, T> {
    m.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

struct Inner<T> {
    /// fingerprint → (value, last-use stamp).
    entries: HashMap<String, (Arc<T>, u64)>,
    /// Monotone use counter driving the LRU stamps.
    clock: u64,
}

/// A bounded registry of shared `Arc<T>` values keyed by an exact
/// fingerprint string. When an insert would overflow `capacity`, the
/// least-recently-used entry is dropped.
pub struct BoundedRegistry<T> {
    capacity: usize,
    inner: Mutex<Inner<T>>,
}

impl<T> BoundedRegistry<T> {
    /// Build an empty registry bounded at `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            inner: Mutex::new(Inner { entries: HashMap::new(), clock: 0 }),
        }
    }

    /// The value registered under `key`, freshening its LRU stamp.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<Arc<T>> {
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        inner.entries.get_mut(key).map(|(value, stamp)| {
            *stamp = now;
            Arc::clone(value)
        })
    }

    /// The value registered under `key`, building (and registering) it
    /// if absent. The build may fail and may be expensive: it runs with
    /// the registry unlocked (it may itself run pooled sweeps), then the
    /// result is inserted double-checked — if another thread registered
    /// `key` while this one was building, the earlier entry wins and is
    /// returned, so all callers share one handle.
    #[must_use = "the registry result carries either the shared handle or the build failure"]
    pub fn get_or_try_build(
        &self,
        key: &str,
        build: impl FnOnce() -> Result<T>,
    ) -> Result<Arc<T>> {
        if let Some(existing) = self.get(key) {
            return Ok(existing);
        }
        let built = Arc::new(build()?);
        let mut inner = lock(&self.inner);
        inner.clock += 1;
        let now = inner.clock;
        if let Some((value, stamp)) = inner.entries.get_mut(key) {
            *stamp = now;
            return Ok(Arc::clone(value));
        }
        self.insert_bounded(&mut inner, key, Arc::clone(&built), now);
        Ok(built)
    }

    fn insert_bounded(&self, inner: &mut Inner<T>, key: &str, value: Arc<T>, now: u64) {
        while inner.entries.len() >= self.capacity {
            // Evict the least-recently-used fingerprint to stay bounded.
            let Some(oldest) = inner
                .entries
                .iter()
                .min_by_key(|(_, (_, stamp))| *stamp)
                .map(|(k, _)| k.clone())
            else {
                break;
            };
            inner.entries.remove(&oldest);
        }
        inner.entries.insert(key.to_string(), (value, now));
    }

    /// Drop every registered entry (live `Arc` holders are unaffected).
    pub fn clear(&self) {
        lock(&self.inner).entries.clear();
    }

    /// Entries currently registered (≤ capacity).
    #[must_use]
    pub fn len(&self) -> usize {
        lock(&self.inner).entries.len()
    }

    /// True when nothing is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pbc_types::PbcError;

    #[test]
    fn capacity_bound_evicts_least_recently_used() {
        let reg: BoundedRegistry<usize> = BoundedRegistry::new(3);
        for i in 0..3 {
            let _ = reg.get_or_try_build(&format!("k{i}"), || Ok(i));
        }
        // Touch k0 so k1 is the LRU victim.
        assert!(reg.get("k0").is_some());
        let _ = reg.get_or_try_build("k3", || Ok(3));
        assert_eq!(reg.len(), 3);
        assert!(reg.get("k0").is_some());
        assert!(reg.get("k1").is_none(), "LRU entry must be evicted");
        assert!(reg.get("k3").is_some());
    }

    #[test]
    fn try_build_propagates_errors_and_registers_successes() {
        let reg: BoundedRegistry<u32> = BoundedRegistry::new(4);
        let err = reg.get_or_try_build("bad", || {
            Err(PbcError::InvalidInput("nope".into()))
        });
        assert!(err.is_err());
        assert!(reg.is_empty(), "failed builds must not register");
        let ok = reg.get_or_try_build("good", || Ok(5)).unwrap();
        let again = reg.get_or_try_build("good", || Ok(99)).unwrap();
        assert!(Arc::ptr_eq(&ok, &again));
        assert_eq!(*again, 5, "the first successful build wins");
    }

    #[test]
    fn clear_drops_routes_but_not_live_handles() {
        let reg: BoundedRegistry<String> = BoundedRegistry::new(4);
        let held = reg.get_or_try_build("k", || Ok("v".to_string())).unwrap();
        reg.clear();
        assert!(reg.is_empty());
        assert_eq!(held.as_str(), "v");
    }
}
