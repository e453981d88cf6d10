//! Timing/counting adapters around the program's three plug-in traits.
//!
//! The traced run wraps every extractor, resource and the store's
//! storage backend in one of these, so per-layer time is measured at the
//! layer boundary without adding a span inside the program. A [`Tally`]
//! holds busy time summed over threads: with parallel expansion two
//! workers can spend more resource time than the wall time of the
//! append. [`Activity`] holds the wall time during which any wrapped
//! extractor or resource call was in flight.

use facet_hierarchies::resources::{ContextResource, ResourceError};
use facet_hierarchies::store::{Storage, StoreError};
use facet_hierarchies::termx::TermExtractor;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Wall time covered by at least one in-flight call, over all the
/// adapters that share it.
#[derive(Debug, Default)]
pub struct Activity {
    /// `(calls in flight, start of the current busy interval, total
    /// nanoseconds of closed intervals)`.
    state: Mutex<(u32, Option<Instant>, u64)>,
}

impl Activity {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        {
            let mut s = self.state.lock().expect("activity lock poisoned");
            if s.0 == 0 {
                s.1 = Some(Instant::now());
            }
            s.0 += 1;
        }
        let out = f();
        let mut s = self.state.lock().expect("activity lock poisoned");
        s.0 -= 1;
        if s.0 == 0 {
            if let Some(start) = s.1.take() {
                s.2 += start.elapsed().as_nanos() as u64;
            }
        }
        out
    }

    pub fn ms(&self) -> f64 {
        self.state.lock().expect("activity lock poisoned").2 as f64 / 1e6
    }
}

/// Call count and busy nanoseconds of one wrapped component.
#[derive(Debug, Default)]
pub struct Tally {
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Tally {
    fn time<T>(&self, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.nanos
            .fetch_add(t.elapsed().as_nanos() as u64, Ordering::Relaxed);
        self.calls.fetch_add(1, Ordering::Relaxed);
        out
    }

    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    pub fn ms(&self) -> f64 {
        self.nanos.load(Ordering::Relaxed) as f64 / 1e6
    }
}

/// A [`TermExtractor`] that times every `extract` call of the inner one.
pub struct TimedExtractor<'a> {
    pub inner: &'a dyn TermExtractor,
    pub tally: Tally,
    pub activity: Arc<Activity>,
}

impl TermExtractor for TimedExtractor<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn extract(&self, text: &str) -> Vec<String> {
        self.activity
            .time(|| self.tally.time(|| self.inner.extract(text)))
    }
}

/// A [`ContextResource`] that times every query reaching the inner one.
pub struct TimedResource<'a> {
    pub inner: &'a dyn ContextResource,
    pub tally: Tally,
    pub activity: Arc<Activity>,
}

impl ContextResource for TimedResource<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn context_terms(&self, term: &str) -> Vec<String> {
        self.activity
            .time(|| self.tally.time(|| self.inner.context_terms(term)))
    }

    fn try_context_terms(&self, term: &str) -> Result<Vec<String>, ResourceError> {
        self.activity
            .time(|| self.tally.time(|| self.inner.try_context_terms(term)))
    }
}

/// Byte, call and time counters of a [`TimedStorage`].
#[derive(Debug, Default)]
pub struct StorageTally {
    pub write: Tally,
    pub append: Tally,
    pub read: Tally,
    pub bytes_written: AtomicU64,
    pub bytes_read: AtomicU64,
}

impl StorageTally {
    /// Every `write_atomic` and `append` ends in an fsync of the file.
    pub fn sync_ops(&self) -> u64 {
        self.write.calls() + self.append.calls()
    }

    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
}

/// A [`Storage`] that times and counts the calls of the inner backend.
/// The tally is shared so several stores (one per round) add up.
pub struct TimedStorage<S> {
    pub inner: S,
    pub tally: Arc<StorageTally>,
}

impl<S: Storage> Storage for TimedStorage<S> {
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        let out = self.tally.read.time(|| self.inner.read(name))?;
        if let Some(bytes) = &out {
            self.tally
                .bytes_read
                .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        }
        Ok(out)
    }

    fn write_atomic(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.tally
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.tally
            .write
            .time(|| self.inner.write_atomic(name, bytes))
    }

    fn append(&self, name: &str, bytes: &[u8]) -> Result<(), StoreError> {
        self.tally
            .bytes_written
            .fetch_add(bytes.len() as u64, Ordering::Relaxed);
        self.tally.append.time(|| self.inner.append(name, bytes))
    }

    fn truncate(&self, name: &str, len: u64) -> Result<(), StoreError> {
        self.inner.truncate(name, len)
    }

    fn remove(&self, name: &str) -> Result<(), StoreError> {
        self.inner.remove(name)
    }

    fn list(&self) -> Result<Vec<String>, StoreError> {
        self.inner.list()
    }
}
