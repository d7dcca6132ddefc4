//! Bench-side probes around the serving stack's public seams.
//!
//! Nothing here reaches inside a library crate: [`TimedEngine`] wraps a
//! [`QueryEngine`] behind the [`BatchEngine`] trait that
//! [`usp_serve::IngressHandle::spawn`] takes, and [`TimedStorage`] wraps a
//! [`FileStorage`] behind the [`WalStorage`] trait the index's log writes
//! through. While the shared [`Tracer`] is on, both record one entry per call
//! (monotonic nanoseconds since the tracer's epoch) into in-memory buffers that
//! the ledger joins with the client's request records after the run.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use usp_index::{FileStorage, MutationError, Partitioner, SearchResult, WalError, WalStorage};
use usp_linalg::Matrix;
use usp_serve::{BatchEngine, QueryEngine, QueryOptions, StatsSnapshot};

/// One `serve_batch` call: its wall interval, the query-set index of every row,
/// and the answers the engine returned (for the replay equality check).
pub struct BatchRec {
    pub start: u64,
    pub end: u64,
    pub rows: Vec<u32>,
    pub results: Vec<SearchResult>,
}

/// One insert or delete call on the engine, with the log calls made inside it.
pub struct WriteRec {
    pub start: u64,
    pub end: u64,
    pub storage: Vec<StorageRec>,
}

impl WriteRec {
    pub fn append_ns(&self) -> u64 {
        self.storage
            .iter()
            .filter(|s| s.append_bytes.is_some())
            .map(|s| s.end - s.start)
            .sum()
    }

    pub fn sync_ns(&self) -> u64 {
        self.storage
            .iter()
            .filter(|s| s.append_bytes.is_none())
            .map(|s| s.end - s.start)
            .sum()
    }

    pub fn syncs(&self) -> usize {
        self.storage
            .iter()
            .filter(|s| s.append_bytes.is_none())
            .count()
    }

    pub fn bytes(&self) -> u64 {
        self.storage.iter().filter_map(|s| s.append_bytes).sum()
    }
}

/// One storage call made by the write-ahead log.
#[derive(Clone, Copy)]
pub struct StorageRec {
    pub start: u64,
    pub end: u64,
    /// `Some(bytes)` for an append, `None` for a sync.
    pub append_bytes: Option<u64>,
}

/// The in-memory span buffers shared by the probes.
pub struct Tracer {
    epoch: Instant,
    on: AtomicBool,
    /// Query rows by their bit pattern, so a batch row names its query-set index
    /// (and, through the client's records, its request).
    row_index: HashMap<Vec<u32>, u32>,
    batches: Mutex<Vec<BatchRec>>,
    writes: Mutex<Vec<WriteRec>>,
    storage: Mutex<Vec<StorageRec>>,
}

fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock()
        .expect("span buffer lock poisoned: a probe panicked while holding it")
}

pub fn row_key(row: &[f32]) -> Vec<u32> {
    row.iter().map(|v| v.to_bits()).collect()
}

impl Tracer {
    pub fn new(epoch: Instant, queries: &Matrix) -> Self {
        let row_index: HashMap<Vec<u32>, u32> = (0..queries.rows())
            .map(|i| (row_key(queries.row(i)), i as u32))
            .collect();
        assert_eq!(
            row_index.len(),
            queries.rows(),
            "query rows must be distinct to name their requests"
        );
        Self {
            epoch,
            on: AtomicBool::new(false),
            row_index,
            batches: Mutex::new(Vec::new()),
            writes: Mutex::new(Vec::new()),
            storage: Mutex::new(Vec::new()),
        }
    }

    /// Nanoseconds since the epoch shared with the client.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn set_on(&self, on: bool) {
        // ordering: Release pairs with the Acquire load in is_on(): a probe that
        // sees the new flag also sees the buffers as take() left them.
        self.on.store(on, Ordering::Release);
    }

    fn is_on(&self) -> bool {
        // ordering: Acquire pairs with the Release store in set_on().
        self.on.load(Ordering::Acquire)
    }

    /// Takes every buffered record, leaving the buffers empty.
    pub fn take(&self) -> (Vec<BatchRec>, Vec<WriteRec>) {
        lock(&self.storage).clear();
        (
            std::mem::take(&mut *lock(&self.batches)),
            std::mem::take(&mut *lock(&self.writes)),
        )
    }
}

/// A [`BatchEngine`] that times every call into the wrapped [`QueryEngine`].
pub struct TimedEngine<P: Partitioner> {
    inner: QueryEngine<P>,
    tracer: Arc<Tracer>,
}

impl<P: Partitioner> TimedEngine<P> {
    pub fn new(inner: QueryEngine<P>, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    pub fn inner(&self) -> &QueryEngine<P> {
        &self.inner
    }

    fn timed_write(
        &self,
        call: impl FnOnce() -> Result<(), MutationError>,
    ) -> Result<(), MutationError> {
        if !self.tracer.is_on() {
            return call();
        }
        let first = lock(&self.tracer.storage).len();
        let start = self.tracer.now();
        let out = call();
        let end = self.tracer.now();
        // Inserts and deletes run inline on the ingress thread, one at a time, so
        // the storage calls logged since `first` are exactly this call's.
        let storage = lock(&self.tracer.storage)[first..].to_vec();
        let rec = WriteRec {
            start,
            end,
            storage,
        };
        lock(&self.tracer.writes).push(rec);
        out
    }
}

impl<P: Partitioner> BatchEngine for TimedEngine<P> {
    fn dims(&self) -> usize {
        BatchEngine::dims(&self.inner)
    }

    fn serve_batch(&self, queries: &Matrix, opts: &QueryOptions) -> Vec<SearchResult> {
        if !self.tracer.is_on() {
            return self.inner.serve_batch(queries, opts);
        }
        let start = self.tracer.now();
        let results = self.inner.serve_batch(queries, opts);
        let end = self.tracer.now();
        let rows = (0..queries.rows())
            .map(|i| {
                *self
                    .tracer
                    .row_index
                    .get(&row_key(queries.row(i)))
                    .expect("every served row comes from the query set")
            })
            .collect();
        lock(&self.tracer.batches).push(BatchRec {
            start,
            end,
            rows,
            results: results.clone(),
        });
        results
    }

    fn warm_up(&self) {
        self.inner.warm_up()
    }

    fn insert(&self, point: &[f32]) -> Result<usize, MutationError> {
        let mut id = 0;
        self.timed_write(|| {
            id = self.inner.insert(point)?;
            Ok(())
        })?;
        Ok(id)
    }

    fn delete(&self, id: usize) -> Result<(), MutationError> {
        self.timed_write(|| self.inner.delete(id))
    }

    fn stats(&self) -> StatsSnapshot {
        self.inner.stats()
    }
}

/// A [`WalStorage`] that times the log's appends and syncs on a [`FileStorage`].
pub struct TimedStorage {
    inner: FileStorage,
    tracer: Arc<Tracer>,
}

impl TimedStorage {
    pub fn new(inner: FileStorage, tracer: Arc<Tracer>) -> Self {
        Self { inner, tracer }
    }

    fn timed<T>(
        &mut self,
        append_bytes: Option<u64>,
        call: impl FnOnce(&mut FileStorage) -> T,
    ) -> T {
        if !self.tracer.is_on() {
            return call(&mut self.inner);
        }
        let start = self.tracer.now();
        let out = call(&mut self.inner);
        let end = self.tracer.now();
        lock(&self.tracer.storage).push(StorageRec {
            start,
            end,
            append_bytes,
        });
        out
    }
}

impl WalStorage for TimedStorage {
    fn append(&mut self, bytes: &[u8]) -> Result<(), WalError> {
        self.timed(Some(bytes.len() as u64), |s| s.append(bytes))
    }

    fn sync(&mut self) -> Result<(), WalError> {
        self.timed(None, |s| s.sync())
    }

    fn read_all(&mut self) -> Result<Vec<u8>, WalError> {
        self.inner.read_all()
    }

    fn truncate(&mut self, len: u64) -> Result<(), WalError> {
        self.inner.truncate(len)
    }

    fn replace(&mut self, contents: &[u8]) -> Result<(), WalError> {
        self.inner.replace(contents)
    }

    fn log_len(&self) -> Result<u64, WalError> {
        self.inner.log_len()
    }
}
