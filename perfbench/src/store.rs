//! A timing [`ObjectStore`] wrapper: records a span around every put,
//! commit and delete of the store it wraps, and keeps the size of every
//! committed object so the benchmark can report snapshot bytes.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use telco_store::ObjectStore;

use crate::spans::Tracer;

/// What the wrapper saw, shared with the benchmark.
#[derive(Default)]
pub struct StoreLog {
    /// Span of the engine call currently running, the parent of store spans.
    parent: AtomicU64,
    /// Operation id of that call.
    op: AtomicU64,
    /// `(name, bytes)` of every committed object, in commit order.
    committed: Mutex<Vec<(String, u64)>>,
    /// Bytes written through staged writers.
    pub bytes_written: AtomicU64,
    /// Staged bytes per object name, moved to `committed` on commit.
    staged: Mutex<Vec<(String, u64)>>,
}

impl StoreLog {
    fn context(&self) -> (Option<u64>, Option<u64>) {
        // ordering: Relaxed — both are set by the thread that then calls
        // into the store; nothing else synchronizes through them.
        let nonzero = |v: u64| (v != 0).then_some(v);
        (nonzero(self.parent.load(Ordering::Relaxed)), nonzero(self.op.load(Ordering::Relaxed)))
    }

    /// Set the span and operation store calls are attributed to.
    pub fn enter(&self, parent: Option<u64>, op: Option<u64>) {
        // ordering: Relaxed — see `context`.
        self.parent.store(parent.unwrap_or(0), Ordering::Relaxed);
        self.op.store(op.unwrap_or(0), Ordering::Relaxed);
    }

    /// Every committed object so far.
    pub fn committed(&self) -> Vec<(String, u64)> {
        self.committed.lock().expect("store log lock poisoned by a panicking thread").clone()
    }
}

/// The wrapper. `inner` does the work; every call is timed.
pub struct TimingStore<S> {
    inner: S,
    tracer: Arc<Tracer>,
    log: Arc<StoreLog>,
}

impl<S: ObjectStore> TimingStore<S> {
    pub fn new(inner: S, tracer: Arc<Tracer>, log: Arc<StoreLog>) -> Self {
        TimingStore { inner, tracer, log }
    }

    fn timed<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let (parent, op) = self.log.context();
        self.tracer.span(name, parent, op, |_| f())
    }
}

/// A staged writer that counts its bytes and times its writes as part of
/// the `put` that opened it.
struct CountingWriter {
    inner: Box<dyn Write + Send>,
    name: String,
    bytes: u64,
    tracer: Arc<Tracer>,
    log: Arc<StoreLog>,
}

impl CountingWriter {
    fn record_since(&self, start: Instant) {
        let (parent, op) = self.log.context();
        self.tracer.record("telco-store.put", parent, op, start, Instant::now());
    }
}

impl Write for CountingWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let start = Instant::now();
        let n = self.inner.write(buf);
        self.record_since(start);
        let n = n?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        let start = Instant::now();
        let out = self.inner.flush();
        self.record_since(start);
        out
    }
}

impl Drop for CountingWriter {
    fn drop(&mut self) {
        // ordering: Relaxed — a statistic read after the ingest finishes.
        self.log.bytes_written.fetch_add(self.bytes, Ordering::Relaxed);
        if let Ok(mut staged) = self.log.staged.lock() {
            staged.retain(|(n, _)| n != &self.name);
            staged.push((std::mem::take(&mut self.name), self.bytes));
        }
    }
}

impl<S: ObjectStore> ObjectStore for TimingStore<S> {
    fn put(&self, name: &str) -> std::io::Result<Box<dyn Write + Send>> {
        let inner = self.timed("telco-store.put", || self.inner.put(name))?;
        Ok(Box::new(CountingWriter {
            inner,
            name: name.to_string(),
            bytes: 0,
            tracer: Arc::clone(&self.tracer),
            log: Arc::clone(&self.log),
        }))
    }

    fn commit(&self, name: &str) -> std::io::Result<()> {
        self.timed("telco-store.commit", || self.inner.commit(name))?;
        let mut staged =
            self.log.staged.lock().expect("store log lock poisoned by a panicking thread");
        let bytes = staged.iter().position(|(n, _)| n == name).map_or(0, |i| staged.remove(i).1);
        drop(staged);
        self.log
            .committed
            .lock()
            .expect("store log lock poisoned by a panicking thread")
            .push((name.to_string(), bytes));
        Ok(())
    }

    fn get(&self, name: &str) -> std::io::Result<Box<dyn std::io::Read + Send>> {
        self.inner.get(name)
    }

    fn exists(&self, name: &str) -> std::io::Result<bool> {
        self.inner.exists(name)
    }

    fn delete(&self, name: &str) -> std::io::Result<()> {
        self.timed("telco-store.delete", || self.inner.delete(name))
    }

    fn list(&self) -> std::io::Result<Vec<String>> {
        self.inner.list()
    }

    fn append(&self, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        self.inner.append(name, bytes)
    }

    fn local_path(&self, name: &str) -> Option<PathBuf> {
        self.inner.local_path(name)
    }

    fn local_root(&self) -> Option<&Path> {
        self.inner.local_root()
    }
}
