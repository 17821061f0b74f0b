//! The traced run's span recorder and the decorators that feed it.
//!
//! Every span is recorded from the benchmark's own code: decorators wrap
//! the program's public traits ([`Session`], [`SessionTxn`],
//! [`SessionRead`], [`UntrustedStore`], [`RandomAccessFile`],
//! [`OneWayCounter`]) and time each call before forwarding it unchanged.
//! Nothing inside the program is instrumented.
//!
//! Spans are kept in memory — name, layer, start, end, parent span and
//! operation id — and written out when the run ends. A thread-local stack
//! gives each span its parent, so a layer's self time is its duration
//! minus that of its direct children.
//!
//! Tracing is switched on and off at run time ([`Tracer::set_on`]): the
//! traced run alternates traced and untraced windows so the cost of the
//! spans themselves can be measured against the same store. Switched
//! off, a decorator costs one relaxed atomic load per call. The platform
//! byte and call counters count in both states.

use std::cell::{Cell, RefCell};
use std::io::Write as _;
use std::ops::Bound;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use tdb::platform::{OneWayCounter, RandomAccessFile, UntrustedStore};
use tdb::session::{ProvenBytes, ProvenEntries, SResult, SessionStats};
use tdb::{ClassRegistry, Durability, IndexSpec, Key, ObjectId, Session, SessionRead, SessionTxn};

/// Shards the per-shard byte counters distinguish (file prefix
/// `shard{k}--`; unprefixed files belong to an unsharded store, shard 0).
pub const MAX_SHARDS: usize = 8;

/// The layer a span belongs to, named after the crate whose public entry
/// point it wraps (`Bench` is the benchmark's own operation span).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Layer {
    /// One benchmark operation (a transfer).
    Bench,
    /// An embedded `tdb` session call.
    Tdb,
    /// A `tdb-client` session call: one wire round trip.
    TdbClient,
    /// A `tdb-proof` verification.
    Proof,
    /// An untrusted-store or one-way-counter call (`platform`).
    Platform,
}

impl Layer {
    /// The crate name used in metric names and the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Bench => "bench",
            Layer::Tdb => "tdb",
            Layer::TdbClient => "tdb-client",
            Layer::Proof => "tdb-proof",
            Layer::Platform => "platform",
        }
    }
}

/// One recorded span. Times are nanoseconds since the tracer was made.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Unique id (never 0).
    pub id: u64,
    /// The enclosing span on the same thread, or 0.
    pub parent: u64,
    /// The benchmark operation (transfer) this span served, or 0.
    pub op: u64,
    /// Layer of the wrapped entry point.
    pub layer: Layer,
    /// Call name (`commit`, `write_at`, ...).
    pub name: &'static str,
    /// Start time.
    pub start_ns: u64,
    /// End time.
    pub end_ns: u64,
    /// Tracing stayed on for the whole span (no toggle in between), so its
    /// children are all recorded too.
    pub complete: bool,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Platform call counts, counted whether or not spans are recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlatformCounts {
    /// `write_at` calls.
    pub writes: u64,
    /// Bytes written.
    pub write_bytes: u64,
    /// Bytes read.
    pub read_bytes: u64,
    /// `sync` calls.
    pub syncs: u64,
    /// One-way counter increments.
    pub counter_increments: u64,
    /// Bytes written per shard.
    pub shard_write_bytes: [u64; MAX_SHARDS],
}

impl PlatformCounts {
    /// Difference since `earlier`.
    pub fn since(&self, earlier: &PlatformCounts) -> PlatformCounts {
        let mut shard_write_bytes = [0; MAX_SHARDS];
        for (k, v) in shard_write_bytes.iter_mut().enumerate() {
            *v = self.shard_write_bytes[k] - earlier.shard_write_bytes[k];
        }
        PlatformCounts {
            writes: self.writes - earlier.writes,
            write_bytes: self.write_bytes - earlier.write_bytes,
            read_bytes: self.read_bytes - earlier.read_bytes,
            syncs: self.syncs - earlier.syncs,
            counter_increments: self.counter_increments - earlier.counter_increments,
            shard_write_bytes,
        }
    }
}

#[derive(Default)]
struct Counters {
    writes: AtomicU64,
    write_bytes: AtomicU64,
    read_bytes: AtomicU64,
    syncs: AtomicU64,
    counter_increments: AtomicU64,
    shard_write_bytes: [AtomicU64; MAX_SHARDS],
}

thread_local! {
    /// Open spans on this thread (innermost last).
    static STACK: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
    /// The benchmark operation this thread is serving (0: none).
    static OP: Cell<u64> = const { Cell::new(0) };
}

/// In-memory span recorder shared by every decorator of one run.
pub struct Tracer {
    on: AtomicBool,
    /// Bumped at every on/off switch; a span that sees it change is
    /// marked incomplete.
    epoch: AtomicU64,
    next_id: AtomicU64,
    origin: Instant,
    spans: Mutex<Vec<Span>>,
    counters: Counters,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            on: AtomicBool::new(false),
            epoch: AtomicU64::new(0),
            next_id: AtomicU64::new(1),
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
            counters: Counters::default(),
        }
    }
}

impl Tracer {
    /// A tracer, switched off.
    pub fn new() -> Arc<Tracer> {
        Arc::new(Tracer::default())
    }

    /// Switch span recording on or off.
    pub fn set_on(&self, on: bool) {
        if self.on.swap(on, Ordering::SeqCst) != on {
            self.epoch.fetch_add(1, Ordering::SeqCst);
        }
    }

    /// Whether spans are being recorded.
    pub fn is_on(&self) -> bool {
        self.on.load(Ordering::Relaxed)
    }

    /// The current on/off epoch (see [`Tracer::set_on`]).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::SeqCst)
    }

    /// Open a span; it ends when the guard drops. `None` when tracing is
    /// off.
    pub fn span(&self, layer: Layer, name: &'static str) -> Option<SpanGuard<'_>> {
        if !self.is_on() {
            return None;
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let parent = STACK.with(|s| {
            let mut s = s.borrow_mut();
            let parent = s.last().copied().unwrap_or(0);
            s.push(id);
            parent
        });
        Some(SpanGuard {
            tracer: self,
            id,
            parent,
            op: OP.with(Cell::get),
            layer,
            name,
            epoch: self.epoch(),
            start_ns: self.now_ns(),
        })
    }

    /// Run `f` as benchmark operation `op`: every span `f` opens on this
    /// thread carries `op`, under one `Bench` span named `name`.
    pub fn operation<R>(&self, op: u64, name: &'static str, f: impl FnOnce() -> R) -> R {
        struct Restore(u64);
        impl Drop for Restore {
            fn drop(&mut self) {
                OP.with(|c| c.set(self.0));
            }
        }
        let _restore = Restore(OP.with(|c| c.replace(op)));
        let _span = self.span(Layer::Bench, name);
        f()
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Platform call counts so far.
    pub fn counts(&self) -> PlatformCounts {
        let c = &self.counters;
        let mut shard_write_bytes = [0; MAX_SHARDS];
        for (k, v) in shard_write_bytes.iter_mut().enumerate() {
            *v = c.shard_write_bytes[k].load(Ordering::Relaxed);
        }
        PlatformCounts {
            writes: c.writes.load(Ordering::Relaxed),
            write_bytes: c.write_bytes.load(Ordering::Relaxed),
            read_bytes: c.read_bytes.load(Ordering::Relaxed),
            syncs: c.syncs.load(Ordering::Relaxed),
            counter_increments: c.counter_increments.load(Ordering::Relaxed),
            shard_write_bytes,
        }
    }

    /// Every span recorded so far, in order of completion.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span buffer poisoned").clone()
    }

    /// Write the recorded spans as CSV
    /// (`id,parent,op,layer,name,start_ns,end_ns,complete`).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        let spans = self.spans.lock().expect("span buffer poisoned");
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,parent,op,layer,name,start_ns,end_ns,complete")?;
        for s in spans.iter() {
            writeln!(
                out,
                "{},{},{},{},{},{},{},{}",
                s.id,
                s.parent,
                s.op,
                s.layer.name(),
                s.name,
                s.start_ns,
                s.end_ns,
                u8::from(s.complete)
            )?;
        }
        out.flush()
    }
}

/// An open span (see [`Tracer::span`]).
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    id: u64,
    parent: u64,
    op: u64,
    layer: Layer,
    name: &'static str,
    epoch: u64,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end_ns = self.tracer.now_ns();
        STACK.with(|s| {
            s.borrow_mut().pop();
        });
        let span = Span {
            id: self.id,
            parent: self.parent,
            op: self.op,
            layer: self.layer,
            name: self.name,
            start_ns: self.start_ns,
            end_ns,
            complete: self.tracer.epoch() == self.epoch,
        };
        if let Ok(mut spans) = self.tracer.spans.lock() {
            spans.push(span);
        }
    }
}

// ---------------------------------------------------------------------------
// Session decorators
// ---------------------------------------------------------------------------

/// A [`Session`] that times every call into the wrapped backend. `layer`
/// names the backend: [`Layer::Tdb`] embedded, [`Layer::TdbClient`]
/// remote.
pub struct TracedSession {
    inner: Box<dyn Session>,
    tracer: Arc<Tracer>,
    layer: Layer,
}

impl TracedSession {
    /// Wrap `inner`.
    pub fn new(inner: Box<dyn Session>, tracer: Arc<Tracer>, layer: Layer) -> TracedSession {
        TracedSession {
            inner,
            tracer,
            layer,
        }
    }
}

impl Session for TracedSession {
    fn begin(&self) -> SResult<Box<dyn SessionTxn + '_>> {
        let _s = self.tracer.span(self.layer, "begin");
        let inner = self.inner.begin()?;
        Ok(Box::new(TracedTxn {
            inner,
            tracer: &self.tracer,
            layer: self.layer,
        }))
    }

    fn begin_read(&self) -> SResult<Box<dyn SessionRead + '_>> {
        let _s = self.tracer.span(self.layer, "begin_read");
        let inner = self.inner.begin_read()?;
        Ok(Box::new(TracedRead {
            inner,
            tracer: &self.tracer,
            layer: self.layer,
        }))
    }

    fn begin_read_proven(&self) -> SResult<Box<dyn SessionRead + '_>> {
        let _s = self.tracer.span(self.layer, "begin_read_proven");
        let inner = self.inner.begin_read_proven()?;
        Ok(Box::new(TracedRead {
            inner,
            tracer: &self.tracer,
            layer: self.layer,
        }))
    }

    fn fork(&self) -> SResult<Box<dyn Session>> {
        let _s = self.tracer.span(self.layer, "fork");
        Ok(Box::new(TracedSession::new(
            self.inner.fork()?,
            self.tracer.clone(),
            self.layer,
        )))
    }

    fn classes(&self) -> &ClassRegistry {
        self.inner.classes()
    }

    fn trust_anchor(&self) -> SResult<Vec<u8>> {
        let _s = self.tracer.span(self.layer, "trust_anchor");
        self.inner.trust_anchor()
    }

    fn stats(&self) -> SResult<SessionStats> {
        let _s = self.tracer.span(self.layer, "stats");
        self.inner.stats()
    }

    fn checkpoint(&self) -> SResult<()> {
        let _s = self.tracer.span(self.layer, "checkpoint");
        self.inner.checkpoint()
    }

    fn backup_full(&self) -> SResult<String> {
        let _s = self.tracer.span(self.layer, "backup_full");
        self.inner.backup_full()
    }

    fn backup_incremental(&self) -> SResult<String> {
        let _s = self.tracer.span(self.layer, "backup_incremental");
        self.inner.backup_incremental()
    }

    fn restore_latest(&self) -> SResult<()> {
        let _s = self.tracer.span(self.layer, "restore_latest");
        self.inner.restore_latest()
    }
}

struct TracedTxn<'a> {
    inner: Box<dyn SessionTxn + 'a>,
    tracer: &'a Tracer,
    layer: Layer,
}

impl SessionTxn for TracedTxn<'_> {
    fn ensure_collection(&self, coll: &str, specs: &[IndexSpec]) -> SResult<()> {
        let _s = self.tracer.span(self.layer, "ensure_collection");
        self.inner.ensure_collection(coll, specs)
    }

    fn insert(&self, coll: &str, bytes: &[u8]) -> SResult<ObjectId> {
        let _s = self.tracer.span(self.layer, "insert");
        self.inner.insert(coll, bytes)
    }

    fn lookup_ids(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        let _s = self.tracer.span(self.layer, "lookup_ids");
        self.inner.lookup_ids(coll, index, key)
    }

    fn read(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        let _s = self.tracer.span(self.layer, "read");
        self.inner.read(coll, oid)
    }

    fn get_for_update(&self, coll: &str, oid: ObjectId) -> SResult<Vec<u8>> {
        let _s = self.tracer.span(self.layer, "get_for_update");
        self.inner.get_for_update(coll, oid)
    }

    fn write_back(&self, coll: &str, oid: ObjectId, bytes: &[u8]) -> SResult<()> {
        let _s = self.tracer.span(self.layer, "write_back");
        self.inner.write_back(coll, oid, bytes)
    }

    fn commit(self: Box<Self>, durability: Durability) -> SResult<()> {
        let _s = self.tracer.span(self.layer, "commit");
        self.inner.commit(durability)
    }

    fn abort(self: Box<Self>) -> SResult<()> {
        let _s = self.tracer.span(self.layer, "abort");
        self.inner.abort()
    }
}

struct TracedRead<'a> {
    inner: Box<dyn SessionRead + 'a>,
    tracer: &'a Tracer,
    layer: Layer,
}

impl SessionRead for TracedRead<'_> {
    fn commit_seq(&self) -> SResult<u64> {
        let _s = self.tracer.span(self.layer, "commit_seq");
        self.inner.commit_seq()
    }

    fn count(&self, coll: &str) -> SResult<u64> {
        let _s = self.tracer.span(self.layer, "count");
        self.inner.count(coll)
    }

    fn exact(&self, coll: &str, index: &str, key: &Key) -> SResult<Vec<ObjectId>> {
        let _s = self.tracer.span(self.layer, "exact");
        self.inner.exact(coll, index, key)
    }

    fn scan(&self, coll: &str, index: &str) -> SResult<Vec<(Key, ObjectId)>> {
        let _s = self.tracer.span(self.layer, "scan");
        self.inner.scan(coll, index)
    }

    fn range(
        &self,
        coll: &str,
        index: &str,
        min: Bound<Key>,
        max: Bound<Key>,
    ) -> SResult<Vec<(Key, ObjectId)>> {
        let _s = self.tracer.span(self.layer, "range");
        self.inner.range(coll, index, min, max)
    }

    fn read(&self, oid: ObjectId) -> SResult<Vec<u8>> {
        let _s = self.tracer.span(self.layer, "read");
        self.inner.read(oid)
    }

    fn read_proven(&self, oid: ObjectId) -> SResult<ProvenBytes> {
        let _s = self.tracer.span(self.layer, "read_proven");
        self.inner.read_proven(oid)
    }

    fn exact_proven(&self, coll: &str, index: &str, key: &Key) -> SResult<ProvenEntries> {
        let _s = self.tracer.span(self.layer, "exact_proven");
        self.inner.exact_proven(coll, index, key)
    }

    fn finish(self: Box<Self>) -> SResult<()> {
        let _s = self.tracer.span(self.layer, "finish");
        self.inner.finish()
    }
}

// ---------------------------------------------------------------------------
// Platform decorators
// ---------------------------------------------------------------------------

/// An [`UntrustedStore`] whose files count and time their I/O.
pub struct TracedStore {
    inner: Arc<dyn UntrustedStore>,
    tracer: Arc<Tracer>,
}

impl TracedStore {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn UntrustedStore>, tracer: Arc<Tracer>) -> TracedStore {
        TracedStore { inner, tracer }
    }
}

/// The shard a file belongs to, from the sharded store's `shard{k}--`
/// name prefix; files without one belong to an unsharded store.
fn shard_of(name: &str) -> usize {
    name.strip_prefix("shard")
        .and_then(|rest| rest.split_once("--"))
        .and_then(|(k, _)| k.parse::<usize>().ok())
        .unwrap_or(0)
        .min(MAX_SHARDS - 1)
}

impl UntrustedStore for TracedStore {
    fn open(&self, name: &str, create: bool) -> tdb::platform::Result<Box<dyn RandomAccessFile>> {
        let inner = self.inner.open(name, create)?;
        Ok(Box::new(TracedFile {
            inner,
            tracer: self.tracer.clone(),
            shard: shard_of(name),
        }))
    }

    fn exists(&self, name: &str) -> tdb::platform::Result<bool> {
        self.inner.exists(name)
    }

    fn remove(&self, name: &str) -> tdb::platform::Result<()> {
        self.inner.remove(name)
    }

    fn list(&self) -> tdb::platform::Result<Vec<String>> {
        self.inner.list()
    }

    fn total_size(&self) -> tdb::platform::Result<u64> {
        self.inner.total_size()
    }
}

struct TracedFile {
    inner: Box<dyn RandomAccessFile>,
    tracer: Arc<Tracer>,
    shard: usize,
}

impl RandomAccessFile for TracedFile {
    fn read_at(&self, offset: u64, buf: &mut [u8]) -> tdb::platform::Result<()> {
        let c = &self.tracer.counters;
        c.read_bytes.fetch_add(buf.len() as u64, Ordering::Relaxed);
        let _s = self.tracer.span(Layer::Platform, "read_at");
        self.inner.read_at(offset, buf)
    }

    fn write_at(&self, offset: u64, data: &[u8]) -> tdb::platform::Result<()> {
        let c = &self.tracer.counters;
        c.writes.fetch_add(1, Ordering::Relaxed);
        c.write_bytes
            .fetch_add(data.len() as u64, Ordering::Relaxed);
        c.shard_write_bytes[self.shard].fetch_add(data.len() as u64, Ordering::Relaxed);
        let _s = self.tracer.span(Layer::Platform, "write_at");
        self.inner.write_at(offset, data)
    }

    fn len(&self) -> tdb::platform::Result<u64> {
        self.inner.len()
    }

    fn is_empty(&self) -> tdb::platform::Result<bool> {
        self.inner.is_empty()
    }

    fn set_len(&self, len: u64) -> tdb::platform::Result<()> {
        let _s = self.tracer.span(Layer::Platform, "set_len");
        self.inner.set_len(len)
    }

    fn sync(&self) -> tdb::platform::Result<()> {
        self.tracer.counters.syncs.fetch_add(1, Ordering::Relaxed);
        let _s = self.tracer.span(Layer::Platform, "sync");
        self.inner.sync()
    }
}

/// A [`OneWayCounter`] that counts and times its increments.
pub struct TracedCounter {
    inner: Arc<dyn OneWayCounter>,
    tracer: Arc<Tracer>,
}

impl TracedCounter {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn OneWayCounter>, tracer: Arc<Tracer>) -> TracedCounter {
        TracedCounter { inner, tracer }
    }
}

impl OneWayCounter for TracedCounter {
    fn read(&self) -> tdb::platform::Result<u64> {
        self.inner.read()
    }

    fn increment(&self) -> tdb::platform::Result<u64> {
        self.tracer
            .counters
            .counter_increments
            .fetch_add(1, Ordering::Relaxed);
        let _s = self.tracer.span(Layer::Platform, "increment");
        self.inner.increment()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shard_prefix_is_parsed() {
        assert_eq!(shard_of("seg-0001"), 0);
        assert_eq!(shard_of("shard1--seg-0001"), 1);
        assert_eq!(shard_of("shard3--anchor"), 3);
        assert_eq!(shard_of("shardx--anchor"), 0);
    }

    #[test]
    fn spans_nest_and_carry_the_operation() {
        let t = Tracer::new();
        t.set_on(true);
        t.operation(7, "transfer", || {
            let _outer = t.span(Layer::Tdb, "commit");
            let _inner = t.span(Layer::Platform, "sync");
        });
        let spans = t.spans();
        let by_name = |n: &str| *spans.iter().find(|s| s.name == n).unwrap();
        let (op, commit, sync) = (by_name("transfer"), by_name("commit"), by_name("sync"));
        assert_eq!(op.parent, 0);
        assert_eq!(commit.parent, op.id);
        assert_eq!(sync.parent, commit.id);
        assert!(spans.iter().all(|s| s.op == 7 && s.complete));
        t.set_on(false);
        assert!(t.span(Layer::Tdb, "begin").is_none());
    }
}
