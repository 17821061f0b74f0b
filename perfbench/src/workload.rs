//! The three workloads: set-up, the measured window, and the post-run
//! correctness gate.
//!
//! Every store is TDB-S (`SecurityMode::Full`) with durable commits, on
//! an in-memory `MemStore` and a `VolatileCounter`: `sync` is a no-op
//! there, so the flush policy is the same on both sides of any A/B and
//! the numbers describe the program, not a device. Loads are closed
//! loops — TPC-B terminals and auditors each wait for their reply — with
//! at most two load threads or connections.
//!
//! * `tpcb-embedded` — one embedded client at the paper's Fig. 9 sizes on
//!   one shard with the default 4 MiB object cache; the working set is
//!   larger than the cache. The whole cost is the local commit path.
//! * `tpcb-remote` — an in-process `tdb-server` over loopback TCP on a
//!   2-shard store small enough to fit the cache, with two `RemoteDb`
//!   connections: wire round trips, lock waits between sessions and
//!   cross-shard two-phase commit.
//! * `proof-audit` — one embedded TPC-B writer beside one auditor doing
//!   proven point reads and keyed lookups, each verified: the only
//!   workload with proofs on the measured path.
//!
//! Transfers go through the production `tpcb::transfer_with_retry` over a
//! `Box<dyn Session>`, so a change to how a transfer talks to the session
//! is measured without editing this file.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use tdb::obs::{Json, RegistrySnapshot};
use tdb::platform::{MemSecretStore, MemStore, OneWayCounter, UntrustedStore, VolatileCounter};
use tdb::proof::{wire, Verifier};
use tdb::session::{to_bytes, with_bytes, SessionStats};
use tdb::{ClassRegistry, Db, ExtractorRegistry, Key, ObjectId, Options, SecurityMode, Session};
use tdb_client::RemoteDb;
use tdb_server::{Server, ServerConfig};
use tpcb::{transfer_with_retry, HistoryRecord, TdbDriver, TpcbRecord, TpcbSystem};

use crate::guard::{self, Stage};
use crate::layers::{self, WindowDelta};
use crate::provenance;
use crate::stats::{latencies, median, ratio, steady, summarize, Slices};
use crate::trace::{Layer, PlatformCounts, TracedCounter, TracedSession, TracedStore, Tracer};

/// Point reads an auditor verifies per keyed lookup.
const POINTS_PER_KEYED: usize = 32;
/// The window is measured in slices of this length; sliced metrics
/// report the median over slices.
const SLICE: Duration = Duration::from_secs(2);
/// The gate's stall limit. The slowest operation of a healthy run takes
/// a few hundred milliseconds (a keyed lookup at the paper's sizes; a
/// transfer behind a checkpoint); one that takes seconds means the
/// program stalled, and the run's figures describe the stall.
const STALL_LIMIT: Duration = Duration::from_secs(3);
/// Store-size sampling period; in a traced run, also how long each
/// traced and each untraced stretch lasts.
const TICK: Duration = Duration::from_millis(100);
const TENANT: &str = "perfbench";

/// A named workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Embedded TPC-B at the paper's sizes.
    TpcbEmbedded,
    /// TPC-B through the network server on two shards.
    TpcbRemote,
    /// TPC-B writer beside a proof auditor.
    ProofAudit,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::TpcbEmbedded,
        Workload::TpcbRemote,
        Workload::ProofAudit,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::TpcbEmbedded => "tpcb-embedded",
            Workload::TpcbRemote => "tpcb-remote",
            Workload::ProofAudit => "proof-audit",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Served through the network server (sessions are `RemoteDb`
    /// connections, not embedded).
    pub fn remote(self) -> bool {
        self == Workload::TpcbRemote
    }

    fn shards(self) -> usize {
        if self.remote() {
            2
        } else {
            1
        }
    }

    fn writers(self) -> usize {
        if self.remote() {
            2
        } else {
            1
        }
    }
}

/// Initial table sizes.
#[derive(Clone, Copy, Debug)]
pub struct Sizes {
    /// Account records.
    pub accounts: u32,
    /// Teller records.
    pub tellers: u32,
    /// Branch records.
    pub branches: u32,
    /// Preloaded history records.
    pub history: u32,
}

/// Everything one run needs.
#[derive(Clone, Debug)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seed of every random choice the run makes.
    pub seed: u64,
    /// Length of the measured window.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
    /// Table sizes.
    pub sizes: Sizes,
    /// Set-ups per end-to-end run; `setup_s` is their median and the last
    /// one is measured.
    pub setups: usize,
    /// Unmeasured transfers before the window, so caches fill.
    pub warmup_s: f64,
    /// How long the post-run audit runs batches of 32 point reads and one
    /// keyed lookup (at least one batch).
    pub audit_s: f64,
}

impl RunConfig {
    /// The benchmark's configuration of `workload`.
    pub fn new(workload: Workload, seed: u64, seconds: f64, trace: bool) -> RunConfig {
        let sizes = match workload {
            // The paper's Fig. 9 sizes.
            Workload::TpcbEmbedded => Sizes {
                accounts: 100_000,
                tellers: 1_000,
                branches: 100,
                history: 252_000,
            },
            Workload::TpcbRemote | Workload::ProofAudit => Sizes {
                accounts: 10_000,
                tellers: 100,
                branches: 10,
                history: 0,
            },
        };
        RunConfig {
            workload,
            seed,
            seconds,
            trace,
            sizes,
            // A traced run reports no set-up time. The paper-size load
            // takes seconds, so it is repeated three times; the small
            // stores' sub-second loads five times, for a steadier median.
            setups: match (trace, workload) {
                (true, _) => 1,
                (false, Workload::TpcbEmbedded) => 3,
                (false, _) => 5,
            },
            warmup_s: 1.0,
            // The audit supplies the TPC-B workloads' proof metrics; on
            // proof-audit, whose auditor runs in the window, it is only
            // part of the gate. Over six seconds the keyed median spread
            // 0.17 (remote) and 0.27 (paper sizes, where a lookup takes
            // 0.2 s) across seeds on a 2-CPU VM.
            audit_s: if workload == Workload::ProofAudit {
                1.0
            } else {
                10.0
            },
        }
    }
}

/// One reported metric.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Name, as in `BENCHMARK.json`.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The result of one run.
pub struct Outcome {
    /// Every check passed.
    pub correct: bool,
    /// Operations attempted (transfers and proof operations).
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
    /// End-to-end metrics, or per-layer ones on a traced run.
    pub metrics: Vec<Metric>,
    /// Details: provenance is added by the caller; sample counts, check
    /// results and raw counts are here.
    pub report: Json,
    /// The tracer of a traced run (its spans are written out by the
    /// caller).
    pub tracer: Option<Arc<Tracer>>,
}

// ---------------------------------------------------------------------------
// Deterministic choices
// ---------------------------------------------------------------------------

/// splitmix64 stream; one per thread, derived from the run seed.
pub struct Rng(u64);

impl Rng {
    /// The `stream`-th stream of `seed`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        (self.next_u64() % u64::from(n)) as u32
    }

    /// A TPC-B delta, uniform in `-99_999..=99_999`.
    pub fn delta(&mut self) -> i64 {
        (self.next_u64() % 199_999) as i64 - 99_999
    }
}

// ---------------------------------------------------------------------------
// Deployment
// ---------------------------------------------------------------------------

fn tpcb_classes() -> ClassRegistry {
    let mut classes = ClassRegistry::new();
    tpcb::register_tpcb_classes(&mut classes);
    classes
}

/// One set-up store, loaded, plus the server in front of it on the
/// remote workload.
pub struct Deployment {
    db: Db,
    server: Option<Server>,
    /// Account id → object id, for the auditor's point reads.
    oids: Vec<ObjectId>,
}

impl Deployment {
    /// Create the store and load the tables. Platform substrates are
    /// wrapped in the tracing decorators when `tracer` is given.
    pub fn create(
        workload: Workload,
        sizes: Sizes,
        tracer: Option<&Arc<Tracer>>,
    ) -> Result<Deployment, String> {
        let mut untrusted: Arc<dyn UntrustedStore> = Arc::new(MemStore::new());
        let mut counter: Arc<dyn OneWayCounter> = Arc::new(VolatileCounter::new());
        if let Some(t) = tracer {
            untrusted = Arc::new(TracedStore::new(untrusted, t.clone()));
            counter = Arc::new(TracedCounter::new(counter, t.clone()));
        }
        let mut extractors = ExtractorRegistry::new();
        tpcb::register_tpcb_extractors(&mut extractors);
        let db = Db::open(
            Options::in_memory()
                .with_substrates(untrusted, MemSecretStore::from_label(TENANT), counter)
                .classes(tpcb_classes())
                .extractors(extractors)
                .security(SecurityMode::Full)
                .shards(workload.shards()),
        )
        .map_err(|e| format!("open database: {e}"))?;
        let server = if workload.remote() {
            Some(
                Server::start(db.session(), ServerConfig::default())
                    .map_err(|e| format!("start server: {e}"))?,
            )
        } else {
            None
        };
        let mut dep = Deployment {
            db,
            server,
            oids: Vec::new(),
        };
        // The remote store is loaded through the wire, as a client of the
        // service would; the loader connection closes before the run.
        let loader = dep
            .client(None)
            .map_err(|e| format!("connect loader: {e}"))?;
        let mut driver = TdbDriver::over_session(loader);
        driver.load(sizes.accounts, sizes.tellers, sizes.branches, sizes.history);
        drop(driver);
        dep.oids = dep.account_oids(sizes.accounts)?;
        Ok(dep)
    }

    /// A new client session: embedded, or a fresh connection to the
    /// server. Traced when `tracer` is given.
    pub fn client(&self, tracer: Option<&Arc<Tracer>>) -> tdb::SResult<Box<dyn Session>> {
        let (inner, layer): (Box<dyn Session>, Layer) = match &self.server {
            None => (Box::new(self.db.session()), Layer::Tdb),
            Some(server) => (
                Box::new(RemoteDb::connect(
                    &server.local_addr().to_string(),
                    TENANT,
                    tpcb_classes(),
                )?),
                Layer::TdbClient,
            ),
        };
        Ok(match tracer {
            Some(t) => Box::new(TracedSession::new(inner, t.clone(), layer)),
            None => inner,
        })
    }

    fn account_oids(&self, accounts: u32) -> Result<Vec<ObjectId>, String> {
        let session = self.db.session();
        let r = session.begin_read().map_err(|e| e.to_string())?;
        let entries = r.scan("account", "by-id").map_err(|e| e.to_string())?;
        r.finish().map_err(|e| e.to_string())?;
        let mut oids = vec![None; accounts as usize];
        for (key, oid) in entries {
            match key {
                Key::U64(id) if id < u64::from(accounts) => oids[id as usize] = Some(oid),
                other => return Err(format!("unexpected account key {other:?}")),
            }
        }
        oids.into_iter()
            .enumerate()
            .map(|(id, oid)| oid.ok_or_else(|| format!("account {id} missing after load")))
            .collect()
    }

    /// Database statistics, read through the in-process handle (never
    /// through a worker connection, which may have been severed).
    pub fn stats(&self) -> SessionStats {
        tdb::session::session_stats(self.db.layers())
    }

    /// The program's own instruments (shards folded into aggregates).
    pub fn registry(&self) -> RegistrySnapshot {
        self.db.chunk_store().obs_snapshot()
    }

    /// Stop the server (if any) and close the store.
    pub fn shutdown(self) {
        if let Some(server) = self.server {
            server.shutdown();
        }
    }
}

// ---------------------------------------------------------------------------
// The measured window
// ---------------------------------------------------------------------------

struct Clock {
    window_start: Instant,
    end: Instant,
}

/// What one TPC-B writer did.
#[derive(Default)]
struct WriterOut {
    attempted: u64,
    failed: u64,
    /// Committed transfers, warm-up included (the gate's count).
    committed: u64,
    /// Sum of the committed transfers' deltas.
    delta_sum: i64,
    /// The longest transfer attempt, warm-up included, ns.
    longest_ns: u64,
    /// Each transfer committed in the window: (start, latency), ns, the
    /// start counted from the window's.
    window: Vec<(u64, u64)>,
    /// Traced run: the window's transfers split by whether tracing was on
    /// throughout (`traced_ns`) or off throughout (`untraced_ns`).
    traced_ns: Vec<u64>,
    untraced_ns: Vec<u64>,
}

/// What an auditor did.
#[derive(Default)]
struct ProofOut {
    /// Proof operations attempted.
    attempted: u64,
    /// Failed reads and proofs that did not verify.
    failed: u64,
    /// Each recorded, verified point read: (start, latency), ns.
    point: Vec<(u64, u64)>,
    /// Each recorded, verified keyed lookup: (start, latency), ns.
    keyed: Vec<(u64, u64)>,
    /// The longest proof operation, ns.
    longest_ns: u64,
    /// How long the post-run audit ran, s.
    elapsed_s: f64,
    /// Encoded bytes of the recorded point proofs.
    point_bytes: u64,
    /// Encoded bytes of the recorded keyed proofs.
    keyed_bytes: u64,
    /// The first failure, for the report.
    first_error: Option<String>,
}

impl ProofOut {
    fn fail(&mut self, e: impl std::fmt::Display) {
        self.failed += 1;
        if self.first_error.is_none() {
            self.first_error = Some(e.to_string());
        }
    }
}

fn writer_loop(
    dep: &Deployment,
    cfg: &RunConfig,
    writer: usize,
    tracer: Option<&Arc<Tracer>>,
    clock: &Clock,
    next_hist: &AtomicU32,
    committed_now: &AtomicU64,
) -> WriterOut {
    let mut out = WriterOut::default();
    let mut rng = Rng::new(cfg.seed, 1 + writer as u64);
    let Ok(mut session) = dep.client(tracer) else {
        out.attempted = 1;
        out.failed = 1;
        return out;
    };
    let s = cfg.sizes;
    while Instant::now() < clock.end {
        let (account, teller, branch) = (
            rng.below(s.accounts),
            rng.below(s.tellers),
            rng.below(s.branches),
        );
        let delta = rng.delta();
        let hist = next_hist.fetch_add(1, Ordering::Relaxed);
        let traced = tracer.map(|t| (t.is_on(), t.epoch()));
        let began = Instant::now();
        // A non-retryable error panics inside the production transfer; it
        // is counted as a failed operation, not allowed to end the run.
        let committed = catch_unwind(AssertUnwindSafe(|| {
            let transfer =
                || transfer_with_retry(&*session, true, account, teller, branch, delta, hist);
            match tracer {
                Some(t) => t.operation(u64::from(hist) + 1, "transfer", transfer),
                None => transfer(),
            }
        }))
        .is_ok();
        let ns = began.elapsed().as_nanos() as u64;
        out.attempted += 1;
        out.longest_ns = out.longest_ns.max(ns);
        if !committed {
            out.failed += 1;
            // A severed connection stays poisoned: reconnect, and stop
            // this writer if the server is gone.
            if dep.server.is_some() {
                match dep.client(tracer) {
                    Ok(fresh) => session = fresh,
                    Err(_) => break,
                }
            }
            continue;
        }
        out.committed += 1;
        committed_now.fetch_add(1, Ordering::Relaxed);
        guard::op_done();
        out.delta_sum += delta;
        if began >= clock.window_start {
            let at = began.duration_since(clock.window_start).as_nanos() as u64;
            out.window.push((at, ns));
            if let (Some(t), Some((on, epoch))) = (tracer, traced) {
                if t.epoch() == epoch {
                    if on {
                        out.traced_ns.push(ns);
                    } else {
                        out.untraced_ns.push(ns);
                    }
                }
            }
        }
    }
    out
}

/// One audit batch on a fresh proven snapshot: [`POINTS_PER_KEYED`]
/// proven point reads of random accounts, then one keyed lookup, each
/// verified against `verifier`. Operations that start at or after
/// `origin` are recorded, their start counted from it.
fn audit_batch(
    session: &dyn Session,
    verifier: &Verifier,
    oids: &[ObjectId],
    rng: &mut Rng,
    tracer: Option<&Arc<Tracer>>,
    origin: Instant,
    out: &mut ProofOut,
) {
    let span = |name| tracer.and_then(|t| t.span(Layer::Proof, name));
    let r = match session.begin_read_proven() {
        Ok(r) => r,
        Err(e) => return out.fail(format!("begin_read_proven: {e}")),
    };
    let accounts = oids.len() as u32;
    for _ in 0..POINTS_PER_KEYED {
        let id = rng.below(accounts);
        out.attempted += 1;
        let began = Instant::now();
        let checked = r.read_proven(oids[id as usize]).and_then(|p| {
            {
                let _s = span("verify_point");
                p.verify(verifier)?;
            }
            let value = p.value.as_deref().unwrap_or_default();
            let read_id = with_bytes::<TpcbRecord, u32>(session.classes(), value, |rec| rec.id)?;
            if read_id != id {
                return Err(tdb::Error::new(
                    tdb::ErrorKind::Tamper,
                    format!("proven read of account {id} returned account {read_id}"),
                ));
            }
            Ok(p.proof.len() as u64)
        });
        let ns = began.elapsed().as_nanos() as u64;
        out.longest_ns = out.longest_ns.max(ns);
        if checked.is_ok() {
            guard::op_done();
        }
        match checked {
            Ok(len) if began >= origin => {
                out.point
                    .push((began.duration_since(origin).as_nanos() as u64, ns));
                out.point_bytes += len;
            }
            Ok(_) => {}
            Err(e) => out.fail(format!("point proof of account {id}: {e}")),
        }
    }
    let id = rng.below(accounts);
    out.attempted += 1;
    let began = Instant::now();
    let checked = r
        .exact_proven("account", "by-id", &Key::U64(u64::from(id)))
        .and_then(|p| {
            {
                let _s = span("verify_keyed");
                p.verify(verifier)?;
            }
            let expected = [(Key::U64(u64::from(id)), oids[id as usize])];
            if p.entries != expected {
                return Err(tdb::Error::new(
                    tdb::ErrorKind::Tamper,
                    format!("keyed lookup of account {id} returned {:?}", p.entries),
                ));
            }
            Ok(p.proof.len() as u64)
        });
    let ns = began.elapsed().as_nanos() as u64;
    out.longest_ns = out.longest_ns.max(ns);
    if checked.is_ok() {
        guard::op_done();
    }
    match checked {
        Ok(len) if began >= origin => {
            out.keyed
                .push((began.duration_since(origin).as_nanos() as u64, ns));
            out.keyed_bytes += len;
        }
        Ok(_) => {}
        Err(e) => out.fail(format!("keyed proof of account {id}: {e}")),
    }
    if let Err(e) = r.finish() {
        out.fail(format!("finish: {e}"));
    }
}

/// A verifier for `session`'s database.
fn verifier_for(session: &dyn Session) -> Result<Verifier, String> {
    let anchor = session
        .trust_anchor()
        .map_err(|e| format!("trust anchor: {e}"))?;
    let anchor = wire::decode_trust_anchor(&anchor).map_err(|e| format!("trust anchor: {e}"))?;
    Ok(Verifier::new(anchor))
}

/// The gate audit: audit `dep` for `duration` (at least one batch) on a
/// fresh client.
fn run_audit(
    dep: &Deployment,
    seed: u64,
    tracer: Option<&Arc<Tracer>>,
    duration: Duration,
) -> ProofOut {
    let mut out = ProofOut::default();
    let began = Instant::now();
    match dep
        .client(tracer)
        .map_err(|e| e.to_string())
        .and_then(|s| verifier_for(&*s).map(|v| (s, v)))
    {
        Ok((session, verifier)) => {
            let mut rng = Rng::new(seed, 2000);
            let end = began + duration;
            while out.attempted == 0 || Instant::now() < end {
                audit_batch(
                    &*session, &verifier, &dep.oids, &mut rng, tracer, began, &mut out,
                );
            }
            out.elapsed_s = began.elapsed().as_secs_f64();
        }
        Err(e) => {
            out.attempted += 1;
            out.fail(e);
        }
    }
    out
}

fn auditor_loop(
    dep: &Deployment,
    cfg: &RunConfig,
    tracer: Option<&Arc<Tracer>>,
    clock: &Clock,
) -> ProofOut {
    let mut out = ProofOut::default();
    let setup = dep
        .client(tracer)
        .map_err(|e| e.to_string())
        .and_then(|s| verifier_for(&*s).map(|v| (s, v)));
    let (session, verifier) = match setup {
        Ok(sv) => sv,
        Err(e) => {
            out.attempted = 1;
            out.fail(e);
            return out;
        }
    };
    let mut rng = Rng::new(cfg.seed, 1000);
    while Instant::now() < clock.end {
        audit_batch(
            &*session,
            &verifier,
            &dep.oids,
            &mut rng,
            tracer,
            clock.window_start,
            &mut out,
        );
    }
    out
}

// ---------------------------------------------------------------------------
// The correctness gate
// ---------------------------------------------------------------------------

/// Check the final state: per table, the balances sum to the committed
/// deltas and every record is present; the history holds one record per
/// committed transfer. Returns the violations.
fn check_balances(
    session: &dyn Session,
    sizes: Sizes,
    committed: u64,
    delta_sum: i64,
) -> Vec<String> {
    let mut violations = Vec::new();
    let r = match session.begin_read() {
        Ok(r) => r,
        Err(e) => return vec![format!("begin_read: {e}")],
    };
    for (table, n) in [
        ("account", sizes.accounts),
        ("teller", sizes.tellers),
        ("branch", sizes.branches),
    ] {
        let sum = r.scan(table, "by-id").and_then(|entries| {
            if entries.len() != n as usize {
                return Err(tdb::Error::new(
                    tdb::ErrorKind::Usage,
                    format!("{} records, expected {n}", entries.len()),
                ));
            }
            let mut sum = 0i64;
            for (_, oid) in entries {
                let bytes = r.read(oid)?;
                sum += with_bytes::<TpcbRecord, i64>(session.classes(), &bytes, |rec| rec.balance)?;
            }
            Ok(sum)
        });
        match sum {
            Ok(sum) if sum == delta_sum => {}
            Ok(sum) => violations.push(format!(
                "{table} balances sum to {sum}, committed deltas to {delta_sum}"
            )),
            Err(e) => violations.push(format!("{table}: {e}")),
        }
    }
    let expected = u64::from(sizes.history) + committed;
    match r.count("history") {
        Ok(n) if n == expected => {}
        Ok(n) => violations.push(format!("history holds {n} records, expected {expected}")),
        Err(e) => violations.push(format!("history: {e}")),
    }
    if let Err(e) = r.finish() {
        violations.push(format!("finish: {e}"));
    }
    violations
}

/// Peak resident set size of this process, in MiB (0 where unknown).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

// ---------------------------------------------------------------------------
// One run
// ---------------------------------------------------------------------------

/// Snapshot of everything the per-layer metrics take deltas of.
struct Marks {
    at: Instant,
    registry: RegistrySnapshot,
    stats: SessionStats,
    platform: PlatformCounts,
    cpu: Option<(u64, u64)>,
}

fn mark(dep: &Deployment, tracer: Option<&Arc<Tracer>>) -> Marks {
    Marks {
        at: Instant::now(),
        registry: dep.registry(),
        stats: dep.stats(),
        platform: tracer.map(|t| t.counts()).unwrap_or_default(),
        cpu: provenance::cpu_ticks(),
    }
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

/// Set up, run the window, check, and compute the metrics.
pub fn run(cfg: &RunConfig) -> Result<Outcome, String> {
    let tracer = cfg.trace.then(Tracer::new);
    let tracer = tracer.as_ref();

    guard::enter(Stage::SetUp);
    let mut setup_s = Vec::new();
    let mut dep: Option<Deployment> = None;
    for _ in 0..cfg.setups.max(1) {
        if let Some(old) = dep.take() {
            old.shutdown();
        }
        let began = Instant::now();
        dep = Some(Deployment::create(cfg.workload, cfg.sizes, tracer)?);
        setup_s.push(began.elapsed().as_secs_f64());
    }
    let dep = dep.expect("at least one set-up ran");
    guard::enter(Stage::Window);

    let now = Instant::now();
    let window_start = now + Duration::from_secs_f64(cfg.warmup_s);
    let clock = Clock {
        window_start,
        end: window_start + Duration::from_secs_f64(cfg.seconds),
    };
    let next_hist = AtomicU32::new(cfg.sizes.history);
    let committed_now = AtomicU64::new(0);
    let (writers, auditor, start, end, space) = std::thread::scope(|scope| {
        let writers: Vec<_> = (0..cfg.workload.writers())
            .map(|w| {
                let (dep, clock, next_hist, committed_now) =
                    (&dep, &clock, &next_hist, &committed_now);
                scope.spawn(move || {
                    writer_loop(dep, cfg, w, tracer, clock, next_hist, committed_now)
                })
            })
            .collect();
        let auditor = (cfg.workload == Workload::ProofAudit).then(|| {
            let (dep, clock) = (&dep, &clock);
            scope.spawn(move || auditor_loop(dep, cfg, tracer, clock))
        });
        sleep_until(clock.window_start);
        let start = mark(&dep, tracer);
        // Every slice boundary: sample the store size against the live
        // data; in a traced run, switch tracing on and off at every tick
        // so the run measures its own overhead on the same store.
        let mut space = Vec::new();
        let mut tick = clock.window_start;
        let mut on = true;
        while tick < clock.end {
            if let Some(t) = tracer {
                t.set_on(on);
                on = !on;
            }
            tick = (tick + TICK).min(clock.end);
            sleep_until(tick);
            space.push((dep.stats().disk_size, committed_now.load(Ordering::Relaxed)));
        }
        if let Some(t) = tracer {
            t.set_on(false);
        }
        let end = mark(&dep, tracer);
        let writers: Vec<WriterOut> = writers
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect();
        let auditor = auditor.map(|h| h.join().expect("auditor thread panicked"));
        (writers, auditor, start, end, space)
    });
    let window_s = end.at.duration_since(start.at).as_secs_f64();
    // Gate: balances through a fresh, untraced client session.
    let committed: u64 = writers.iter().map(|w| w.committed).sum();
    let delta_sum: i64 = writers.iter().map(|w| w.delta_sum).sum();
    guard::enter(Stage::Balances);
    let mut violations = match dep.client(None) {
        Ok(s) => check_balances(&*s, cfg.sizes, committed, delta_sum),
        Err(e) => vec![format!("connect checker: {e}")],
    };

    // Gate: a proof audit of the final state. On the TPC-B workloads it
    // also supplies the proof metrics. A traced run traces it.
    guard::enter(Stage::Audit);
    if let Some(t) = tracer {
        t.set_on(true);
    }
    let audit = run_audit(&dep, cfg.seed, tracer, Duration::from_secs_f64(cfg.audit_s));
    if let Some(t) = tracer {
        t.set_on(false);
    }
    let after_audit = mark(&dep, tracer);
    guard::enter(Stage::Report);
    dep.shutdown();

    let all_proofs: Vec<&ProofOut> = [Some(&audit), auditor.as_ref()]
        .into_iter()
        .flatten()
        .collect();
    for p in &all_proofs {
        if let Some(e) = &p.first_error {
            violations.push(format!("{} proof operations failed, first: {e}", p.failed));
        }
    }
    // Gate: no operation stalled.
    let longest_ns = writers
        .iter()
        .map(|w| w.longest_ns)
        .chain(all_proofs.iter().map(|p| p.longest_ns))
        .max()
        .unwrap_or(0);
    if longest_ns > STALL_LIMIT.as_nanos() as u64 {
        violations.push(format!(
            "an operation took {:.1} s, over the {} s stall limit (the report \
             has the window's maintenance counters; .bench_out/ a diagnostic dump \
             taken during the stall)",
            longest_ns as f64 / 1e9,
            STALL_LIMIT.as_secs()
        ));
    }
    let attempted = writers.iter().map(|w| w.attempted).sum::<u64>()
        + all_proofs.iter().map(|p| p.attempted).sum::<u64>();
    let failed = writers.iter().map(|w| w.failed).sum::<u64>()
        + all_proofs.iter().map(|p| p.failed).sum::<u64>();
    // The proof metrics come from the window's auditor on proof-audit, and
    // from the gate audit on the TPC-B workloads.
    let proofs = auditor.as_ref().unwrap_or(&audit);
    let point_n = proofs.point.len() as f64;
    let keyed_n = proofs.keyed.len() as f64;
    let window: Vec<(u64, u64)> = writers
        .iter()
        .flat_map(|w| w.window.iter().copied())
        .collect();
    let window_txns = window.len() as u64;
    if window_txns == 0 {
        violations.push("no transfer committed in the measured window".to_string());
    }

    let slices = Slices::new(cfg.seconds, SLICE);
    let record_len = to_bytes(&TpcbRecord::new(0)).len() as u64;
    let history_len = to_bytes(&HistoryRecord::new(0, 0, 0, 0, 0)).len() as u64;
    let live_bytes = |committed: u64| {
        (u64::from(cfg.sizes.accounts)
            + u64::from(cfg.sizes.tellers)
            + u64::from(cfg.sizes.branches))
            * record_len
            + (u64::from(cfg.sizes.history) + committed) * history_len
    };
    let space_amp: Vec<f64> = space
        .iter()
        .map(|&(disk, committed)| ratio(disk as f64, live_bytes(committed) as f64))
        .collect();

    let mut report = Json::obj();
    report.push("workload", cfg.workload.name());
    report.push("trace", cfg.trace);
    report.push("window_s", window_s);
    report.push(
        "setup_s_each",
        Json::array(setup_s.iter().map(|&s| Json::from(s))),
    );
    report.push("txn_samples", window.len());
    report.push("read_samples", point_n);
    report.push("keyed_samples", keyed_n);
    report.push("committed_total", committed);
    let count_per_slice = |samples: &[(u64, u64)]| {
        Json::array(slices.split(samples).iter().map(|v| Json::from(v.len())))
    };
    report.push("txns_by_slice", count_per_slice(&window));
    if let Some(a) = &auditor {
        report.push("point_reads_by_slice", count_per_slice(&a.point));
    }
    report.push(
        "txn_max_ms",
        window.iter().map(|&(_, ns)| ns).max().unwrap_or(0) as f64 / 1e6,
    );
    report.push("longest_op_ms", longest_ns as f64 / 1e6);
    // Maintenance activity over the window, to explain a slow or stalled
    // slice.
    let during = end.registry.since(&start.registry);
    let mut maintenance = Json::obj();
    for name in [
        "chunk.checkpoints",
        "chunk.cleaner_passes",
        "chunk.cleaner_move_stalls",
        "chunk.maintenance_stalls",
        "chunk.maintenance_gave_up",
        "chunk.segments_grown",
    ] {
        maintenance.push(name, during.counters.get(name).copied().unwrap_or(0));
    }
    if let Some(h) = during.histograms.get("commit.stall") {
        maintenance.push("commit.stall_count", h.count());
        maintenance.push("commit.stall_total_ms", h.sum as f64 / 1e6);
    }
    report.push("maintenance", maintenance);
    // The share of the machine's CPU time the hypervisor gave to other
    // guests during the window: a run measured under heavy steal is slow
    // for reasons outside the program.
    if let (Some((s0, t0)), Some((s1, t1))) = (start.cpu, end.cpu) {
        report.push(
            "host_steal_share",
            ratio((s1 - s0) as f64, (t1 - t0) as f64),
        );
    }

    let metrics = if let Some(t) = tracer {
        let traced: Vec<u64> = writers
            .iter()
            .flat_map(|w| w.traced_ns.iter().copied())
            .collect();
        let untraced: Vec<u64> = writers
            .iter()
            .flat_map(|w| w.untraced_ns.iter().copied())
            .collect();
        let delta = WindowDelta {
            workload: cfg.workload,
            window_s,
            window_txns,
            registry: end.registry.since(&start.registry),
            proof_registry: after_audit.registry.since(&start.registry),
            platform: end.platform.since(&start.platform),
            traced_p50_ms: summarize(&traced, 1e6).p50,
            untraced_p50_ms: summarize(&untraced, 1e6).p50,
            keyed_proof_bytes_mean: ratio(proofs.keyed_bytes as f64, keyed_n),
            failed_share: ratio(failed as f64, attempted as f64),
        };
        let (metrics, attribution) = layers::per_layer(&delta, &t.spans());
        violations.extend(attribution.violation);
        report.push("attribution", attribution.report);
        metrics
    } else {
        let bytes = end.stats.bytes_appended - start.stats.bytes_appended;
        let m = |name: &str, value: f64, unit: &'static str| Metric {
            name: name.to_string(),
            value,
            unit,
        };
        // Every percentile and rate of the window is taken per two-second
        // slice and reported as the quartile of slices that interference
        // from other work on the host disturbs least (see `steady`).
        let pct = |samples: &[(u64, u64)], per_unit: f64, p99: bool| {
            let per_slice = slices.split(samples);
            steady(
                per_slice.iter().filter(|v| !v.is_empty()).map(|v| {
                    let q = summarize(v, per_unit);
                    if p99 {
                        q.p99
                    } else {
                        q.p50
                    }
                }),
                false,
            )
        };
        let rate = |samples: &[(u64, u64)]| {
            let per_slice = slices.split(samples);
            steady(
                per_slice
                    .iter()
                    .map(|v| v.len() as f64 / SLICE.as_secs_f64()),
                true,
            )
        };
        // The window's auditor is measured like the writers. The post-run
        // audit is taken whole: a slice of it holds too few keyed lookups
        // for a median, and at the paper's sizes a second holds four or
        // five 33-operation batches, so a per-slice rate moves in steps
        // of a fifth.
        let (read_p50, keyed_p50, proofs_per_s) = match &auditor {
            Some(a) => (
                pct(&a.point, 1e3, false),
                pct(&a.keyed, 1e6, false),
                rate(&a.point.iter().chain(&a.keyed).copied().collect::<Vec<_>>()),
            ),
            None => (
                summarize(&latencies(&audit.point), 1e3).p50,
                summarize(&latencies(&audit.keyed), 1e6).p50,
                ratio(
                    (audit.point.len() + audit.keyed.len()) as f64,
                    audit.elapsed_s,
                ),
            ),
        };
        // The proven-read tail beside a writer follows the host's
        // scheduling more than the program (on a 2-CPU VM its quartile
        // spread over ten seeds reached 0.33), so it is reported here and
        // not gated.
        report.push("read_p99_us", summarize(&latencies(&proofs.point), 1e3).p99);
        // A keyed p99 needs a thousand lookups to have ten beyond it; the
        // TPC-B workloads' post-run audit makes about 250 (27 at the
        // paper's sizes, where one takes 0.2 s), and its p99 spread 0.40
        // over six seeds on a 2-CPU VM. It is reported here, not gated.
        report.push(
            "keyed_p99_ms",
            summarize(&latencies(&proofs.keyed), 1e6).p99,
        );
        vec![
            m("setup_s", median(&setup_s), "s"),
            m("txn_per_s", rate(&window), "1/s"),
            m("txn_p50_ms", pct(&window, 1e6, false), "ms"),
            m("txn_p99_ms", pct(&window, 1e6, true), "ms"),
            m(
                "bytes_per_txn",
                ratio(bytes as f64, window_txns as f64),
                "B",
            ),
            m("space_amp", median(&space_amp), "ratio"),
            m("peak_rss_mb", peak_rss_mb(), "MiB"),
            m("read_p50_us", read_p50, "us"),
            m("keyed_p50_ms", keyed_p50, "ms"),
            m("proofs_per_s", proofs_per_s, "1/s"),
            m(
                "proof_bytes_mean",
                ratio(proofs.point_bytes as f64, point_n),
                "B",
            ),
        ]
    };
    report.push(
        "violations",
        Json::array(violations.iter().map(|v| Json::from(v.as_str()))),
    );
    Ok(Outcome {
        correct: violations.is_empty(),
        attempted,
        failed,
        metrics,
        report,
        tracer: tracer.cloned(),
    })
}
