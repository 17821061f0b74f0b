//! Per-layer metrics of a traced run.
//!
//! Two sources: the spans the decorators recorded (self time per session
//! call, round trips, verification time), and window deltas of the
//! instruments the program already exports through its registry (commit
//! phases, cache, locks, indexes, server counters). Each metric is
//! expected to move one end-to-end metric; `README.md` lists which, on
//! which workload.

use std::collections::HashMap;

use tdb::obs::{Json, RegistrySnapshot};

use crate::stats::{median, ratio};
use crate::trace::{Layer, PlatformCounts, Span};
use crate::workload::{Metric, Workload};

/// Session calls a TPC-B transfer or an audit makes, in report order.
const CALLS: [&str; 8] = [
    "begin",
    "lookup_ids",
    "get_for_update",
    "write_back",
    "insert",
    "commit",
    "read_proven",
    "exact_proven",
];

/// Shards the per-shard byte metrics report (the largest shard count any
/// workload uses).
const REPORTED_SHARDS: usize = 2;

/// On `tpcb-embedded`, the session-call spans of a traced transfer must
/// cover its traced duration to within this share (median over
/// transfers). The rest is the transfer's own client-side work:
/// unpickling, modifying and re-pickling three records.
pub const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// Everything measured over the window that the spans do not carry.
pub struct WindowDelta {
    /// The workload measured.
    pub workload: Workload,
    /// Window length.
    pub window_s: f64,
    /// Transfers committed in the window.
    pub window_txns: u64,
    /// Registry delta over the window.
    pub registry: RegistrySnapshot,
    /// Registry delta over the window and the post-run audit (the proof
    /// counters of the TPC-B workloads come from the audit).
    pub proof_registry: RegistrySnapshot,
    /// Platform call counts over the window.
    pub platform: PlatformCounts,
    /// Median transfer latency with tracing on, ms.
    pub traced_p50_ms: f64,
    /// Median transfer latency with tracing off, ms.
    pub untraced_p50_ms: f64,
    /// Mean encoded size of the recorded keyed proofs.
    pub keyed_proof_bytes_mean: f64,
    /// Failed ÷ attempted operations of the whole run.
    pub failed_share: f64,
}

/// Whether the session-call spans add up to the transfers.
pub struct Attribution {
    /// Details for the report.
    pub report: Json,
    /// Set when the check applies and fails.
    pub violation: Option<String>,
}

#[derive(Default, Clone, Copy)]
struct Agg {
    n: u64,
    dur_ns: u64,
    self_ns: u64,
}

impl Agg {
    fn mean_dur_us(&self) -> f64 {
        ratio(self.dur_ns as f64, self.n as f64) / 1e3
    }

    fn mean_self_us(&self) -> f64 {
        ratio(self.self_ns as f64, self.n as f64) / 1e3
    }
}

fn counter(r: &RegistrySnapshot, name: &str) -> f64 {
    r.counters.get(name).copied().unwrap_or(0) as f64
}

/// `(sum, count)` of a histogram delta.
fn hist(r: &RegistrySnapshot, name: &str) -> (f64, f64) {
    r.histograms
        .get(name)
        .map_or((0.0, 0.0), |h| (h.sum as f64, h.count() as f64))
}

fn hist_mean(r: &RegistrySnapshot, name: &str, per_unit: f64) -> f64 {
    let (sum, n) = hist(r, name);
    ratio(sum, n) / per_unit
}

/// Compute every per-layer metric, in `BENCHMARK.json` order.
pub fn per_layer(d: &WindowDelta, spans: &[Span]) -> (Vec<Metric>, Attribution) {
    // Self time: a span's duration minus its direct children's.
    let mut child_ns: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_ns.entry(s.parent).or_default() += s.dur_ns();
        }
    }
    let mut agg: HashMap<(Layer, &str), Agg> = HashMap::new();
    for s in spans.iter().filter(|s| s.complete) {
        let a = agg.entry((s.layer, s.name)).or_default();
        a.n += 1;
        a.dur_ns += s.dur_ns();
        a.self_ns += s
            .dur_ns()
            .saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
    }
    let get = |layer, name| agg.get(&(layer, name)).copied().unwrap_or_default();

    // Transfers traced from start to end, and the session calls directly
    // under them.
    let transfers: HashMap<u64, &Span> = spans
        .iter()
        .filter(|s| s.complete && s.layer == Layer::Bench && s.name == "transfer")
        .map(|s| (s.id, s))
        .collect();
    let mut covered_ns: HashMap<u64, u64> = HashMap::new();
    let (mut tdb_calls, mut client_calls, mut begins) = (0u64, 0u64, 0u64);
    for s in spans.iter().filter(|s| transfers.contains_key(&s.parent)) {
        match s.layer {
            Layer::Tdb => tdb_calls += 1,
            Layer::TdbClient => client_calls += 1,
            _ => continue,
        }
        begins += u64::from(s.name == "begin");
        *covered_ns.entry(s.parent).or_default() += s.dur_ns();
    }
    let n_transfers = transfers.len() as f64;
    let gaps: Vec<f64> = transfers
        .values()
        .map(|t| {
            let covered = covered_ns.get(&t.id).copied().unwrap_or(0) as f64;
            1.0 - ratio(covered, t.dur_ns() as f64)
        })
        .collect();
    let unattributed = median(&gaps);
    let mut report = Json::obj();
    report.push("traced_transfers", transfers.len());
    report.push("unattributed_share_median", unattributed);
    report.push("tolerance", ATTRIBUTION_TOLERANCE);
    let violation = (!d.workload.remote()
        && (transfers.is_empty() || unattributed > ATTRIBUTION_TOLERANCE))
        .then(|| {
            format!(
                "session-call spans leave {unattributed:.3} of a traced transfer unattributed \
                 over {} transfers (tolerance {ATTRIBUTION_TOLERANCE})",
                transfers.len()
            )
        });

    let txns = d.window_txns as f64;
    let r = &d.registry;
    let per_txn = |v: f64| ratio(v, txns);
    let mut out = Vec::new();
    let mut m =
        |name: String, value: f64, unit: &'static str| out.push(Metric { name, value, unit });
    for phase in [
        "total",
        "seal",
        "map",
        "anchor",
        "append",
        "serialize",
        "counter",
        "group_wait",
    ] {
        m(
            format!("chunk-store.commit_{phase}_us"),
            hist_mean(r, &format!("commit.{phase}"), 1e3),
            "us",
        );
    }
    m(
        "chunk-store.commit_group_size_mean".into(),
        hist_mean(r, "commit.group_size", 1.0),
        "count",
    );
    m(
        "chunk-store.checkpoint_ms".into(),
        hist_mean(r, "checkpoint.total", 1e6),
        "ms",
    );
    m(
        "chunk-store.cleaner_pass_ms".into(),
        hist_mean(r, "cleaner.pass", 1e6),
        "ms",
    );
    m(
        "chunk-store.cleaner_bytes_copied_per_txn".into(),
        per_txn(counter(r, "chunk.cleaner_bytes_copied")),
        "B",
    );
    m(
        "chunk-store.commit_stall_us".into(),
        per_txn(hist(r, "commit.stall").0 / 1e3),
        "us",
    );
    m(
        "chunk-store.rehash_busy_share".into(),
        ratio(
            hist(r, "maint.rehash").0 + hist(r, "commit.rehash").0,
            d.window_s * 1e9,
        ),
        "ratio",
    );
    for k in 0..REPORTED_SHARDS {
        m(
            format!("chunk-store.shard{k}.bytes_per_txn"),
            per_txn(d.platform.shard_write_bytes[k] as f64),
            "B",
        );
    }
    let (hits, misses) = (counter(r, "cache.hits"), counter(r, "cache.misses"));
    m(
        "object-store.cache_hit_ratio".into(),
        ratio(hits, hits + misses),
        "ratio",
    );
    m(
        "object-store.cache_evictions_per_txn".into(),
        per_txn(counter(r, "cache.evictions")),
        "count",
    );
    m(
        "object-store.lock_waits_per_txn".into(),
        per_txn(counter(r, "lock.waits")),
        "count",
    );
    m(
        "object-store.lock_wait_us".into(),
        hist_mean(r, "lock.wait", 1e3),
        "us",
    );
    m(
        "collection-store.index_lookups_per_txn".into(),
        per_txn(counter(r, "index.lookups")),
        "count",
    );
    m(
        "collection-store.index_maintenance_per_txn".into(),
        per_txn(counter(r, "index.maintenance")),
        "count",
    );
    m(
        "tdb.retries_per_txn".into(),
        if n_transfers == 0.0 {
            0.0
        } else {
            begins as f64 / n_transfers - 1.0
        },
        "count",
    );
    m(
        "tdb.calls_per_txn".into(),
        ratio(tdb_calls as f64, n_transfers),
        "count",
    );
    for call in CALLS {
        m(
            format!("tdb.call_us.{call}"),
            get(Layer::Tdb, call).mean_self_us(),
            "us",
        );
    }
    for call in CALLS {
        m(
            format!("tdb-client.rtt_us.{call}"),
            get(Layer::TdbClient, call).mean_dur_us(),
            "us",
        );
    }
    m(
        "tdb-client.round_trips_per_txn".into(),
        ratio(client_calls as f64, n_transfers),
        "count",
    );
    for what in ["requests", "request_bytes", "response_bytes"] {
        m(
            format!("tdb-server.{what}_per_txn"),
            per_txn(counter(r, &format!("server.{what}"))),
            if what == "requests" { "count" } else { "B" },
        );
    }
    m(
        "tdb-proof.verify_us.point".into(),
        get(Layer::Proof, "verify_point").mean_dur_us(),
        "us",
    );
    m(
        "tdb-proof.verify_us.keyed".into(),
        get(Layer::Proof, "verify_keyed").mean_dur_us(),
        "us",
    );
    let pr = &d.proof_registry;
    m(
        "tdb-proof.minted_per_read".into(),
        ratio(
            counter(pr, "proof.minted"),
            counter(pr, "proof.proven_reads"),
        ),
        "count",
    );
    m(
        "tdb-proof.keyed_proof_bytes_mean".into(),
        d.keyed_proof_bytes_mean,
        "B",
    );
    let p = &d.platform;
    m(
        "platform.writes_per_txn".into(),
        per_txn(p.writes as f64),
        "count",
    );
    m(
        "platform.write_bytes_per_txn".into(),
        per_txn(p.write_bytes as f64),
        "B",
    );
    m(
        "platform.read_bytes_per_txn".into(),
        per_txn(p.read_bytes as f64),
        "B",
    );
    m(
        "platform.syncs_per_txn".into(),
        per_txn(p.syncs as f64),
        "count",
    );
    m(
        "platform.counter_increments_per_txn".into(),
        per_txn(p.counter_increments as f64),
        "count",
    );
    m(
        "platform.write_us".into(),
        get(Layer::Platform, "write_at").mean_dur_us(),
        "us",
    );
    m(
        "trace.overhead_share".into(),
        ratio(d.traced_p50_ms, d.untraced_p50_ms) - 1.0,
        "ratio",
    );
    m("trace.unattributed_share".into(), unattributed, "ratio");
    m("failed_share".into(), d.failed_share, "ratio");
    (out, Attribution { report, violation })
}
