//! Maintenance: checkpointing and cleaning, in one round that runs either
//! on a dedicated thread or on the committing thread.
//!
//! [`round`] is the only maintenance round. [`needs_round`] is its trigger,
//! evaluated after every durable commit:
//!
//! * residual log ≥ `checkpoint_threshold` → checkpoint;
//! * free segments < `clean_low_free` (and utilization ≤ the configured
//!   maximum) → clean toward `clean_high_free` free segments.
//!
//! `background_maintenance` decides only *where* the round runs: with it
//! on, the group-commit leader just kicks the maintenance thread; with it
//! off, the committer runs the round itself (deterministic: a
//! single-threaded caller sees no interleaving between slices). What the
//! round does — trigger, target, stop rule — is the same either way.
//!
//! A cleaning pass runs *incrementally*: victim selection, then bounded
//! relocation slices of `maintenance_slice_chunks` chunks each — the
//! store lock is released between slices so committers interleave — then
//! the closing checkpoint and the frees. Each slice re-checks snapshot
//! pins and chunk locations, so commits and snapshots taken mid-pass are
//! always honored (see `cleaner`). Only the closing checkpoint anchors the
//! relocations, so an abandoned pass is just dead log tail.
//!
//! The round's stop rule is net progress: a pass that did not raise the
//! free-segment count above the best the round has seen ends the round
//! (`maintenance_gave_up`). That covers a pass that freed nothing (victims
//! pinned) and a pass whose closing checkpoint consumed the segments it
//! freed — the case where a map-heavy store otherwise cleans its own
//! checkpoint traffic forever. Every pass that continues the round raises
//! the free count toward the high watermark, so a round is bounded.
//!
//! Backpressure: a committer that hits `OutOfSpace` kicks the thread and
//! blocks on [`MaintShared`]'s progress condvar until segments are freed
//! or a maintenance round completes (see `StoreCore::stall_for_space`),
//! then retries its append. The stall protocol is epoch-based to rule out
//! lost wakeups: the waiter snapshots the `(rounds, free_epoch)` pair
//! *under the handshake lock* before checking for free segments, and every
//! notification advances one of the epochs under that same lock — so
//! progress that lands between the waiter's check and its sleep makes the
//! wait return immediately instead of being missed. Crucially,
//! [`MaintShared::note_freed`] re-notifies after *every* segment free
//! (mid-round, from the pass's closing checkpoint), not just at round end —
//! the round-granular notify was the 1-CPU release hang: a waiter could
//! sleep a full timeout (and, bounded at 8 tries, surface a spurious
//! `OutOfSpace`) while free segments already existed. Without a thread, a
//! stalled committer runs the round itself; a round that finds another
//! pass in flight (a manual `clean()`, another committer's round) waits
//! for it to end and then re-checks, rather than reporting no progress.
//!
//! The thread also polls the [`tdb_obs::watchdog`] between kicks: when any
//! registered operation (commit, stall, cross-shard commit) exceeds the
//! `TDB_WATCHDOG_MS` threshold it assembles a diagnostic dump — flight
//! recorder window, per-thread last events, every registered store's
//! anchor/counter/free-segment state — and writes it to `TDB_DIAG_DIR`.
//!
//! Shutdown (`ChunkStore::close` or drop) sets the shutdown flag and
//! joins: an in-flight pass notices between slices and abandons.

use crate::cleaner::{self, CleanPlan};
use crate::error::Result;
use crate::stats::add;
use crate::store::{Inner, StoreCore};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdb_obs::{trace, watchdog, TraceKind, TraceLayer};

/// Handshake state between committers, the maintenance thread, and
/// shutdown. A leaf lock: never held while taking the store lock.
pub(crate) struct MaintShared {
    state: Mutex<MaintState>,
    /// Wakes the maintenance thread (kick or shutdown).
    wake: Condvar,
    /// Wakes committers stalled for space (progress or shutdown).
    progress: Condvar,
}

#[derive(Default)]
struct MaintState {
    kicked: bool,
    /// A group-commit leader parked a frozen root in `rehash_pending`.
    /// Separate from `kicked` on purpose: draining the rehash slot never
    /// takes the store lock, so it must not schedule a full maintenance
    /// round (one store-lock round per commit would put contention right
    /// back on the commit path the deferral took it off of).
    rehash_kick: bool,
    shutdown: bool,
    thread_running: bool,
    /// Completed maintenance rounds, on the thread or inline (bumped even
    /// for fruitless ones, so stalled committers re-check instead of
    /// sleeping forever).
    rounds: u64,
    /// Bumped (with a notify) every time segments are freed — including
    /// mid-round — so stalled committers wake at the first free, not at
    /// round end.
    free_epoch: u64,
    /// Segments freed by the most recently completed round. Stalled
    /// committers use it to tell "round ran and reclaimed nothing" (give
    /// up: true out-of-space) from "round still pending".
    last_round_freed: u64,
}

/// A stalled committer's view of maintenance progress (see
/// [`MaintShared::observe_and_kick`] / [`MaintShared::wait_progress`]).
#[derive(Clone, Copy)]
pub(crate) struct StallProgress {
    /// Completed rounds at observation time.
    pub(crate) rounds: u64,
    /// Free epoch at observation time.
    pub(crate) free_epoch: u64,
    /// Whether the maintenance thread was alive.
    pub(crate) thread_running: bool,
}

impl MaintShared {
    pub(crate) fn new() -> MaintShared {
        MaintShared {
            state: Mutex::new(MaintState::default()),
            wake: Condvar::new(),
            progress: Condvar::new(),
        }
    }

    /// Mark the thread as live. Called before spawning it so a commit
    /// racing store construction kicks instead of maintaining inline.
    pub(crate) fn set_thread_running(&self) {
        self.state.lock().thread_running = true;
    }

    pub(crate) fn thread_running(&self) -> bool {
        self.state.lock().thread_running
    }

    /// Request a maintenance round (idempotent while one is pending).
    pub(crate) fn kick(&self) {
        let mut st = self.state.lock();
        if !st.kicked {
            st.kicked = true;
            self.wake.notify_one();
        }
    }

    /// Wake the thread to drain the deferred-rehash slot only — no
    /// maintenance round is scheduled (see [`MaintState::rehash_kick`]).
    pub(crate) fn kick_rehash(&self) {
        let mut st = self.state.lock();
        if !st.rehash_kick {
            st.rehash_kick = true;
            self.wake.notify_one();
        }
    }

    /// Ask the thread to exit (it abandons an in-flight pass between
    /// slices) and wake everyone so nothing sleeps through the shutdown.
    pub(crate) fn request_shutdown(&self) {
        let mut st = self.state.lock();
        st.shutdown = true;
        self.wake.notify_all();
        self.progress.notify_all();
    }

    fn shutdown_requested(&self) -> bool {
        self.state.lock().shutdown
    }

    /// Segments were freed: advance the free epoch and wake every stalled
    /// committer. The notify happens under the handshake lock — the same
    /// lock a staller's epoch snapshot and sleep use — so it can never
    /// land in the gap between a staller's check and its wait.
    pub(crate) fn note_freed(&self, n: u64) {
        if n == 0 {
            return;
        }
        let mut st = self.state.lock();
        st.free_epoch += 1;
        self.progress.notify_all();
    }

    /// A round ended: advance the round epoch and wake every stalled
    /// committer.
    fn note_round_end(&self, freed: u64) {
        let mut st = self.state.lock();
        st.rounds += 1;
        st.last_round_freed = freed;
        self.progress.notify_all();
    }

    /// Snapshot the progress epochs and (re-)kick the thread. The epochs
    /// are read under the handshake lock *before* the caller checks the
    /// store's free count, so any progress that lands after this call is
    /// guaranteed to make the next [`Self::wait_progress`] return
    /// immediately.
    pub(crate) fn observe_and_kick(&self) -> StallProgress {
        let mut st = self.state.lock();
        if st.thread_running && !st.kicked {
            st.kicked = true;
            self.wake.notify_one();
        }
        StallProgress {
            rounds: st.rounds,
            free_epoch: st.free_epoch,
            thread_running: st.thread_running,
        }
    }

    /// Block until progress advances past `seen` (a segment free or a
    /// completed round), or `timeout` passes, or the thread goes away.
    /// Returns the latest view; the caller compares epochs against `seen`.
    pub(crate) fn wait_progress(&self, seen: StallProgress, timeout: Duration) -> StallProgress {
        let deadline = Instant::now() + timeout;
        let mut st = self.state.lock();
        while st.rounds == seen.rounds
            && st.free_epoch == seen.free_epoch
            && st.thread_running
            && !st.shutdown
        {
            if self.progress.wait_until(&mut st, deadline).timed_out() {
                break;
            }
        }
        StallProgress {
            rounds: st.rounds,
            free_epoch: st.free_epoch,
            thread_running: st.thread_running,
        }
    }

    /// Handshake state for diagnostic dumps. Non-blocking: reports
    /// `{"locked": true}` if the state lock is held (the dump path must
    /// never wedge on the locks it is diagnosing).
    pub(crate) fn diag_json(&self) -> tdb_obs::Json {
        match self.state.try_lock() {
            Some(st) => {
                let mut j = tdb_obs::Json::obj();
                j.push("thread_running", st.thread_running);
                j.push("kicked", st.kicked);
                j.push("rehash_kick", st.rehash_kick);
                j.push("shutdown", st.shutdown);
                j.push("rounds", st.rounds);
                j.push("free_epoch", st.free_epoch);
                j.push("last_round_freed", st.last_round_freed);
                j
            }
            None => tdb_obs::Json::object([("locked", tdb_obs::Json::from(true))]),
        }
    }
}

/// Whether waking the maintenance thread for a deferred rehash pass can
/// overlap with the committer at all. On a single-CPU host the "background"
/// pass just preempts the committer mid-anchor (one context switch per
/// group), so the root stays parked until a natural wakeup instead — the
/// passes coalesce harder and the commit path never pays for the hashing.
pub(crate) fn rehash_overlap_pays() -> bool {
    static MULTI: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *MULTI.get_or_init(|| std::thread::available_parallelism().is_ok_and(|n| n.get() > 1))
}

/// How long the thread sleeps between watchdog polls when idle. Tight
/// thresholds poll proportionally faster so a stall is caught within
/// ~1.25× the threshold.
fn watchdog_poll_interval() -> Duration {
    let thr = watchdog::threshold_ms();
    if thr == 0 {
        return Duration::from_secs(60); // watchdog off: just re-check config
    }
    Duration::from_millis((thr / 4).clamp(25, 1000))
}

/// Scan the watchdog's in-flight op table and emit a diagnostic dump if
/// anything exceeded the threshold. Rate-limited process-wide by
/// [`watchdog::claim_dump`], so N stores' maintenance threads do not
/// write N copies.
fn watchdog_poll(core: &StoreCore) {
    let thr_ms = watchdog::threshold_ms();
    if thr_ms == 0 {
        return;
    }
    let stalled = watchdog::stalled_ops(thr_ms.saturating_mul(1_000_000));
    if stalled.is_empty() || !watchdog::claim_dump() {
        return;
    }
    add(&core.stats.watchdog_dumps, 1);
    let worst = &stalled[0];
    trace::emit(
        TraceLayer::Maint,
        TraceKind::WatchdogDump,
        worst.xid,
        stalled.len() as u64,
        worst.age_ns / 1_000_000,
    );
    let reason = format!(
        "watchdog: {} on t{} in flight {:.0}ms (threshold {}ms); {} op(s) stalled",
        worst.kind.name(),
        worst.tid,
        worst.age_ns as f64 / 1e6,
        thr_ms,
        stalled.len()
    );
    let dump = tdb_obs::diag::collect_with(&reason, &stalled);
    match tdb_obs::diag::write_dump(&dump, worst.kind.name()) {
        Ok(Some(path)) => eprintln!("tdb-diag: {reason} -> {}", path.display()),
        Ok(None) => eprintln!("tdb-diag: {reason} (set TDB_DIAG_DIR to persist dumps)"),
        Err(e) => eprintln!("tdb-diag: {reason} (failed to write dump: {e})"),
    }
}

/// Thread body. Holds an `Arc<StoreCore>` (not the `ChunkStore` handle),
/// so dropping the store still reaches `ChunkStore::close`'s join.
pub(crate) fn run(core: Arc<StoreCore>) {
    loop {
        let kicked = {
            let mut st = core.maint.state.lock();
            let deadline = Instant::now() + watchdog_poll_interval();
            while !st.kicked && !st.rehash_kick && !st.shutdown {
                if core.maint.wake.wait_until(&mut st, deadline).timed_out() {
                    break;
                }
            }
            if st.shutdown {
                st.thread_running = false;
                core.maint.progress.notify_all();
                return;
            }
            let kicked = st.kicked;
            st.kicked = false;
            st.rehash_kick = false;
            kicked
        };
        // Drain the deferred-rehash slot on every wakeup — explicit kicks
        // and timer polls alike — so parked roots coalesce instead of
        // rotting. Taking only the latest root is enough: its pass covers
        // every earlier round's dirty paths too (the nodes are shared),
        // which is exactly how consecutive rounds coalesce. No store lock
        // is taken anywhere on this path — the root is a frozen Arc.
        let pending = core.rehash_pending.lock().take();
        if let Some(root) = pending {
            let mut sw = tdb_obs::Stopwatch::start();
            crate::map::rehash_root_batched(&root);
            if sw.running() {
                core.stats.phases.maint_rehash.record(sw.lap());
            }
        }
        if kicked {
            add(&core.stats.maintenance_wakeups, 1);
            // A store failure here (the untrusted store erroring) is not
            // fatal to the thread: the round's work stays retryable (the
            // closing checkpoint is the only anchored truth), committers
            // see the same error on their own operations, and the
            // backpressure path surfaces persistent out-of-space as an
            // error. The round itself records the failure.
            let _ = round(&core, &|| !core.maint.shutdown_requested());
        }
        // Poll the stall watchdog on every wakeup (kick or timer): commits
        // and stalls register in the global in-flight table, and this
        // thread is the one actor guaranteed to stay responsive.
        watchdog_poll(&core);
    }
}

/// The maintenance trigger: the residual log reached
/// `checkpoint_threshold`, or free segments fell below the low watermark
/// while utilization permits cleaning.
pub(crate) fn needs_round(inner: &Inner) -> bool {
    inner.residual_bytes >= inner.cfg.checkpoint_threshold
        || (inner.segs.free_count() < inner.cfg.effective_low_free()
            && inner.segs.utilization() <= inner.cfg.max_utilization)
}

/// One maintenance round, run by the maintenance thread or by a committer
/// (see the module docs): checkpoint if the residual log is long, then
/// clean toward the high watermark, one incremental pass at a time, until
/// a pass makes no net progress. `keep_going` is polled before every
/// slice; returning `false` abandons the round (the thread's shutdown).
/// Every round's end — fruitless, failed or not — advances the round
/// epoch stalled committers wait on.
pub(crate) fn round(core: &StoreCore, keep_going: &dyn Fn() -> bool) -> Result<()> {
    let n = core.maint.state.lock().rounds;
    trace::emit(TraceLayer::Maint, TraceKind::MaintRound, 0, n, 0);
    let result = checkpoint_and_clean(core, keep_going);
    if let Err(e) = &result {
        // Committers see store errors on their own operations; record the
        // round's in the flight recorder and, when asked, on stderr.
        let free = core.inner.lock().segs.free_count();
        trace::emit(TraceLayer::Maint, TraceKind::MaintError, 0, n, free as u64);
        if std::env::var_os("TDB_MAINT_DEBUG").is_some() {
            eprintln!("tdb-maint: round {n} failed (free={free}): {e}");
        }
    }
    let freed = *result.as_ref().unwrap_or(&0);
    trace::emit(TraceLayer::Maint, TraceKind::MaintRoundEnd, 0, n, freed);
    core.maint.note_round_end(freed);
    result.map(|_| ())
}

fn checkpoint_and_clean(core: &StoreCore, keep_going: &dyn Fn() -> bool) -> Result<u64> {
    let mut total_freed = 0u64;
    let covered = {
        let mut inner = core.inner.lock();
        if inner.residual_bytes >= inner.cfg.checkpoint_threshold {
            match inner.do_checkpoint() {
                Ok(()) => Some(inner.commit_seq),
                // A full fixed-size log can refuse the threshold
                // checkpoint; that is space pressure, not a reason to skip
                // the round — cleaning below may free dead segments whose
                // smaller closing checkpoint still fits.
                Err(e) if e.kind() == tdb_core::ErrorKind::OutOfSpace => None,
                Err(e) => return Err(e),
            }
        } else {
            None
        }
    };
    if let Some(covered) = covered {
        core.publish_durable(covered);
    }
    // The most free segments the round has reached; a pass must beat it.
    let mut best = core.inner.lock().segs.free_count();
    let mut forced_checkpoint = false;
    loop {
        if !keep_going() {
            return Ok(total_freed);
        }
        {
            let inner = core.inner.lock();
            if inner.segs.free_count() >= inner.cfg.effective_high_free()
                || inner.segs.utilization() > inner.cfg.max_utilization
            {
                return Ok(total_freed);
            }
        }
        match incremental_pass(core, &mut |_| keep_going())? {
            PassResult::NoGarbage => {
                // The garbage may all sit in still-residual segments (no
                // checkpoint since it was made), which the cleaner skips.
                // Below the low watermark that is space pressure, not
                // cleanliness: shrink the residual set once and retry.
                let covered = {
                    let mut inner = core.inner.lock();
                    if forced_checkpoint
                        || inner.residual_segments.len() <= 1
                        || inner.segs.free_count() >= inner.cfg.effective_low_free()
                    {
                        return Ok(total_freed);
                    }
                    forced_checkpoint = true;
                    inner.do_checkpoint()?;
                    best = inner.segs.free_count();
                    inner.commit_seq
                };
                core.publish_durable(covered);
            }
            PassResult::Busy => {
                // Another pass (a manual `clean()`, or another committer's
                // inline round) holds the victims; wait it out, then
                // re-check the watermarks against what it freed.
                let mut inner = core.inner.lock();
                while inner.pass_active {
                    core.pass_done.wait(&mut inner);
                }
            }
            PassResult::Abandoned => return Ok(total_freed),
            PassResult::Freed(n) => {
                total_freed += n as u64;
                let free = core.inner.lock().segs.free_count();
                if free <= best {
                    // No net progress: the victims were pinned, or the
                    // closing checkpoint consumed what the pass freed. The
                    // next pass would do the same; the next trigger retries.
                    add(&core.stats.maintenance_gave_up, 1);
                    return Ok(total_freed);
                }
                best = free;
            }
        }
    }
}

/// How an incremental pass ended.
pub(crate) enum PassResult {
    /// Nothing to clean.
    NoGarbage,
    /// Another pass is already in flight; this one did not start.
    Busy,
    /// The pass completed; this many segments were freed.
    Freed(usize),
    /// `keep_going` said stop (shutdown); the relocations already
    /// appended are dead log tail until a later pass redoes them.
    Abandoned,
}

/// Drive one cleaning pass slice by slice, releasing the store lock
/// between slices. `keep_going` is consulted before each slice with its
/// index; returning `false` abandons the pass (also the test hook for
/// mid-pass snapshots — it runs with the store unlocked).
pub(crate) fn incremental_pass(
    core: &StoreCore,
    keep_going: &mut dyn FnMut(usize) -> bool,
) -> Result<PassResult> {
    let mut sw = tdb_obs::Stopwatch::start();
    let slice_cap;
    let mut plan = {
        let mut inner = core.inner.lock();
        if inner.pass_active {
            // A concurrent pass (manual `clean()` racing a round, or two
            // committers' inline rounds) is already doing this work;
            // don't double-free its victims.
            return Ok(PassResult::Busy);
        }
        slice_cap = inner.cfg.maintenance_slice_chunks;
        match cleaner::select_victims(&mut inner)? {
            None => return Ok(PassResult::NoGarbage),
            Some(plan) => {
                inner.pass_active = true;
                plan
            }
        }
    };
    let result = drive_slices(core, &mut plan, slice_cap, keep_going);
    core.inner.lock().pass_active = false;
    core.pass_done.notify_all();
    if sw.running() {
        core.stats.phases.cleaner_pass.record(sw.lap());
    }
    result
}

fn drive_slices(
    core: &StoreCore,
    plan: &mut CleanPlan,
    slice_cap: usize,
    keep_going: &mut dyn FnMut(usize) -> bool,
) -> Result<PassResult> {
    let mut slice = 0usize;
    loop {
        if !keep_going(slice) {
            return Ok(PassResult::Abandoned);
        }
        let mut inner = core.inner.lock();
        let done = cleaner::relocate_slice(&mut inner, plan, slice_cap)?;
        if done {
            let freed = cleaner::finish_pass(&mut inner, plan)?;
            let covered = inner.commit_seq;
            drop(inner);
            // The closing checkpoint anchored everything appended so far;
            // wake followers it covered — and, before anything else, wake
            // committers stalled for space: each freed segment must
            // re-notify so a staller never sleeps through available space.
            core.maint.note_freed(freed as u64);
            core.publish_durable(covered);
            return Ok(PassResult::Freed(freed));
        }
        drop(inner);
        // Give committers the lock between slices.
        std::thread::yield_now();
        slice += 1;
    }
}
