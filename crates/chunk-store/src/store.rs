//! The public `ChunkStore`: per-batch staging, group commits, checkpoints,
//! snapshots.
//!
//! See the crate docs for the big picture. This module owns the write path:
//!
//! * operations (`write`, `deallocate`) stage into a [`WriteBatch`] — each
//!   transaction gets its own, so staging takes no shared lock (the legacy
//!   single-handle API stages into a store-owned default batch);
//! * `commit_batch` seals the batch's chunk records *outside* the store
//!   lock, then appends them plus a chain-authenticated commit record to the
//!   log under a short append lock (splitting very large batches into
//!   several chained commit records that still become durable atomically,
//!   because recovery only applies commits the anchor's `last_seq` covers);
//! * a *durable* commit then enters the group-commit coordinator: one
//!   leader syncs the log, advances the trusted anchor, and bumps the
//!   one-way counter for every commit record appended so far, waking the
//!   followers its anchor covered. Recovery is unchanged by grouping — a
//!   group is just consecutive chained commit records under one anchor;
//! * a *nondurable* commit only flushes and is discarded by recovery until
//!   a later durable commit covers it;
//! * after a durable commit, a maintenance round (see `maintenance`)
//!   checkpoints once the residual log exceeds the configured threshold
//!   and cleans once free segments fall below the low watermark while
//!   utilization is below the configured maximum (§3.2.1).

use crate::anchor::{AnchorState, AnchorStore};
use crate::config::{ChunkStoreConfig, SecurityMode};
use crate::crypto_ctx::CryptoCtx;
use crate::error::{ChunkStoreError, Result};
use crate::ids::{ChunkId, SegmentId};
use crate::layout::{
    decode_chunk_payload, encode_chunk_payload, CommitPayload, RecordKind, LOCATION_LEN,
};
use crate::maintenance::{self, MaintShared, PassResult};
use crate::map::{diff_roots, Location, LocationMap};
use crate::proof::{self, BookmarkOutcome, ProofBookmark, Proven};
use crate::recovery;
use crate::segment::{self, SegmentManager};
use crate::snapshot::{SnapCore, Snapshot, SnapshotDiff};
use crate::stats::{add, SharedStats, Stats, StatsSnapshot};
use parking_lot::{Condvar, Mutex};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};
use tdb_core::Durability;
use tdb_crypto::Digest;
use tdb_obs::{trace, watchdog, Stopwatch, TraceKind, TraceLayer};
use tdb_platform::{OneWayCounter, SecretStore, UntrustedStore};

/// Staged, uncommitted operations. `Some(bytes)` is a write, `None` a
/// deallocation; last operation per id wins.
#[derive(Default)]
pub(crate) struct Batch {
    pub(crate) ops: BTreeMap<u64, Option<Vec<u8>>>,
    pub(crate) allocated: Vec<u64>,
}

/// A chunk record sealed ahead of the log append — encoding, encryption,
/// and hashing all happen outside the store lock ([`CryptoCtx`] is
/// internally synchronized), so concurrent committers only serialize on
/// the short append itself. Writes reference ranges of the batch's seal
/// arena (one shared buffer per commit) instead of owning a vector each.
enum SealedOp {
    Write {
        id: ChunkId,
        range: std::ops::Range<usize>,
        hash: Digest,
    },
    Dealloc(ChunkId),
}

/// Accumulated phase laps for one (sampled) commit.
struct CommitLap {
    sw: Stopwatch,
    ser_ns: u64,
    seal_ns: u64,
    append_ns: u64,
    map_ns: u64,
}

impl CommitLap {
    fn new(sampled: bool) -> CommitLap {
        CommitLap {
            sw: if sampled {
                Stopwatch::start()
            } else {
                Stopwatch::inert()
            },
            ser_ns: 0,
            seal_ns: 0,
            append_ns: 0,
            map_ns: 0,
        }
    }
}

/// Which phase lane an anchor round's sync/anchor/counter laps land in.
/// Rounds that complete a user commit (group leaders, empty-durable
/// barriers) are commit phases; rounds run by checkpoints and cleaner
/// passes are maintenance work and must not pollute the commit
/// histograms (they used to — see `maint.*` in [`crate::stats::Phases`]).
#[derive(Clone, Copy, PartialEq, Eq)]
pub(crate) enum AnchorLane {
    Commit,
    Maintenance,
}

/// Everything behind the store's state mutex.
pub(crate) struct Inner {
    pub(crate) cfg: ChunkStoreConfig,
    pub(crate) ctx: Arc<CryptoCtx>,
    pub(crate) counter: Arc<dyn OneWayCounter>,
    pub(crate) untrusted: Arc<dyn UntrustedStore>,
    pub(crate) segs: SegmentManager,
    pub(crate) map: LocationMap,
    pub(crate) next_id: u64,
    pub(crate) free_ids: BTreeSet<u64>,
    /// Sequence of the last appended commit.
    pub(crate) commit_seq: u64,
    /// Chain value of the last appended commit.
    pub(crate) chain: Digest,
    /// Commit sequence at the residual-log start.
    pub(crate) base_seq: u64,
    /// Chain value at the residual-log start.
    pub(crate) chain_base: Digest,
    pub(crate) residual_start: (SegmentId, u32),
    pub(crate) residual_segments: HashSet<SegmentId>,
    pub(crate) residual_bytes: u64,
    pub(crate) anchor_seq: u64,
    pub(crate) counter_value: u64,
    /// Map root as of the last checkpoint — what anchors reference.
    pub(crate) checkpointed_root: (Location, u32),
    /// Data extents that become dead at the next anchor write (the §3.2.2
    /// deferred-reclamation rule for nondurable commits falls out of this:
    /// decrements wait for the anchor that makes their supersession
    /// recoverable).
    pub(crate) pending_dec: Vec<Location>,
    pub(crate) snapshots: Vec<Weak<SnapCore>>,
    pub(crate) stats: SharedStats,
    /// `Some` when this handle came from `open` (crash recovery ran).
    pub(crate) recovery: Option<recovery::RecoveryReport>,
    /// Segments handed to a group leader's out-of-lock sync that has not
    /// completed yet. An anchor round running under the store lock must
    /// sync these too — it cannot assume the in-flight sync finished.
    pub(crate) sync_inflight: BTreeSet<u32>,
    /// Serializes the anchor-write + counter-bump pair across the in-lock
    /// and out-of-lock anchor paths (leaf lock: taken with the store lock
    /// held, never the reverse).
    pub(crate) anchor_io: Arc<Mutex<()>>,
    /// An incremental cleaning pass is in flight (its driver holds a
    /// `CleanPlan` and will re-take this lock for the next slice).
    /// Serializes passes so two never free each other's victims.
    pub(crate) pass_active: bool,
}

impl Inner {
    pub(crate) fn max_chunk_size(&self) -> usize {
        (self.cfg.segment_size / 4) as usize
    }

    fn max_ops_per_commit(&self) -> usize {
        // A commit record must fit comfortably in one segment.
        let budget = (self.cfg.segment_size / 2) as usize;
        (budget / (8 + LOCATION_LEN)).max(8)
    }

    /// Allocation check against committed state overlaid with `staged`
    /// operations. Ids handed out by `allocate_into` are globally visible
    /// (they left the free pool), so every batch agrees on them.
    fn is_allocated_with(&self, staged: &Batch, id: ChunkId) -> bool {
        match staged.ops.get(&id.0) {
            Some(Some(_)) => return true,
            Some(None) => return false,
            None => {}
        }
        id.0 < self.next_id && !self.free_ids.contains(&id.0)
    }

    pub(crate) fn allocate_into(&mut self, staged: &mut Batch) -> ChunkId {
        let id = match self.free_ids.pop_first() {
            Some(id) => id,
            None => {
                let id = self.next_id;
                self.next_id += 1;
                id
            }
        };
        staged.allocated.push(id);
        ChunkId(id)
    }

    pub(crate) fn stage_write(
        &mut self,
        staged: &mut Batch,
        id: ChunkId,
        data: &[u8],
    ) -> Result<()> {
        if !self.is_allocated_with(staged, id) {
            return Err(ChunkStoreError::NotAllocated(id));
        }
        if data.len() > self.max_chunk_size() {
            return Err(ChunkStoreError::ChunkTooLarge {
                size: data.len(),
                max: self.max_chunk_size(),
            });
        }
        staged.ops.insert(id.0, Some(data.to_vec()));
        Ok(())
    }

    pub(crate) fn stage_dealloc(&mut self, staged: &mut Batch, id: ChunkId) -> Result<()> {
        if !self.is_allocated_with(staged, id) {
            return Err(ChunkStoreError::NotAllocated(id));
        }
        staged.ops.insert(id.0, None);
        Ok(())
    }

    pub(crate) fn read_with(&mut self, staged: &Batch, id: ChunkId) -> Result<Vec<u8>> {
        match staged.ops.get(&id.0) {
            Some(Some(data)) => return Ok(data.clone()),
            Some(None) => return Err(ChunkStoreError::NotAllocated(id)),
            None => {}
        }
        let Some(loc) = self.map.get(id) else {
            return if self.is_allocated_with(staged, id) {
                Err(ChunkStoreError::NotWritten(id))
            } else {
                Err(ChunkStoreError::NotAllocated(id))
            };
        };
        add(&self.stats.chunk_reads, 1);
        let plain = self.read_verified(&loc, RecordKind::ChunkData)?;
        let (stored_id, data) = decode_chunk_payload(&plain)
            .map_err(|m| ChunkStoreError::TamperDetected(format!("chunk {id:?}: {}", m.0)))?;
        if stored_id != id {
            return Err(ChunkStoreError::TamperDetected(format!(
                "chunk {id:?}: record claims to be {stored_id:?}"
            )));
        }
        Ok(data.to_vec())
    }

    /// Read a record's payload, verify its hash against `loc`, decrypt.
    pub(crate) fn read_verified(&self, loc: &Location, expect: RecordKind) -> Result<Vec<u8>> {
        let stored = self.segs.read_record(loc, expect)?;
        if self.ctx.verifies_hashes() && !CryptoCtx::tags_equal(&self.ctx.hash(&stored), &loc.hash)
        {
            return Err(ChunkStoreError::TamperDetected(format!(
                "hash mismatch for record at {loc:?}"
            )));
        }
        self.ctx.open(&stored)
    }

    /// Drop a batch's staged operations and return its allocated ids to
    /// the free pool (they were never committed, or `allocated` would have
    /// been cleared).
    fn free_batch(&mut self, staged: &mut Batch) {
        staged.ops.clear();
        for id in std::mem::take(&mut staged.allocated) {
            self.free_ids.insert(id);
        }
    }

    /// Append pre-sealed chunk records plus chained commit record(s) to the
    /// log tail. The in-memory map and free list are updated only *after*
    /// each group's commit record lands, so a failed append leaves the
    /// committed state untouched (the orphaned chunk records are dead bytes
    /// for the cleaner). `consumed` counts fully committed ops: on error
    /// the caller may retry with the same arguments (after freeing space)
    /// and the append resumes at the first uncommitted group. Returns the
    /// sequence of the last commit record — the caller's ticket into the
    /// group-commit coordinator.
    fn append_sealed(
        &mut self,
        sealed_ops: &[SealedOp],
        arena: &[u8],
        durable: bool,
        lap: &mut CommitLap,
        consumed: &mut usize,
    ) -> Result<u64> {
        // Rollback for a failed half-appended group: the appended chunk
        // records were counted live but no commit record covers them.
        fn unwind(inner: &mut Inner, appended: &[(ChunkId, Location)]) {
            for (_, loc) in appended {
                inner.segs.sub_live(loc.seg, loc.len as u64);
            }
            for s in inner.segs.drain_entered() {
                inner.residual_segments.insert(s);
            }
        }

        let max_ops = self.max_ops_per_commit();
        while *consumed < sealed_ops.len() {
            let group = &sealed_ops[*consumed..(*consumed + max_ops).min(sealed_ops.len())];
            let mut writes: Vec<(ChunkId, Location)> = Vec::new();
            let mut deallocs: Vec<ChunkId> = Vec::new();
            for op in group {
                match op {
                    SealedOp::Write { id, range, hash } => {
                        lap.sw.lap();
                        let res = self
                            .segs
                            .append_record(RecordKind::ChunkData, &arena[range.clone()]);
                        lap.append_ns += lap.sw.lap();
                        let (seg, off, len) = match res {
                            Ok(v) => v,
                            Err(e) => {
                                unwind(self, &writes);
                                return Err(e);
                            }
                        };
                        writes.push((
                            *id,
                            Location {
                                seg,
                                off,
                                len,
                                hash: *hash,
                            },
                        ));
                    }
                    SealedOp::Dealloc(id) => deallocs.push(*id),
                }
            }
            lap.sw.lap();
            let payload = CommitPayload {
                seq: self.commit_seq + 1,
                durable,
                next_id: self.next_id,
                writes: writes.clone(),
                deallocs: deallocs.clone(),
            }
            .encode(self.ctx.verifies_hashes());
            lap.ser_ns += lap.sw.lap();
            let sealed = self.ctx.seal(&payload);
            let chain = self.ctx.chain(&self.chain, &sealed);
            lap.seal_ns += lap.sw.lap();
            // `payload || chain` framed straight into the tail buffer — no
            // intermediate concatenation vector.
            let res = self
                .segs
                .append_record_parts(RecordKind::Commit, &[&sealed, &chain]);
            lap.append_ns += lap.sw.lap();
            let (_, _, commit_len) = match res {
                Ok(v) => v,
                Err(e) => {
                    unwind(self, &writes);
                    return Err(e);
                }
            };
            // The group's commit record is in the log: apply its effects.
            // One batched descent updates the map — nodes shared by the
            // group's root-to-leaf paths are cloned and dirtied once.
            self.commit_seq += 1;
            self.chain = chain;
            lap.sw.lap();
            let mut map_ops: Vec<(ChunkId, Option<Location>)> =
                Vec::with_capacity(writes.len() + deallocs.len());
            for (id, loc) in &writes {
                map_ops.push((*id, Some(*loc)));
            }
            for id in &deallocs {
                map_ops.push((*id, None));
            }
            for prev in self.map.apply_batch(&map_ops).into_iter().flatten() {
                self.pending_dec.push(prev);
            }
            lap.map_ns += lap.sw.lap();
            for (_, loc) in &writes {
                self.residual_bytes += loc.len as u64;
            }
            for id in deallocs {
                self.free_ids.insert(id.0);
            }
            self.residual_bytes += commit_len as u64;
            *consumed += group.len();
        }
        for s in self.segs.drain_entered() {
            self.residual_segments.insert(s);
        }
        Ok(self.commit_seq)
    }

    /// Sync the log and advance the trusted anchor (+ one-way counter).
    /// Everything appended so far becomes durable and recoverable.
    /// `sampled` controls phase timing (see [`StoreCore::sample_phases`]);
    /// `lane` picks the commit vs maintenance phase histograms, so
    /// checkpoint- and cleaner-driven rounds stop leaking into the
    /// `commit.*` rows.
    pub(crate) fn durable_anchor(&mut self, sampled: bool, lane: AnchorLane) -> Result<()> {
        let mut sw = if sampled {
            Stopwatch::start()
        } else {
            Stopwatch::inert()
        };
        let stats = self.stats.clone();
        let (sync_h, anchor_h, counter_h) = match lane {
            AnchorLane::Commit => (
                &stats.phases.sync,
                &stats.phases.anchor,
                &stats.phases.counter,
            ),
            AnchorLane::Maintenance => (
                &stats.phases.maint_sync,
                &stats.phases.maint_anchor,
                &stats.phases.maint_counter,
            ),
        };
        self.segs.sync_touched()?;
        // Cover a group leader's in-flight out-of-lock sync: this anchor's
        // `last_seq` spans those records too, so their segments must be on
        // disk before it is written (double-syncing is harmless).
        self.segs.sync_ids(&self.sync_inflight)?;
        if sw.running() {
            sync_h.record(sw.lap());
        }
        let bump_counter = self.ctx.mode() == SecurityMode::Full;
        self.anchor_seq += 1;
        if bump_counter {
            self.counter_value += 1;
        }
        let free_ids: Vec<u64> = self
            .free_ids
            .iter()
            .take(self.cfg.free_list_cap)
            .copied()
            .collect();
        let state = AnchorState {
            anchor_seq: self.anchor_seq,
            segment_size: self.cfg.segment_size,
            map_fanout: self.cfg.map_fanout as u32,
            map_root: self.checkpointed_root.0,
            map_depth: self.checkpointed_root.1,
            next_id: self.next_id,
            free_ids,
            residual_seg: self.residual_start.0,
            residual_off: self.residual_start.1,
            base_seq: self.base_seq,
            chain_base: self.chain_base,
            last_seq: self.commit_seq,
            last_chain: self.chain,
            counter_value: self.counter_value,
        };
        let io_result: Result<()> = (|| {
            let io = self.anchor_io.clone();
            let _io = io.lock();
            AnchorStore::new(&*self.untrusted).write(&self.ctx, &state)?;
            add(&self.stats.anchor_writes, 1);
            if sw.running() {
                anchor_h.record(sw.lap());
            }
            if bump_counter {
                // Anchor first, then counter: a crash between the two leaves
                // `anchor == hw + 1`, which `open` repairs by bumping the
                // counter. The reverse order would make a crash window look
                // like a replay attack.
                self.counter.increment()?;
                add(&self.stats.counter_increments, 1);
                if sw.running() {
                    counter_h.record(sw.lap());
                }
            }
            Ok(())
        })();
        if let Err(e) = io_result {
            // Roll back the speculative advance: a retried anchor must not
            // drift past the hardware counter (recovery only repairs a
            // `+1` gap; repeated failed rounds would otherwise read as a
            // replay attack).
            self.anchor_seq -= 1;
            if bump_counter {
                self.counter_value -= 1;
            }
            return Err(e);
        }
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::AnchorRound,
            0,
            self.anchor_seq,
            self.commit_seq,
        );
        if bump_counter {
            trace::emit(
                TraceLayer::Chunk,
                TraceKind::CounterInc,
                0,
                self.counter_value,
                0,
            );
        }
        // Everything superseded before this anchor is now truly dead.
        for loc in std::mem::take(&mut self.pending_dec) {
            self.segs.sub_live(loc.seg, loc.len as u64);
        }
        Ok(())
    }

    /// Snapshot everything an anchor round needs so the group-commit
    /// leader can run the round's slow half (data-segment sync, anchor
    /// write, counter bump) without holding the store lock. Appenders
    /// proceed concurrently; their records land after `covered` and are
    /// simply not covered by this anchor. Anchor-state fields are captured
    /// here, under the lock, so they are mutually consistent.
    fn prepare_anchor(&mut self) -> Result<PreparedAnchor> {
        // The tail buffer is handed over unwritten: the leader writes and
        // syncs it outside the lock while appenders fill a fresh buffer —
        // seal/append of commit n+1 overlaps the sync of commit n.
        let (files, tail) = self.segs.take_touched_deferred()?;
        self.sync_inflight.extend(files.iter().map(|(s, _)| *s));
        // Freeze the map root so the leader can rehash the dirty Merkle
        // paths in one batched bottom-up pass outside the lock. The memos
        // install into the shared nodes, so later proof minting (and the
        // next freeze) finds them ready-made.
        let frozen_root = if self.cfg.eager_proof_rehash && self.ctx.verifies_hashes() {
            Some(self.map.freeze().0)
        } else {
            None
        };
        self.anchor_seq += 1;
        if self.ctx.mode() == SecurityMode::Full {
            self.counter_value += 1;
        }
        let free_ids: Vec<u64> = self
            .free_ids
            .iter()
            .take(self.cfg.free_list_cap)
            .copied()
            .collect();
        let state = AnchorState {
            anchor_seq: self.anchor_seq,
            segment_size: self.cfg.segment_size,
            map_fanout: self.cfg.map_fanout as u32,
            map_root: self.checkpointed_root.0,
            map_depth: self.checkpointed_root.1,
            next_id: self.next_id,
            free_ids,
            residual_seg: self.residual_start.0,
            residual_off: self.residual_start.1,
            base_seq: self.base_seq,
            chain_base: self.chain_base,
            last_seq: self.commit_seq,
            last_chain: self.chain,
            counter_value: self.counter_value,
        };
        Ok(PreparedAnchor {
            state,
            files,
            tail,
            frozen_root,
            pending_dec: std::mem::take(&mut self.pending_dec),
            untrusted: self.untrusted.clone(),
            counter: self.counter.clone(),
            anchor_io: self.anchor_io.clone(),
            bump_counter: self.ctx.mode() == SecurityMode::Full,
            covered: self.commit_seq,
        })
    }

    /// Write the dirty location-map pages, advance the anchor to the new
    /// root, and reset the residual log.
    pub(crate) fn do_checkpoint(&mut self) -> Result<()> {
        let prev_mode = self.segs.set_maintenance(true);
        let r = self.do_checkpoint_inner();
        self.segs.set_maintenance(prev_mode);
        r
    }

    fn do_checkpoint_inner(&mut self) -> Result<()> {
        let mut sw = Stopwatch::start();
        trace::emit(
            TraceLayer::Maint,
            TraceKind::CheckpointBegin,
            0,
            self.residual_bytes,
            0,
        );
        let Inner {
            ref mut map,
            ref mut segs,
            ref ctx,
            ..
        } = *self;
        let root_loc = map.checkpoint(&mut |bytes| {
            let sealed = ctx.seal(bytes);
            let (seg, off, len) = segs.append_record(RecordKind::MapPage, &sealed)?;
            Ok(Location {
                seg,
                off,
                len,
                hash: ctx.hash(&sealed),
            })
        })?;
        self.checkpointed_root = (root_loc, self.map.depth());
        self.pending_dec.extend(self.map.drain_superseded());
        for s in self.segs.drain_entered() {
            self.residual_segments.insert(s);
        }
        self.segs.flush()?;
        self.residual_start = self.segs.tail_pos();
        self.chain_base = self.chain;
        self.base_seq = self.commit_seq;
        self.durable_anchor(true, AnchorLane::Maintenance)?;
        self.residual_segments.clear();
        self.residual_segments.insert(self.segs.tail_pos().0);
        self.residual_bytes = 0;
        add(&self.stats.checkpoints, 1);
        self.segs.drop_excess_free(self.cfg.free_segment_reserve)?;
        trace::emit(
            TraceLayer::Maint,
            TraceKind::CheckpointEnd,
            0,
            self.commit_seq,
            self.segs.free_count() as u64,
        );
        if sw.running() {
            self.stats.phases.checkpoint.record(sw.lap());
        }
        Ok(())
    }

    pub(crate) fn prune_snapshots(&mut self) {
        self.snapshots.retain(|w| w.strong_count() > 0);
    }

    fn take_snapshot(&mut self) -> Snapshot {
        self.prune_snapshots();
        let (root, depth) = self.map.freeze();
        let core = Arc::new(SnapCore {
            root,
            depth,
            fanout: self.cfg.map_fanout,
            seq: self.commit_seq,
            counter_value: self.counter_value,
        });
        self.snapshots.push(Arc::downgrade(&core));
        Snapshot { core }
    }
}

/// Entropy for the IV stream: wall-clock nanoseconds. Combined with the
/// one-way counter so even clock rollback cannot reproduce an IV stream
/// that encrypts *different* data (the DRBG mixes the key as well).
pub(crate) fn iv_salt(counter: &dyn OneWayCounter) -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_nanos() as u64)
        .unwrap_or(0);
    nanos ^ counter.read().unwrap_or(0).rotate_left(32)
}

/// An anchor round snapshotted under the store lock, to be completed by
/// the group-commit leader outside it (see [`Inner::prepare_anchor`]).
struct PreparedAnchor {
    state: AnchorState,
    files: Vec<(u32, Arc<dyn tdb_platform::RandomAccessFile>)>,
    /// Unwritten tail-buffer range for the leader's out-of-lock write
    /// (the manager keeps an in-flight copy until `finish_tail_flush`).
    tail: Option<segment::TailFlush>,
    /// Frozen map root for the out-of-lock batched Merkle rehash (`None`
    /// when hashing is off or `eager_proof_rehash` is disabled).
    frozen_root: Option<Arc<crate::map::Node>>,
    pending_dec: Vec<Location>,
    untrusted: Arc<dyn UntrustedStore>,
    counter: Arc<dyn OneWayCounter>,
    anchor_io: Arc<Mutex<()>>,
    bump_counter: bool,
    covered: u64,
}

/// Group-commit coordinator state (guarded by [`StoreCore::group`]).
///
/// Durable committers register their commit sequence and wait until
/// `durable_seq` covers it. Whoever finds no leader active becomes the
/// leader: it drops this lock, takes the store lock, and runs one
/// sync/anchor/counter round, which makes *every* commit record appended
/// so far durable (durability is by anchor coverage, `last_seq`). It then
/// publishes the covered sequence and wakes the followers. Lock ordering:
/// the group lock and the store lock are never held together.
#[derive(Default)]
struct GroupState {
    /// A leader is between "decided to anchor" and "published its result".
    leader_active: bool,
    /// Commit sequences of committers currently waiting for durability.
    waiters: Vec<u64>,
}

/// State shared by the store handle, every outstanding [`WriteBatch`],
/// and the background maintenance thread.
pub(crate) struct StoreCore {
    pub(crate) inner: Mutex<Inner>,
    ctx: Arc<CryptoCtx>,
    pub(crate) stats: SharedStats,
    /// Commits until the next phase-attributed (fully timed) commit; see
    /// [`tdb_obs::phase_sample_every`].
    phase_tick: AtomicU64,
    /// Highest commit sequence covered by a written anchor. Outside the
    /// group mutex so committers can check coverage (and spin briefly on
    /// an in-flight anchor round) without any lock traffic.
    durable_seq: AtomicU64,
    group: Mutex<GroupState>,
    group_cv: Condvar,
    /// Handshake with the background maintenance thread (kick, stall,
    /// shutdown). Present even with `background_maintenance` off — the
    /// thread is simply never spawned and committers run the rounds.
    pub(crate) maint: MaintShared,
    /// Signalled (with the store lock) whenever an incremental cleaning
    /// pass ends and clears `Inner::pass_active`; a maintenance round that
    /// finds another pass in flight waits here instead of giving up.
    pub(crate) pass_done: Condvar,
    /// Frozen map root awaiting a batched Merkle memo pass, handed to the
    /// maintenance thread by the group-commit leader. Only the latest
    /// root matters — its memo pass covers every earlier round's dirty
    /// paths too (shared nodes), so consecutive rounds coalesce and hot
    /// leaves are hashed once per batch instead of once per commit.
    pub(crate) rehash_pending: Mutex<Option<Arc<crate::map::Node>>>,
    /// Name under which this store reports in diagnostic dumps
    /// (`chunk{N}` by default; shards get `shard{k}` labels).
    diag_label: Mutex<String>,
    /// Strong reference keeping the dump provider registered for the
    /// store's lifetime; the diag registry only holds a `Weak`.
    diag_keeper: Mutex<Option<Arc<tdb_obs::diag::DiagFn>>>,
}

impl StoreCore {
    /// Whether this commit gets full phase attribution. The detailed laps
    /// cost several clock reads per record — too much for every commit — so
    /// only every [`tdb_obs::phase_sample_every`]-th commit is timed.
    /// Everything a sampled commit records (including `commit.total` and the
    /// `durable_anchor` phases when it leads its own group) comes from the
    /// same commit, so per-commit phase samples still sum to their
    /// `commit.total` sample in single-threaded runs.
    fn sample_phases(&self) -> bool {
        if !tdb_obs::enabled() {
            return false;
        }
        let tick = self.phase_tick.fetch_add(1, Ordering::Relaxed) + 1;
        tick.is_multiple_of(tdb_obs::phase_sample_every())
    }

    /// Seal a batch's staged operations outside any store lock. Every
    /// write seals straight into one shared arena (no per-chunk ciphertext
    /// vector), and the record hashes for the whole batch are computed in
    /// one multi-lane SHA-256 pass over the arena slices.
    fn seal_ops(
        &self,
        ops: BTreeMap<u64, Option<Vec<u8>>>,
        lap: &mut CommitLap,
    ) -> (Vec<SealedOp>, Vec<u8>) {
        let mut arena: Vec<u8> = Vec::new();
        let mut sealed_ops = Vec::with_capacity(ops.len());
        for (raw_id, op) in ops {
            let id = ChunkId(raw_id);
            match op {
                Some(data) => {
                    lap.sw.lap();
                    let payload = encode_chunk_payload(id, &data);
                    lap.ser_ns += lap.sw.lap();
                    let start = arena.len();
                    let n = self.ctx.seal_into(&payload, &mut arena);
                    lap.seal_ns += lap.sw.lap();
                    sealed_ops.push(SealedOp::Write {
                        id,
                        range: start..start + n,
                        hash: crate::crypto_ctx::ZERO_DIGEST,
                    });
                }
                None => sealed_ops.push(SealedOp::Dealloc(id)),
            }
        }
        if self.ctx.verifies_hashes() {
            lap.sw.lap();
            let slices: Vec<&[u8]> = sealed_ops
                .iter()
                .filter_map(|op| match op {
                    SealedOp::Write { range, .. } => Some(&arena[range.clone()]),
                    SealedOp::Dealloc(_) => None,
                })
                .collect();
            let mut digests = tdb_crypto::sha256_batch(&slices).into_iter();
            for op in &mut sealed_ops {
                if let SealedOp::Write { hash, .. } = op {
                    *hash = digests.next().expect("one digest per sealed write");
                }
            }
            lap.seal_ns += lap.sw.lap();
        }
        (sealed_ops, arena)
    }

    /// Seal and append `ops` as one atomic commit; returns the ticket for
    /// [`StoreCore::wait_ticket`]. For nondurable commits the log is
    /// flushed (not synced) before returning, matching §3.2.2.
    fn append_ops(
        &self,
        ops: BTreeMap<u64, Option<Vec<u8>>>,
        durable: bool,
    ) -> Result<CommitTicket> {
        let sampled = self.sample_phases();
        let total = if sampled {
            Stopwatch::start()
        } else {
            Stopwatch::inert()
        };
        if ops.is_empty() {
            return Ok(CommitTicket {
                seq: 0,
                empty: true,
                durable,
                sampled,
                total,
            });
        }
        add(&self.stats.commits, 1);
        if durable {
            add(&self.stats.durable_commits, 1);
        }
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::CommitBegin,
            0,
            ops.len() as u64,
            durable as u64,
        );
        let mut lap = CommitLap::new(sampled);
        let (sealed_ops, arena) = self.seal_ops(ops, &mut lap);
        let mut consumed = 0usize;
        let seq = loop {
            let res = {
                let mut inner = self.inner.lock();
                inner
                    .append_sealed(&sealed_ops, &arena, durable, &mut lap, &mut consumed)
                    .and_then(|seq| {
                        if !durable {
                            inner.segs.flush()?;
                        }
                        Ok(seq)
                    })
            };
            match res {
                Ok(seq) => break seq,
                // Out of segments: block until maintenance frees one, then
                // resume the append at the first uncommitted group. Only a
                // round that says "nothing reclaimable" lets the error out.
                Err(e @ ChunkStoreError::OutOfSpace { .. }) => {
                    if !self.stall_for_space()? {
                        return Err(e);
                    }
                }
                Err(e) => return Err(e),
            }
        };
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::CommitEnd,
            seq,
            seq,
            durable as u64,
        );
        if lap.sw.running() {
            self.stats.phases.serialize.record(lap.ser_ns);
            self.stats.phases.seal.record(lap.seal_ns);
            self.stats.phases.append.record(lap.append_ns);
            self.stats.phases.map.record(lap.map_ns);
        }
        Ok(CommitTicket {
            seq,
            empty: false,
            durable,
            sampled,
            total,
        })
    }

    /// Complete a commit: no-op for nondurable tickets; group-commit wait
    /// (leading an anchor round if nobody else is) for durable ones.
    fn wait_ticket(&self, ticket: CommitTicket) -> Result<()> {
        let CommitTicket {
            seq,
            empty,
            durable,
            sampled,
            mut total,
        } = ticket;
        if !durable {
            return Ok(());
        }
        if empty {
            // Legacy semantics: an empty durable commit still forces a
            // sync/anchor/counter round (callers use it as a barrier).
            let covered = {
                let mut inner = self.inner.lock();
                inner.durable_anchor(sampled, AnchorLane::Commit)?;
                inner.commit_seq
            };
            self.publish_durable(covered);
            self.after_commit_maintenance()?;
            if total.running() {
                self.stats.phases.commit_total.record(total.lap());
            }
            return Ok(());
        }
        self.wait_durable_seq(seq, sampled)?;
        if total.running() {
            self.stats.phases.commit_total.record(total.lap());
        }
        Ok(())
    }

    /// Block until an anchor covers `my_seq`, leading the anchor round if
    /// no leader is active. See [`GroupState`] for the protocol.
    fn wait_durable_seq(&self, my_seq: u64, sampled: bool) -> Result<()> {
        let obs_on = tdb_obs::enabled();
        let mut wait_sw = if obs_on {
            Stopwatch::start()
        } else {
            Stopwatch::inert()
        };
        // Lock-free fast path: a concurrent leader that locked the store
        // after our append has already anchored past us.
        if self.durable_seq.load(Ordering::Acquire) >= my_seq {
            if wait_sw.running() {
                self.stats.phases.group_wait.record(wait_sw.lap());
            }
            return Ok(());
        }
        // Brief spin before any blocking: on a fast store (memory, warm
        // page cache) an in-flight anchor round completes in well under the
        // cost of a condvar sleep/wake, so parking immediately would turn
        // group commit into a context-switch tax. The budget is small
        // enough that a real disk sync falls through to the sleep path.
        for _ in 0..500 {
            std::hint::spin_loop();
            if self.durable_seq.load(Ordering::Acquire) >= my_seq {
                if wait_sw.running() {
                    self.stats.phases.group_wait.record(wait_sw.lap());
                }
                return Ok(());
            }
        }
        fn unregister(waiters: &mut Vec<u64>, seq: u64) {
            if let Some(at) = waiters.iter().position(|s| *s == seq) {
                waiters.swap_remove(at);
            }
        }
        // Slow path: this commit will park on the group condvar (or lead an
        // anchor round itself) — exactly the window where a lost wakeup or a
        // wedged sync manifests as a hang, so it is watchdog-registered.
        let _op = watchdog::op_begin(watchdog::OpKind::Commit, my_seq);
        let mut announced_follower = false;
        let mut g = self.group.lock();
        g.waiters.push(my_seq);
        loop {
            let durable = self.durable_seq.load(Ordering::Acquire);
            if durable >= my_seq {
                // A leader's anchor covered us (group follower).
                unregister(&mut g.waiters, my_seq);
                drop(g);
                trace::emit(TraceLayer::Chunk, TraceKind::GroupWake, my_seq, durable, 0);
                if wait_sw.running() {
                    self.stats.phases.group_wait.record(wait_sw.lap());
                }
                return Ok(());
            }
            if !g.leader_active {
                // Become the leader: anchor once for everyone appended so
                // far. The group lock is dropped across the anchor round so
                // new committers can append and enqueue meanwhile.
                g.leader_active = true;
                drop(g);
                trace::emit(TraceLayer::Chunk, TraceKind::GroupLeader, my_seq, my_seq, 0);
                let anchored: Result<u64> = self.leader_anchor_round(sampled);
                let mut g = self.group.lock();
                g.leader_active = false;
                let covered = match anchored {
                    Ok(covered) => covered,
                    Err(e) => {
                        // Our round failed; let a follower try to lead.
                        unregister(&mut g.waiters, my_seq);
                        self.group_cv.notify_all();
                        return Err(e);
                    }
                };
                // Group size = commit records this anchor newly covered
                // (commit_seq advances by one per commit), which counts
                // spin-path committers that never registered as waiters.
                let prev = self.durable_seq.fetch_max(covered, Ordering::AcqRel);
                let group_size = covered.saturating_sub(prev);
                unregister(&mut g.waiters, my_seq);
                self.group_cv.notify_all();
                drop(g);
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::GroupPublish,
                    my_seq,
                    covered,
                    group_size,
                );
                if obs_on {
                    self.stats.phases.group_size.record(group_size.max(1));
                    if wait_sw.running() {
                        self.stats.phases.group_wait.record(wait_sw.lap());
                    }
                }
                // Housekeeping (checkpoint / cleaner) runs outside the
                // group window so followers wake at durability, not after
                // maintenance, and new appends overlap with it. With the
                // maintenance thread running this is only a watermark
                // check and a kick.
                return self.after_commit_maintenance();
            }
            // Only a commit that actually parks behind another leader is a
            // follower worth tracing — the common uncontended commit goes
            // straight to leading and stays two events (leader, publish).
            if !announced_follower {
                announced_follower = true;
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::GroupFollower,
                    my_seq,
                    my_seq,
                    0,
                );
            }
            self.group_cv.wait(&mut g);
        }
    }

    /// One overlapped anchor round: snapshot under the store lock, then
    /// sync the data segments and write the anchor *outside* it, so
    /// concurrent committers keep appending — and pile into the next
    /// group — while this round's sync is in flight. Rounds are serialized
    /// by `leader_active`; the in-lock anchor paths coexist via
    /// `Inner::sync_inflight` and the `anchor_io` leaf lock.
    fn leader_anchor_round(&self, sampled: bool) -> Result<u64> {
        let mut sw = if sampled {
            Stopwatch::start()
        } else {
            Stopwatch::inert()
        };
        let prep = {
            let mut inner = self.inner.lock();
            inner.prepare_anchor()
        }?;
        // Deferred tail write, then sync — both outside the store lock, so
        // concurrent committers seal and append into the fresh tail buffer
        // while this round's bytes travel to disk. If an in-lock flush got
        // there first it wrote the identical bytes at the same offset;
        // repeating the write is harmless.
        let synced: Result<()> = (|| {
            if let Some(tf) = &prep.tail {
                tf.file.write_at(tf.start as u64, &tf.bytes)?;
            }
            prep.files.iter().try_for_each(|(_, f)| {
                f.sync()?;
                add(&self.stats.syncs, 1);
                Ok(())
            })
        })();
        if sw.running() {
            self.stats.phases.sync.record(sw.lap());
        }
        if let Err(e) = synced {
            let mut inner = self.inner.lock();
            inner
                .segs
                .restore_touched(prep.files.iter().map(|(s, _)| *s));
            for (s, _) in &prep.files {
                inner.sync_inflight.remove(s);
            }
            // The manager still holds the in-flight tail copy; the next
            // in-lock flush rewrites it, so the bytes cannot be lost.
            inner.pending_dec.extend(prep.pending_dec);
            // Same speculative-advance rollback as the anchor-io failure
            // path below: the prepared anchor was never written.
            if inner.anchor_seq == prep.state.anchor_seq {
                inner.anchor_seq -= 1;
            }
            if prep.bump_counter {
                inner.counter_value -= 1;
            }
            return Err(e);
        }
        // Batched Merkle recomputation for the whole group: one bottom-up
        // pass over the dirty root-to-leaf paths (shared upper nodes are
        // hashed once), multi-lane SHA-256 within each level. With the
        // maintenance thread running, the pass is deferred there —
        // consecutive rounds coalesce onto the latest root, so hot leaves
        // are hashed once per batch and the leader publishes durability
        // without paying the hash pass. That only pays when another CPU
        // can actually run the pass concurrently; on a single-CPU host the
        // "background" pass can only preempt the commit path, so the
        // warm-up is skipped outright and proof minting hashes lazily
        // (the memo pass is cache-warming — correctness never depends on
        // it). Inline (against the frozen root, while followers keep
        // appending) only when there is no thread.
        if let Some(root) = &prep.frozen_root {
            if self.maint.thread_running() {
                if crate::maintenance::rehash_overlap_pays() {
                    let was_empty = self.rehash_pending.lock().replace(root.clone()).is_none();
                    if was_empty {
                        self.maint.kick_rehash();
                    }
                }
            } else {
                crate::map::rehash_root_batched(root);
                if sw.running() {
                    self.stats.phases.rehash.record(sw.lap());
                }
            }
        }
        let io_result: Result<()> = (|| {
            let _io = prep.anchor_io.lock();
            AnchorStore::new(&*prep.untrusted).write(&self.ctx, &prep.state)?;
            add(&self.stats.anchor_writes, 1);
            if sw.running() {
                self.stats.phases.anchor.record(sw.lap());
            }
            if prep.bump_counter {
                prep.counter.increment()?;
                add(&self.stats.counter_increments, 1);
                // Counter laps are recorded only here, on the success path
                // of an actual increment — an error (or a round that never
                // bumps) must not pollute the histogram with ~0 samples.
                if sw.running() {
                    self.stats.phases.counter.record(sw.lap());
                }
            }
            Ok(())
        })();
        let mut inner = self.inner.lock();
        // The tail bytes are written and synced regardless of how the
        // anchor io went: the manager's in-flight copy can be dropped.
        if let Some(tf) = &prep.tail {
            inner.segs.finish_tail_flush(tf);
        }
        for (s, _) in &prep.files {
            inner.sync_inflight.remove(s);
        }
        match io_result {
            Ok(()) => {
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::AnchorRound,
                    0,
                    prep.state.anchor_seq,
                    prep.covered,
                );
                if prep.bump_counter {
                    trace::emit(
                        TraceLayer::Chunk,
                        TraceKind::CounterInc,
                        0,
                        prep.state.counter_value,
                        0,
                    );
                }
                // Everything superseded before this anchor is now truly
                // dead (mirrors the tail of `Inner::durable_anchor`).
                for loc in prep.pending_dec {
                    inner.segs.sub_live(loc.seg, loc.len as u64);
                }
                Ok(prep.covered)
            }
            Err(e) => {
                inner.pending_dec.extend(prep.pending_dec);
                // Undo the prepared round's speculative advance so retries
                // cannot drift past the hardware counter. `anchor_seq`
                // only rolls back if no in-lock anchor ran meanwhile —
                // a skipped sequence is harmless, a reused one is not.
                if inner.anchor_seq == prep.state.anchor_seq {
                    inner.anchor_seq -= 1;
                }
                if prep.bump_counter {
                    inner.counter_value -= 1;
                }
                Err(e)
            }
        }
    }

    /// Point-in-time health summary for diagnostic dumps. Never blocks:
    /// every lock is `try_lock`, and a held lock is reported as such —
    /// in a stall dump, *which* lock is held is itself the signal.
    pub(crate) fn diag_state(&self) -> tdb_obs::Json {
        use tdb_obs::Json;
        let mut out = Json::obj();
        out.push("label", self.diag_label.lock().clone());
        out.push("durable_seq", self.durable_seq.load(Ordering::Acquire));
        match self.inner.try_lock() {
            Some(inner) => {
                out.push("commit_seq", inner.commit_seq);
                out.push("anchor_seq", inner.anchor_seq);
                out.push("counter_value", inner.counter_value);
                out.push("free_segments", inner.segs.free_count());
                out.push("in_use_segments", inner.segs.in_use_segments().len());
                out.push("utilization", inner.segs.utilization());
                out.push("residual_bytes", inner.residual_bytes);
                out.push("residual_segments", inner.residual_segments.len());
                out.push("pending_dec", inner.pending_dec.len());
                out.push(
                    "live_snapshots",
                    inner
                        .snapshots
                        .iter()
                        .filter(|w| w.strong_count() > 0)
                        .count(),
                );
                out.push("cleaner_pass_active", inner.pass_active);
            }
            None => out.push("store_lock", "held"),
        }
        match self.group.try_lock() {
            Some(g) => {
                out.push("group_leader_active", g.leader_active);
                out.push("group_waiters", g.waiters.len());
            }
            None => out.push("group_lock", "held"),
        }
        out.push("maintenance", self.maint.diag_json());
        out
    }

    /// Post-commit housekeeping: evaluate the maintenance trigger and, if
    /// it fires, run [`maintenance::round`] — by kicking the maintenance
    /// thread when one is running (the committer pays only the watermark
    /// check), else on this committing thread.
    fn after_commit_maintenance(&self) -> Result<()> {
        if !maintenance::needs_round(&self.inner.lock()) {
            return Ok(());
        }
        if self.maint.thread_running() {
            self.maint.kick();
            return Ok(());
        }
        maintenance::round(self, &|| true)
    }

    /// Commit-path backpressure: the append ran out of segments. Kick the
    /// maintenance thread and block for its progress — or, with no thread,
    /// run the maintenance round on this thread — and say whether the
    /// caller should retry. `false` means maintenance completed without
    /// yielding a free segment: a true out-of-space condition, not a
    /// pacing artifact.
    ///
    /// The wait is epoch-based to rule out lost wakeups (the ROADMAP's
    /// 1-CPU release hang): the progress epochs are snapshotted *before*
    /// the free-count check, and every notification advances an epoch
    /// under the same lock the snapshot and the sleep use
    /// ([`MaintShared::note_freed`] fires on every segment free, not just
    /// at round end). Progress landing between the check and the sleep
    /// therefore makes the wait return immediately. The give-up condition
    /// is structural rather than a timeout: two consecutive completed
    /// rounds that freed nothing while the store stayed out of segments.
    fn stall_for_space(&self) -> Result<bool> {
        add(&self.stats.maintenance_stalls, 1);
        let _op = tdb_obs::watchdog::op_begin(tdb_obs::watchdog::OpKind::Stall, 0);
        let mut sw = if tdb_obs::enabled() {
            Stopwatch::start()
        } else {
            Stopwatch::inert()
        };
        trace::emit(
            TraceLayer::Chunk,
            TraceKind::StallEnter,
            0,
            self.inner.lock().segs.free_count() as u64,
            0,
        );
        trace::emit(TraceLayer::Maint, TraceKind::MaintKick, 0, 0, 0);
        let mut seen = self.maint.observe_and_kick();
        let mut waits = 0u64;
        let mut fruitless_rounds = 0u32;
        let mut idle_waits = 0u32;
        let retry = loop {
            if !seen.thread_running {
                // No thread: this committer runs the round itself. Any
                // segment freed since `seen` — by this round or by another
                // committer's pass it waited out, even if an append has
                // taken it since — is progress worth a retry.
                maintenance::round(self, &|| true)?;
                let freed = self.maint.observe_and_kick().free_epoch != seen.free_epoch;
                let inner = self.inner.lock();
                break freed || inner.segs.free_count() > inner.cfg.maintenance_reserve();
            }
            // Check for space strictly *after* the epoch snapshot above:
            // any free or round completion since then advances an epoch,
            // so the wait below cannot sleep through it.
            // `free > reserve`: on a fixed-size log the last free segment
            // is the maintenance reserve and a retried append still could
            // not take it.
            let (free, reserve) = {
                let inner = self.inner.lock();
                (inner.segs.free_count(), inner.cfg.maintenance_reserve())
            };
            if free > reserve {
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::StallWake,
                    0,
                    seen.free_epoch,
                    free as u64,
                );
                break true;
            }
            if fruitless_rounds >= 2 || waits >= 256 {
                // Two whole rounds reclaimed nothing and the store is
                // still out of segments (or we have waited absurdly long):
                // surface OutOfSpace instead of wedging the committer.
                trace::emit(TraceLayer::Chunk, TraceKind::StallGiveUp, 0, waits, 0);
                break false;
            }
            let next = self
                .maint
                .wait_progress(seen, std::time::Duration::from_millis(500));
            waits += 1;
            let advanced = next.rounds != seen.rounds || next.free_epoch != seen.free_epoch;
            if advanced {
                idle_waits = 0;
                if next.rounds != seen.rounds && next.free_epoch == seen.free_epoch {
                    // A round completed without freeing anything.
                    fruitless_rounds += 1;
                } else {
                    fruitless_rounds = 0;
                }
                trace::emit(
                    TraceLayer::Chunk,
                    TraceKind::StallRetry,
                    0,
                    waits,
                    next.rounds.wrapping_sub(seen.rounds),
                );
            } else {
                // Timed out with no progress at all. Tolerate a few (the
                // round may genuinely be slow), then treat it as wedged
                // maintenance and give up rather than block forever.
                idle_waits += 1;
                if idle_waits >= 8 {
                    trace::emit(TraceLayer::Chunk, TraceKind::StallGiveUp, 0, waits, 1);
                    break false;
                }
            }
            // Re-observe and re-kick: a completed round consumed the kick
            // flag, but our out-of-space condition persists.
            seen = self.maint.observe_and_kick();
        };
        if sw.running() {
            self.stats.phases.stall.record(sw.lap());
        }
        Ok(retry)
    }

    /// Record that an anchor has covered `covered` (used by paths that
    /// anchor outside the coordinator: checkpoints, empty durable commits).
    /// The notify is taken under the group lock so it cannot slip between a
    /// waiter's coverage check and its sleep.
    pub(crate) fn publish_durable(&self, covered: u64) {
        if self.durable_seq.fetch_max(covered, Ordering::AcqRel) < covered {
            let _g = self.group.lock();
            self.group_cv.notify_all();
        }
    }
}

/// A per-transaction staging area (paper Fig. 2's operations, scoped to
/// one committer). Writes and deallocations stage here without taking the
/// store-wide lock; [`ChunkStore::commit_batch`] applies them atomically.
/// Dropping an uncommitted batch discards its staged operations and
/// returns its allocated ids to the free pool.
pub struct WriteBatch {
    core: Arc<StoreCore>,
    staged: Batch,
}

impl WriteBatch {
    /// Allocate an unused chunk id (paper Fig. 2: `allocateChunkId`). The
    /// id is reserved store-wide immediately; it returns to the free pool
    /// if the batch is dropped without committing.
    pub fn allocate_chunk_id(&mut self) -> Result<ChunkId> {
        Ok(self.core.inner.lock().allocate_into(&mut self.staged))
    }

    /// Stage a write of `cid`'s state. Takes effect when the batch commits.
    /// Signals if `cid` is not allocated.
    pub fn write(&mut self, cid: ChunkId, bytes: &[u8]) -> Result<()> {
        self.core
            .inner
            .lock()
            .stage_write(&mut self.staged, cid, bytes)
    }

    /// Stage a deallocation of `cid`. Takes effect when the batch commits.
    pub fn deallocate(&mut self, cid: ChunkId) -> Result<()> {
        self.core.inner.lock().stage_dealloc(&mut self.staged, cid)
    }

    /// Read through this batch: staged writes win over committed state.
    pub fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        self.core.inner.lock().read_with(&self.staged, cid)
    }

    /// Whether anything is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.ops.is_empty()
    }

    /// Staged operations (writes + deallocations).
    pub fn staged_ops(&self) -> usize {
        self.staged.ops.len()
    }

    /// Explicitly discard this batch (equivalent to dropping it): staged
    /// operations vanish, allocated ids return to the free pool. Only this
    /// batch is affected — other batches' staged writes are untouched.
    pub fn discard(self) {}
}

impl Drop for WriteBatch {
    fn drop(&mut self) {
        if !self.staged.ops.is_empty() || !self.staged.allocated.is_empty() {
            self.core.inner.lock().free_batch(&mut self.staged);
        }
    }
}

/// A claim ticket from [`ChunkStore::append_batch`]: the batch's commit
/// record(s) are in the log; redeem with [`ChunkStore::wait_durable`] to
/// block until a group anchor covers them.
#[must_use = "a durable commit is not durable until wait_durable returns"]
pub struct CommitTicket {
    seq: u64,
    empty: bool,
    durable: bool,
    sampled: bool,
    total: Stopwatch,
}

impl CommitTicket {
    /// Sequence of the batch's last commit record — the version stamp of
    /// every chunk the batch wrote (see [`ChunkStore::read_versioned`]).
    pub fn seq(&self) -> u64 {
        self.seq
    }
}

/// The trusted chunk store (paper §3). See the crate docs for an example.
///
/// Concurrency: any number of [`WriteBatch`] handles may stage
/// independently; commits serialize only on the short log-tail append,
/// and concurrent durable commits share sync/anchor/counter rounds via
/// the group-commit coordinator. The inherent `write`/`commit`/… methods
/// are the legacy single-handle API over a store-owned default batch.
pub struct ChunkStore {
    core: Arc<StoreCore>,
    /// Staging area for the legacy single-handle API.
    default_batch: Mutex<Batch>,
    /// The background maintenance thread, when `background_maintenance`
    /// is configured. Joined by [`ChunkStore::close`] (and drop).
    maint_thread: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl ChunkStore {
    fn from_inner(inner: Inner) -> ChunkStore {
        static DIAG_ID: AtomicU64 = AtomicU64::new(0);
        let background = inner.cfg.background_maintenance;
        let label = format!("chunk{}", DIAG_ID.fetch_add(1, Ordering::Relaxed));
        let core = Arc::new(StoreCore {
            ctx: inner.ctx.clone(),
            stats: inner.stats.clone(),
            phase_tick: AtomicU64::new(0),
            durable_seq: AtomicU64::new(inner.commit_seq),
            group: Mutex::new(GroupState::default()),
            group_cv: Condvar::new(),
            maint: MaintShared::new(),
            pass_done: Condvar::new(),
            rehash_pending: Mutex::new(None),
            diag_label: Mutex::new(label.clone()),
            diag_keeper: Mutex::new(None),
            inner: Mutex::new(inner),
        });
        // Register this store with the diagnostic registry. The registry
        // holds a `Weak`, so a dropped store silently disappears from
        // future dumps; the keeper Arc pins the provider to our lifetime.
        {
            let weak = Arc::downgrade(&core);
            let provider: Arc<tdb_obs::diag::DiagFn> = Arc::new(move || match weak.upgrade() {
                Some(core) => core.diag_state(),
                None => tdb_obs::Json::obj(),
            });
            tdb_obs::diag::register_provider(&label, &provider);
            *core.diag_keeper.lock() = Some(provider);
        }
        let maint_thread = if background {
            // Marked running before the spawn so a commit racing store
            // construction kicks the thread instead of maintaining inline.
            core.maint.set_thread_running();
            let thread_core = core.clone();
            Some(
                std::thread::Builder::new()
                    .name("tdb-maintenance".into())
                    .spawn(move || maintenance::run(thread_core))
                    .expect("spawn maintenance thread"),
            )
        } else {
            None
        };
        ChunkStore {
            core,
            default_batch: Mutex::new(Batch::default()),
            maint_thread: Mutex::new(maint_thread),
        }
    }

    /// Create a fresh database. Fails if one already exists in `untrusted`.
    pub fn create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<Self> {
        cfg.validate().map_err(ChunkStoreError::ConfigMismatch)?;
        if AnchorStore::new(&*untrusted).database_exists()? {
            return Err(ChunkStoreError::ConfigMismatch(
                "a database already exists in this untrusted store".into(),
            ));
        }
        let ctx = Arc::new(CryptoCtx::new(cfg.security, secret, iv_salt(&*counter))?);
        let stats: SharedStats = Arc::new(Stats::default());
        let segs = SegmentManager::create(
            untrusted.clone(),
            cfg.segment_size,
            cfg.initial_segments,
            cfg.allow_growth,
            stats.clone(),
        )?;
        let counter_value = match cfg.security {
            SecurityMode::Full => counter.read()?,
            SecurityMode::Off => 0,
        };
        let map = LocationMap::new(cfg.map_fanout, cfg.security == SecurityMode::Full);
        let mut inner = Inner {
            cfg,
            ctx,
            counter,
            untrusted,
            segs,
            map,
            next_id: 0,
            free_ids: BTreeSet::new(),
            commit_seq: 0,
            chain: [0u8; 32],
            base_seq: 0,
            chain_base: [0u8; 32],
            residual_start: (SegmentId(0), crate::layout::SEGMENT_HEADER_LEN),
            residual_segments: std::iter::once(SegmentId(0)).collect(),
            residual_bytes: 0,
            anchor_seq: 0,
            counter_value,
            // Placeholder; the initial checkpoint below sets the real root.
            checkpointed_root: (
                Location {
                    seg: SegmentId(0),
                    off: 0,
                    len: 0,
                    hash: [0; 32],
                },
                1,
            ),
            pending_dec: Vec::new(),
            snapshots: Vec::new(),
            sync_inflight: BTreeSet::new(),
            anchor_io: Arc::new(Mutex::new(())),
            pass_active: false,
            stats,
            recovery: None,
        };
        inner.do_checkpoint()?;
        Ok(ChunkStore::from_inner(inner))
    }

    /// Open an existing database, running crash recovery, tamper
    /// validation, and replay detection.
    pub fn open(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<Self> {
        let inner = recovery::open_impl(untrusted, secret, counter, cfg)?;
        Ok(ChunkStore::from_inner(inner))
    }

    /// Open if a database exists, otherwise create one.
    pub fn open_or_create(
        untrusted: Arc<dyn UntrustedStore>,
        secret: &dyn SecretStore,
        counter: Arc<dyn OneWayCounter>,
        cfg: ChunkStoreConfig,
    ) -> Result<Self> {
        if AnchorStore::new(&*untrusted).database_exists()? {
            Self::open(untrusted, secret, counter, cfg)
        } else {
            Self::create(untrusted, secret, counter, cfg)
        }
    }

    // ---- per-transaction batches ------------------------------------

    /// Start an independent staging area. Concurrent batches stage without
    /// contending; see [`WriteBatch`].
    pub fn begin_batch(&self) -> WriteBatch {
        WriteBatch {
            core: self.core.clone(),
            staged: Batch::default(),
        }
    }

    /// Atomically apply a batch's staged operations. [`Durability::Durable`]
    /// commits return once a group anchor covers them (one
    /// sync/anchor/counter round may cover many concurrent committers);
    /// [`Durability::Lazy`] commits return after the flush. A failed commit
    /// affects only this batch.
    pub fn commit_batch(&self, batch: WriteBatch, durability: Durability) -> Result<()> {
        let ticket = self.append_batch(batch, durability)?;
        self.wait_durable(ticket)
    }

    /// First half of [`ChunkStore::commit_batch`]: seal and append the
    /// batch's commit record(s) to the log — the commit point — and
    /// return a ticket. Callers that must order other work (e.g. 2PL lock
    /// release) against the commit point but not against durability can
    /// do it between `append_batch` and [`ChunkStore::wait_durable`].
    pub fn append_batch(
        &self,
        mut batch: WriteBatch,
        durability: Durability,
    ) -> Result<CommitTicket> {
        let ops = std::mem::take(&mut batch.staged.ops);
        // Allocations become permanent at commit (even a failed append may
        // have committed earlier record groups, so ids never return to the
        // free pool here — exactly the legacy single-batch behavior).
        batch.staged.allocated.clear();
        self.core.append_ops(ops, durability.is_durable())
    }

    /// Second half of [`ChunkStore::commit_batch`]: block until the
    /// ticket's commit records are durable (joining or leading a group
    /// anchor round). No-op for nondurable tickets.
    pub fn wait_durable(&self, ticket: CommitTicket) -> Result<()> {
        self.core.wait_ticket(ticket)
    }

    // ---- legacy single-handle API (store-owned default batch) --------

    /// Allocate an unused chunk id (paper Fig. 2: `allocateChunkId`).
    pub fn allocate_chunk_id(&self) -> Result<ChunkId> {
        let mut staged = self.default_batch.lock();
        Ok(self.core.inner.lock().allocate_into(&mut staged))
    }

    /// Stage a write of `cid`'s state. Takes effect at the next commit.
    /// Signals if `cid` is not allocated.
    pub fn write(&self, cid: ChunkId, bytes: &[u8]) -> Result<()> {
        let mut staged = self.default_batch.lock();
        self.core.inner.lock().stage_write(&mut staged, cid, bytes)
    }

    /// Return the last written state of `cid` (staged writes included).
    /// Signals if the chunk is unallocated, unwritten, or tampered with.
    pub fn read(&self, cid: ChunkId) -> Result<Vec<u8>> {
        let staged = self.default_batch.lock();
        self.core.inner.lock().read_with(&staged, cid)
    }

    /// Stage a deallocation of `cid`. Takes effect at the next commit.
    pub fn deallocate(&self, cid: ChunkId) -> Result<()> {
        let mut staged = self.default_batch.lock();
        self.core.inner.lock().stage_dealloc(&mut staged, cid)
    }

    /// Atomically apply all operations staged through the single-handle
    /// API. See the module docs for the durable/nondurable distinction.
    pub fn commit(&self, durability: Durability) -> Result<()> {
        let ops = {
            let mut staged = self.default_batch.lock();
            staged.allocated.clear();
            std::mem::take(&mut staged.ops)
        };
        let ticket = self.core.append_ops(ops, durability.is_durable())?;
        self.core.wait_ticket(ticket)
    }

    /// Drop all staged single-handle operations and return batch-allocated
    /// ids to the free pool.
    pub fn discard(&self) {
        let mut staged = self.default_batch.lock();
        self.core.inner.lock().free_batch(&mut staged);
    }

    /// Force a checkpoint of the location map (normally automatic; exposed
    /// for idle-time maintenance as the paper suggests deferring
    /// reorganization to idle periods).
    pub fn checkpoint(&self) -> Result<()> {
        let ops = {
            let mut staged = self.default_batch.lock();
            if staged.ops.is_empty() {
                BTreeMap::new()
            } else {
                staged.allocated.clear();
                std::mem::take(&mut staged.ops)
            }
        };
        if !ops.is_empty() {
            let ticket = self.core.append_ops(ops, false)?;
            self.core.wait_ticket(ticket)?;
        }
        let covered = {
            let mut inner = self.core.inner.lock();
            inner.do_checkpoint()?;
            inner.commit_seq
        };
        self.core.publish_durable(covered);
        Ok(())
    }

    /// Run one cleaner pass (normally automatic). Returns segments freed.
    /// Runs the same incremental slice protocol as every maintenance
    /// round; if another pass is already in flight this returns 0 rather
    /// than racing it for the victims.
    pub fn clean(&self) -> Result<usize> {
        self.clean_incremental_with(&mut |_| {})
    }

    /// Drive one incremental cleaning pass, calling `between` with the
    /// store *unlocked* before every relocation slice after the first —
    /// a test hook for the mid-pass snapshot/commit interleavings the
    /// background thread produces nondeterministically. `between` runs
    /// on the pass's own thread, so its commits must be lazy: a durable
    /// one that trips inline maintenance would wait for this very pass.
    #[doc(hidden)]
    pub fn clean_incremental_with(&self, between: &mut dyn FnMut(usize)) -> Result<usize> {
        let mut hook = |slice: usize| {
            if slice > 0 {
                between(slice);
            }
            true
        };
        match maintenance::incremental_pass(&self.core, &mut hook)? {
            PassResult::Freed(n) => Ok(n),
            PassResult::NoGarbage | PassResult::Busy | PassResult::Abandoned => Ok(0),
        }
    }

    /// Quiesce and join the background maintenance thread, if one is
    /// running: an in-flight cleaning pass is abandoned at the next slice
    /// boundary (safe — only the closing checkpoint anchors a pass, so an
    /// abandoned slice is dead log tail for recovery and for the next
    /// pass). The store remains usable; maintenance falls back inline.
    /// Called automatically when the store is dropped.
    pub fn close(&self) {
        self.core.maint.request_shutdown();
        if let Some(handle) = self.maint_thread.lock().take() {
            let _ = handle.join();
        }
    }

    /// Take a copy-on-write snapshot of the committed database state.
    /// Staged (uncommitted) operations are not included.
    pub fn snapshot(&self) -> Snapshot {
        self.core.inner.lock().take_snapshot()
    }

    /// Read a chunk's state as of `snap`.
    ///
    /// The read path is built for concurrent snapshot readers: the frozen
    /// snapshot resolves the location without any lock, the store lock is
    /// held only long enough to resolve the location to a file handle (or
    /// copy unflushed tail bytes), and the I/O, hash verification, and
    /// decryption all run outside it. The snapshot's segment pins keep the
    /// cleaner from freeing or truncating the segment meanwhile.
    pub fn read_at_snapshot(&self, snap: &Snapshot, cid: ChunkId) -> Result<Vec<u8>> {
        let loc = snap
            .location_of(cid)
            .ok_or(ChunkStoreError::NotAllocated(cid))?;
        let src = {
            let inner = self.core.inner.lock();
            add(&inner.stats.chunk_reads, 1);
            inner.segs.prepare_read(&loc)?
        };
        let stored = segment::complete_read(src, &loc, RecordKind::ChunkData)?;
        let ctx = &self.core.ctx;
        if ctx.verifies_hashes() && !CryptoCtx::tags_equal(&ctx.hash(&stored), &loc.hash) {
            return Err(ChunkStoreError::TamperDetected(format!(
                "hash mismatch for snapshot record at {loc:?}"
            )));
        }
        let plain = ctx.open(&stored)?;
        let (stored_id, data) =
            decode_chunk_payload(&plain).map_err(|m| ChunkStoreError::TamperDetected(m.0))?;
        if stored_id != cid {
            return Err(ChunkStoreError::TamperDetected(format!(
                "snapshot chunk {cid:?} record claims {stored_id:?}"
            )));
        }
        Ok(data.to_vec())
    }

    /// Read a chunk's last *committed* state plus the store's commit
    /// sequence at the time of the read (staged single-handle operations
    /// are ignored). The sequence is an upper bound on the commit that
    /// produced the returned bytes — the contract snapshot readers use to
    /// decide whether a cached object version is visible at their
    /// snapshot: a version stamped `v` is visible at any snapshot with
    /// `commit_seq() >= v`.
    pub fn read_versioned(&self, cid: ChunkId) -> Result<(Vec<u8>, u64)> {
        let mut inner = self.core.inner.lock();
        let seq = inner.commit_seq;
        let bytes = inner.read_with(&Batch::default(), cid)?;
        Ok((bytes, seq))
    }

    // ---- proof-carrying reads ----------------------------------------

    /// The MAC key this store's proofs attest under (a sharded store
    /// collects one per shard into its [`tdb_proof::TrustKeys::Sharded`]).
    pub(crate) fn proof_mac_key(&self) -> [u8; 32] {
        *self.core.ctx.proof_mac_key()
    }

    /// Read a chunk as of `snap`, returning a [`Proven`] value: the bytes
    /// (or `None` for provable absence) plus a bookmark from which
    /// [`Proven::prove`] can later build a [`tdb_proof::ChunkProof`]
    /// checkable by a standalone [`tdb_proof::Verifier`]. The read itself
    /// pays only the bookmark (an `Arc` clone plus one value hash); proof
    /// construction is deferred until `prove()` and runs lock-free against
    /// the frozen snapshot root, so it is stable under concurrent commits
    /// and cleaner relocation. Requires [`SecurityMode::Full`].
    pub fn proven_at_snapshot(
        &self,
        snap: &Snapshot,
        cid: ChunkId,
    ) -> Result<Proven<Option<Vec<u8>>>> {
        proof::require_full_security(&self.core.ctx)?;
        let (value, outcome) = match snap.location_of(cid) {
            Some(loc) => {
                let data = self.read_at_snapshot(snap, cid)?;
                let plain_hash = proof::plain_digest(&data);
                (
                    Some(data),
                    BookmarkOutcome::Included {
                        sealed_hash: loc.hash,
                        plain_hash,
                    },
                )
            }
            None => (None, BookmarkOutcome::Absent),
        };
        self.core.stats.proofs.proven_reads.add(1);
        Ok(Proven {
            value,
            bookmark: ProofBookmark {
                ctx: self.core.ctx.clone(),
                core: snap.core.clone(),
                cid,
                proof_id: cid.0,
                outcome,
                shard: None,
                stats: self.core.stats.clone(),
            },
        })
    }

    /// Proven read of the last *committed* state (staged operations are
    /// ignored — proofs speak about committed snapshots only). Takes a
    /// fresh snapshot internally; see [`ChunkStore::proven_at_snapshot`].
    pub fn read_proven(&self, cid: ChunkId) -> Result<Proven<Option<Vec<u8>>>> {
        let snap = self.snapshot();
        self.proven_at_snapshot(&snap, cid)
    }

    /// The trust anchor a client needs to verify this store's proofs: the
    /// current counter value plus the root MAC key. Ship it to the client
    /// over a trusted channel (provisioning); any proof attesting an older
    /// counter value is then rejected as a replay.
    pub fn trust_anchor(&self) -> Result<tdb_proof::TrustAnchor> {
        proof::require_full_security(&self.core.ctx)?;
        let counter_value = self.core.inner.lock().counter_value;
        Ok(tdb_proof::TrustAnchor {
            counter_value,
            keys: tdb_proof::TrustKeys::Single {
                root_mac_key: *self.core.ctx.proof_mac_key(),
            },
        })
    }

    /// Mint a keyed (index-level) attestation bound to `snap`'s pinned
    /// counter and commit sequence. The collection layer rebuilds the
    /// keyed tree over an index's sorted keys at the snapshot and calls
    /// this to bind its root; the verifier side is
    /// [`tdb_proof::Verifier::verify_keyed`].
    pub fn keyed_attest_at(
        &self,
        snap: &Snapshot,
        scope: &str,
        total: u64,
        root: &Digest,
    ) -> Result<tdb_proof::KeyedAttestation> {
        proof::require_full_security(&self.core.ctx)?;
        self.core.stats.proofs.keyed_minted.add(1);
        Ok(tdb_proof::KeyedAttestation {
            counter_value: snap.core.counter_value,
            commit_seq: snap.core.seq,
            tag: tdb_proof::keyed::keyed_tag(
                self.core.ctx.proof_mac_key(),
                snap.core.counter_value,
                snap.core.seq,
                scope,
                total,
                root,
            ),
        })
    }

    /// Compare two snapshots (the engine of incremental backups).
    pub fn diff_snapshots(&self, old: &Snapshot, new: &Snapshot) -> SnapshotDiff {
        diff_roots(
            &old.core.root,
            old.core.depth,
            &new.core.root,
            new.core.depth,
            old.core.fanout,
        )
    }

    /// What crash recovery found and did, if this handle was produced by
    /// [`ChunkStore::open`] (a freshly created store has no report).
    pub fn recovery_report(&self) -> Option<recovery::RecoveryReport> {
        self.core.inner.lock().recovery.clone()
    }

    /// Operation counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.core.stats.snapshot()
    }

    /// The store's observability registry: the `chunk.*` counters behind
    /// [`ChunkStore::stats`] plus commit/checkpoint/cleaner/recovery phase
    /// histograms. Higher layers (object/collection/backup stores) register
    /// their instruments here too, so one registry describes a whole stack.
    pub fn obs(&self) -> Arc<tdb_obs::Registry> {
        self.core.stats.registry().clone()
    }

    /// Non-blocking health summary of this store (the same object this
    /// store contributes to watchdog diagnostic dumps).
    pub fn diag_state(&self) -> tdb_obs::Json {
        self.core.diag_state()
    }

    /// Rename this store in diagnostic dumps (e.g. `shard3` instead of
    /// the default `chunk{N}`).
    pub fn set_diag_label(&self, label: impl Into<String>) {
        *self.core.diag_label.lock() = label.into();
    }

    /// Current database utilization (live bytes / in-use capacity).
    pub fn utilization(&self) -> f64 {
        self.core.inner.lock().segs.utilization()
    }

    /// On-disk footprint of the log in bytes.
    pub fn disk_size(&self) -> u64 {
        self.core.inner.lock().segs.disk_size()
    }

    /// Number of live chunks.
    pub fn live_chunks(&self) -> u64 {
        self.core.inner.lock().map.live_count()
    }

    /// The security mode the store runs in.
    pub fn security(&self) -> SecurityMode {
        self.core.inner.lock().cfg.security
    }

    /// Whether `cid` is currently allocated (committed or staged through
    /// the single-handle API).
    pub fn is_allocated(&self, cid: ChunkId) -> bool {
        let staged = self.default_batch.lock();
        self.core.inner.lock().is_allocated_with(&staged, cid)
    }

    /// Largest chunk this configuration accepts.
    pub fn max_chunk_size(&self) -> usize {
        self.core.inner.lock().max_chunk_size()
    }

    /// Accounting audit (diagnostics): `(accounted_live, walked_live,
    /// in_use_segments, free_segments, pending_decrements)`.
    /// `accounted_live` is the segment manager's running per-segment sum;
    /// `walked_live` recomputes it from the in-memory map (entries plus
    /// clean pages). At a quiescent point (right after a checkpoint, no
    /// batch staged) the two must agree exactly.
    #[doc(hidden)]
    pub fn debug_accounting(&self) -> (u64, u64, usize, usize, usize) {
        let inner = self.core.inner.lock();
        let mut walked = 0u64;
        inner
            .map
            .for_each_entry(&mut |_, loc| walked += loc.len as u64);
        inner.map.for_each_page(&mut |loc| walked += loc.len as u64);
        (
            inner.segs.total_live(),
            walked,
            inner.segs.in_use_segments().len(),
            inner.segs.free_count(),
            inner.pending_dec.len(),
        )
    }

    /// Return ids that were allocated but never written back to the free
    /// pool (used by the object store when a transaction that inserted
    /// objects aborts). Ids with committed or staged state are ignored.
    pub fn release_unwritten_ids(&self, ids: &[ChunkId]) {
        let staged = self.default_batch.lock();
        let mut inner = self.core.inner.lock();
        for id in ids {
            if id.0 < inner.next_id
                && inner.map.get(*id).is_none()
                && !staged.ops.contains_key(&id.0)
            {
                inner.free_ids.insert(id.0);
            }
        }
    }

    /// Install a full database image at exact chunk ids — the backup
    /// store's validated-restore primitive. The store must be empty (fresh
    /// `create`). Ids below the restored high-water mark that are absent
    /// from the image become free.
    pub fn restore_image(&self, chunks: Vec<(ChunkId, Vec<u8>)>) -> Result<()> {
        let staged = self.default_batch.lock();
        let mut ops: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        {
            let mut inner = self.core.inner.lock();
            if inner.map.live_count() != 0 || !staged.ops.is_empty() {
                return Err(ChunkStoreError::ConfigMismatch(
                    "restore_image requires an empty store".into(),
                ));
            }
            let max_id = chunks.iter().map(|(id, _)| id.0).max();
            if let Some(max_id) = max_id {
                let present: HashSet<u64> = chunks.iter().map(|(id, _)| id.0).collect();
                inner.next_id = max_id + 1;
                inner.free_ids = (0..=max_id).filter(|i| !present.contains(i)).collect();
            }
        }
        drop(staged);
        for (id, data) in chunks {
            ops.insert(id.0, Some(data));
        }
        let ticket = self.core.append_ops(ops, true)?;
        self.core.wait_ticket(ticket)
    }

    /// Whether commit records exist past the last written anchor. Cheap
    /// (one lock, one atomic load); the sharded store uses it to decide
    /// which sibling shards a durable commit must harden.
    pub(crate) fn needs_anchor(&self) -> bool {
        let commit_seq = self.core.inner.lock().commit_seq;
        commit_seq > self.core.durable_seq.load(Ordering::Acquire)
    }

    /// Force one sync/anchor/counter round covering everything appended so
    /// far — the empty-durable-commit barrier, callable without a batch.
    pub(crate) fn harden(&self) -> Result<()> {
        self.core.wait_ticket(CommitTicket {
            seq: 0,
            empty: true,
            durable: true,
            sampled: false,
            total: Stopwatch::inert(),
        })
    }

    /// Apply an incremental delta at exact chunk ids (backup restore). Ids
    /// newly above the high-water mark extend it; removed ids become free.
    pub fn apply_restore_delta(
        &self,
        writes: Vec<(ChunkId, Vec<u8>)>,
        removes: Vec<ChunkId>,
    ) -> Result<()> {
        let staged = self.default_batch.lock();
        let mut ops: BTreeMap<u64, Option<Vec<u8>>> = BTreeMap::new();
        {
            let mut inner = self.core.inner.lock();
            if !staged.ops.is_empty() {
                return Err(ChunkStoreError::ConfigMismatch(
                    "apply_restore_delta with operations staged".into(),
                ));
            }
            for (id, _) in &writes {
                if id.0 >= inner.next_id {
                    for gap in inner.next_id..id.0 {
                        inner.free_ids.insert(gap);
                    }
                    inner.next_id = id.0 + 1;
                }
                inner.free_ids.remove(&id.0);
            }
        }
        drop(staged);
        for (id, data) in writes {
            ops.insert(id.0, Some(data));
        }
        for id in removes {
            ops.insert(id.0, None);
        }
        let ticket = self.core.append_ops(ops, true)?;
        self.core.wait_ticket(ticket)
    }
}

impl Drop for ChunkStore {
    fn drop(&mut self) {
        self.close();
    }
}
