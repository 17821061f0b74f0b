//! Background maintenance and incremental-cleaner tests: watermark-driven
//! checkpointing off the commit path, mid-pass snapshot pinning (TOCTOU),
//! error-path accounting of a failed closing checkpoint, and the
//! commit-latency bugfixes (phase-lap pollution, anchor/counter rollback,
//! gave-up-vs-clean maintenance outcomes), the maintenance round's
//! net-progress stop rule, and inline rounds waiting out an in-flight pass.

use chunk_store::Durability;
use chunk_store::{ChunkId, ChunkStore, ChunkStoreConfig, SecurityMode};
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};
use tdb_platform::{
    CrashSchedule, FaultPlan, FaultStore, MemSecretStore, MemStore, UntrustedStore, VolatileCounter,
};

fn secret() -> MemSecretStore {
    MemSecretStore::from_label("maintenance")
}

fn create_on(
    untrusted: Arc<dyn UntrustedStore>,
    c: &VolatileCounter,
    cfg: &ChunkStoreConfig,
) -> ChunkStore {
    ChunkStore::create(untrusted, &secret(), Arc::new(c.clone()), cfg.clone()).unwrap()
}

fn open_on(
    untrusted: Arc<dyn UntrustedStore>,
    c: &VolatileCounter,
    cfg: &ChunkStoreConfig,
) -> ChunkStore {
    ChunkStore::open(untrusted, &secret(), Arc::new(c.clone()), cfg.clone()).unwrap()
}

fn hist_count(snap: &tdb_obs::RegistrySnapshot, name: &str) -> u64 {
    snap.histograms.get(name).map(|h| h.count()).unwrap_or(0)
}

/// In `Off` security the anchor round never touches the one-way counter,
/// so the counter histograms must record nothing — a lap of ~0ns per
/// anchor would drag the percentiles toward zero and misattribute anchor
/// time. In `Full` mode every successful round records exactly one
/// counter lap alongside its anchor lap. A checkpoint's round lands in
/// the `maint.*` lanes and must leave the `commit.*` rows untouched.
#[test]
fn counter_laps_follow_real_counter_work_only() {
    tdb_obs::set_enabled(true);

    for (security, expect_counter) in [(SecurityMode::Off, false), (SecurityMode::Full, true)] {
        let cfg = ChunkStoreConfig {
            security,
            ..ChunkStoreConfig::small_for_tests()
        };
        let counter = VolatileCounter::new();
        let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);
        let id = store.allocate_chunk_id().unwrap();
        store.write(id, b"anchor fodder").unwrap();
        store.commit(Durability::Durable).unwrap();

        let base = store.obs().snapshot();
        store.checkpoint().unwrap();
        let delta = store.obs().snapshot().since(&base);

        let anchors = hist_count(&delta, "maint.anchor");
        let counters = hist_count(&delta, "maint.counter");
        assert!(anchors >= 1, "checkpoint must record a maint anchor lap");
        assert_eq!(
            hist_count(&delta, "commit.anchor"),
            0,
            "checkpoint rounds must not leak into commit.anchor"
        );
        assert_eq!(hist_count(&delta, "commit.sync"), 0);
        if expect_counter {
            assert_eq!(
                counters, anchors,
                "Full mode: one counter lap per successful anchor round"
            );
        } else {
            assert_eq!(
                counters, 0,
                "Off mode: no counter work, so no counter laps (got {counters})"
            );
        }
    }
}

/// An anchor round that dies before its I/O completes must record neither
/// an anchor nor a counter lap — error samples would pollute the phase
/// histograms with near-zero laps for work that never happened.
#[test]
fn failed_anchor_rounds_record_no_phase_laps() {
    tdb_obs::set_enabled(true);
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Full,
        ..ChunkStoreConfig::small_for_tests()
    };
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let plan = FaultPlan::unlimited();
    let store = create_on(
        Arc::new(FaultStore::new(mem.clone(), plan.clone())),
        &counter,
        &cfg,
    );
    let id = store.allocate_chunk_id().unwrap();
    store.write(id, b"soon to fail").unwrap();
    store.commit(Durability::Durable).unwrap();

    // Kill the next sync: the round dies in `sync_touched`, before the
    // anchor write or counter increment.
    store.write(id, b"fresh garbage to flush").unwrap();
    store.commit(Durability::Lazy).unwrap();
    let base = store.obs().snapshot();
    plan.rearm_with(CrashSchedule::OnSync { index: 0 });
    store.checkpoint().unwrap_err();
    let delta = store.obs().snapshot().since(&base);
    assert_eq!(hist_count(&delta, "commit.anchor"), 0);
    assert_eq!(hist_count(&delta, "commit.counter"), 0);

    // The store stays usable once the device recovers.
    plan.rearm_with(CrashSchedule::Never);
    store.checkpoint().unwrap();
    assert_eq!(store.read(id).unwrap(), b"fresh garbage to flush");
}

/// Repeated anchor-round failures must not let the in-memory counter
/// expectation drift past the hardware counter. Recovery only repairs a
/// `+1` gap (the benign crash window); without rollback, three failed
/// rounds would open a `+3` gap and the reopen would report a replay
/// attack against our own database.
#[test]
fn failed_anchor_rounds_do_not_drift_replay_detection() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Full,
        ..ChunkStoreConfig::small_for_tests()
    };
    let mem = MemStore::new();
    let counter = VolatileCounter::new();
    let plan = FaultPlan::unlimited();
    let store = create_on(
        Arc::new(FaultStore::new(mem.clone(), plan.clone())),
        &counter,
        &cfg,
    );
    let id = store.allocate_chunk_id().unwrap();
    store.write(id, b"v0").unwrap();
    store.commit(Durability::Durable).unwrap();

    for round in 0..3u32 {
        store
            .write(id, format!("doomed {round}").as_bytes())
            .unwrap();
        plan.rearm_with(CrashSchedule::OnSync { index: 0 });
        store.commit(Durability::Durable).unwrap_err();
        plan.rearm_with(CrashSchedule::Never);
        // The device is healthy again; the retried round must succeed and
        // land exactly one counter increment.
        store
            .write(id, format!("landed {round}").as_bytes())
            .unwrap();
        store.commit(Durability::Durable).unwrap();
    }

    drop(store);
    // A drifted counter surfaces here as ReplayDetected.
    let store = open_on(Arc::new(mem), &counter, &cfg);
    assert_eq!(store.read(id).unwrap(), b"landed 2");
}

/// Fill the store, free almost everything, then hammer overwrites with
/// growth disabled: every commit must succeed because maintenance can
/// always reclaim the freed space. The old `maintain()` could report
/// success with zero free segments (its own checkpoint traffic consumed
/// what a pass freed), surfacing later as a spurious out-of-space error.
#[test]
fn mass_free_then_overwrites_never_spuriously_out_of_space() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        allow_growth: false,
        initial_segments: 6,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);

    // Map-heavy fill: many small chunks spread across leaf pages.
    let mut ids = Vec::new();
    for i in 0..30u32 {
        let id = store.allocate_chunk_id().unwrap();
        store.write(id, &i.to_le_bytes().repeat(64)).unwrap();
        ids.push(id);
        if i % 5 == 4 {
            store.commit(Durability::Durable).unwrap();
        }
    }
    store.commit(Durability::Durable).unwrap();

    // Free all but two chunks.
    let survivors = [ids[0], ids[1]];
    for id in &ids[2..] {
        store.deallocate(*id).unwrap();
    }
    store.commit(Durability::Durable).unwrap();

    // Overwrite the survivors repeatedly: continuous garbage generation
    // that is only sustainable if reclamation actually frees segments.
    for round in 0..200u32 {
        for (k, id) in survivors.iter().enumerate() {
            let payload = (round * 2 + k as u32).to_le_bytes().repeat(64);
            store.write(*id, &payload).unwrap();
        }
        store
            .commit(Durability::from(round % 4 == 0))
            .unwrap_or_else(|e| panic!("commit {round} failed: {e}"));
    }
    assert!(store.stats().cleaner_passes > 0, "cleaning must have run");
    assert_eq!(
        store.read(survivors[0]).unwrap(),
        398u32.to_le_bytes().repeat(64)
    );
    assert_eq!(
        store.read(survivors[1]).unwrap(),
        399u32.to_le_bytes().repeat(64)
    );
}

/// Sweep a torn write across an entire cleaning pass — victim selection's
/// settling anchor, every relocation slice, the closing checkpoint, and
/// the frees. After each failure the *same* store handle must recover by
/// an ordinary checkpoint + clean (accounting settles exactly), and a
/// crash-style reopen from the underlying bytes must also see every chunk.
#[test]
fn failed_cleaning_pass_is_retryable_at_every_write() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        maintenance_slice_chunks: 2,
        ..ChunkStoreConfig::small_for_tests()
    };

    let mut k = 0u64;
    loop {
        assert!(k < 300, "sweep never reached the end of the pass");
        let mem = MemStore::new();
        let counter = VolatileCounter::new();
        let plan = FaultPlan::unlimited();
        let store = create_on(
            Arc::new(FaultStore::new(mem.clone(), plan.clone())),
            &counter,
            &cfg,
        );

        // Deterministic garbage-heavy workload: two segments' worth of
        // chunks, half overwritten, a few deallocated.
        let mut expected: BTreeMap<ChunkId, Vec<u8>> = BTreeMap::new();
        let mut ids = Vec::new();
        for i in 0..24u32 {
            let id = store.allocate_chunk_id().unwrap();
            let v = i.to_le_bytes().repeat(75);
            store.write(id, &v).unwrap();
            expected.insert(id, v);
            ids.push(id);
        }
        store.commit(Durability::Durable).unwrap();
        store.checkpoint().unwrap();
        for (i, id) in ids.iter().enumerate() {
            if i % 2 == 0 {
                let v = (i as u32 + 1000).to_le_bytes().repeat(60);
                store.write(*id, &v).unwrap();
                expected.insert(*id, v);
            }
        }
        for id in &ids[20..] {
            store.deallocate(*id).unwrap();
            expected.remove(id);
        }
        store.commit(Durability::Durable).unwrap();

        plan.rearm_with(CrashSchedule::OnWrite {
            index: k,
            cut_num: 1,
            cut_den: 2,
        });
        let res = store.clean();
        if !plan.has_crashed() {
            // The pass finished before write k: the whole pass has been
            // swept. Sanity-check the clean result and stop.
            res.unwrap();
            break;
        }
        assert!(
            res.is_err(),
            "a torn write mid-pass must surface as an error"
        );

        // In-process retry on the same handle: checkpoint settles the
        // accounting the failed pass left behind, then a clean completes.
        plan.rearm_with(CrashSchedule::Never);
        store.checkpoint().unwrap();
        store.clean().unwrap();
        for (id, v) in &expected {
            assert_eq!(&store.read(*id).unwrap(), v, "write-crash at {k}");
        }
        let (accounted, walked, _, _, pending) = store.debug_accounting();
        assert_eq!(accounted, walked, "live accounting drifted (crash at {k})");
        assert_eq!(pending, 0, "pending decrements not settled (crash at {k})");

        // Crash-style reopen from the raw bytes must agree.
        drop(store);
        let store = open_on(Arc::new(mem), &counter, &cfg);
        for (id, v) in &expected {
            assert_eq!(&store.read(*id).unwrap(), v, "reopen after crash at {k}");
        }
        k += 1;
    }
}

/// TOCTOU: a snapshot opened *between* relocation slices pins the
/// remaining victims. Every chunk the snapshot covers must stay readable
/// after the pass — a freed victim segment would surface as a read error
/// or tamper report.
#[test]
fn snapshot_between_slices_pins_remaining_victims() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        maintenance_slice_chunks: 1,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);

    let mut ids = Vec::new();
    for i in 0..30u32 {
        let id = store.allocate_chunk_id().unwrap();
        store.write(id, &i.to_le_bytes().repeat(75)).unwrap();
        ids.push(id);
    }
    store.commit(Durability::Durable).unwrap();
    store.checkpoint().unwrap();
    // Overwrite half: the old versions become garbage spread across the
    // early segments, leaving live chunks in partial victims to relocate.
    for (i, id) in ids.iter().enumerate() {
        if i % 2 == 0 {
            store
                .write(*id, &(i as u32 + 500).to_le_bytes().repeat(60))
                .unwrap();
        }
    }
    store.commit(Durability::Durable).unwrap();

    let mut snap = None;
    let store_ref = &store;
    store_ref
        .clean_incremental_with(&mut |_slice| {
            if snap.is_none() {
                snap = Some(store_ref.snapshot());
            }
        })
        .unwrap();
    let snap = snap.expect("pass must take more than one slice");

    for (i, id) in ids.iter().enumerate() {
        let want = if i % 2 == 0 {
            (i as u32 + 500).to_le_bytes().repeat(60)
        } else {
            (i as u32).to_le_bytes().repeat(75)
        };
        assert_eq!(
            store.read_at_snapshot(&snap, *id).unwrap(),
            want,
            "snapshot read of chunk {i} after mid-pass cleaning"
        );
        assert_eq!(store.read(*id).unwrap(), want);
    }

    // With the snapshot dropped the pinned garbage becomes reclaimable.
    drop(snap);
    store.clean().unwrap();
    for (i, id) in ids.iter().enumerate() {
        let want = if i % 2 == 0 {
            (i as u32 + 500).to_le_bytes().repeat(60)
        } else {
            (i as u32).to_le_bytes().repeat(75)
        };
        assert_eq!(store.read(*id).unwrap(), want);
    }
}

/// Commits landing between relocation slices must never be clobbered by
/// the pass: each slice re-fetches chunk locations, so a chunk rewritten
/// mid-pass keeps its new version.
#[test]
fn commits_between_slices_survive_the_pass() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        maintenance_slice_chunks: 1,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let mem = MemStore::new();
    let store = create_on(Arc::new(mem.clone()), &counter, &cfg);

    let mut ids = Vec::new();
    for i in 0..24u32 {
        let id = store.allocate_chunk_id().unwrap();
        store.write(id, &i.to_le_bytes().repeat(75)).unwrap();
        ids.push(id);
    }
    store.commit(Durability::Durable).unwrap();
    store.checkpoint().unwrap();
    for (i, id) in ids.iter().enumerate() {
        if i % 2 == 0 {
            store
                .write(*id, &(i as u32).to_le_bytes().repeat(50))
                .unwrap();
        }
    }
    store.commit(Durability::Durable).unwrap();

    // Every slice boundary overwrites one chunk the pass may be about to
    // relocate.
    let store_ref = &store;
    let ids_ref = &ids;
    let mut turn = 0usize;
    store_ref
        .clean_incremental_with(&mut |_slice| {
            let id = ids_ref[turn % ids_ref.len()];
            store_ref
                .write(id, format!("mid-pass {turn}").as_bytes())
                .unwrap();
            store_ref.commit(Durability::Lazy).unwrap();
            turn += 1;
        })
        .unwrap();
    assert!(turn > 0, "pass must have had slice boundaries");
    store.commit(Durability::Durable).unwrap();

    let mut expected: BTreeMap<ChunkId, Vec<u8>> = BTreeMap::new();
    for (i, id) in ids.iter().enumerate() {
        expected.insert(
            *id,
            if i % 2 == 0 {
                (i as u32).to_le_bytes().repeat(50)
            } else {
                (i as u32).to_le_bytes().repeat(75)
            },
        );
    }
    for t in 0..turn {
        expected.insert(ids[t % ids.len()], format!("mid-pass {t}").into_bytes());
    }
    for (id, v) in &expected {
        assert_eq!(&store.read(*id).unwrap(), v);
    }
    drop(store);
    let store = open_on(Arc::new(mem), &counter, &cfg);
    for (id, v) in &expected {
        assert_eq!(&store.read(*id).unwrap(), v);
    }
}

/// With `background_maintenance` on, the commit path only kicks the
/// thread; the thread takes the watermark checkpoint. `close()` quiesces
/// it, after which the store still works (maintenance falls back inline)
/// and closing again is a no-op.
#[test]
fn background_thread_checkpoints_by_watermark_and_close_quiesces() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        checkpoint_threshold: 8 * 1024,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);
    let base = store.stats();

    let id = store.allocate_chunk_id().unwrap();
    for i in 0..60u32 {
        store.write(id, &i.to_le_bytes().repeat(100)).unwrap();
        store.commit(Durability::Durable).unwrap();
    }

    // The checkpoint happens asynchronously; wait for it.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        let now = store.stats().since(&base);
        if now.checkpoints > 0 {
            assert!(
                now.maintenance_wakeups > 0,
                "commit path must kick the thread"
            );
            break;
        }
        assert!(
            Instant::now() < deadline,
            "background thread never checkpointed: {now:?}"
        );
        std::thread::sleep(Duration::from_millis(10));
    }

    store.close();
    // Still fully usable; maintenance is inline now.
    store.write(id, b"after close").unwrap();
    store.commit(Durability::Durable).unwrap();
    assert_eq!(store.read(id).unwrap(), b"after close");
    store.close();
}

/// Space pressure with the thread on: growth disabled, two hot chunks
/// overwritten far past the log's capacity. Committers stall on the
/// backpressure path instead of failing; everything lands, and a reopen
/// (after drop joins the thread) recovers the final state.
#[test]
fn backpressure_under_background_cleaning() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        allow_growth: false,
        initial_segments: 6,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let mem = MemStore::new();
    let store = create_on(Arc::new(mem.clone()), &counter, &cfg);

    let a = store.allocate_chunk_id().unwrap();
    let b = store.allocate_chunk_id().unwrap();
    for round in 0..300u32 {
        store
            .write(a, &(round * 2).to_le_bytes().repeat(64))
            .unwrap();
        store
            .write(b, &(round * 2 + 1).to_le_bytes().repeat(64))
            .unwrap();
        store
            .commit(Durability::from(round % 8 == 0))
            .unwrap_or_else(|e| panic!("commit {round} failed under backpressure: {e}"));
    }
    store.commit(Durability::Durable).unwrap();
    assert!(store.stats().cleaner_passes > 0, "cleaning must have run");
    assert_eq!(store.read(a).unwrap(), 598u32.to_le_bytes().repeat(64));
    assert_eq!(store.read(b).unwrap(), 599u32.to_le_bytes().repeat(64));

    drop(store); // joins the maintenance thread
    let store = open_on(Arc::new(mem), &counter, &cfg);
    assert_eq!(store.read(a).unwrap(), 598u32.to_le_bytes().repeat(64));
    assert_eq!(store.read(b).unwrap(), 599u32.to_le_bytes().repeat(64));
}

/// Completed maintenance rounds, from the store's diagnostic state.
fn maintenance_rounds(store: &ChunkStore) -> u64 {
    store
        .diag_state()
        .get("maintenance")
        .and_then(|m| m.get("rounds"))
        .and_then(|r| r.as_u64())
        .expect("diag state reports maintenance rounds")
}

/// Livelock regression. On a map-heavy store with tiny segments, every
/// cleaning pass frees a segment and its closing checkpoint takes one
/// back: the rewritten map pages fill the tail, and the checkpoint trims
/// free segments to `free_segment_reserve` (2), below the high watermark
/// (3). The pages it rewrites leave fresh garbage behind, so there is
/// always another victim. A round that kept going on every pass that freed
/// a segment cleaned its own checkpoint traffic forever — long after the
/// writer stopped — with committers contending for the store lock against
/// it. The round must instead end on the first pass that does not raise
/// the free count: commits finish within a deadline,
/// `maintenance_gave_up` advances, and once the writer stops the thread
/// goes quiet.
#[test]
fn map_heavy_round_ends_when_a_pass_makes_no_net_progress() {
    const CHUNKS: usize = 600;
    const TOUCH: usize = 30;
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        background_maintenance: true,
        cleaner_batch: 1,
        clean_low_free: 3,
        clean_high_free: 3,
        max_utilization: 0.95,
        // Only the cleaner's closing checkpoints rewrite the map.
        checkpoint_threshold: 1 << 30,
        // 4 KiB segments, 8-entry map pages, free_segment_reserve 2.
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let store = create_on(Arc::new(MemStore::new()), &counter, &cfg);

    // Many tiny chunks: the location map, not the data, dominates the log.
    let mut ids = Vec::new();
    let mut expected: Vec<u32> = (0..CHUNKS as u32).collect();
    for i in 0..CHUNKS {
        let id = store.allocate_chunk_id().unwrap();
        store
            .write(id, &(i as u32).to_le_bytes().repeat(4))
            .unwrap();
        ids.push(id);
        if i % 50 == 49 {
            store.commit(Durability::Durable).unwrap();
        }
    }
    store.commit(Durability::Durable).unwrap();
    let base = store.stats();
    let rounds_before = maintenance_rounds(&store);

    // Each commit rewrites chunks spread across the whole id space, so it
    // dirties a distinct map leaf per chunk.
    let deadline = Instant::now() + Duration::from_secs(60);
    for c in 0..2000usize {
        for k in 0..TOUCH {
            let slot = (c * 7919 + k * (CHUNKS / TOUCH)) % CHUNKS;
            let v = (CHUNKS + c) as u32;
            store.write(ids[slot], &v.to_le_bytes().repeat(4)).unwrap();
            expected[slot] = v;
        }
        let t = Instant::now();
        store.commit(Durability::Durable).unwrap();
        assert!(
            t.elapsed() < Duration::from_secs(2),
            "commit {c} stalled for {:?} behind maintenance",
            t.elapsed()
        );
        assert!(Instant::now() < deadline, "writer starved at commit {c}");
    }

    // The writer stopped: no more kicks, so the last round must end and the
    // cleaner fall silent.
    let quiet_by = Instant::now() + Duration::from_secs(10);
    let at_stop = store.stats().cleaner_passes;
    let mut passes = at_stop;
    loop {
        std::thread::sleep(Duration::from_millis(200));
        let now = store.stats().cleaner_passes;
        if now == passes {
            break;
        }
        assert!(
            Instant::now() < quiet_by,
            "maintenance round never returned: {} passes since the writer stopped",
            now - at_stop
        );
        passes = now;
    }
    let delta = store.stats().since(&base);
    assert!(delta.cleaner_passes > 0, "the cleaner must have run");
    assert!(
        delta.maintenance_gave_up > 0,
        "fruitless passes must end rounds as gave-up: {delta:?}"
    );
    assert!(
        maintenance_rounds(&store) > rounds_before + 1,
        "rounds must complete, not run on"
    );
    for (slot, id) in ids.iter().enumerate() {
        assert_eq!(
            store.read(*id).unwrap(),
            expected[slot].to_le_bytes().repeat(4)
        );
    }
}

/// Inline maintenance, fixed-size log: a committer that runs out of
/// segments while another thread's cleaning pass is in flight finds that
/// pass holding the victims. Its round must wait the pass out and then
/// clean for itself — never report out-of-space because it could not
/// start a pass of its own. The pass is held open between two slices
/// until the committer has stalled, so the overlap is forced.
#[test]
fn stalled_inline_committer_waits_out_an_inflight_pass() {
    let cfg = ChunkStoreConfig {
        security: SecurityMode::Off,
        allow_growth: false,
        initial_segments: 8,
        maintenance_slice_chunks: 1,
        // Lazy overwrites stay counted live until a durable anchor
        // settles them; don't let that refuse the cleaning.
        max_utilization: 0.95,
        ..ChunkStoreConfig::small_for_tests()
    };
    let counter = VolatileCounter::new();
    let mem = MemStore::new();
    let store = create_on(Arc::new(mem.clone()), &counter, &cfg);

    // Garbage-heavy, checkpointed start: half the chunks overwritten, so
    // the pass below has partial victims to relocate slice by slice.
    let mut ids = Vec::new();
    for i in 0..24u32 {
        let id = store.allocate_chunk_id().unwrap();
        store.write(id, &i.to_le_bytes().repeat(75)).unwrap();
        ids.push(id);
    }
    store.commit(Durability::Durable).unwrap();
    for (i, id) in ids.iter().enumerate() {
        if i % 2 == 0 {
            store
                .write(*id, &(i as u32 + 500).to_le_bytes().repeat(60))
                .unwrap();
        }
    }
    store.commit(Durability::Durable).unwrap();
    store.checkpoint().unwrap();
    let hot = ids[1];
    let stalls_before = store.stats().maintenance_stalls;

    let last = std::thread::scope(|s| {
        let writer = s.spawn(|| {
            // Lazy overwrites take no maintenance until an append runs out
            // of segments and stalls.
            let mut batch = store.begin_batch();
            let mut n = 0u32;
            loop {
                batch.write(hot, &n.to_le_bytes().repeat(250)).unwrap();
                store
                    .commit_batch(batch, Durability::Lazy)
                    .unwrap_or_else(|e| panic!("commit {n} failed: {e}"));
                batch = store.begin_batch();
                if store.stats().maintenance_stalls > stalls_before {
                    break n;
                }
                n += 1;
            }
        });
        let mut held = false;
        store
            .clean_incremental_with(&mut |_slice| {
                if !held {
                    held = true;
                    // The pass is in flight and the store unlocked: wait
                    // until the writer's append has stalled behind it.
                    let deadline = Instant::now() + Duration::from_secs(20);
                    while store.stats().maintenance_stalls == stalls_before {
                        assert!(Instant::now() < deadline, "writer never stalled");
                        std::thread::sleep(Duration::from_millis(5));
                    }
                }
            })
            .unwrap();
        writer.join().unwrap()
    });
    assert!(store.stats().maintenance_stalls > stalls_before);
    store.commit(Durability::Durable).unwrap();
    drop(store);
    let store = open_on(Arc::new(mem), &counter, &cfg);
    assert_eq!(store.read(hot).unwrap(), last.to_le_bytes().repeat(250));
    for (i, id) in ids.iter().enumerate().filter(|(i, _)| *i != 1) {
        let want = if i % 2 == 0 {
            (i as u32 + 500).to_le_bytes().repeat(60)
        } else {
            (i as u32).to_le_bytes().repeat(75)
        };
        assert_eq!(store.read(*id).unwrap(), want);
    }
}
