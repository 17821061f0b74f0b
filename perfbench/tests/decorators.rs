//! The tracing decorators forward every trait method unchanged: the same
//! operations through traced and untraced substrates and sessions leave
//! the same committed state, balances and byte counts, and every call
//! returns the same answer.

use std::ops::Bound;
use std::sync::Arc;

use perfbench::trace::{Layer, Tracer};
use perfbench::workload::{Deployment, Rng, Sizes, Workload};
use tdb::proof::{wire, Verifier};
use tdb::session::with_bytes;
use tdb::{Durability, IndexKind, IndexSpec, Key};
use tpcb::{transfer_with_retry, TpcbRecord};

const SIZES: Sizes = Sizes {
    accounts: 200,
    tellers: 10,
    branches: 4,
    history: 20,
};

/// Drive every `Session`, `SessionTxn` and `SessionRead` method and
/// record what each returned. Byte counts are taken around the
/// transfers only.
fn transcript(traced: bool) -> (Vec<String>, Option<Arc<Tracer>>) {
    let tracer = traced.then(Tracer::new);
    if let Some(t) = &tracer {
        t.set_on(true);
    }
    let dep = Deployment::create(Workload::TpcbEmbedded, SIZES, tracer.as_ref()).unwrap();
    let session = dep.client(tracer.as_ref()).unwrap();
    let mut log = Vec::new();

    let before = dep.stats();
    let mut rng = Rng::new(42, 1);
    for i in 0..150u32 {
        let (a, t, b) = (rng.below(200), rng.below(10), rng.below(4));
        let delta = rng.delta();
        let transfer = || transfer_with_retry(&*session, true, a, t, b, delta, 20 + i);
        match &tracer {
            Some(tr) => tr.operation(u64::from(i) + 1, "transfer", transfer),
            None => transfer(),
        }
    }
    let after = dep.stats();
    log.push(format!(
        "bytes_appended {}",
        after.bytes_appended - before.bytes_appended
    ));
    log.push(format!(
        "disk_size {} shards {}",
        after.disk_size, after.shards
    ));

    // An aborted write leaves no trace.
    let t = session.begin().unwrap();
    let spec = IndexSpec::new("by-id", "tpcb.id", true, IndexKind::Hash).immutable();
    log.push(format!(
        "ensure existing {:?}, ensure without index {:?}",
        t.ensure_collection("account", &[spec]),
        t.ensure_collection("unindexed", &[]).map_err(|e| e.kind())
    ));
    let oid = t.lookup_ids("account", "by-id", &Key::U64(3)).unwrap()[0];
    let bytes = t.read("account", oid).unwrap();
    let locked = t.get_for_update("account", oid).unwrap();
    log.push(format!("txn read == locked read: {}", bytes == locked));
    t.write_back("account", oid, &locked).unwrap();
    t.abort().unwrap();

    let r = session.begin_read().unwrap();
    log.push(format!("count {:?}", r.count("history")));
    log.push(format!(
        "exact {:?}",
        r.exact("teller", "by-id", &Key::U64(7))
    ));
    log.push(format!(
        "range {:?}",
        r.range(
            "branch",
            "by-id",
            Bound::Included(Key::U64(1)),
            Bound::Excluded(Key::U64(3))
        )
    ));
    for table in ["account", "teller", "branch"] {
        let mut balances = Vec::new();
        for (_, oid) in r.scan(table, "by-id").unwrap() {
            let bytes = r.read(oid).unwrap();
            balances.push(
                with_bytes::<TpcbRecord, i64>(session.classes(), &bytes, |rec| rec.balance)
                    .unwrap(),
            );
        }
        log.push(format!("{table} balances {balances:?}"));
    }
    r.finish().unwrap();

    let verifier =
        Verifier::new(wire::decode_trust_anchor(&session.trust_anchor().unwrap()).unwrap());
    let p = session.begin_read_proven().unwrap();
    log.push(format!("commit_seq {:?}", p.commit_seq()));
    let point = p.read_proven(oid).unwrap();
    log.push(format!(
        "point value {:?} verifies {:?}",
        point.value,
        point.verify(&verifier)
    ));
    let keyed = p.exact_proven("account", "by-id", &Key::U64(3)).unwrap();
    log.push(format!(
        "keyed {:?} verifies {:?}",
        keyed.entries,
        keyed.verify(&verifier)
    ));
    p.finish().unwrap();

    let forked = session.fork().unwrap();
    log.push(format!(
        "forked stats shards {:?}",
        forked.stats().map(|s| s.shards)
    ));
    log.push(format!("checkpoint {:?}", session.checkpoint()));
    log.push(format!(
        "backup_full {:?}",
        session.backup_full().map_err(|e| e.kind())
    ));
    log.push(format!(
        "backup_incremental {:?}",
        session.backup_incremental().map_err(|e| e.kind())
    ));
    log.push(format!(
        "restore_latest {:?}",
        session.restore_latest().map_err(|e| e.kind())
    ));
    let t = session.begin().unwrap();
    log.push(format!("empty commit {:?}", t.commit(Durability::Durable)));
    drop((forked, session));
    dep.shutdown();
    (log, tracer)
}

#[test]
fn decorators_forward_every_call_unchanged() {
    let (plain, _) = transcript(false);
    let (traced, tracer) = transcript(true);
    assert_eq!(plain, traced);

    // The decorators were really in the path.
    let spans = tracer.unwrap().spans();
    for (layer, name) in [
        (Layer::Bench, "transfer"),
        (Layer::Tdb, "commit"),
        (Layer::Tdb, "exact_proven"),
        (Layer::Platform, "write_at"),
        (Layer::Platform, "increment"),
    ] {
        assert!(
            spans.iter().any(|s| s.layer == layer && s.name == name),
            "no {layer:?} {name} span recorded"
        );
    }
}
