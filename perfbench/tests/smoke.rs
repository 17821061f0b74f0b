//! A small-size run of every workload, end-to-end and traced: each passes
//! its correctness gate and reports exactly the metrics `BENCHMARK.json`
//! names, with their units.

use perfbench::workload::{run, RunConfig, Sizes, Workload};
use tdb::obs::Json;

fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
    doc.get(section)
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .map(|m| {
            let field = |k| m.get(k).and_then(Json::as_str).unwrap().to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

fn smoke(workload: Workload, trace: bool) {
    let mut cfg = RunConfig::new(workload, 7, 1.0, trace);
    cfg.sizes = Sizes {
        accounts: 300,
        tellers: 10,
        branches: 5,
        history: 50,
    };
    cfg.setups = cfg.setups.min(2);
    cfg.warmup_s = 0.2;
    cfg.audit_s = 0.2;
    let out = run(&cfg).unwrap();
    assert!(out.correct, "{}", out.report.pretty());
    assert_eq!(out.failed, 0);
    assert!(out.attempted > 0);
    let reported: Vec<(String, String)> = out
        .metrics
        .iter()
        .map(|m| {
            assert!(m.value.is_finite(), "{} = {}", m.name, m.value);
            (m.name.clone(), m.unit.to_string())
        })
        .collect();
    let section = if trace { "per_layer" } else { "end_to_end" };
    assert_eq!(
        reported,
        declared(section),
        "{} trace={trace}",
        workload.name()
    );
    if !trace {
        for m in &out.metrics {
            assert!(m.value > 0.0, "{} reported {} = 0", workload.name(), m.name);
        }
    }
}

#[test]
fn tpcb_embedded_smoke() {
    smoke(Workload::TpcbEmbedded, false);
    smoke(Workload::TpcbEmbedded, true);
}

#[test]
fn tpcb_remote_smoke() {
    smoke(Workload::TpcbRemote, false);
    smoke(Workload::TpcbRemote, true);
}

#[test]
fn proof_audit_smoke() {
    smoke(Workload::ProofAudit, false);
    smoke(Workload::ProofAudit, true);
}
