//! The repository benchmark: embedded TPC-B, remote sharded TPC-B and a
//! proof audit, each with an end-to-end run and a traced per-layer run.
//! See `README.md` for the workloads, the metrics and how to run it.

pub mod guard;
pub mod layers;
pub mod provenance;
pub mod stats;
pub mod trace;
pub mod workload;

use tdb::obs::Json;
use workload::Outcome;

/// The result line: exactly `correct`, `attempted`, `failed` and
/// `metrics` (each metric as `{"value", "unit"}`).
pub fn result_line(outcome: &Outcome) -> String {
    let mut metrics = Json::obj();
    for m in &outcome.metrics {
        metrics.push(
            m.name.as_str(),
            Json::object([("value", Json::from(m.value)), ("unit", Json::from(m.unit))]),
        );
    }
    Json::object([
        ("correct", Json::from(outcome.correct)),
        ("attempted", Json::from(outcome.attempted)),
        ("failed", Json::from(outcome.failed)),
        ("metrics", metrics),
    ])
    .render()
}
