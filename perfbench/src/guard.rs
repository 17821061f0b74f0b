//! The run's watch: a stall dump and a deadline.
//!
//! When no operation completes for [`STALL_DUMP_AFTER`] inside the window
//! or the post-run audit, the program's own diagnostic dump (flight
//! recorder, in-flight operations, per-store state) is taken once, while
//! the stall is still going, so the state that caused it is on record.
//!
//! A run still going after its budget — the program wedged, or stalled
//! far beyond the window — is ended here instead of being killed from
//! outside with nothing to show: the stage it was in, how many operations
//! had completed and when the last one did, and a second dump go to
//! `.bench_out/` and standard error, and the process exits with code 3
//! without a result line.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, Instant};

/// Exit code of a run ended by its deadline.
pub const EXIT_DEADLINE: u8 = 3;

/// A stretch of the window or the audit without a completed operation
/// after which the stall dump is taken (a healthy run's slowest operation
/// takes a few hundred milliseconds).
pub const STALL_DUMP_AFTER: Duration = Duration::from_secs(2);

const POLL: Duration = Duration::from_millis(250);

/// Where a run is.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Provenance and calibration.
    Start = 0,
    /// Creating and loading the store.
    SetUp = 1,
    /// Warm-up and the measured window.
    Window = 2,
    /// The balance check.
    Balances = 3,
    /// The post-run proof audit.
    Audit = 4,
    /// Shutdown and the metrics.
    Report = 5,
}

const STAGE_NAMES: [&str; 6] = ["start", "set-up", "window", "balances", "audit", "report"];

static STAGE: AtomicUsize = AtomicUsize::new(0);
static OPS: AtomicU64 = AtomicU64::new(0);
/// Milliseconds from [`origin`] to the last completed operation or stage
/// change.
static LAST_OP_MS: AtomicU64 = AtomicU64::new(0);

fn origin() -> Instant {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    *ORIGIN.get_or_init(Instant::now)
}

fn now_ms() -> u64 {
    origin().elapsed().as_millis() as u64
}

/// Record that the run entered `stage`.
pub fn enter(stage: Stage) {
    STAGE.store(stage as usize, Ordering::Relaxed);
    LAST_OP_MS.store(now_ms(), Ordering::Relaxed);
}

/// Record a completed operation (a committed transfer, a verified proof).
pub fn op_done() {
    OPS.fetch_add(1, Ordering::Relaxed);
    LAST_OP_MS.store(now_ms(), Ordering::Relaxed);
}

/// A run's budget: 150 s, or the window plus 120 s for a window longer
/// than 30 s — under the 180 s a run may take at the benchmark's window,
/// with room for the build tool's start and the dump.
pub fn budget(seconds: f64) -> Duration {
    Duration::from_secs_f64(150f64.max(seconds + 120.0))
}

/// Start the watch thread. Dumps are written to `<prefix>-stall.json`
/// and `<prefix>-deadline.json`.
pub fn arm(budget: Duration, prefix: PathBuf) {
    let start = origin();
    std::thread::spawn(move || {
        let path = |kind: &str| {
            let mut name = prefix.file_name().unwrap_or_default().to_os_string();
            name.push(format!("-{kind}.json"));
            prefix.with_file_name(name)
        };
        let mut stall_dumped = false;
        while start.elapsed() < budget {
            std::thread::sleep(POLL.min(budget.saturating_sub(start.elapsed())));
            let stage = STAGE.load(Ordering::Relaxed);
            let idle_ms = now_ms().saturating_sub(LAST_OP_MS.load(Ordering::Relaxed));
            let measuring = stage == Stage::Window as usize || stage == Stage::Audit as usize;
            if !stall_dumped && measuring && idle_ms >= STALL_DUMP_AFTER.as_millis() as u64 {
                stall_dumped = true;
                dump(
                    &path("stall"),
                    &format!(
                        "perfbench: no operation completed for {:.1} s, in stage {}",
                        idle_ms as f64 / 1e3,
                        STAGE_NAMES[stage]
                    ),
                );
            }
        }
        let summary = format!(
            "perfbench: run still going after {:.0} s, in stage {}; \
             {} operations completed, the last {:.1} s after start",
            budget.as_secs_f64(),
            STAGE_NAMES[STAGE.load(Ordering::Relaxed)],
            OPS.load(Ordering::Relaxed),
            LAST_OP_MS.load(Ordering::Relaxed) as f64 / 1e3,
        );
        dump(&path("deadline"), &summary);
        eprintln!("{summary}");
        std::process::exit(i32::from(EXIT_DEADLINE));
    });
}

/// Write the program's diagnostic dump for `reason` to `path`.
fn dump(path: &Path, reason: &str) {
    let dump = tdb::obs::diag::collect(reason);
    let written = path
        .parent()
        .map_or(Ok(()), std::fs::create_dir_all)
        .and_then(|()| std::fs::write(path, dump.pretty()));
    match written {
        Ok(()) => eprintln!("{reason}: diagnostic dump in {}", path.display()),
        Err(e) => eprintln!("{reason}: could not write the diagnostic dump: {e}"),
    }
}
