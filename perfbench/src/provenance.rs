//! The provenance stamp every result carries: where and on what the
//! numbers were measured, plus a fixed calibration loop through
//! `tdb-crypto`'s public API so drift between hosts shows next to them.

use std::hint::black_box;
use std::time::Instant;

use tdb::crypto::aes::Block;
use tdb::crypto::{sha256, Aes128};
use tdb::obs::Json;

/// Host name, CPU count, revision and calibration for one run.
pub fn stamp(seed: u64) -> Json {
    let mut o = Json::obj();
    o.push("host", host());
    o.push(
        "available_parallelism",
        std::thread::available_parallelism().map_or(0, |n| n.get()),
    );
    o.push("revision", revision());
    o.push("seed", seed);
    let (sha_mb_s, aes_blocks_s) = calibrate();
    o.push("calib_sha256_mb_per_s", sha_mb_s);
    o.push("calib_aes128_blocks_per_s", aes_blocks_s);
    o
}

fn host() -> String {
    std::fs::read_to_string("/proc/sys/kernel/hostname")
        .ok()
        .or_else(|| std::env::var("HOSTNAME").ok())
        .map(|h| h.trim().to_string())
        .filter(|h| !h.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git revision of the working directory, read from `.git` without
/// running git; "unknown" outside a git checkout.
fn revision() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(rev) = read(&format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|rev| rev.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// SHA-256 throughput (MB/s) over 16 MiB and AES-128 block rate over
/// 2^20 blocks: fixed work, so the figures compare across hosts.
fn calibrate() -> (f64, f64) {
    let buf = vec![0x5Au8; 1 << 20];
    let t = Instant::now();
    for _ in 0..16 {
        black_box(sha256(black_box(&buf)));
    }
    let sha_mb_s = 16.0 * (1 << 20) as f64 / 1e6 / t.elapsed().as_secs_f64();

    let aes = Aes128::new(&[0x42; 16]);
    let mut block: Block = [0; 16];
    let blocks = 1u64 << 20;
    let t = Instant::now();
    for _ in 0..blocks {
        aes.encrypt_block(black_box(&mut block));
    }
    black_box(block);
    (sha_mb_s, blocks as f64 / t.elapsed().as_secs_f64())
}

/// The host's CPU time so far as (stolen, total) ticks, from the first
/// line of `/proc/stat`; `None` where it cannot be read. Stolen time is
/// time the hypervisor gave this machine's CPUs to other guests.
pub fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal [guest guest_nice],
    // where guest time is already counted in user.
    Some((*fields.get(7)?, fields.iter().take(8).sum()))
}
