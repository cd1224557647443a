//! Replacement-policy grid: hit ratio + replay throughput for every
//! `dpc-policy` arm over the lab's trace family, at two capacity
//! pressures, plus the per-shard-vs-global LRU gap the ROADMAP asked to
//! measure.
//!
//! This is a *simulation* bench (`dpc_policy::lab`): no HTTP, no stores —
//! just the policy data structures against deterministic seeded traces,
//! so the numbers isolate replacement quality and bookkeeping cost. The
//! serving-path ablation (`dpc_bench::paper::ablation`) covers the
//! end-to-end view.
//!
//! Besides emitting `BENCH_policies.json`, the run *asserts* the
//! regression floor CI gates on:
//!
//! * no evicting policy falls below the FIFO baseline on the pure
//!   Zipf-0.9 trace (quick mode runs in CI on every PR);
//! * TinyLFU and 2Q beat plain LRU on the scan-interleaved trace;
//! * GDSF beats LRU on *byte* hit ratio under the size-skewed trace.
//!
//! Run: `cargo bench -p dpc-bench --bench policies`
//! Emits `BENCH_policies.json` at the workspace root.

use criterion::{criterion_group, criterion_main, Criterion};
use std::io::Write as _;
use std::time::Duration;

use dpc_policy::lab::{replay, LabResult, Trace};
use dpc_policy::ReplacePolicy;

/// Object population per trace (uniform-size traces use 4 KiB objects).
const OBJECTS: usize = 4096;
/// Uniform object size (must match `lab`'s default).
const OBJ_BYTES: u64 = 4096;
/// Hot-set / sweep shape of the scan-interleaved trace.
const SCAN_HOT: usize = 256;
const SCAN_LEN: usize = 1024;
const SCAN_PERIOD: usize = 512;

fn quick() -> bool {
    std::env::var_os("CRITERION_QUICK").is_some()
}

fn traces(ops: usize) -> Vec<Trace> {
    vec![
        Trace::zipf(OBJECTS, 0.6, ops, 0x60),
        Trace::zipf(OBJECTS, 0.9, ops, 0x90),
        Trace::zipf(OBJECTS, 1.1, ops, 0x110),
        Trace::size_skewed(OBJECTS, 1.1, ops, 0x517E),
        Trace::sequential(OBJECTS / 2, (ops / (OBJECTS / 2)).max(2)),
        Trace::scan_interleaved(SCAN_HOT, 0.9, SCAN_LEN, SCAN_PERIOD, ops, 0x5CA7),
        Trace::invalidation_bursts(OBJECTS, 0.9, 500, ops, 0x1B57),
    ]
}

fn find<'a>(
    points: &'a [LabResult],
    trace: &str,
    policy: &str,
    cap: u64,
    shards: usize,
) -> &'a LabResult {
    points
        .iter()
        .find(|p| {
            p.trace == trace && p.policy == policy && p.cap_bytes == cap && p.shards == shards
        })
        .unwrap_or_else(|| panic!("missing grid point {trace}/{policy}/{cap}/{shards}"))
}

fn bench_policies(c: &mut Criterion) {
    let ops = if quick() { 60_000 } else { 400_000 };
    // Capacity pressure: the uniform traces' working set is
    // OBJECTS × OBJ_BYTES = 16 MiB; run at 1/8 and 1/4 of it. Quick mode
    // keeps only the 1/8 point.
    let caps: &[u64] = if quick() {
        &[OBJECTS as u64 * OBJ_BYTES / 8]
    } else {
        &[
            OBJECTS as u64 * OBJ_BYTES / 8,
            OBJECTS as u64 * OBJ_BYTES / 4,
        ]
    };
    let traces = traces(ops);
    let mut points: Vec<LabResult> = Vec::new();

    // The grid is measured by the lab itself (each LabResult carries its
    // replay wall time -> mops_per_s in the JSON); registering a fake
    // criterion closure per point would only publish meaningless ~1 ns
    // timings. Criterion gets one honest microbench below: bookkeeping
    // cost of the most structure-heavy policy on a small reference trace.
    for trace in &traces {
        for &cap in caps {
            for policy in ReplacePolicy::ALL {
                let r = replay(policy, trace, cap, 1);
                println!(
                    "lab {:<20} {:<8} cap {:>8}: hit {:.4}  byte-hit {:.4}  ({:>7.2} Mops/s, {} evictions, {} rejections)",
                    r.trace, r.policy, r.cap_bytes, r.hit_ratio(), r.byte_hit_ratio(),
                    r.mops_per_s(), r.evictions, r.admission_rejections,
                );
                points.push(r);
            }
        }
    }
    let mut group = c.benchmark_group("policies");
    let reference = Trace::zipf(512, 0.9, 20_000, 0xBEEF);
    for policy in [ReplacePolicy::Lru, ReplacePolicy::TinyLfu] {
        group.bench_function(format!("replay-zipf0.9-20k-{}", policy.name()), |b| {
            b.iter(|| std::hint::black_box(replay(policy, &reference, 256 * 1024, 1).hits))
        });
    }
    group.finish();

    // Per-shard-vs-global LRU gap under Zipf 0.9 (the ROADMAP question):
    // same total budget, 1 (global oracle) / 4 / 16 independent shards.
    let zipf09 = traces.iter().find(|t| t.name == "zipf-0.9").expect("trace");
    let gap_cap = caps[0];
    let mut shard_points: Vec<LabResult> = Vec::new();
    for shards in [1usize, 4, 16] {
        let r = replay(ReplacePolicy::Lru, zipf09, gap_cap, shards);
        println!(
            "shard-gap lru zipf-0.9 cap {:>8} shards {:>2}: hit {:.4}",
            gap_cap,
            shards,
            r.hit_ratio()
        );
        shard_points.push(r);
    }

    // --- Regression floors (CI runs quick mode on every PR) -------------
    for &cap in caps {
        let fifo = find(&points, "zipf-0.9", "fifo", cap, 1).hit_ratio();
        for policy in ReplacePolicy::EVICTING {
            let hit = find(&points, "zipf-0.9", policy.name(), cap, 1).hit_ratio();
            assert!(
                hit >= fifo,
                "policy {} fell below the FIFO baseline on pure Zipf-0.9 at cap {}: {:.4} < {:.4}",
                policy.name(),
                cap,
                hit,
                fifo
            );
        }
        let lru = find(&points, "scan-interleaved", "lru", cap, 1).hit_ratio();
        for scan_resistant in ["tinylfu", "2q"] {
            let hit = find(&points, "scan-interleaved", scan_resistant, cap, 1).hit_ratio();
            assert!(
                hit > lru,
                "{scan_resistant} must beat LRU on the scan-interleaved trace at cap {cap}: {hit:.4} <= {lru:.4}"
            );
        }
        let lru_bytes = find(&points, "size-skewed", "lru", cap, 1).byte_hit_ratio();
        let gdsf_bytes = find(&points, "size-skewed", "gdsf", cap, 1).byte_hit_ratio();
        assert!(
            gdsf_bytes > lru_bytes,
            "GDSF must beat LRU on byte-hit under size skew at cap {cap}: {gdsf_bytes:.4} <= {lru_bytes:.4}"
        );
    }

    emit_json(&points, &shard_points, ops);
}

fn emit_json(points: &[LabResult], shard_points: &[LabResult], ops: usize) {
    let cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut json = format!(
        "{{\n  \"bench\": \"policies\",\n  \"unit\": \"hit_ratio\",\n  \"objects\": {OBJECTS},\n  \"ops\": {ops},\n  \"quick\": {},\n  \"host_cpus\": {cpus},\n  \"points\": [\n",
        quick()
    );
    for (i, p) in points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"trace\": \"{}\", \"policy\": \"{}\", \"cap_bytes\": {}, \"shards\": {}, \"hit_ratio\": {:.4}, \"byte_hit_ratio\": {:.4}, \"evictions\": {}, \"admission_rejections\": {}, \"invalidation_frees\": {}, \"mops_per_s\": {:.2}}}{}\n",
            p.trace,
            p.policy,
            p.cap_bytes,
            p.shards,
            p.hit_ratio(),
            p.byte_hit_ratio(),
            p.evictions,
            p.admission_rejections,
            p.invalidation_frees,
            p.mops_per_s(),
            if i + 1 < points.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"shard_gap_lru_zipf_0.9\": [\n");
    for (i, p) in shard_points.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"shards\": {}, \"cap_bytes\": {}, \"hit_ratio\": {:.4}}}{}\n",
            p.shards,
            p.cap_bytes,
            p.hit_ratio(),
            if i + 1 < shard_points.len() { "," } else { "" }
        ));
    }
    let global = shard_points.first().expect("shards=1 measured").hit_ratio();
    let sixteen = shard_points.last().expect("shards=16 measured").hit_ratio();
    json.push_str(&format!(
        "  ],\n  \"shard_gap_global_minus_16\": {:.4}\n}}\n",
        global - sixteen
    ));
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_policies.json");
    let mut file = std::fs::File::create(path).expect("create BENCH_policies.json");
    file.write_all(json.as_bytes())
        .expect("write BENCH_policies.json");
    println!("wrote {path}");
}

criterion_group!(
    name = policies;
    config = Criterion::default()
        .measurement_time(Duration::from_millis(50))
        .warm_up_time(Duration::from_millis(10));
    targets = bench_policies
);
criterion_main!(policies);
