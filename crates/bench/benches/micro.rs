//! Criterion micro-benchmarks for the hot paths the paper's cost model
//! cares about: template scanning/assembly (the per-byte `z`), directory
//! operations, KMP/multi-pattern firewall scans (the per-byte `y`), and
//! workload sampling.
//!
//! Run: `cargo bench -p dpc-bench`

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;
use std::time::Duration;

use dpc_core::prelude::*;
use dpc_core::tag;
use dpc_core::{Bem, BemConfig};
use dpc_firewall::{Firewall, Kmp, MultiPattern};
use dpc_workload::ZipfStream;

/// Build a BEM-instrumented template with `fragments` fragments of
/// `fragment_bytes` each, `hits` of which are GETs (cached), the rest SETs.
fn build_template(
    fragments: usize,
    fragment_bytes: usize,
    hits: usize,
) -> (Vec<u8>, FragmentStore) {
    let store = FragmentStore::new(fragments.max(1));
    let content = vec![b'x'; fragment_bytes];
    let mut buf = Vec::new();
    tag::write_preamble(&mut buf);
    for i in 0..fragments {
        tag::write_literal(&mut buf, b"<div>");
        let (key, gen) = (DpcKey(i as u32), i as u64 + 1);
        if i < hits {
            store.set(key, gen, bytes::Bytes::from(content.clone()));
            tag::write_get(&mut buf, key, gen);
        } else {
            tag::write_set(&mut buf, key, gen, &content);
        }
        tag::write_literal(&mut buf, b"</div>");
    }
    (buf, store)
}

fn bench_assembly(c: &mut Criterion) {
    let mut group = c.benchmark_group("assemble");
    for (label, hits) in [("all-hits", 16), ("all-misses", 0), ("mixed", 8)] {
        let (template, store) = build_template(16, 1024, hits);
        group.throughput(Throughput::Bytes((16 * 1024 + template.len()) as u64));
        group.bench_function(BenchmarkId::new("16x1KiB", label), |b| {
            b.iter(|| {
                let page = assemble(black_box(&template), &store).unwrap();
                black_box(page.html.len())
            })
        });
    }
    group.finish();
}

fn bench_scanner(c: &mut Criterion) {
    let mut group = c.benchmark_group("scan");
    let (template, _store) = build_template(32, 2048, 16);
    group.throughput(Throughput::Bytes(template.len() as u64));
    group.bench_function("template-ops", |b| {
        b.iter(|| {
            let scanner = tag::Scanner::new(black_box(&template)).unwrap();
            black_box(scanner.collect_ops().unwrap().len())
        })
    });
    group.finish();
}

fn bench_directory(c: &mut Criterion) {
    let mut group = c.benchmark_group("directory");
    let bem = Bem::new(BemConfig::default().with_capacity(100_000));
    let ids: Vec<FragmentId> = (0..10_000)
        .map(|i| FragmentId::with_params("f", &[("i", &i.to_string())]))
        .collect();
    // Warm: all ids resident.
    for id in &ids {
        let _ = bem.directory().lookup(id, Duration::from_secs(3600), &[]);
    }
    let mut i = 0usize;
    group.bench_function("lookup-hit", |b| {
        b.iter(|| {
            i = (i + 1) % ids.len();
            black_box(
                bem.directory()
                    .lookup(&ids[i], Duration::from_secs(3600), &[]),
            )
        })
    });
    let mut j = 0u64;
    group.bench_function("lookup-miss-then-invalidate", |b| {
        b.iter(|| {
            j += 1;
            let id = FragmentId::with_params("m", &[("j", &j.to_string())]);
            let r = bem.directory().lookup(&id, Duration::from_secs(3600), &[]);
            bem.directory().invalidate(&id);
            black_box(r)
        })
    });
    group.finish();
}

fn bench_firewall(c: &mut Criterion) {
    let mut group = c.benchmark_group("firewall");
    let payload = vec![b'a'; 64 * 1024];
    let kmp = Kmp::new(b"cmd.exe");
    group.throughput(Throughput::Bytes(payload.len() as u64));
    group.bench_function("kmp-64KiB", |b| {
        b.iter(|| black_box(kmp.find_first(black_box(&payload))))
    });
    let patterns: Vec<Vec<u8>> = (0..32)
        .map(|i| format!("signature-{i:02}-pattern").into_bytes())
        .collect();
    let ac = MultiPattern::new(&patterns);
    group.bench_function("aho-corasick-32rules-64KiB", |b| {
        b.iter(|| black_box(ac.any_match(black_box(&payload))))
    });
    let fw = Firewall::with_default_rules();
    group.bench_function("engine-scan-64KiB", |b| {
        b.iter(|| black_box(fw.scan(black_box(&payload)).allowed))
    });
    group.finish();
}

fn bench_workload(c: &mut Criterion) {
    let mut group = c.benchmark_group("workload");
    let mut stream = ZipfStream::new(10_000, 1.0, 42);
    group.bench_function("zipf-sample-10k", |b| {
        b.iter(|| black_box(stream.next_rank()))
    });
    group.finish();
}

fn bench_template_writer(c: &mut Criterion) {
    let mut group = c.benchmark_group("bem");
    let bem = Bem::new(BemConfig::default().with_capacity(1024));
    let content = vec![b'y'; 1024];
    group.bench_function("writer-4frags-hit-path", |b| {
        // First iteration warms the four fragments; every subsequent
        // iteration measures the GET-emission (hit) path.
        b.iter(|| {
            let mut w = bem.template_writer();
            for s in 0..4 {
                let id = FragmentId::with_params("bench", &[("s", &s.to_string())]);
                let content = content.clone();
                w.fragment(&id, FragmentPolicy::pinned(), move |out| {
                    out.extend_from_slice(&content)
                });
            }
            black_box(w.finish().len())
        })
    });
    group.finish();
}

criterion_group!(
    name = micro;
    config = Criterion::default().measurement_time(Duration::from_secs(3)).warm_up_time(Duration::from_secs(1));
    targets = bench_assembly, bench_scanner, bench_directory, bench_firewall, bench_workload, bench_template_writer
);
criterion_main!(micro);
