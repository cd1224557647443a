//! Randomized property tests for the DPC/BEM core.
//!
//! These check the three invariants the whole system's correctness rests
//! on:
//!
//! 1. **Template round-trip** — any byte content (including bytes that look
//!    like instructions) survives the write-template → scan → assemble
//!    pipeline verbatim.
//! 2. **End-to-end equivalence** — for any page recipe and any interleaving
//!    of requests, TTL expirations and invalidations, the page assembled at
//!    the DPC is byte-identical to the page the origin would emit with
//!    caching disabled (the paper's "guarantees correctness" claim).
//! 3. **Directory key conservation** — under arbitrary operation sequences,
//!    every `dpcKey` is in exactly one of {valid, freeList, never-used} and
//!    capacity is never exceeded.
//!
//! Cases are generated from a seeded [`StdRng`], so every run explores the
//! same corpus deterministically; bump the case counts or add seeds to
//! widen the search.

use std::time::Duration;

use dpc_core::prelude::*;
use dpc_core::tag;
use dpc_net::Clock;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

fn random_bytes(rng: &mut StdRng, max_len: usize) -> Vec<u8> {
    let len = rng.random_range(0..max_len);
    (0..len).map(|_| rng.random_range(0..=255u8)).collect()
}

// ---------------------------------------------------------------------------
// 1. Template round-trip
// ---------------------------------------------------------------------------

/// A step in a synthetic page recipe.
#[derive(Debug, Clone)]
enum Piece {
    Literal(Vec<u8>),
    Fragment { name: u8, content: Vec<u8> },
}

fn random_piece(rng: &mut StdRng) -> Piece {
    if rng.random_bool(0.5) {
        Piece::Literal(random_bytes(rng, 200))
    } else {
        Piece::Fragment {
            name: rng.random_range(0..=255u8),
            content: random_bytes(rng, 200),
        }
    }
}

#[test]
fn template_roundtrip_preserves_arbitrary_bytes() {
    let mut rng = StdRng::seed_from_u64(0x01_5EED);
    for _case in 0..128 {
        let pieces: Vec<Piece> = (0..rng.random_range(0..20usize))
            .map(|_| random_piece(&mut rng))
            .collect();
        let bem = Bem::new(BemConfig::default().with_capacity(64));
        let store = FragmentStore::new(64);

        // Expected page: plain concatenation.
        let mut expected = Vec::new();
        for piece in &pieces {
            match piece {
                Piece::Literal(b) => expected.extend_from_slice(b),
                Piece::Fragment { content, .. } => expected.extend_from_slice(content),
            }
        }

        // Render the same recipe twice (second render exercises GET paths).
        // Fragment ids carry the piece index: the same logical fragment must
        // always produce the same content (the id contract), so distinct
        // random contents get distinct ids.
        for round in 0..2 {
            let mut w = bem.template_writer();
            for (i, piece) in pieces.iter().enumerate() {
                match piece {
                    Piece::Literal(b) => w.literal(b),
                    Piece::Fragment { name, content } => {
                        let id = FragmentId::with_params("frag", &[("n", &format!("{i}.{name}"))]);
                        let content = content.clone();
                        w.fragment(&id, FragmentPolicy::pinned(), move |out| {
                            out.extend_from_slice(&content)
                        });
                    }
                }
            }
            let template = w.finish();
            let page = assemble(&template, &store).unwrap();
            assert_eq!(page.html, expected, "round {round}");
        }
    }
}

#[test]
fn raw_tag_writers_scan_back_exactly() {
    let mut rng = StdRng::seed_from_u64(0x02_5EED);
    for _case in 0..128 {
        let literals: Vec<Vec<u8>> = (0..rng.random_range(1..8usize))
            .map(|_| random_bytes(&mut rng, 64))
            .collect();
        let keys: Vec<u32> = (0..rng.random_range(1..8usize))
            .map(|_| rng.random_range(0..1000u32))
            .collect();
        // Interleave literals and SETs of random generations, scan, and
        // rebuild.
        let mut template = Vec::new();
        let mut want_heads = Vec::new();
        tag::write_preamble(&mut template);
        let mut expected_ops: Vec<(bool, Vec<u8>)> = Vec::new(); // (is_set, bytes)
        for (i, lit) in literals.iter().enumerate() {
            tag::write_literal(&mut template, lit);
            expected_ops.push((false, lit.clone()));
            if let Some(&k) = keys.get(i) {
                let content = vec![k as u8; (k % 50) as usize];
                let gen = rng.random_range(0..=u64::MAX);
                tag::write_set(&mut template, DpcKey(k), gen, &content);
                want_heads.push((DpcKey(k), gen));
                expected_ops.push((true, content));
            }
        }
        let scanner = tag::Scanner::new(&template).unwrap();
        let ops = scanner.collect_ops().unwrap();
        // Reconstruct literal stream and set stream.
        let mut got_literal = Vec::new();
        let mut got_sets = Vec::new();
        let mut got_heads = Vec::new();
        for op in ops {
            match op {
                tag::Op::Literal(b) => got_literal.extend_from_slice(b),
                tag::Op::Set { key, gen, content } => {
                    got_heads.push((key, gen));
                    got_sets.push(content.to_vec());
                }
                tag::Op::Get { .. } => {}
            }
        }
        let want_literal: Vec<u8> = expected_ops
            .iter()
            .filter(|(is_set, _)| !is_set)
            .flat_map(|(_, b)| b.clone())
            .collect();
        let want_sets: Vec<Vec<u8>> = expected_ops
            .into_iter()
            .filter(|(is_set, _)| *is_set)
            .map(|(_, b)| b)
            .collect();
        assert_eq!(got_literal, want_literal);
        assert_eq!(got_sets, want_sets);
        assert_eq!(got_heads, want_heads);
    }
}

// ---------------------------------------------------------------------------
// 2. End-to-end equivalence under churn
// ---------------------------------------------------------------------------

/// One simulated event against the system.
#[derive(Debug, Clone)]
enum Event {
    /// Serve page `p` and check it.
    Request(u8),
    /// Invalidate fragment `f` via a data-source update.
    Invalidate(u8),
    /// Advance the virtual clock by `ms` milliseconds.
    Advance(u16),
}

fn random_event(rng: &mut StdRng) -> Event {
    match rng.random_range(0..3u32) {
        0 => Event::Request(rng.random_range(0..6u8)),
        1 => Event::Invalidate(rng.random_range(0..12u8)),
        _ => Event::Advance(rng.random_range(0..2000u16)),
    }
}

/// Deterministic content for fragment `f` at version `v`: content changes
/// when the underlying "data" changes.
fn fragment_content(f: u8, version: u32) -> Vec<u8> {
    format!(
        "<frag id={f} v={version} data={}>",
        "x".repeat((f as usize % 7) * 10)
    )
    .into_bytes()
}

#[test]
fn dpc_serves_exactly_what_origin_would() {
    let mut rng = StdRng::seed_from_u64(0x03_5EED);
    for _case in 0..64 {
        let events: Vec<Event> = (0..rng.random_range(1..80usize))
            .map(|_| random_event(&mut rng))
            .collect();
        let capacity = rng.random_range(2..12usize);
        let (clock, handle) = Clock::virtual_clock();
        let bem = Bem::new(
            BemConfig::default()
                .with_capacity(capacity)
                .with_clock(clock),
        );
        let store = FragmentStore::new(capacity);
        // Page p uses fragments p, p+1, p+2 (mod 12): overlapping fragment
        // sets across pages, like shared navbars.
        let mut versions = [0u32; 12];

        for event in events {
            match event {
                Event::Advance(ms) => handle.advance(Duration::from_millis(ms as u64)),
                Event::Invalidate(f) => {
                    let f = f % 12;
                    versions[f as usize] += 1;
                    bem.on_data_update(&format!("tbl/{f}"));
                }
                Event::Request(p) => {
                    let frag_ids: Vec<u8> = (0..3).map(|i| (p + i) % 12).collect();
                    // Expected page from current versions.
                    let mut expected = format!("<page {p}>").into_bytes();
                    for &f in &frag_ids {
                        expected.extend_from_slice(&fragment_content(f, versions[f as usize]));
                    }
                    expected.extend_from_slice(b"</page>");

                    // Render through the BEM.
                    let mut w = bem.template_writer();
                    w.literal(format!("<page {p}>").as_bytes());
                    for &f in &frag_ids {
                        let content = fragment_content(f, versions[f as usize]);
                        let id = FragmentId::with_params("frag", &[("f", &f.to_string())]);
                        let policy = FragmentPolicy::ttl(Duration::from_secs(1))
                            .with_deps(&[&format!("tbl/{f}")]);
                        w.fragment(&id, policy, move |out| out.extend_from_slice(&content));
                    }
                    w.literal(b"</page>");
                    let template = w.finish();

                    let page = assemble(&template, &store).unwrap();
                    assert_eq!(page.html, expected);
                }
            }
            bem.directory()
                .check_invariants()
                .unwrap_or_else(|e| panic!("directory invariant violated: {e}"));
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Directory key conservation under arbitrary ops
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum DirOp {
    Lookup(u16),
    Invalidate(u16),
    InvalidateDep(u8),
    Advance(u16),
    Sweep,
}

fn random_dir_op(rng: &mut StdRng) -> DirOp {
    match rng.random_range(0..5u32) {
        0 => DirOp::Lookup(rng.random_range(0..200u16)),
        1 => DirOp::Invalidate(rng.random_range(0..200u16)),
        2 => DirOp::InvalidateDep(rng.random_range(0..10u8)),
        3 => DirOp::Advance(rng.random_range(0..5000u16)),
        _ => DirOp::Sweep,
    }
}

#[test]
fn directory_conserves_keys() {
    let mut rng = StdRng::seed_from_u64(0x04_5EED);
    for case in 0..96 {
        let ops: Vec<DirOp> = (0..rng.random_range(1..200usize))
            .map(|_| random_dir_op(&mut rng))
            .collect();
        let capacity = rng.random_range(1..20usize);
        let policy = ReplacePolicy::ALL[case % ReplacePolicy::ALL.len()];
        let (clock, handle) = Clock::virtual_clock();
        let bem = Bem::new(
            BemConfig::default()
                .with_capacity(capacity)
                .with_replace(policy)
                .with_clock(clock),
        );
        let dir = bem.directory();
        for op in ops {
            match op {
                DirOp::Lookup(n) => {
                    let id = FragmentId::with_params("f", &[("n", &n.to_string())]);
                    let dep = format!("tbl/{}", n % 10);
                    let _ = dir.lookup(&id, Duration::from_secs(2), &[dep]);
                }
                DirOp::Invalidate(n) => {
                    let id = FragmentId::with_params("f", &[("n", &n.to_string())]);
                    let _ = dir.invalidate(&id);
                }
                DirOp::InvalidateDep(d) => {
                    let _ = dir.invalidate_dep(&format!("tbl/{d}"));
                }
                DirOp::Advance(ms) => handle.advance(Duration::from_millis(ms as u64)),
                DirOp::Sweep => {
                    let _ = dir.sweep_expired();
                }
            }
            dir.check_invariants()
                .unwrap_or_else(|e| panic!("invariant violated ({policy:?}): {e}"));
            let stats = dir.stats();
            assert!(stats.valid_entries <= capacity);
            assert!(stats.free_keys <= capacity);
        }
    }
}
