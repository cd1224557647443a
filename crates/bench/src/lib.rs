//! # dpc-bench — the paper's tables and figures, and the benchmarks
//!
//! [`paper`] holds one function per artifact of the evaluation (the stack
//! they drive is described in ARCHITECTURE.md). The `paper` binary prints
//! them all at paper-scale request counts; `tests/paper.rs` asserts each
//! claim the paper makes about them at reduced counts.
//!
//! | function | artifact |
//! |----------|----------|
//! | [`paper::table2`] | Table 2 baseline parameters and the closed forms at them |
//! | [`paper::fig2a`] | Fig 2(a): analytical `B_C/B_NC` vs fragment size |
//! | [`paper::fig2b`] | Fig 2(b): analytical savings % vs hit ratio |
//! | [`paper::fig3a`] | Fig 3(a): network vs firewall savings over cacheability (+ Result 1) |
//! | [`paper::fig3b`] | Fig 3(b): experimental + analytical `B_C/B_NC` vs fragment size |
//! | [`paper::fig5`] | Fig 5: experimental + analytical savings % vs hit ratio |
//! | [`paper::fig6`] | Fig 6: experimental + analytical savings % vs cacheability |
//! | [`paper::baselines`] | §3 baseline limitations measured (wrong pages, over-invalidation, stale ESI fragments) |
//! | [`paper::deployment`] | §1/§8 case study: bandwidth and response-time reductions |
//! | [`paper::ablation`] | design-choice ablations (replacement policy, tag size, framing, scan cost) |
//!
//! The `micro` bench lives under `benches/`; `dpcbench`,
//! the end-to-end benchmark, is a package of its own under
//! `src/bin/dpcbench/`.

pub mod harness;
pub mod output;
pub mod paper;
