//! # dpc-bench — regenerating every table and figure of the evaluation
//!
//! One binary per paper artifact (the stack they drive is described in
//! ARCHITECTURE.md):
//!
//! | binary | artifact |
//! |--------|----------|
//! | `params` | Table 2 baseline parameters |
//! | `fig2a` | Fig 2(a): analytical `B_C/B_NC` vs fragment size |
//! | `fig2b` | Fig 2(b): analytical savings % vs hit ratio |
//! | `fig3a` | Fig 3(a): network vs firewall savings over cacheability (+ Result 1) |
//! | `fig3b` | Fig 3(b): experimental + analytical `B_C/B_NC` vs fragment size |
//! | `fig5` | Fig 5: experimental + analytical savings % vs hit ratio |
//! | `fig6` | Fig 6: experimental + analytical savings % vs cacheability |
//! | `deployment` | §1/§8 case study: order-of-magnitude bandwidth & response-time reductions |
//! | `baselines` | §3 baseline limitations measured (wrong pages, over-invalidation, redundant work) |
//! | `ablation` | design-choice ablations (tag size, replacement policy, freeList reuse) |
//!
//! The experimental binaries run the full Figure 4 testbed on the metered
//! simulated network; "experimental" series use *wire* bytes (payload +
//! TCP/IP framing, what the Sniffer measured), while the analytical overlay
//! comes from `dpc-model`. Divergence between the two therefore reproduces
//! the header-overhead gap the paper explains in §6.

pub mod harness;
pub mod output;

pub use harness::{measure_mode, sweep_ratio, Measurement, SweepOutcome, SweepSpec};
pub use output::TablePrinter;
