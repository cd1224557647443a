//! The paper's Section 5 analytical model.
//!
//! Closed forms for *expected bytes served* with and without the dynamic
//! proxy cache, the firewall scan-cost comparison, and generators for every
//! analytical curve in the evaluation (Figures 2(a), 2(b), 3(a), and the
//! analytical overlays of Figures 3(b), 5, 6).
//!
//! Notation (the paper's Table 1):
//!
//! | symbol | meaning |
//! |--------|---------|
//! | `E = {e_1..e_m}` | set of fragments |
//! | `C = {c_1..c_n}` | set of pages |
//! | `E_i ⊆ E` | fragments of page `c_i` |
//! | `s_e` | average fragment size (bytes) |
//! | `g` | average tag size (bytes) |
//! | `f` | average header size (bytes) |
//! | `h` | hit ratio (fraction of cacheable fragments found in cache) |
//! | `X_j` | cacheability indicator of fragment `j` |
//! | `R` | requests in the observation period |
//! | `P(i)` | Zipfian page-access probability |
//! | `y`, `z` | firewall / DPC per-byte scan costs, `z ≈ y` |
//!
//! Response sizes (§5):
//!
//! ```text
//! S_nc(c_i) = Σ_j s_ej + f
//! S_c (c_i) = Σ_j [ X_j·( h·g + (1−h)(s_ej + 2g) ) + (1−X_j)·s_ej ] + f
//! B         = Σ_i S(c_i) · n_i(t),   n_i(t) = P(i)·R
//! ```
//!
//! and the scan-cost rule (Result 1): prefer the DPC iff `B_nc > 2·B_c`.
//!
//! ## Calibration note
//!
//! The paper's Figure 2(b)/3(a) curves are not reproducible from the
//! Table 2 defaults alone (e.g. 3(a)'s firewall-savings zero crossing at
//! ≈50% cacheability requires `h = 1` and negligible header `f`, and
//! 2(b)'s ≈72% peak savings requires cacheability ≈0.8). The
//! [`curves`] generators therefore emit both the Table-2-default series and
//! a "calibrated" series using those per-figure settings; EXPERIMENTS.md
//! tabulates both against the published curves.

pub mod bytes;
pub mod curves;
pub mod params;
pub mod scancost;

pub use bytes::{expected_bytes, PageSpec, ResponseSizes};
pub use curves::CurvePoint;
pub use params::ModelParams;
pub use scancost::{prefer_dpc, ScanCosts};
