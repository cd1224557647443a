//! The one measuring loop every experimental artifact runs: planned
//! requests through a Figure 4 testbed, read off at the Sniffer's
//! measurement point on the origin wire.

use std::time::Duration;

use dpc_appserver::apps::paper_site::PaperSiteParams;
use dpc_appserver::context::COST_HEADER;
use dpc_core::stats::BemStatsSnapshot;
use dpc_net::MeterSnapshot;
use dpc_proxy::{ProxyMode, Testbed, TestbedConfig};
use dpc_workload::{AccessPlan, PlannedRequest, Population, SiteKind};

/// What one measured run observed.
#[derive(Debug, Clone, Copy, Default)]
pub struct Run {
    /// The origin↔proxy wire over the measured requests, both directions:
    /// application payload, and wire bytes with TCP/IP framing (what the
    /// Sniffer reports).
    pub wire: MeterSnapshot,
    /// Requests the origin served, warm-up included.
    pub origin_requests: u64,
    /// BEM counters over the measured requests: the measured `h` and `g`.
    pub bem: BemStatsSnapshot,
    /// Origin generation cost summed over the measured requests. It is the
    /// simulated `X-Origin-Cost-Nanos` the repository charges per read, so
    /// it is a count, not a wall-clock timing.
    pub generation: Duration,
    /// Sum of the squared per-request generation costs, in ns²: with
    /// `generation` it gives the cost distribution's second moment.
    pub generation_sq: u128,
    /// Measured responses whose body differs from the oracle's.
    pub wrong_pages: usize,
}

/// Serve `warmup`, reset the meters, then serve `plan` through `tb`.
/// Before each measured request `prepare` may change the origin's data,
/// and names the target `tb` is asked for; given an `oracle`, every body
/// is compared with what it serves the same user for the planned target.
pub(crate) fn drive(
    tb: &Testbed,
    warmup: &[PlannedRequest],
    plan: &[PlannedRequest],
    oracle: Option<&Testbed>,
    prepare: impl FnMut(usize, &PlannedRequest) -> String,
) -> Run {
    drive_costed(tb, warmup, plan, oracle, prepare).0
}

/// [`drive`], also returning each measured request's generation cost in
/// request order.
pub(crate) fn drive_costed(
    tb: &Testbed,
    warmup: &[PlannedRequest],
    plan: &[PlannedRequest],
    oracle: Option<&Testbed>,
    mut prepare: impl FnMut(usize, &PlannedRequest) -> String,
) -> (Run, Vec<Duration>) {
    for r in warmup {
        let resp = tb.get(&r.target, r.user.cookie());
        assert!(resp.status.is_success(), "warm-up {}", r.target);
    }
    tb.reset_meters();
    let bem_before = tb.engine().bem().stats().snapshot();
    let mut run = Run::default();
    let mut costs = Vec::with_capacity(plan.len());
    for (i, r) in plan.iter().enumerate() {
        let resp = tb.get(&prepare(i, r), r.user.cookie());
        assert!(resp.status.is_success(), "{}", r.target);
        let cost: u64 = resp
            .headers
            .get(COST_HEADER)
            .and_then(|v| v.parse().ok())
            .unwrap_or(0);
        run.generation += Duration::from_nanos(cost);
        run.generation_sq += u128::from(cost).pow(2);
        costs.push(Duration::from_nanos(cost));
        if let Some(oracle) = oracle {
            let want = oracle.get(&r.target, r.user.cookie());
            run.wrong_pages += usize::from(resp.body != want.body);
        }
    }
    run.wire = tb.origin_wire();
    run.origin_requests = tb.origin_requests();
    run.bem = tb.engine().bem().stats().snapshot().since(&bem_before);
    (run, costs)
}

/// The planned target, unchanged.
pub(crate) fn as_planned(_: usize, r: &PlannedRequest) -> String {
    r.target.clone()
}

/// DPC against the uncached pass-through at one experimental point.
#[derive(Debug, Clone, Copy)]
pub struct SweepOutcome {
    pub cache: Run,
    pub no_cache: Run,
}

impl SweepOutcome {
    /// Experimental `B_C/B_NC` on wire bytes (the Sniffer view).
    pub fn wire_ratio(&self) -> f64 {
        self.cache.wire.wire_bytes as f64 / self.no_cache.wire.wire_bytes as f64
    }

    /// `B_C/B_NC` on application payload bytes (no framing).
    pub fn payload_ratio(&self) -> f64 {
        self.cache.wire.payload_bytes as f64 / self.no_cache.wire.payload_bytes as f64
    }

    /// Experimental savings % (wire bytes).
    pub fn wire_savings_percent(&self) -> f64 {
        (1.0 - self.wire_ratio()) * 100.0
    }
}

/// Serve `requests` paper-site requests after `warmup` unmeasured ones,
/// the BEM pinning `hit_ratio`, through the DPC and through pass-through.
pub(crate) fn sweep_ratio(
    params: PaperSiteParams,
    hit_ratio: f64,
    requests: usize,
    warmup: usize,
) -> SweepOutcome {
    let site = SiteKind::Paper {
        pages: params.pages,
    };
    // The paper site is session-independent.
    let plan = AccessPlan::new(site, 1.0, Population::new(16, 0.0), 0xF16);
    let plan = plan.requests(warmup + requests);
    let (warm, measured) = plan.split_at(warmup);
    let run = |mode| {
        let tb = Testbed::build(TestbedConfig {
            mode,
            paper_params: params,
            forced_hit_ratio: Some(hit_ratio),
            // Plenty of directory room: the paper's sweeps are not
            // capacity-bound (replacement is ablated separately).
            capacity: (params.pages * params.fragments_per_page * 2).max(64),
            ..TestbedConfig::default()
        });
        drive(&tb, warm, measured, None, as_planned)
    };
    SweepOutcome {
        cache: run(ProxyMode::Dpc),
        no_cache: run(ProxyMode::PassThrough),
    }
}
