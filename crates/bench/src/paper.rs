//! The paper's evaluation, one function per artifact.
//!
//! The model-only artifacts (Table 2, Figs. 2(a), 2(b), 3(a)) return the
//! tables they print; their curves are `dpc-model`'s and are tested there.
//! The experimental ones return an [`Artifact`]: the typed rows
//! `tests/paper.rs` asserts the paper's claims on, and the tables that
//! print them. Request counts are arguments (the `paper` binary passes
//! paper-scale counts, the tests reduced ones), and every run is
//! deterministic: seeded plans, seeded forced-hit draws, a virtual clock.
//!
//! Experimental series count *wire* bytes (payload + TCP/IP framing, what
//! the Sniffer measured) on the origin link; the analytical overlay is
//! `dpc-model`'s. Their divergence is the header-overhead gap the paper
//! explains in §6.

use std::time::Duration;

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_core::directory::DirectoryStats;
use dpc_core::ReplacePolicy;
use dpc_http::{Method, Request};
use dpc_model::curves::{fig2a as ratio_curve, fig2b as savings_curve, sweep as steps};
use dpc_model::curves::{fig3a_firewall, fig3a_network};
use dpc_model::{expected_bytes, prefer_dpc, ModelParams, ResponseSizes, ScanCosts};
use dpc_net::{LinkModel, ProtocolModel};
use dpc_proxy::{ProxyMode, Testbed, TestbedConfig};
use dpc_repository::datasets::{tick_quote, DatasetConfig};
use dpc_workload::{AccessPlan, PlannedRequest, Population, SiteKind, UserRef};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use crate::harness::{as_planned, drive, drive_costed, sweep_ratio, Run, SweepOutcome};
use crate::output::{f3, Table};

/// An experimental artifact: the rows its claims are checked on and the
/// tables that print them.
pub struct Artifact<R> {
    pub rows: R,
    pub tables: Vec<Table>,
}

/// Table 2's baseline parameters and the model's closed forms at them.
pub fn table2() -> Vec<Table> {
    let p = ModelParams::table2();
    let sizes = expected_bytes(&p);
    let scan = ScanCosts::from_bytes(&sizes).savings_percent();
    let mut params = Table::new("Table 2: baseline parameter settings", "parameter value");
    params.row(&[&"hit ratio (h)", &p.hit_ratio]);
    params.row(&[
        &"fragment size (s_e)",
        &format!("{} bytes", p.fragment_bytes),
    ]);
    params.row(&[&"fragments per page", &p.fragments_per_page]);
    params.row(&[&"pages", &p.pages]);
    params.row(&[&"header size (f)", &format!("{} bytes", p.header_bytes)]);
    params.row(&[&"tag size (g)", &format!("{} bytes", p.tag_bytes)]);
    params.row(&[&"cacheability factor", &p.cacheability]);
    params.row(&[&"requests in interval (R)", &p.requests]);
    let mut closed = Table::new("Closed-form values at the baseline", "quantity value");
    closed.row(&[
        &"B_NC (bytes served, no cache)",
        &format!("{:.0}", sizes.no_cache),
    ]);
    closed.row(&[
        &"B_C (bytes served, DPC)",
        &format!("{:.0}", sizes.with_cache),
    ]);
    closed.row(&[&"B_C / B_NC", &f3(sizes.ratio())]);
    closed.row(&[
        &"bandwidth savings",
        &format!("{:.1}%", sizes.savings_percent()),
    ]);
    closed.row(&[&"scan-cost savings (z=y)", &format!("{scan:.1}%")]);
    closed.row(&[&"Result 1: prefer DPC (B_NC > 2 B_C)?", &prefer_dpc(&sizes)]);
    vec![params, closed]
}

/// Fig. 2(a): analytical `B_C/B_NC` against fragment size. Above 1 as
/// `s_e → 0`, a steep drop below ~1 KB, flattening toward ~0.5 by 5 KB.
pub fn fig2a() -> Vec<Table> {
    let base = ModelParams::table2();
    let title = "Figure 2(a): B_C/B_NC vs fragment size (analytical)";
    let mut t = Table::new(title, "fragment_kb ratio_Bc_over_Bnc");
    for p in ratio_curve(&base, &steps(50.0, 5120.0, 24)) {
        t.row(&[&f3(p.x / 1024.0), &f3(p.y)]);
    }
    let [tiny, one_kb, five_kb] = [10.0, 1024.0, 5120.0].map(|s| ratio_curve(&base, &[s])[0].y);
    t.note(format!(
        "checkpoints: ratio(10 B) = {tiny:.3} (>1: tags dominate tiny fragments)"
    ));
    t.note(format!(
        "             ratio(1 KB) = {one_kb:.3} (paper: ~0.58)"
    ));
    t.note(format!(
        "             ratio(5 KB) = {five_kb:.3} (paper: flattens toward ~0.5)"
    ));
    vec![t]
}

/// Fig. 2(b): analytical savings against hit ratio, at Table 2
/// (cacheability 0.6) and at the cacheability 0.8 the published curve's
/// ≈72 % peak implies. Slightly negative at `h = 0`, where tags are pure
/// overhead.
pub fn fig2b() -> Vec<Table> {
    let table2 = ModelParams::table2();
    let calibrated = table2.fig2b_calibrated();
    let mut t = Table::new(
        "Figure 2(b): savings in bytes served (%) vs hit ratio (analytical)",
        "hit_ratio savings_pct_table2(x=0.6) savings_pct_calibrated(x=0.8)",
    );
    let savings = |p: &ModelParams, h: f64| savings_curve(p, &[h])[0].y;
    for h in steps(0.0, 1.0, 21) {
        t.row(&[
            &f3(h),
            &f3(savings(&table2, h)),
            &f3(savings(&calibrated, h)),
        ]);
    }
    // The closed form is h* = 2g/(s_e + 2g) ≈ 1.9 % at Table 2 sizes.
    let h_star = bisect(0.0, 0.2, |h| savings(&table2, h) < 0.0);
    t.note(format!(
        "break-even hit ratio h* = {h_star:.4} (paper: ~0.01)"
    ));
    let (peak, calibrated_peak) = (savings(&table2, 1.0), savings(&calibrated, 1.0));
    t.note(format!(
        "peak savings at h=1: table2 {peak:.1}%, calibrated {calibrated_peak:.1}% (paper curve: ~72%)"
    ));
    vec![t]
}

/// Fig. 3(a): network savings (upper curve) against firewall scan-cost
/// savings (lower curve) over cacheability, and Result 1's break-even. In
/// the calibrated series network savings stay positive over 20–100 %;
/// firewall savings start near −60 % and cross zero near 50 %.
pub fn fig3a() -> Vec<Table> {
    let table2 = ModelParams::table2();
    let calibrated = table2.with_fragment_bytes(1000.0).fig3a_calibrated();
    let mut t = Table::new(
        "Figure 3(a): cost savings vs cacheability (analytical)",
        "cacheability_pct network_savings_pct(calibrated) firewall_savings_pct(calibrated) network_savings_pct(table2) firewall_savings_pct(table2)",
    );
    for x in steps(0.2, 1.0, 17) {
        let [net, fw] = [fig3a_network, fig3a_firewall].map(|curve| {
            let y = |p: &ModelParams| f3(curve(p, &[x])[0].y);
            (y(&calibrated), y(&table2))
        });
        t.row(&[&format!("{:.0}", x * 100.0), &net.0, &fw.0, &net.1, &fw.1]);
    }
    let at = |x: f64| expected_bytes(&calibrated.with_cacheability(x));
    let x_star = bisect(0.2, 1.0, |x| !prefer_dpc(&at(x))) * 100.0;
    t.note(format!(
        "Result 1 break-even cacheability = {x_star:.1}% (paper: \"less than about 50%\u{2009}… not worth caching\")"
    ));
    vec![t]
}

/// Where in `[lo, hi]` a predicate true below the point and false above it
/// flips, to 50 halvings.
fn bisect(mut lo: f64, mut hi: f64, below: impl Fn(f64) -> bool) -> f64 {
    for _ in 0..50 {
        let mid = (lo + hi) / 2.0;
        if below(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    (lo + hi) / 2.0
}

/// One point of an experimental sweep.
#[derive(Debug, Clone, Copy)]
pub struct SweepRow {
    /// The swept value: KB (Fig. 3(b)), `h` (Fig. 5) or cacheability (Fig. 6).
    pub x: f64,
    /// The §5 model at this point.
    pub model: ResponseSizes,
    pub outcome: SweepOutcome,
}

/// Fig. 3(b): experimental and analytical `B_C/B_NC` against fragment size.
/// Experimental tracks analytical from above: TCP/IP headers are a larger
/// share of small responses.
pub fn fig3b(requests: usize, warmup: usize) -> Artifact<Vec<SweepRow>> {
    let table2 = ModelParams::table2();
    let at = |kb: f64| (kb, f3(kb), table2.with_fragment_bytes(kb * 1024.0));
    let points = [0.25, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0].map(at);
    let title = "Figure 3(b): B_C/B_NC vs fragment size";
    sweep(title, "fragment_kb", false, points, requests, warmup)
}

/// Fig. 5: experimental and analytical savings against hit ratio.
/// Experimental tracks analytical from below, the gap growing with `h` as
/// shrinking responses leave fixed framing a larger share.
pub fn fig5(requests: usize, warmup: usize) -> Artifact<Vec<SweepRow>> {
    let table2 = ModelParams::table2();
    let at = |h: f64| (h, f3(h), table2.with_hit_ratio(h));
    let points = [0.0, 0.2, 0.4, 0.6, 0.8, 0.9, 1.0].map(at);
    let title = "Figure 5: savings in bytes served (%) vs hit ratio";
    sweep(title, "hit_ratio", true, points, requests, warmup)
}

/// Fig. 6: experimental and analytical network savings against
/// cacheability. The paper sweeps 20–100 %; with 4 fragments a page the
/// origin realizes multiples of 25 %.
pub fn fig6(requests: usize, warmup: usize) -> Artifact<Vec<SweepRow>> {
    let table2 = ModelParams::table2();
    let at = |x: f64| (x, format!("{:.0}", x * 100.0), table2.with_cacheability(x));
    let points = [0.25, 0.5, 0.75, 1.0].map(at);
    let title = "Figure 6: network savings (%) vs cacheability";
    sweep(title, "cacheability_pct", true, points, requests, warmup)
}

/// Measure each `(x, printed x, model)` point on the testbed, the site
/// shaped and the hit ratio pinned as the model says. The table shows
/// `B_C/B_NC`, or with `savings` set, savings in % (`100 (1 - B_C/B_NC)`).
fn sweep<const N: usize>(
    title: &str,
    x_col: &str,
    savings: bool,
    points: [(f64, String, ModelParams); N],
    requests: usize,
    warmup: usize,
) -> Artifact<Vec<SweepRow>> {
    let unit = if savings { "savings_pct" } else { "ratio" };
    let shown = |r: f64| f3(if savings { (1.0 - r) * 100.0 } else { r });
    let headers =
        format!("{x_col} analytical_{unit} experimental_{unit}(wire) payload_{unit} measured_h");
    let mut t = Table::new(&format!("{title} (experimental + analytical)"), &headers);
    let rows = points.map(|(x, x_cell, model)| {
        let params = PaperSiteParams {
            fragment_bytes: model.fragment_bytes as usize,
            cacheability: model.cacheability,
            ..PaperSiteParams::default()
        };
        let outcome = sweep_ratio(params, model.hit_ratio, requests, warmup);
        let model = expected_bytes(&model);
        let (wire, payload) = (outcome.wire_ratio(), outcome.payload_ratio());
        let h = f3(outcome.cache.bem.hit_ratio());
        t.row(&[
            &x_cell,
            &shown(model.ratio()),
            &shown(wire),
            &shown(payload),
            &h,
        ]);
        SweepRow { x, model, outcome }
    });
    Artifact {
        rows: rows.into(),
        tables: vec![t],
    }
}

/// §3's baselines, measured.
pub struct Baselines {
    /// Experiment 1, Bob/Alice, every page checked against the origin's: a
    /// URL-keyed page cache, session-busted page-cache keys, the DPC, the
    /// DPC with its page tier on.
    pub personalization: [Run; 4],
    /// Experiment 2, price ticks on the stock-quote page: a page cache that
    /// purges the ticked page, then the DPC.
    pub over_invalidation: [Run; 2],
    /// Experiment 3, the paper site under content churn, every page checked
    /// against the origin's: ESI, then the DPC.
    pub churn: [Run; 2],
}

/// §3's baseline limitations: URL-keyed page caching serves wrong pages,
/// session-aware keys lose cross-user reuse, whole-page invalidation
/// regenerates what did not change, and ESI has no coherence channel.
/// Experiment 1 runs `min(requests, 300)` requests.
pub fn baselines(requests: usize) -> Artifact<Baselines> {
    let (personalization, t1) = personalization(requests.min(300));
    let (over_invalidation, t2) = over_invalidation(requests);
    let (churn, t3) = churn(requests);
    let rows = Baselines {
        personalization,
        over_invalidation,
        churn,
    };
    Artifact {
        rows,
        tables: vec![t1, t2, t3],
    }
}

/// A testbed serving the BooksOnline and brokerage sites.
fn demo_testbed(mode: ProxyMode, l1_budget_bytes: usize) -> Testbed {
    let dataset = DatasetConfig {
        users: 40,
        categories: 6,
        products_per_category: 4,
        symbols: 12,
        fragment_bytes: 512,
        ..DatasetConfig::default()
    };
    Testbed::build(TestbedConfig {
        mode,
        demo_sites: true,
        dataset,
        l1_budget_bytes,
        ..TestbedConfig::default()
    })
}

/// A table of runs checked against an oracle.
fn checked_table(title: &str, wrong_col: &str, labels: &[&str], runs: &[Run]) -> Table {
    let headers = format!("configuration {wrong_col} origin_requests origin_payload_bytes");
    let mut t = Table::new(title, &headers);
    for (label, r) in labels.iter().zip(runs) {
        t.row(&[
            label,
            &r.wrong_pages,
            &r.origin_requests,
            &r.wire.payload_bytes,
        ]);
    }
    t
}

/// Experiment 1: mixed registered and anonymous catalog traffic.
fn personalization(requests: usize) -> ([Run; 4], Table) {
    let oracle = demo_testbed(ProxyMode::PassThrough, 0);
    let site = SiteKind::BooksOnline { categories: 6 };
    let plan = AccessPlan::new(site, 1.0, Population::new(40, 0.5), 0xBA5E).requests(requests);
    let configs = [
        ("page cache (URL-keyed)", ProxyMode::PageCache, false, 0),
        (
            "page cache (session-aware keys)",
            ProxyMode::PageCache,
            true,
            0,
        ),
        ("dpc", ProxyMode::Dpc, false, 0),
        ("dpc + page tier", ProxyMode::Dpc, false, 64 << 10),
    ];
    let runs = configs.map(|(_, mode, session_keys, l1_budget_bytes)| {
        let tb = demo_testbed(mode, l1_budget_bytes);
        drive(&tb, &[], &plan, Some(&oracle), |_, r| {
            match r.user.cookie() {
                Some(user) if session_keys => format!("{}&sk={user}", r.target),
                _ => r.target.clone(),
            }
        })
    });
    let title = "1. Correctness under personalization (Bob/Alice)";
    let t = checked_table(title, "wrong_pages", &configs.map(|c| c.0), &runs);
    (runs, t)
}

/// Experiment 2, §3.2.1's stock-quote page: prices "become invalid
/// relatively quickly", so one symbol ticks every other request. A page
/// cache must purge and regenerate the whole page, headlines and research
/// too; the DPC regenerates the price fragment.
fn over_invalidation(requests: usize) -> ([Run; 2], Table) {
    let site = SiteKind::Brokerage { symbols: 12 };
    let plan = AccessPlan::new(site, 1.0, Population::new(40, 0.0), 0x1BAD5EED).requests(requests);
    let quote = |s: usize| format!("/quote.jsp?symbol=SYM{s}");
    let warm = (0..12).map(|s| PlannedRequest {
        target: quote(s),
        user: UserRef::Anonymous,
    });
    let warm: Vec<PlannedRequest> = warm.collect();
    let mut t = Table::new(
        "2. Over-invalidation under price ticks (stock-quote page)",
        "configuration origin_generation_ms origin_payload_bytes origin_requests",
    );
    let configs = [
        ("page cache + purge-on-tick", ProxyMode::PageCache),
        ("dpc (fragment invalidation)", ProxyMode::Dpc),
    ];
    let runs = configs.map(|(label, mode)| {
        let tb = demo_testbed(mode, 0);
        let mut tick_rng = StdRng::seed_from_u64(0x71CC);
        let run = drive(&tb, &warm, &plan, None, |i, r| {
            if i % 2 == 1 {
                let symbol = i / 2 % 12;
                tick_quote(tb.engine().repo(), &format!("SYM{symbol}"), &mut tick_rng);
                if mode == ProxyMode::PageCache {
                    let mut purge = Request::get(quote(symbol));
                    purge.method = Method::Purge;
                    let _ = tb.proxy().serve(purge);
                }
            }
            r.target.clone()
        });
        let ms = format!("{:.1}", run.generation.as_secs_f64() * 1e3);
        t.row(&[&label, &ms, &run.wire.payload_bytes, &run.origin_requests]);
        run
    });
    (runs, t)
}

/// Experiment 3: the paper site is ESI's best case (static layout,
/// independent fragments), but under churn an ESI edge cache has no
/// coherence channel and serves the old fragment until its TTL (§7 "Cache
/// Coherency"), while the origin's update bus invalidates the DPC's
/// directory.
fn churn(requests: usize) -> ([Run; 2], Table) {
    let site = SiteKind::Paper { pages: 10 };
    let plan = AccessPlan::new(site, 1.0, Population::new(8, 0.0), 0xE51).requests(requests);
    let configs = [("esi", ProxyMode::Esi), ("dpc", ProxyMode::Dpc)];
    let runs = configs.map(|(_, mode)| {
        let build = |mode| {
            Testbed::build(TestbedConfig {
                mode,
                ..TestbedConfig::default()
            })
        };
        let (tb, oracle) = (build(mode), build(ProxyMode::PassThrough));
        drive(&tb, &[], &plan, Some(&oracle), |i, r| {
            if i % 10 == 9 {
                // An editorial update to one fragment, in both repos.
                let (page, slot) = (i / 10 % 10, i % 4);
                paper_site::invalidate_fragment(tb.engine().repo(), page, slot);
                paper_site::invalidate_fragment(oracle.engine().repo(), page, slot);
            }
            r.target.clone()
        })
    });
    let title = "3. Dynamic page assembly (ESI) vs DPC under content churn";
    let t = checked_table(title, "stale_pages", &configs.map(|c| c.0), &runs);
    (runs, t)
}

/// The four ablations.
pub struct Ablation {
    /// The directory under each [`ReplacePolicy::ALL`] policy in turn.
    pub replacement: Vec<(ReplacePolicy, DirectoryStats)>,
    /// The model at Table 2 with the tag size `g` (bytes) varied.
    pub tag_size: Vec<(f64, ResponseSizes)>,
    /// DPC against pass-through on a TCP/IP wire, then on an ideal one.
    pub framing: [SweepOutcome; 2],
    /// Result 1's scan-cost savings with the DPC's scan cost `z/y` varied.
    pub scan_cost: Vec<(f64, ScanCosts)>,
}

/// Design choices the paper leaves open or motivates: the replacement
/// policy (every [`ReplacePolicy`] on one directory under pressure, the
/// only hit-ratio comparison the repository keeps), the tag size
/// `g` (why the BEM ships a small integer `dpcKey`, not the fragment id,
/// §4.3.3), the wire framing (which isolates §6's header gap), and the
/// DPC's scan cost `z` against the firewall's `y` (`z = y` is the paper's
/// conservative assumption). The framing runs measure
/// `min(requests, 600)` requests.
pub fn ablation(requests: usize) -> Artifact<Ablation> {
    let (replacement, t1) = replacement(requests);
    let (framing, t3) = framing(requests.min(600));
    let mut t2 = Table::new(
        "2. Model sensitivity to tag size g (Table 2 otherwise)",
        "tag_bytes_g ratio_Bc_over_Bnc savings_pct",
    );
    let sizes = |g: f64| expected_bytes(&ModelParams::table2().with_tag_bytes(g));
    let tag_size: Vec<_> = [2.0, 10.0, 50.0, 200.0, 512.0]
        .map(|g| (g, sizes(g)))
        .into();
    for (g, sizes) in &tag_size {
        t2.row(&[
            &format!("{g:.0}"),
            &f3(sizes.ratio()),
            &f3(sizes.savings_percent()),
        ]);
    }
    let mut t4 = Table::new(
        "4. Result 1 sensitivity to z/y (DPC scan vs firewall scan cost)",
        "z_over_y scan_savings_pct",
    );
    let calibrated = ModelParams::table2()
        .with_fragment_bytes(1000.0)
        .fig3a_calibrated();
    let sizes = expected_bytes(&calibrated.with_cacheability(0.8));
    let costs = |z: f64| ScanCosts::with_z_ratio(&sizes, z);
    let scan_cost: Vec<_> = [0.0, 0.5, 1.0, 2.0, 4.0].map(|z| (z, costs(z))).into();
    for (z, costs) in &scan_cost {
        t4.row(&[&f3(*z), &f3(costs.savings_percent())]);
    }
    let rows = Ablation {
        replacement,
        tag_size,
        framing,
        scan_cost,
    };
    Artifact {
        rows,
        tables: vec![t1, t2, t3, t4],
    }
}

/// 40 pages x 4 fragments x 60 % cacheable ≈ 96 fragments against a
/// directory of 48: about half the working set fits.
fn replacement(requests: usize) -> (Vec<(ReplacePolicy, DirectoryStats)>, Table) {
    let site = SiteKind::Paper { pages: 40 };
    let plan = AccessPlan::new(site, 1.0, Population::new(8, 0.0), 0xAB1A).requests(requests);
    let mut t = Table::new(
        "1. Replacement policy under capacity pressure",
        "policy hit_ratio evictions uncacheable origin_payload_bytes",
    );
    let rows = ReplacePolicy::ALL.map(|policy| {
        let paper_params = PaperSiteParams {
            pages: 40,
            ..PaperSiteParams::default()
        };
        let tb = Testbed::build(TestbedConfig {
            paper_params,
            capacity: 48,
            replace: policy,
            ..TestbedConfig::default()
        });
        let run = drive(&tb, &[], &plan, None, as_planned);
        let d = tb.engine().bem().directory_stats();
        let hit_ratio = f3(d.hit_ratio());
        t.row(&[
            &policy.name(),
            &hit_ratio,
            &d.evictions,
            &d.uncacheable,
            &run.wire.payload_bytes,
        ]);
        (policy, d)
    });
    (rows.into(), t)
}

fn framing(requests: usize) -> ([SweepOutcome; 2], Table) {
    let plan = AccessPlan::new(
        SiteKind::Paper { pages: 10 },
        1.0,
        Population::new(8, 0.0),
        0xF4A,
    );
    let (warm, measured) = (plan.requests(100), plan.requests(requests));
    let mut t = Table::new(
        "3. Wire framing: TCP/IP model vs ideal wire",
        "protocol payload_ratio wire_ratio framing_gap",
    );
    let protocols = [
        ("tcp/ip (mss 1460, 40B hdr)", ProtocolModel::default()),
        ("ideal (no framing)", ProtocolModel::ideal()),
    ];
    let rows = protocols.map(|(label, protocol)| {
        let run = |mode| {
            let config = TestbedConfig {
                mode,
                protocol,
                forced_hit_ratio: Some(0.8),
                ..TestbedConfig::default()
            };
            drive(&Testbed::build(config), &warm, &measured, None, as_planned)
        };
        let outcome = SweepOutcome {
            cache: run(ProxyMode::Dpc),
            no_cache: run(ProxyMode::PassThrough),
        };
        let (payload, wire) = (outcome.payload_ratio(), outcome.wire_ratio());
        t.row(&[&label, &f3(payload), &f3(wire), &f3(wire - payload)]);
        outcome
    });
    (rows, t)
}

/// The deployment case study, no-cache then DPC.
pub struct Deployment {
    pub runs: [Run; 2],
    /// Each measured request's origin generation cost, in request order.
    pub costs: [Vec<Duration>; 2],
    /// Arrival rate (per second) running the uncached origin at 90 %
    /// utilization ("as user load on a site increases, the site
    /// infrastructure is often unable to serve requests fast enough").
    pub lambda: f64,
    /// M/G/1 mean sojourn at `lambda` (Pollaczek–Khinchine, from the
    /// measured first and second moments of the generation cost). `None`
    /// when the queue diverges.
    pub sojourn: [Option<Duration>; 2],
    /// `sojourn` plus LAN transfer of the per-request origin bytes.
    pub e2e: [Option<Duration>; 2],
}

/// Pollaczek–Khinchine mean sojourn of an M/G/1 queue at arrival rate
/// `lambda` (per second) whose service times have mean `mean` and second
/// moment `second` (s²): `mean + λ·E[S²] / (2(1 − ρ))`, `ρ = λ·mean`.
/// `None` when `ρ ≥ 1`.
pub fn mg1_sojourn(lambda: f64, mean: f64, second: f64) -> Option<Duration> {
    let rho = lambda * mean;
    (rho < 1.0).then(|| Duration::from_secs_f64(mean + lambda * second / (2.0 * (1.0 - rho))))
}

/// Mean sojourn of a single FIFO server fed Poisson arrivals at `lambda`
/// (per second, seeded), serving `costs` in order, `passes` times over:
/// Lindley's recursion `W' = max(0, W + S − A)` for the wait, plus the
/// service time.
pub fn lindley_sojourn(costs: &[Duration], lambda: f64, passes: usize, seed: u64) -> Duration {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut wait, mut total, mut n) = (0.0f64, 0.0f64, 0u64);
    for service in std::iter::repeat_n(costs, passes).flatten() {
        let service = service.as_secs_f64();
        total += wait + service;
        n += 1;
        let gap = -(1.0 - rng.random::<f64>()).ln() / lambda;
        wait = (wait + service - gap).max(0.0);
    }
    Duration::from_secs_f64(total / n.max(1) as f64)
}

/// The §1/§8 claim of "order-of-magnitude reductions in bandwidth and
/// response times", on the brokerage site (personalized quote and
/// portfolio pages under price ticks): origin wire bytes, the simulated
/// origin generation cost (which drops when directory hits skip code
/// blocks and their queries), and response time under load.
pub fn deployment(requests: usize, warmup: usize) -> Artifact<Deployment> {
    let [(nc_run, nc_costs), (dpc_run, dpc_costs)] =
        [ProxyMode::PassThrough, ProxyMode::Dpc].map(|mode| deployment_run(mode, requests, warmup));
    let runs = [nc_run, dpc_run];
    let mean_cost = runs.map(|r| r.generation / requests as u32);
    let lambda = 0.9 / mean_cost[0].as_secs_f64();
    let lan = LinkModel::lan();
    let sojourn = runs.map(|r| {
        let second = r.generation_sq as f64 * 1e-18 / requests as f64;
        mg1_sojourn(
            lambda,
            (r.generation / requests as u32).as_secs_f64(),
            second,
        )
    });
    let e2e = [0, 1].map(|i| {
        let transfer = lan.transmit_time(runs[i].wire.payload_bytes / requests as u64) + lan.rtt();
        sojourn[i].map(|s| s + transfer)
    });
    let mut t = Table::new(
        "Deployment case study: brokerage site, no-cache vs DPC",
        "metric no_cache dpc reduction",
    );
    let x = |a: f64, b: f64| format!("{:.1}x", a / b);
    let [nc, dpc] = runs.map(|r| r.wire);
    let n = requests as u64;
    for (metric, a, b) in [
        ("origin wire bytes (Sniffer)", nc.wire_bytes, dpc.wire_bytes),
        ("origin payload bytes", nc.payload_bytes, dpc.payload_bytes),
        (
            "bytes per request (wire)",
            nc.wire_bytes / n,
            dpc.wire_bytes / n,
        ),
    ] {
        t.row(&[&metric, &a, &b, &x(a as f64, b as f64)]);
    }
    let [a, b] = mean_cost;
    let reduction = x(a.as_secs_f64(), b.as_secs_f64());
    t.row(&[
        &"mean origin generation time",
        &format!("{a:?}"),
        &format!("{b:?}"),
        &reduction,
    ]);
    let shown = e2e.map(|d| d.map_or("unstable (queue diverges)".into(), |d| format!("{d:?}")));
    let reduction = match e2e {
        [Some(a), Some(b)] => x(a.as_secs_f64(), b.as_secs_f64()),
        _ => "n/a".to_owned(),
    };
    let metric = format!("E2E response time @ λ={lambda:.0}/s (M/G/1 + LAN)");
    t.row(&[&metric, &shown[0], &shown[1], &reduction]);
    Artifact {
        rows: Deployment {
            runs,
            costs: [nc_costs, dpc_costs],
            lambda,
            sojourn,
            e2e,
        },
        tables: vec![t],
    }
}

fn deployment_run(mode: ProxyMode, requests: usize, warmup: usize) -> (Run, Vec<Duration>) {
    let dataset = DatasetConfig {
        symbols: 30,
        users: 200,
        fragment_bytes: 1024,
        ..DatasetConfig::default()
    };
    let tb = Testbed::build(TestbedConfig {
        mode,
        demo_sites: true,
        dataset,
        capacity: 8192,
        ..TestbedConfig::default()
    });
    let site = SiteKind::Brokerage { symbols: 30 };
    let plan = AccessPlan::new(site, 1.0, Population::new(200, 0.4), 0xDE9107);
    let plan = plan.requests(warmup + requests);
    let (warm, measured) = plan.split_at(warmup);
    let mut tick_rng = StdRng::seed_from_u64(0x71CC);
    drive_costed(&tb, warm, measured, None, |i, r| {
        // One price tick every 25 requests, the same seeded stream in both
        // configurations.
        if i % 25 == 24 {
            tick_quote(
                tb.engine().repo(),
                &format!("SYM{}", i / 25 % 30),
                &mut tick_rng,
            );
        }
        r.target.clone()
    })
}
