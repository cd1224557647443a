//! What the benchmark runs and what it reports: the four workloads and the
//! metric tables. `BENCHMARK.json` at the repository root states the same
//! tables for the driver; the smoke test holds the two together.

/// One traffic mix and the world it runs against.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub pages: usize,
    pub fragments_per_page: usize,
    pub cacheability: f64,
    /// `TestbedConfig::l1_budget_bytes`; 0 leaves the page tier off.
    pub l1_budget_bytes: usize,
    pub zipf_alpha: f64,
    /// `(users, registered share)`; `None` is an all-anonymous population.
    pub population: Option<(usize, f64)>,
    /// Requests per repetition in the `lat` and `sat` phases of a run with
    /// `--seconds 20`, sized on a 2-vCPU box so that fifteen repetitions
    /// measure for about twenty seconds. Other values of `--seconds` scale
    /// both counts in proportion.
    pub lat_requests: usize,
    pub sat_requests: usize,
    /// The driving thread invalidates one fragment per this many requests
    /// it sends.
    pub update_every: Option<usize>,
    /// Origin behind a three-node `RingCluster` with membership churn.
    pub ring: bool,
    /// Run the load generator on a CPU of its own instead of the serving
    /// stack's (see `cpu.rs` for why the stack and, usually, the clients
    /// share one).
    pub client_apart: bool,
    /// Requests replayed in the traced pass.
    pub trace_requests: usize,
}

/// The run length the request counts above are sized for.
pub const NOMINAL_SECONDS: u64 = 20;
pub const REPS: usize = 15;
pub const QUICK_REPS: usize = 3;
/// `--quick` sends this fraction of the nominal request counts.
pub const QUICK_DIVISOR: usize = 8;
pub const WARMUP_REQUESTS: usize = 4_000;
/// Times the world is built and warmed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 3;
pub const PROBE_ITERATIONS: usize = 10_000;
/// `sat` phase: connections, and requests each writes before it reads.
pub const SAT_CONNECTIONS: usize = 2;
pub const SAT_PIPELINE: usize = 8;
/// Every n-th response is compared byte for byte with the oracle; every
/// response has its status and `Content-Length` checked.
pub const ORACLE_EVERY: usize = 16;
/// Node id the traced pass's own pipeline announces to the origin: above
/// any id a world hands out (three ring nodes plus two joins per
/// repetition stay below 40).
pub const PIPELINE_NODE: u32 = 63;

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "l1_hot",
        why: "Zipf 1.1 over 32 pages with the page tier on: ~100% L1/L2 page hits, so only dpc-http, dpc-net and the page tier work",
        pages: 32,
        fragments_per_page: 4,
        cacheability: 0.6,
        l1_budget_bytes: 64 << 10,
        zipf_alpha: 1.1,
        population: None,
        lat_requests: 13_000,
        sat_requests: 64_000,
        update_every: None,
        ring: false,
        client_apart: true,
        trace_requests: 10_000,
    },
    Workload {
        name: "assemble",
        why: "page tier off: every request runs proxy -> origin -> BEM/directory -> tag scan -> firewall -> rope assembly; carries the bandwidth claim",
        pages: 256,
        fragments_per_page: 8,
        cacheability: 0.75,
        l1_budget_bytes: 0,
        zipf_alpha: 0.9,
        population: None,
        lat_requests: 4_500,
        sat_requests: 9_000,
        update_every: None,
        ring: false,
        client_apart: false,
        trace_requests: 2_000,
    },
    Workload {
        name: "churn",
        why: "session-keyed pages with one fragment invalidated per 200 requests: update bus, epoch bump, stale eviction and SET path beside the reads",
        pages: 256,
        fragments_per_page: 8,
        cacheability: 0.75,
        l1_budget_bytes: 256 << 10,
        zipf_alpha: 0.9,
        population: Some((64, 0.5)),
        lat_requests: 3_500,
        sat_requests: 11_600,
        update_every: Some(200),
        ring: false,
        client_apart: false,
        trace_requests: 2_000,
    },
    Workload {
        name: "ring3",
        why: "three-node ring with a join and a leave in every phase and gossiped invalidations: routing, lazy peer-fetch hand-off, scrub, refresh/bypass repair",
        pages: 128,
        fragments_per_page: 4,
        cacheability: 1.0,
        l1_budget_bytes: 0,
        zipf_alpha: 0.9,
        population: None,
        lat_requests: 5_700,
        sat_requests: 11_400,
        update_every: Some(100),
        ring: true,
        client_apart: false,
        trace_requests: 2_000,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Cacheable fragment slots per page: invalidations pick among these.
    pub fn cacheable_slots(&self) -> usize {
        (self.fragments_per_page as f64 * self.cacheability).round() as usize
    }
}

/// How much of the nominal request counts one run sends.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    pub quick: bool,
    pub seconds: u64,
}

impl Scale {
    fn of(&self, nominal: usize) -> usize {
        let n = if self.quick {
            nominal / QUICK_DIVISOR
        } else {
            (nominal as u64 * self.seconds / NOMINAL_SECONDS) as usize
        };
        // Whole pipelined batches on every `sat` connection.
        n.next_multiple_of(SAT_CONNECTIONS * SAT_PIPELINE)
    }

    pub fn reps(&self) -> usize {
        if self.quick {
            QUICK_REPS
        } else {
            REPS
        }
    }

    pub fn lat(&self, w: &Workload) -> usize {
        self.of(w.lat_requests)
    }

    pub fn sat(&self, w: &Workload) -> usize {
        self.of(w.sat_requests)
    }

    pub fn warmup(&self) -> usize {
        if self.quick {
            WARMUP_REQUESTS / 10
        } else {
            WARMUP_REQUESTS
        }
    }

    pub fn setup_repeats(&self) -> usize {
        if self.quick {
            1
        } else {
            SETUP_REPEATS
        }
    }

    pub fn trace_requests(&self, w: &Workload) -> usize {
        if self.quick {
            200
        } else {
            w.trace_requests
        }
    }

    pub fn probe_iterations(&self) -> usize {
        if self.quick {
            PROBE_ITERATIONS / 10
        } else {
            PROBE_ITERATIONS
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Relative worsening that counts as a regression; end-to-end only.
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Metric {
    Metric {
        name,
        unit,
        better,
        bound: None,
    }
}

use Better::{Higher, Lower};

/// The bounds are three times the spread (interquartile range over median)
/// of ten runs on ten seeds on the box the benchmark was built on, capped
/// at the driver's 0.25; README, "Noise floor", has the measurements. The
/// issue hoped for 0.10 / 0.10 / 0.15 / 0.01 on the first four.
pub const END_TO_END: [Metric; 6] = [
    e2e("throughput_rps", "requests/s", Higher, 0.25),
    e2e("latency_p50_us", "us", Lower, 0.20),
    e2e("latency_p95_us", "us", Lower, 0.25),
    e2e("origin_wire_bytes_per_page", "bytes", Lower, 0.20),
    e2e("peak_rss_mb", "MiB", Lower, 0.10),
    e2e("setup_s", "s", Lower, 0.25),
];

/// The end-to-end metrics that have one value per repetition, and so a
/// `driver.rep_iqr_pct.*` noise floor.
pub const PER_REP: [&str; 3] = ["throughput_rps", "latency_p50_us", "latency_p95_us"];

pub const PER_LAYER: [Metric; 62] = [
    layer("http.front_hop_us", "us", Lower),
    layer("http.origin_hop_us", "us", Lower),
    layer("http.parse_request_ns", "ns", Lower),
    layer("http.serialize_response_ns", "ns", Lower),
    layer("http.origin_hop_codec_ns", "ns", Lower),
    layer("net.sim_roundtrip_us", "us", Lower),
    layer("net.frame_codec_ns", "ns", Lower),
    layer("net.origin_wire_packets_per_page", "count", Lower),
    layer("net.client_wire_bytes_per_page", "bytes", Lower),
    layer("proxy.l1_hit_us", "us", Lower),
    layer("proxy.l2_hit_us", "us", Lower),
    layer("proxy.assembled_us", "us", Lower),
    layer("proxy.bypass_us", "us", Lower),
    layer("proxy.peer_fetched_us", "us", Lower),
    layer("proxy.serve_us", "us", Lower),
    layer("proxy.l1_hit_share", "ratio", Higher),
    layer("proxy.l2_hit_share", "ratio", Higher),
    layer("proxy.assembled_share", "ratio", Lower),
    layer("proxy.bypass_share", "ratio", Lower),
    layer("proxy.l1_stale_evictions", "count/kreq", Lower),
    layer("proxy.l2_stale_evictions", "count/kreq", Lower),
    layer("proxy.page_evictions", "count/kreq", Lower),
    layer("proxy.page_admission_rejections", "count/kreq", Lower),
    layer("core.assemble_rope_ns", "ns", Lower),
    layer("core.tag_scan_ns", "ns", Lower),
    layer("core.bem_fragment_hit_ns", "ns", Lower),
    layer("core.bem_fragment_miss_ns", "ns", Lower),
    layer("core.invalidate_dep_us", "us", Lower),
    layer("core.directory_hit_ratio", "ratio", Higher),
    layer("core.directory_invalidations", "count", Lower),
    layer("core.directory_evictions", "count", Lower),
    layer("core.flight_coalesced_waits", "count", Lower),
    layer("core.asm_gets_per_page", "count", Higher),
    layer("core.asm_sets_per_page", "count", Lower),
    layer("core.tag_bytes_per_page", "bytes", Lower),
    layer("appserver.serve_us", "us", Lower),
    layer("repository.get_ns", "ns", Lower),
    layer("repository.update_us", "us", Lower),
    layer("firewall.scan_ns", "ns", Lower),
    layer("firewall.scan_ns_per_kib", "ns", Lower),
    layer("cluster.owner_of_ns", "ns", Lower),
    layer("cluster.gossip_round_us", "us", Lower),
    layer("cluster.join_ms", "ms", Lower),
    layer("cluster.leave_ms", "ms", Lower),
    layer("cluster.peer_fetch_hits_per_kreq", "count/kreq", Higher),
    layer("cluster.peer_fetch_misses_per_kreq", "count/kreq", Lower),
    layer("cluster.refresh_refetches_per_kreq", "count/kreq", Lower),
    layer("cluster.slots_scrubbed", "count", Lower),
    layer("metrics.scrape_ms", "ms", Lower),
    layer("trace.spans_per_req", "count", Lower),
    layer("trace.ring_overwrites", "count", Lower),
    layer("driver.latency_p99_us", "us", Lower),
    layer("driver.latency_p999_us", "us", Lower),
    layer("driver.cpu_us_per_req", "us", Lower),
    layer("driver.rep_iqr_pct.throughput_rps", "%", Lower),
    layer("driver.rep_iqr_pct.latency_p50_us", "%", Lower),
    layer("driver.rep_iqr_pct.latency_p95_us", "%", Lower),
    layer("driver.trace_overhead_pct", "%", Lower),
    layer("driver.ladder_violations", "count", Lower),
    layer("driver.failed_share", "ratio", Lower),
    layer("driver.routing_retries", "count", Lower),
    layer("driver.pipeline_mismatches", "count", Lower),
];
