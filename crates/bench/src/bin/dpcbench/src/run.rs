//! One workload, start to finish: set-up, the repetitions, the traced
//! pass, and the arithmetic that turns samples and scrapes into metrics.

use std::time::Instant;

use crate::cpu::Placement;
use crate::drive::{
    generate_plan, lat_phase, sat_phase, warm_up, ClusterTimes, Lane, Membership, Oracle, Tally,
};
use crate::report::Record;
use crate::spec::{Workload, PER_REP, SAT_CONNECTIONS};
use crate::stats::{iqr_pct, median, percentile, quartiles, sorted};
use crate::trace::{probes, traced_pass, Probes, Trace, PIPELINE_CHILDREN};
use crate::world::{Class, Conn, Scrape, World};
use crate::Args;

/// Classes with fewer samples than this in the traced pass have no median
/// worth reporting.
const MIN_CLASS_SAMPLES: usize = 10;

pub fn run_workload(w: &'static Workload, args: &Args) -> Record {
    let run_start = Instant::now();
    let placement = Placement::choose(w.client_apart);
    let scale = args.scale();
    let (reps, lat_n, sat_n) = (scale.reps(), scale.lat(w), scale.sat(w));
    let (warmup_n, trace_n) = (scale.warmup(), scale.trace_requests(w));
    let stream_len = warmup_n + reps * (lat_n + sat_n) + trace_n;
    let (plan, mut stream) = generate_plan(w, args.seed, stream_len);
    let oracle = Oracle::build(w);
    let warmup_ids = stream.take(warmup_n);

    // Set-up is world construction plus the warm-up pass, done several
    // times over so its median is steady; the last world is the one
    // measured.
    let mut total = Tally::default();
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..scale.setup_repeats() {
        drop(built.take());
        let t0 = Instant::now();
        let world = World::build(w, args.seed, placement);
        let mut conns: Vec<Conn> = (0..SAT_CONNECTIONS).map(|_| world.connect()).collect();
        let mut lane = Lane::new(&world, &oracle, &plan, w, 0);
        warm_up(&mut lane, &mut conns[0], &warmup_ids);
        setup_s.push(t0.elapsed().as_secs_f64());
        total.add(&lane.tally);
        built = Some((world, conns));
    }
    let (world, mut conns) = built.expect("at least one set-up");

    // Each lane picks its own update targets.
    let mut lanes: Vec<Lane> = (0..SAT_CONNECTIONS)
        .map(|i| Lane::new(&world, &oracle, &plan, w, args.seed ^ (0x5EED + i as u64)))
        .collect();
    let join_in_lat = Membership {
        join_at: Some(5 * lat_n / 6),
        leave_at: None,
    };
    let leave_in_sat = Membership {
        join_at: None,
        leave_at: Some(sat_n / SAT_CONNECTIONS / 6),
    };

    let before = world.scrape(&mut conns[0]);
    let mut raw: [Vec<f64>; 3] = Default::default();
    let mut gauged = Gauged::default();
    let mut pooled_lat = Vec::with_capacity(reps * lat_n);
    let mut sat_cpu_us = 0.0;
    for _ in 0..reps {
        let samples = lat_phase(
            &mut lanes[0],
            &mut conns[0],
            &stream.take(lat_n),
            join_in_lat,
        );
        let ordered = sorted(samples.iter().map(|(us, _)| *us).collect());
        pooled_lat.extend(samples);
        gauged.end_phase(&mut lanes, false);
        let cpu0 = process_cpu_us();
        let wall_s = sat_phase(&mut lanes, &mut conns, &stream.take(sat_n), leave_in_sat);
        sat_cpu_us += process_cpu_us() - cpu0;
        gauged.end_phase(&mut lanes, true);
        raw[0].push(sat_n as f64 / wall_s);
        raw[1].push(percentile(&ordered, 0.50));
        raw[2].push(percentile(&ordered, 0.95));
    }
    let after = world.scrape(&mut conns[0]);
    let measured_s = run_start.elapsed().as_secs_f64();

    // What the host did to the CPU's speed is taken out of each
    // repetition, where the gauge could see it.
    let (lat_slowdown, sat_slowdown) = if placement.shares_cpu() {
        gauged.slowdowns()
    } else {
        (vec![1.0; reps], vec![1.0; reps])
    };
    let sped_up = |values: &[f64], slowdowns: &[f64]| -> Vec<f64> {
        values.iter().zip(slowdowns).map(|(v, f)| v * f).collect()
    };
    let slowed = |values: &[f64], slowdowns: &[f64]| -> Vec<f64> {
        values.iter().zip(slowdowns).map(|(v, f)| v / f).collect()
    };
    let at_full_speed = [
        sped_up(&raw[0], &sat_slowdown),
        slowed(&raw[1], &lat_slowdown),
        slowed(&raw[2], &lat_slowdown),
    ];

    let mut in_reps = Tally::default();
    let mut times = ClusterTimes::default();
    for lane in &mut lanes {
        in_reps.add(&lane.tally);
        times.add(std::mem::take(&mut lane.times));
    }
    total.add(&in_reps);
    // Pages the measured world delivered since it was built.
    let pages_since_birth = (warmup_n as u64 + in_reps.attempted) as f64;

    let end_to_end = vec![
        ("throughput_rps", quartiles(&at_full_speed[0]).1),
        ("latency_p50_us", quartiles(&at_full_speed[1]).0),
        ("latency_p95_us", quartiles(&at_full_speed[2]).0),
        (
            "origin_wire_bytes_per_page",
            after.sum("dpc_wire_bytes_total", "wire=\"origin.") / pages_since_birth,
        ),
        ("peak_rss_mb", peak_rss_mib()),
        ("setup_s", median(&setup_s)),
    ];

    let mut per_layer = Vec::new();
    let mut trace = None;
    let mut mismatches = 0;
    if args.trace {
        let lane = &mut lanes[0];
        let before_pass = lane.tally.clone();
        let pass = traced_pass(lane, &mut conns[0], &mut stream, trace_n);
        total.attempted += lane.tally.attempted - before_pass.attempted;
        total.failed += lane.tally.failed - before_pass.failed;
        total.retried += lane.tally.retried - before_pass.retried;
        mismatches = pass.mismatches;
        let probed = probes(
            &world,
            w.pages,
            w.cacheable_slots(),
            scale.probe_iterations(),
        );
        let layers = Layers {
            before: &before,
            after: &after,
            in_reps: &in_reps,
            total: &total,
            times: &times,
            pass: &pass,
            probed: &probed,
            per_rep: &at_full_speed,
            pooled_lat,
            sat_cpu_us_per_req: sat_cpu_us / (reps * sat_n) as f64,
        };
        per_layer = layers.metrics();
        trace = Some(pass);
    }

    let [thr, p50, p95] = raw;
    Record {
        workload: w.name,
        seed: args.seed,
        scale,
        placement,
        samples_per_rep: (lat_n, sat_n),
        end_to_end,
        per_layer,
        per_rep: vec![
            (PER_REP[0], thr),
            (PER_REP[1], p50),
            (PER_REP[2], p95),
            ("lat_slowdown", lat_slowdown),
            ("sat_slowdown", sat_slowdown),
        ],
        attempted: total.attempted,
        failed: total.failed + mismatches,
        measured_s,
        wall_s: run_start.elapsed().as_secs_f64(),
        trace,
    }
}

/// The speed gauge's readings, phase by phase.
#[derive(Default)]
struct Gauged {
    /// Every sample of the run, for the undisturbed level.
    all: Vec<f64>,
    /// Mean sample of each `lat` phase and of each `sat` phase.
    lat: Vec<f64>,
    sat: Vec<f64>,
}

impl Gauged {
    /// Collect what the lanes' gauges read during the phase just ended.
    fn end_phase(&mut self, lanes: &mut [Lane], sat: bool) {
        let samples: Vec<f64> = lanes
            .iter_mut()
            .flat_map(|lane| std::mem::take(&mut lane.gauge.samples))
            .collect();
        // A phase too short for a sample counts as undisturbed.
        let mean = if samples.is_empty() {
            0.0
        } else {
            samples.iter().sum::<f64>() / samples.len() as f64
        };
        if sat { &mut self.sat } else { &mut self.lat }.push(mean);
        self.all.extend(samples);
    }

    /// By what factor each phase ran slower than the run's undisturbed
    /// speed: the phase's mean gauge reading over the 5th percentile of
    /// all readings, never below 1.
    fn slowdowns(&self) -> (Vec<f64>, Vec<f64>) {
        let undisturbed = percentile(&sorted(self.all.clone()), 0.05);
        let factor = |mean: &f64| {
            if undisturbed > 0.0 {
                (mean / undisturbed).max(1.0)
            } else {
                1.0
            }
        };
        (
            self.lat.iter().map(factor).collect(),
            self.sat.iter().map(factor).collect(),
        )
    }
}

/// Everything the per-layer table is computed from.
struct Layers<'a> {
    before: &'a Scrape,
    after: &'a Scrape,
    in_reps: &'a Tally,
    total: &'a Tally,
    times: &'a ClusterTimes,
    pass: &'a Trace,
    probed: &'a Probes,
    per_rep: &'a [Vec<f64>; 3],
    /// Every `lat` sample of every repetition, with its class.
    pooled_lat: Vec<(f64, Class)>,
    sat_cpu_us_per_req: f64,
}

impl Layers<'_> {
    /// A counter's growth over the repetitions.
    fn delta(&self, name: &str, label: &str) -> f64 {
        self.after.sum(name, label) - self.before.sum(name, label)
    }

    fn requests(&self) -> f64 {
        self.in_reps.attempted as f64
    }

    fn share(&self, class: Class) -> f64 {
        self.in_reps.class(class) as f64 / self.requests()
    }

    /// Median `wire` time of a class in the traced pass, in µs; 0 when the
    /// workload barely produces the class.
    fn class_us(&self, span: &str, class: Class) -> f64 {
        let d = self.pass.durations(span, Some(class));
        if d.len() < MIN_CLASS_SAMPLES {
            return 0.0;
        }
        percentile(&d, 0.5) / 1e3
    }

    /// The class most `wire` spans of the pass fell in.
    fn dominant_class(&self) -> Class {
        Class::LADDER
            .into_iter()
            .max_by_key(|c| self.pass.durations("wire", Some(*c)).len())
            .expect("ladder is not empty")
    }

    /// `wire` minus `proxy.serve`, same page served the same way: the
    /// client↔front hop (two thread hand-offs, request parse, response
    /// serialisation, the simulated wire both ways). A direct call never
    /// reaches a loop's L1, so an L1 hit is set against the direct call's
    /// L2 hit — the same page-tier answer, one lookup deeper.
    fn front_hop_us(&self) -> f64 {
        let class = self.dominant_class();
        let direct = match class {
            Class::L1Hit => Class::L2Hit,
            other => other,
        };
        let (wire, serve) = (
            self.class_us("wire", class),
            self.class_us("proxy.serve", direct),
        );
        if serve == 0.0 {
            return 0.0;
        }
        wire - serve
    }

    /// An assembled page's `proxy.serve` minus the layer work the pipeline
    /// timed inside it: what is left is the proxy↔origin hop.
    fn origin_hop_us(&self) -> f64 {
        let serve = self.class_us("proxy.serve", Class::Assembled);
        if serve == 0.0 {
            return 0.0;
        }
        serve - self.pass.inside_proxy_serve_p50_ns() / 1e3
    }

    /// Classes whose median order breaks the cost ladder by more than the
    /// repetitions' own spread.
    fn ladder_violations(&self) -> f64 {
        let tolerance = 1.0 + iqr_pct(&self.per_rep[1]) / 100.0;
        let rungs: Vec<f64> = Class::LADDER
            .into_iter()
            .map(|c| self.class_us("wire", c))
            .filter(|us| *us > 0.0)
            .collect();
        rungs.windows(2).filter(|w| w[0] > w[1] * tolerance).count() as f64
    }

    /// How much slower the traced pass's `wire` requests were than the
    /// repetitions' `lat` requests, for the class the repetitions mostly
    /// saw. (The pass asks for every page twice, so its mix of classes is
    /// not the repetitions'; within a class the work is the same.)
    fn trace_overhead_pct(&self) -> f64 {
        let class = Class::LADDER
            .into_iter()
            .max_by_key(|c| self.in_reps.class(*c))
            .expect("ladder is not empty");
        let untraced = sorted(
            self.pooled_lat
                .iter()
                .filter(|(_, c)| *c == class)
                .map(|(us, _)| *us)
                .collect(),
        );
        let traced = self.class_us("wire", class);
        if traced == 0.0 || untraced.is_empty() {
            return 0.0;
        }
        (traced / percentile(&untraced, 0.5) - 1.0) * 100.0
    }

    fn metrics(&self) -> Vec<(&'static str, f64)> {
        let req = self.requests();
        let per_kreq = |v: f64| v * 1e3 / req;
        let child_ns = |i: usize| self.pass.p50_ns(PIPELINE_CHILDREN[i], None);
        let wire_labels = ["wire=\"proxy.", "wire=\"ring."];
        let client_bytes: f64 = wire_labels
            .iter()
            .map(|l| self.delta("dpc_wire_bytes_total", l))
            .sum();
        let (dir_hits, dir_misses) = (
            self.delta("dpc_directory_hits_total", ""),
            self.delta("dpc_directory_misses_total", "")
                + self.delta("dpc_directory_node_misses_total", ""),
        );
        let pooled = sorted(self.pooled_lat.iter().map(|(us, _)| *us).collect());
        let assembled_serve = self.class_us("proxy.serve", Class::Assembled);
        let p = self.probed;
        vec![
            ("http.front_hop_us", self.front_hop_us()),
            ("http.origin_hop_us", self.origin_hop_us()),
            ("http.parse_request_ns", child_ns(0)),
            ("http.serialize_response_ns", child_ns(6)),
            ("http.origin_hop_codec_ns", child_ns(2)),
            ("net.sim_roundtrip_us", p.sim_roundtrip_us),
            ("net.frame_codec_ns", p.frame_codec_ns),
            (
                "net.origin_wire_packets_per_page",
                self.delta("dpc_wire_packets_total", "wire=\"origin.") / req,
            ),
            ("net.client_wire_bytes_per_page", client_bytes / req),
            ("proxy.l1_hit_us", self.class_us("wire", Class::L1Hit)),
            ("proxy.l2_hit_us", self.class_us("wire", Class::L2Hit)),
            (
                "proxy.assembled_us",
                self.class_us("wire", Class::Assembled),
            ),
            ("proxy.bypass_us", self.class_us("wire", Class::Bypass)),
            (
                "proxy.peer_fetched_us",
                self.class_us("wire", Class::PeerFetched),
            ),
            (
                // The assembled class where the workload has one, else
                // whatever the direct calls mostly were.
                "proxy.serve_us",
                if assembled_serve > 0.0 {
                    assembled_serve
                } else {
                    self.pass.p50_ns("proxy.serve", None) / 1e3
                },
            ),
            ("proxy.l1_hit_share", self.share(Class::L1Hit)),
            ("proxy.l2_hit_share", self.share(Class::L2Hit)),
            (
                "proxy.assembled_share",
                self.share(Class::Assembled) + self.share(Class::PeerFetched),
            ),
            ("proxy.bypass_share", self.share(Class::Bypass)),
            (
                "proxy.l1_stale_evictions",
                per_kreq(self.delta("dpc_page_stale_evictions_total", "tier=\"l1\"")),
            ),
            (
                "proxy.l2_stale_evictions",
                per_kreq(self.delta("dpc_page_stale_evictions_total", "tier=\"l2\"")),
            ),
            (
                "proxy.page_evictions",
                per_kreq(self.delta("dpc_page_evictions_total", "")),
            ),
            (
                "proxy.page_admission_rejections",
                per_kreq(self.delta("dpc_page_admission_rejections_total", "")),
            ),
            ("core.assemble_rope_ns", child_ns(5)),
            ("core.tag_scan_ns", child_ns(4)),
            ("core.bem_fragment_hit_ns", p.bem_fragment_hit_ns),
            ("core.bem_fragment_miss_ns", p.bem_fragment_miss_ns),
            ("core.invalidate_dep_us", p.invalidate_dep_us),
            (
                "core.directory_hit_ratio",
                if dir_hits + dir_misses > 0.0 {
                    dir_hits / (dir_hits + dir_misses)
                } else {
                    0.0
                },
            ),
            (
                "core.directory_invalidations",
                self.delta("dpc_directory_invalidations_total", ""),
            ),
            (
                "core.directory_evictions",
                self.delta("dpc_directory_evictions_total", ""),
            ),
            (
                "core.flight_coalesced_waits",
                self.delta("dpc_flight_coalesced_waits_total", ""),
            ),
            (
                "core.asm_gets_per_page",
                self.delta("dpc_assembly_gets_total", "") / req,
            ),
            (
                "core.asm_sets_per_page",
                self.delta("dpc_assembly_sets_total", "") / req,
            ),
            (
                "core.tag_bytes_per_page",
                self.delta("dpc_bem_tag_bytes_total", "") / req,
            ),
            ("appserver.serve_us", child_ns(1) / 1e3),
            ("repository.get_ns", p.repository_get_ns),
            ("repository.update_us", p.repository_update_us),
            ("firewall.scan_ns", child_ns(3)),
            ("firewall.scan_ns_per_kib", self.pass.scan_ns_per_kib()),
            ("cluster.owner_of_ns", p.owner_of_ns),
            ("cluster.gossip_round_us", median(&self.times.gossip_us)),
            ("cluster.join_ms", median(&self.times.join_us) / 1e3),
            ("cluster.leave_ms", median(&self.times.leave_us) / 1e3),
            (
                "cluster.peer_fetch_hits_per_kreq",
                per_kreq(self.delta("dpc_peer_fetch_hits_total", "")),
            ),
            (
                "cluster.peer_fetch_misses_per_kreq",
                per_kreq(self.delta("dpc_peer_fetch_misses_total", "")),
            ),
            (
                "cluster.refresh_refetches_per_kreq",
                per_kreq(self.delta("dpc_proxy_refresh_refetches_total", "")),
            ),
            (
                "cluster.slots_scrubbed",
                self.delta("dpc_peer_slots_scrubbed_total", ""),
            ),
            ("metrics.scrape_ms", self.after.elapsed_ms),
            (
                "trace.spans_per_req",
                self.delta("dpc_trace_spans_total", "") / req,
            ),
            (
                "trace.ring_overwrites",
                self.delta("dpc_trace_ring_overwrites_total", ""),
            ),
            ("driver.latency_p99_us", percentile(&pooled, 0.99)),
            ("driver.latency_p999_us", percentile(&pooled, 0.999)),
            ("driver.cpu_us_per_req", self.sat_cpu_us_per_req),
            (
                "driver.rep_iqr_pct.throughput_rps",
                iqr_pct(&self.per_rep[0]),
            ),
            (
                "driver.rep_iqr_pct.latency_p50_us",
                iqr_pct(&self.per_rep[1]),
            ),
            (
                "driver.rep_iqr_pct.latency_p95_us",
                iqr_pct(&self.per_rep[2]),
            ),
            ("driver.trace_overhead_pct", self.trace_overhead_pct()),
            ("driver.ladder_violations", self.ladder_violations()),
            (
                "driver.failed_share",
                self.total.failed as f64 / self.total.attempted as f64,
            ),
            ("driver.routing_retries", self.total.retried as f64),
            ("driver.pipeline_mismatches", self.pass.mismatches as f64),
        ]
    }
}

/// User plus system CPU time of this process so far, in microseconds,
/// from `/proc/self/stat` (fields 14 and 15, in 10 ms ticks).
fn process_cpu_us() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name in parentheses may contain spaces; count from its end.
    let after_comm = stat.rsplit_once(") ").map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split(' ')
        .skip(11)
        .take(2)
        .filter_map(|t| t.parse::<f64>().ok())
        .sum();
    ticks * 10_000.0
}

/// `VmHWM` of this process in MiB.
fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().strip_suffix("kB"))
        .and_then(|kb| kb.trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}
