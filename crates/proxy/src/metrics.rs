//! Exporter adapters: every subsystem's live `*Stats` snapshot rendered
//! into one [`dpc_metrics::Registry`] as Prometheus families.
//!
//! Each `register_*` function installs a named collector closure over the
//! subsystem's shared handle (`Arc`); nothing is sampled until a scrape
//! renders the registry, so the instrumented hot paths pay only the
//! counters they already maintained. Collector keys are stable per
//! subsystem instance — re-registering a recycled ring-node id replaces
//! the old collector instead of duplicating its families.
//!
//! Naming follows Prometheus convention: `dpc_` prefix, `_total` on
//! counters, base units in the name (`_bytes`, `_ns`). Cross-subsystem
//! concerns share one family split by label — the single-flight counters
//! of the BEM and the directory both land in
//! `dpc_flight_*_total{source=...}`, so a dashboard can see coalescing
//! behaviour across both layers in one query.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_core::Bem;
use dpc_http::{LoopStats, ServerStats};
use dpc_metrics::{Exposition, Outcome, OutcomeExemplars, OutcomeHistograms, Registry};
use dpc_net::MeterRegistry;
use dpc_trace::Tracer;

use crate::front::Proxy;
use crate::page_cache::PageCache;

fn with_label<'a>(
    base: &[(&'static str, &'a str)],
    key: &'static str,
    value: &'a str,
) -> Vec<(&'static str, &'a str)> {
    let mut labels = base.to_vec();
    labels.push((key, value));
    labels
}

/// Render the shared single-flight family for one `source` layer.
fn flight_family(
    e: &mut Exposition,
    labels: &[(&'static str, &str)],
    source: &str,
    leaders: u64,
    coalesced_waits: u64,
    retries: u64,
) {
    let ls = with_label(labels, "source", source);
    e.counter("dpc_flight_leaders_total", &ls, leaders);
    e.counter("dpc_flight_coalesced_waits_total", &ls, coalesced_waits);
    e.counter("dpc_flight_retries_total", &ls, retries);
}

/// BEM tagging counters, the cache directory, and both layers'
/// single-flight counters.
pub fn register_bem(registry: &Registry, key: impl Into<String>, bem: Arc<Bem>) {
    registry.register(key, move |e| {
        let labels: [(&str, &str); 0] = [];
        let s = bem.stats().snapshot();
        e.counter("dpc_bem_fragments_total", &labels, s.fragments);
        e.counter("dpc_bem_hits_total", &labels, s.hits);
        e.counter("dpc_bem_misses_total", &labels, s.misses);
        e.counter("dpc_bem_forced_misses_total", &labels, s.forced_misses);
        e.counter(
            "dpc_bem_uncoalesced_misses_total",
            &labels,
            s.uncoalesced_misses,
        );
        e.counter(
            "dpc_bem_uncacheable_fragments_total",
            &labels,
            s.uncacheable_fragments,
        );
        e.counter(
            "dpc_bem_overflow_fragments_total",
            &labels,
            s.overflow_fragments,
        );
        e.counter("dpc_bem_missing_keys_total", &labels, s.missing_keys);
        e.counter("dpc_bem_generated_bytes_total", &labels, s.generated_bytes);
        e.counter("dpc_bem_literal_bytes_total", &labels, s.literal_bytes);
        e.counter("dpc_bem_tag_bytes_total", &labels, s.tag_bytes);
        e.counter("dpc_bem_emitted_bytes_total", &labels, s.emitted_bytes);
        flight_family(
            e,
            &labels,
            "bem",
            s.flight_leaders,
            s.coalesced_waits,
            s.flight_retries,
        );

        let d = bem.directory_stats();
        e.counter("dpc_directory_hits_total", &labels, d.hits);
        e.counter("dpc_directory_misses_total", &labels, d.misses);
        e.counter("dpc_directory_node_misses_total", &labels, d.node_misses);
        e.counter("dpc_directory_expirations_total", &labels, d.expirations);
        e.counter(
            "dpc_directory_invalidations_total",
            &labels,
            d.invalidations,
        );
        e.counter("dpc_directory_evictions_total", &labels, d.evictions);
        e.counter("dpc_directory_uncacheable_total", &labels, d.uncacheable);
        e.gauge("dpc_directory_resident_bytes", &labels, d.resident_bytes);
        e.gauge(
            "dpc_directory_resident_bytes_hwm",
            &labels,
            d.resident_bytes_hwm,
        );
        e.gauge(
            "dpc_directory_valid_entries",
            &labels,
            d.valid_entries as u64,
        );
        e.gauge(
            "dpc_directory_total_entries",
            &labels,
            d.total_entries as u64,
        );
        e.gauge("dpc_directory_free_keys", &labels, d.free_keys as u64);
        flight_family(
            e,
            &labels,
            "directory",
            d.flight_leaders,
            d.coalesced_waits,
            d.flight_retries,
        );
    });
}

/// The node's page tier: hits, the stale-eviction audit trail and the
/// pages installed without a read set, labelled `node="<id>"`. The
/// `tier="l2"` label on the hit and stale-eviction series names the page
/// cache; the benchmark filters on it.
pub fn register_page_cache(
    registry: &Registry,
    key: impl Into<String>,
    cache: Arc<PageCache>,
    node: u32,
) {
    let node = node.to_string();
    registry.register(key, move |e| {
        let labels = [("node", node.as_str())];
        let s = cache.stats();
        e.counter(
            "dpc_page_hits_total",
            &with_label(&labels, "tier", "l2"),
            s.hits,
        );
        e.counter("dpc_page_misses_total", &labels, s.misses);
        e.counter("dpc_page_purges_total", &labels, s.purges);
        e.counter("dpc_page_evictions_total", &labels, s.evictions);
        e.counter(
            "dpc_page_stale_evictions_total",
            &with_label(&labels, "tier", "l2"),
            s.stale_evictions,
        );
        e.counter("dpc_page_coarse_installs_total", &labels, s.coarse_installs);
        // The page cache has no admission policy (it refuses only installs
        // an invalidation already outdated). The series stays, at 0,
        // because the benchmark reads it (`proxy.page_admission_rejections`);
        // a `[benchmark]` change retires it together with that reader.
        e.counter("dpc_page_admission_rejections_total", &labels, 0);
    });
}

/// The proxy front: serving-path counters, byte accounting, and the
/// accumulated assembly totals, labelled `node="<id>"`.
pub fn register_proxy(registry: &Registry, key: impl Into<String>, proxy: Arc<Proxy>, node: u32) {
    let node = node.to_string();
    registry.register(key, move |e| {
        let labels = [("node", node.as_str())];
        let s = proxy.stats();
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
        e.counter("dpc_proxy_requests_total", &labels, load(&s.requests));
        e.counter("dpc_proxy_assembled_total", &labels, load(&s.assembled));
        e.counter(
            "dpc_proxy_bypass_refetches_total",
            &labels,
            load(&s.bypass_refetches),
        );
        e.counter(
            "dpc_proxy_refresh_refetches_total",
            &labels,
            load(&s.refresh_refetches),
        );
        e.counter(
            "dpc_proxy_uninstrumented_total",
            &labels,
            load(&s.uninstrumented),
        );
        e.counter(
            "dpc_proxy_upstream_errors_total",
            &labels,
            load(&s.upstream_errors),
        );
        e.counter(
            "dpc_proxy_delivered_bytes_total",
            &labels,
            load(&s.delivered_bytes),
        );
        e.counter(
            "dpc_proxy_origin_bytes_total",
            &labels,
            load(&s.origin_bytes),
        );
        e.counter("dpc_assembly_gets_total", &labels, load(&s.asm_gets));
        e.counter("dpc_assembly_sets_total", &labels, load(&s.asm_sets));
        e.counter(
            "dpc_assembly_literal_bytes_total",
            &labels,
            load(&s.asm_literal_bytes),
        );
        e.counter(
            "dpc_assembly_get_bytes_total",
            &labels,
            load(&s.asm_get_bytes),
        );
        e.counter(
            "dpc_assembly_set_bytes_total",
            &labels,
            load(&s.asm_set_bytes),
        );
        e.counter(
            "dpc_assembly_template_bytes_total",
            &labels,
            load(&s.asm_template_bytes),
        );
    });
}

/// An HTTP front's event loops: per-loop connection/request counters plus
/// the per-outcome request-latency histograms, merged across loops at
/// scrape time (the loops never share a histogram instance — see
/// `dpc_http::Server::with_request_metrics`).
pub fn register_server(
    registry: &Registry,
    key: impl Into<String>,
    server: impl Into<String>,
    stats: &ServerStats,
) {
    let server = server.into();
    let per_loop: Vec<Arc<LoopStats>> = stats.per_loop().to_vec();
    let latency: Vec<Arc<OutcomeHistograms>> = stats.latency_per_loop().to_vec();
    let exemplars: Vec<Arc<OutcomeExemplars>> = stats.exemplars_per_loop().to_vec();
    registry.register(key, move |e| {
        let base = [("server", server.as_str())];
        for (i, l) in per_loop.iter().enumerate() {
            let i = i.to_string();
            let labels = with_label(&base, "loop", &i);
            let load = |a: &AtomicU64| a.load(Ordering::Relaxed);
            e.counter(
                "dpc_server_connections_total",
                &labels,
                load(&l.connections),
            );
            e.counter("dpc_server_requests_total", &labels, load(&l.requests));
            e.counter(
                "dpc_server_parse_errors_total",
                &labels,
                load(&l.parse_errors),
            );
            e.counter("dpc_server_evictions_total", &labels, load(&l.evictions));
            // The PR 4 "push-only pollers never arm the tick" pin as a
            // scrapeable series: stays 0 for every workload under the OS
            // readiness backend, counts 1 ms fallback ticks otherwise.
            e.counter("dpc_poll_tick_waits_total", &labels, load(&l.tick_waits));
            e.gauge("dpc_server_live_connections", &labels, load(&l.live));
        }
        let merged = OutcomeHistograms::merged(&latency);
        for outcome in Outcome::ALL {
            let labels = with_label(&base, "outcome", outcome.label());
            e.histogram("dpc_request_duration_ns", &labels, &merged[outcome.index()]);
        }
        if !exemplars.is_empty() {
            // The worst observation per (outcome, bucket) of this scrape
            // window, tagged with its trace id — a dashboard's jump-off
            // from a latency bucket into the flight recorder. Draining at
            // scrape keeps each window's tail its own.
            let worst = OutcomeExemplars::take_merged(&exemplars);
            for outcome in Outcome::ALL {
                for (b, ex) in worst[outcome.index()].iter().enumerate() {
                    if ex.trace == 0 {
                        continue;
                    }
                    let le = dpc_metrics::bucket_upper(b).to_string();
                    let trace = format!("{:016x}", ex.trace);
                    let mut labels = with_label(&base, "outcome", outcome.label());
                    labels.push(("le", le.as_str()));
                    labels.push(("trace_id", trace.as_str()));
                    e.gauge("dpc_request_duration_ns_exemplar", &labels, ex.nanos);
                }
            }
        }
    });
}

/// The span recorder's own health: spans recorded, per-ring overwrite
/// pressure, and tail-retention counts split by reason. A no-op when the
/// tracer is off.
pub fn register_trace(registry: &Registry, key: impl Into<String>, tracer: Tracer) {
    let Some(rec) = tracer.recorder().cloned() else {
        return;
    };
    registry.register(key, move |e| {
        let s = rec.stats();
        e.counter("dpc_trace_spans_total", &[], s.spans_total);
        for (i, n) in s.ring_overwrites.iter().enumerate() {
            let i = i.to_string();
            e.counter(
                "dpc_trace_ring_overwrites_total",
                &[("loop", i.as_str())],
                *n,
            );
        }
        e.counter(
            "dpc_trace_retained_total",
            &[("reason", "slow")],
            s.retained_slow,
        );
        e.counter(
            "dpc_trace_retained_total",
            &[("reason", "error")],
            s.retained_error,
        );
        e.counter(
            "dpc_trace_retained_total",
            &[("reason", "evicted")],
            s.retained_evicted,
        );
    });
}

/// Every wire meter of the simulated network: the Sniffer's byte
/// attribution (payload vs. wire overhead, packets, messages) per
/// directional pipe.
pub fn register_meters(registry: &Registry, key: impl Into<String>, meters: Arc<MeterRegistry>) {
    registry.register(key, move |e| {
        for (wire, snap) in meters.snapshot_all() {
            let labels = [("wire", wire.as_str())];
            e.counter("dpc_wire_payload_bytes_total", &labels, snap.payload_bytes);
            e.counter("dpc_wire_bytes_total", &labels, snap.wire_bytes);
            e.counter("dpc_wire_packets_total", &labels, snap.packets);
            e.counter("dpc_wire_messages_total", &labels, snap.messages);
        }
    });
}
