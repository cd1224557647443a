//! Parse-back tests for the Prometheus text exposition: every emitted line
//! must be `# TYPE name kind` or `name{labels} value`, counters must be
//! monotonic across consecutive scrapes, and histogram bucket counts must
//! be cumulative and consistent with the `_count` / `_sum` samples.

use std::collections::BTreeMap;
use std::sync::Arc;

use dpc_metrics::{Counter, Histogram, Registry};

/// One parsed sample line: name, ordered labels, value.
#[derive(Debug, Clone, PartialEq)]
struct Sample {
    name: String,
    labels: BTreeMap<String, String>,
    value: u64,
}

/// Parse a full exposition, asserting the line grammar as we go.
fn parse(exposition: &str) -> Vec<Sample> {
    let mut samples = Vec::new();
    for line in exposition.lines() {
        if let Some(rest) = line.strip_prefix("# TYPE ") {
            let mut parts = rest.split_whitespace();
            let name = parts.next().expect("TYPE line has a family name");
            let kind = parts.next().expect("TYPE line has a kind");
            assert!(
                matches!(kind, "counter" | "gauge" | "histogram"),
                "unknown family kind {kind:?} in line {line:?}"
            );
            assert!(parts.next().is_none(), "trailing tokens in {line:?}");
            assert!(!name.is_empty());
            continue;
        }
        assert!(
            !line.starts_with('#'),
            "only # TYPE comments are emitted, got {line:?}"
        );
        // name{labels} value  |  name value
        let (name_labels, value) = line.rsplit_once(' ').expect("sample line has a value");
        // `le="+Inf"` lines still carry a u64 count; only the label holds
        // +Inf. The value itself must always parse.
        let value: u64 = value
            .parse()
            .map_err(|_| format!("non-integer value in line {line:?}"))
            .unwrap();
        let (name, labels) = match name_labels.split_once('{') {
            None => (name_labels.to_string(), BTreeMap::new()),
            Some((name, rest)) => {
                let body = rest.strip_suffix('}').expect("labels close with }");
                let mut labels = BTreeMap::new();
                for pair in body.split(',') {
                    let (k, v) = pair.split_once('=').expect("label is k=\"v\"");
                    let v = v
                        .strip_prefix('"')
                        .and_then(|v| v.strip_suffix('"'))
                        .expect("label value is quoted");
                    labels.insert(k.to_string(), v.to_string());
                }
                (name.to_string(), labels)
            }
        };
        assert!(
            name.chars()
                .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':'),
            "metric name {name:?} has invalid characters"
        );
        samples.push(Sample {
            name,
            labels,
            value,
        });
    }
    samples
}

fn find<'a>(samples: &'a [Sample], name: &str) -> Vec<&'a Sample> {
    samples.iter().filter(|s| s.name == name).collect()
}

#[test]
fn every_line_parses() {
    let registry = Registry::new();
    let hist = Arc::new(Histogram::new());
    hist.observe(3);
    hist.observe(900);
    let h = hist.clone();
    registry.register("test", move |e| {
        e.counter("dpc_requests_total", &[("server", "proxy")], 17);
        e.gauge("dpc_resident_bytes", &[], 4096);
        e.histogram(
            "dpc_request_duration_ns",
            &[("outcome", "l2_hit")],
            &h.snapshot(),
        );
    });
    let samples = parse(&registry.render());
    assert!(!samples.is_empty());
    let counters = find(&samples, "dpc_requests_total");
    assert_eq!(counters.len(), 1);
    assert_eq!(counters[0].value, 17);
    assert_eq!(
        counters[0].labels.get("server").map(String::as_str),
        Some("proxy")
    );
}

#[test]
fn counters_are_monotonic_across_scrapes() {
    let registry = Registry::new();
    let counter = Arc::new(Counter::new());
    let c = counter.clone();
    registry.register("c", move |e| e.counter("dpc_hits_total", &[], c.get()));

    let mut last = 0u64;
    for round in 0..5u64 {
        counter.add(round * 3);
        let samples = parse(&registry.render());
        let now = find(&samples, "dpc_hits_total")[0].value;
        assert!(
            now >= last,
            "counter went backwards between scrapes: {last} -> {now}"
        );
        last = now;
    }
    assert_eq!(last, 3 + 6 + 9 + 12);
}

#[test]
fn histogram_buckets_are_cumulative_and_sum_consistent() {
    let registry = Registry::new();
    let hist = Arc::new(Histogram::new());
    let values = [0u64, 1, 1, 7, 100, 100, 5_000, 1 << 45];
    for v in values {
        hist.observe(v);
    }
    let h = hist.clone();
    registry.register("h", move |e| {
        e.histogram("dpc_lat_ns", &[("outcome", "origin")], &h.snapshot())
    });
    let samples = parse(&registry.render());

    let buckets = find(&samples, "dpc_lat_ns_bucket");
    assert!(buckets.len() >= 2, "expect several bucket lines");
    // Cumulative: each successive bucket count is >= the previous, and the
    // `le` bounds strictly increase.
    let mut prev_count = 0u64;
    let mut prev_le = None::<u64>;
    for b in &buckets {
        let le = b.labels.get("le").expect("bucket line carries le");
        assert!(
            b.value >= prev_count,
            "bucket counts must be cumulative: {prev_count} then {}",
            b.value
        );
        prev_count = b.value;
        if le != "+Inf" {
            let le: u64 = le.parse().expect("finite le parses");
            if let Some(p) = prev_le {
                assert!(le > p, "le bounds must increase");
            }
            prev_le = Some(le);
        }
    }
    // The +Inf bucket closes the family and equals _count.
    let last = buckets.last().unwrap();
    assert_eq!(last.labels.get("le").map(String::as_str), Some("+Inf"));
    let count = find(&samples, "dpc_lat_ns_count")[0].value;
    let sum = find(&samples, "dpc_lat_ns_sum")[0].value;
    assert_eq!(last.value, count);
    assert_eq!(count, values.len() as u64);
    assert_eq!(sum, values.iter().sum::<u64>());
}

#[test]
fn type_comment_emitted_once_per_family() {
    let registry = Registry::new();
    registry.register("a", |e| {
        e.counter("dpc_twice_total", &[("shard", "0")], 1);
        e.counter("dpc_twice_total", &[("shard", "1")], 2);
    });
    let out = registry.render();
    assert_eq!(out.matches("# TYPE dpc_twice_total counter").count(), 1);
    let samples = parse(&out);
    assert_eq!(find(&samples, "dpc_twice_total").len(), 2);
}
