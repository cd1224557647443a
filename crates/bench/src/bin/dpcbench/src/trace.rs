//! The traced pass: spans recorded from the benchmark's own files around
//! the calls into each layer, and probes of calls that are not on the
//! request path.
//!
//! Per request the pass records three independent measurements of the
//! same page: `wire` (through the HTTP front), `proxy.serve` (the serving
//! entry point called directly) and `pipeline` (the benchmark performing
//! the assembling path itself, one child span per layer). Differences of
//! their medians isolate the two thread/wire hops no single call can be
//! timed around.

use std::io::{BufReader, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

use dpc_appserver::context::NODE_HEADER;
use dpc_core::{
    assemble_rope, tag, Bem, BemConfig, FragmentId, FragmentPolicy, FragmentStore, DEFAULT_SHARDS,
};
use dpc_firewall::Firewall;
use dpc_http::{parse, serialize, Body};
use dpc_net::{ClusterFrame, Connector, Listener, SimNetwork};
use dpc_proxy::testbed::TestbedConfig;

use crate::drive::{Lane, Membership, Stream};
use crate::json::Value;
use crate::spec::PIPELINE_NODE;
use crate::stats::{median, percentile, sorted};
use crate::world::{Class, Conn, World};

/// One timed interval. `parent` indexes the span that caused it.
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
    pub request: u32,
    pub class: Class,
}

/// The pipeline's child spans, in request order. The first runs in the
/// HTTP front, the last in the front's writer; the ones between are what
/// `Proxy::serve` waits for on an assembled page.
pub const PIPELINE_CHILDREN: [&str; 7] = [
    "http.parse_request",
    "appserver.serve",
    "http.origin_hop_codec",
    "firewall.scan",
    "core.tag_scan",
    "core.assemble_rope",
    "http.serialize_response",
];
const INSIDE_PROXY_SERVE: std::ops::Range<usize> = 1..6;

pub struct Trace {
    pub spans: Vec<Span>,
    /// Requests whose pipeline output differed from the `wire` body.
    pub mismatches: u64,
    /// Template bytes the firewall scanned, summed, for the per-KiB rate.
    scanned_bytes: u64,
    epoch: Instant,
}

impl Trace {
    fn new() -> Trace {
        Trace {
            spans: Vec::new(),
            mismatches: 0,
            scanned_bytes: 0,
            epoch: Instant::now(),
        }
    }

    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, parent: Option<usize>, request: u32) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
            class: Class::Other,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, span: usize, class: Class) {
        self.spans[span].end_ns = self.now();
        self.spans[span].class = class;
    }

    /// Durations in nanoseconds of the spans called `name`, optionally of
    /// one class only, ascending.
    pub fn durations(&self, name: &str, class: Option<Class>) -> Vec<f64> {
        sorted(
            self.spans
                .iter()
                .filter(|s| s.name == name && class.is_none_or(|c| s.class == c))
                .map(|s| (s.end_ns - s.start_ns) as f64)
                .collect(),
        )
    }

    pub fn p50_ns(&self, name: &str, class: Option<Class>) -> f64 {
        percentile(&self.durations(name, class), 0.5)
    }

    /// A span's duration minus the part its children cover, at the median
    /// over the spans called `name`.
    pub fn self_p50_ns(&self, name: &str) -> f64 {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let own: Vec<f64> = self
            .spans
            .iter()
            .zip(&child_ns)
            .filter(|(s, _)| s.name == name)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(*c) as f64)
            .collect();
        median(&own)
    }

    /// Firewall scan cost per KiB of template, from the pass's totals.
    pub fn scan_ns_per_kib(&self) -> f64 {
        let total: f64 = self.durations("firewall.scan", None).iter().sum();
        if self.scanned_bytes == 0 {
            return 0.0;
        }
        total / (self.scanned_bytes as f64 / 1024.0)
    }

    /// Σ p50 of the pipeline children `Proxy::serve` waits for.
    pub fn inside_proxy_serve_p50_ns(&self) -> f64 {
        PIPELINE_CHILDREN[INSIDE_PROXY_SERVE]
            .iter()
            .map(|name| self.p50_ns(name, None))
            .sum()
    }

    pub fn to_json(&self) -> Value {
        Value::Arr(
            self.spans
                .iter()
                .map(|s| {
                    Value::obj([
                        ("name", Value::str(s.name)),
                        ("start_ns", Value::Num(s.start_ns as f64)),
                        ("end_ns", Value::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Value::Null, |p| Value::Num(p as f64)),
                        ),
                        ("request", Value::Num(f64::from(s.request))),
                        ("class", Value::str(s.class.name())),
                    ])
                })
                .collect(),
        )
    }
}

/// State the pipeline owns: the benchmark plays the proxy's part against
/// the world's origin, as a DPC node of its own.
struct Pipeline {
    store: FragmentStore,
    firewall: Firewall,
}

/// Replay `n` plan requests with spans on. The workload's writes go on as
/// in the repetitions, so the classes seen are the classes measured.
pub fn traced_pass(lane: &mut Lane, conn: &mut Conn, stream: &mut Stream, n: usize) -> Trace {
    let mut trace = Trace::new();
    let pipeline = Pipeline {
        store: FragmentStore::with_shards(TestbedConfig::default().capacity, DEFAULT_SHARDS),
        firewall: Firewall::with_default_rules(),
    };
    let placement = lane.world.placement();
    let membership = Membership {
        join_at: Some(n / 3),
        leave_at: Some(2 * n / 3),
    };
    for (i, id) in stream.take(n).into_iter().enumerate() {
        lane.before_request(conn, i, membership);
        // The direct call and the wire request see the same page in turn;
        // alternating which goes first gives each the miss, and so the
        // assembled class, half the time. The direct call and the pipeline
        // are the serving stack's work, so they run on its CPU; only `wire`
        // crosses from the client's.
        let direct_first = i % 2 == 1;
        if direct_first {
            placement.on_server(|| direct_span(&mut trace, lane, id, i as u32));
        }
        wire_span(&mut trace, lane, conn, id, i as u32);
        if !direct_first {
            placement.on_server(|| direct_span(&mut trace, lane, id, i as u32));
        }
        let same = placement
            .on_server(|| pipeline_span(&mut trace, &pipeline, lane, id, i as u32, conn.body()));
        if !same {
            trace.mismatches += 1;
        }
    }
    trace
}

/// One request through the front; its body stays in `conn` for the
/// pipeline to compare with.
fn wire_span(trace: &mut Trace, lane: &mut Lane, conn: &mut Conn, id: u32, request: u32) {
    let span = trace.open("wire", None, request);
    let reply = lane.exchange(conn, id);
    trace.close(span, reply.class);
}

fn direct_span(trace: &mut Trace, lane: &Lane, id: u32, request: u32) {
    let req = lane.plan[id as usize].to_request();
    let span = trace.open("proxy.serve", None, request);
    let resp = lane.world.serve_direct(req);
    trace.close(span, Class::of_response(&resp));
}

/// The assembling path, layer by layer. Returns whether the page it built
/// is the page the front delivered.
fn pipeline_span(
    trace: &mut Trace,
    pipeline: &Pipeline,
    lane: &Lane,
    id: u32,
    request: u32,
    wire_body: &[u8],
) -> bool {
    let planned = &lane.plan[id as usize];
    let root = trace.open("pipeline", None, request);
    let child = |trace: &mut Trace, i: usize| trace.open(PIPELINE_CHILDREN[i], Some(root), request);

    let s = child(trace, 0);
    let parsed = parse::try_parse_request(&planned.wire);
    trace.close(s, Class::Other);
    let Ok(Some((mut req, _))) = parsed else {
        return false;
    };
    req.headers.set(NODE_HEADER, PIPELINE_NODE.to_string());

    let s = child(trace, 1);
    let origin_resp = lane.world.testbed().engine().serve(&req);
    trace.close(s, Class::Other);

    let s = child(trace, 2);
    let mut wire = Vec::with_capacity(16 << 10);
    let written = serialize::write_response(&mut wire, &origin_resp);
    let upstream = parse::read_response(&mut BufReader::new(wire.as_slice()));
    trace.close(s, Class::Other);
    let (Ok(()), Ok(upstream)) = (written, upstream) else {
        return false;
    };
    let template = upstream.body.flatten();

    let s = child(trace, 3);
    let allowed = pipeline.firewall.scan(&template).allowed;
    trace.close(s, Class::Other);
    trace.scanned_bytes += template.len() as u64;

    let s = child(trace, 4);
    let scanned = match tag::Scanner::new(&template) {
        None => false,
        Some(mut scanner) => loop {
            match scanner.next() {
                Ok(Some(op)) => {
                    std::hint::black_box(&op);
                }
                Ok(None) => break true,
                Err(_) => break false,
            }
        },
    };
    trace.close(s, Class::Other);

    let s = child(trace, 5);
    let rope = assemble_rope(&template, &pipeline.store);
    trace.close(s, Class::Other);
    let Ok(rope) = rope else {
        return false;
    };

    let s = child(trace, 6);
    let mut page = upstream;
    page.body = Body::Rope(rope.segments);
    let mut out = Vec::with_capacity(16 << 10);
    let written = serialize::write_response(&mut out, &page);
    trace.close(s, Class::Other);
    trace.close(root, Class::Other);

    allowed && scanned && written.is_ok() && page.body == *wire_body
}

/// Median cost of calls that no request of the pass makes, or makes only
/// inside a layer already timed.
#[derive(Default)]
pub struct Probes {
    pub bem_fragment_hit_ns: f64,
    pub bem_fragment_miss_ns: f64,
    pub invalidate_dep_us: f64,
    pub repository_get_ns: f64,
    pub repository_update_us: f64,
    pub owner_of_ns: f64,
    pub frame_codec_ns: f64,
    pub sim_roundtrip_us: f64,
}

fn p50_ns(mut run: impl FnMut(usize), iterations: usize) -> f64 {
    let samples = (0..iterations)
        .map(|i| {
            let t0 = Instant::now();
            run(i);
            t0.elapsed().as_nanos() as f64
        })
        .collect();
    percentile(&sorted(samples), 0.5)
}

/// Run every probe. The repository probe writes to the world's
/// repository, so this comes after everything that checks outputs.
pub fn probes(world: &World, pages: usize, slots: usize, iterations: usize) -> Probes {
    let mut out = Probes::default();
    let policy = |dep: &str| FragmentPolicy::ttl(Duration::from_secs(3600)).with_deps(&[dep]);
    let content = vec![b'x'; 1024];

    // `TemplateWriter::fragment` on a BEM of the benchmark's own: the hit
    // is the directory lookup and GET tag; the miss is what follows an
    // invalidation — regenerate, take a key, emit the SET.
    let bem = Bem::new(BemConfig::default());
    let id = FragmentId::with_params("probe", &[("k", "hit")]);
    let mut writer = bem.template_writer();
    writer.fragment(&id, policy("probe/hit"), |out| {
        out.extend_from_slice(&content)
    });
    out.bem_fragment_hit_ns = p50_ns(
        |_| {
            writer.fragment(&id, policy("probe/hit"), |out| {
                out.extend_from_slice(&content)
            });
        },
        iterations,
    );
    drop(writer);
    let id = FragmentId::with_params("probe", &[("k", "miss")]);
    out.bem_fragment_miss_ns = {
        let samples = (0..iterations)
            .map(|_| {
                bem.on_data_update("probe/miss");
                let mut writer = bem.template_writer();
                let t0 = Instant::now();
                writer.fragment(&id, policy("probe/miss"), |out| {
                    out.extend_from_slice(&content)
                });
                t0.elapsed().as_nanos() as f64
            })
            .collect();
        percentile(&sorted(samples), 0.5)
    };

    // One dependency's invalidation with 2 048 fragments registered.
    const REGISTERED: usize = 2048;
    let bem = Bem::new(BemConfig::default());
    let register = |k: usize| {
        let id = FragmentId::with_params("probe", &[("k", &k.to_string())]);
        let mut writer = bem.template_writer();
        writer.fragment(&id, policy(&format!("probe/{k}")), |out| {
            out.extend_from_slice(b"x")
        });
    };
    (0..REGISTERED).for_each(register);
    out.invalidate_dep_us = {
        let samples = (0..iterations)
            .map(|i| {
                let k = i % REGISTERED;
                let dep = format!("probe/{k}");
                let t0 = Instant::now();
                bem.on_data_update(&dep);
                let ns = t0.elapsed().as_nanos() as f64;
                register(k);
                ns
            })
            .collect();
        percentile(&sorted(samples), 0.5) / 1e3
    };

    let repo = world.repo();
    out.repository_get_ns = p50_ns(
        |i| {
            std::hint::black_box(repo.get("paper", &paper_key(i, pages, slots)));
        },
        iterations,
    );
    out.repository_update_us = p50_ns(
        |i| {
            let (page, slot) = (i % pages, i / pages % slots);
            dpc_appserver::apps::paper_site::invalidate_fragment(repo, page, slot);
        },
        iterations,
    ) / 1e3;

    if let Some(cluster) = world.cluster() {
        out.owner_of_ns = p50_ns(
            |i| {
                std::hint::black_box(cluster.owner_of(&format!("/paper/page.jsp?p={}", i % pages)));
            },
            iterations,
        );
    }

    let frame = ClusterFrame::FetchResp {
        hit: true,
        body: content.clone(),
        trace: None,
    };
    out.frame_codec_ns = p50_ns(
        |_| {
            let encoded = frame.encode();
            std::hint::black_box(ClusterFrame::read_from(&mut encoded.as_slice()).expect("frame"));
        },
        iterations,
    );

    out.sim_roundtrip_us = sim_roundtrip_ns(iterations) / 1e3;
    out
}

fn paper_key(i: usize, pages: usize, slots: usize) -> String {
    dpc_appserver::apps::paper_site::fragment_key(i % pages, i / pages % slots)
}

/// 100 B out, 4 KiB back, between two threads over a `SimNetwork` of the
/// benchmark's own: the floor under every hop the stack makes.
fn sim_roundtrip_ns(iterations: usize) -> f64 {
    let net: Arc<SimNetwork> = SimNetwork::with_defaults();
    let listener = net.listen("echo");
    std::thread::scope(|scope| {
        scope.spawn(move || {
            let mut stream = listener.accept().expect("accept");
            let mut ping = [0u8; 100];
            let pong = [0u8; 4096];
            while stream.read_exact(&mut ping).is_ok() {
                stream.write_all(&pong).expect("pong");
            }
        });
        let mut stream = net.connector().connect("echo").expect("connect");
        let ping = [0u8; 100];
        let mut pong = [0u8; 4096];
        p50_ns(
            |_| {
                stream.write_all(&ping).expect("ping");
                stream.read_exact(&mut pong).expect("pong");
            },
            iterations,
        )
        // Dropping `stream` here ends the echo thread's read loop.
    })
}
