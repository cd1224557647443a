//! The serving stack under test and the client side of its wire: world
//! construction, a keep-alive connection that speaks raw HTTP/1.1, and the
//! `/_dpc/metrics` scrape.
//!
//! The client reads responses with its own few lines of parsing, not the
//! program's, so a change to `dpc_http::parse` moves the server's cost and
//! leaves the load generator's alone.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::Instant;

use dpc_appserver::apps::paper_site::PaperSiteParams;
use dpc_http::{Request, Response, ServerHandle};
use dpc_net::{BoxStream, Connector};
use dpc_proxy::ring_cluster::{RingCluster, RingConfig};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::ProxyMode;
use dpc_repository::Repository;

use crate::cpu::Placement;
use crate::spec::Workload;

const RING_ADDR: &str = "ring";

/// One serving stack. Everything but the listed fields stays at the
/// program's defaults, so a change to a default shows in the numbers.
pub struct World {
    // Declaration order is drop order: the ring front stops before the
    // cluster it routes to, the cluster before the origin it fetches from.
    _front: Option<ServerHandle>,
    cluster: Option<Arc<RingCluster>>,
    tb: Testbed,
    placement: Placement,
}

pub fn site_params(w: &Workload) -> PaperSiteParams {
    PaperSiteParams {
        pages: w.pages,
        fragments_per_page: w.fragments_per_page,
        cacheability: w.cacheability,
        ..PaperSiteParams::default()
    }
}

impl World {
    /// Build the stack on the placement's server CPU; the calling thread
    /// comes back a client.
    pub fn build(w: &Workload, seed: u64, placement: Placement) -> World {
        placement.on_server(|| World::build_here(w, seed, placement))
    }

    fn build_here(w: &Workload, seed: u64, placement: Placement) -> World {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: site_params(w),
            l1_budget_bytes: w.l1_budget_bytes,
            ..TestbedConfig::default()
        });
        if !w.ring {
            return World {
                _front: None,
                cluster: None,
                tb,
                placement,
            };
        }
        let cluster = Arc::new(RingCluster::new(
            tb.net(),
            3,
            RingConfig {
                seed,
                ..RingConfig::default()
            },
        ));
        cluster.connect_origin(tb.engine().bem());
        let front = cluster.spawn_front(RING_ADDR);
        World {
            _front: Some(front),
            cluster: Some(cluster),
            tb,
            placement,
        }
    }

    /// The twin the outputs are checked against: same site, no BEM, no
    /// cache anywhere.
    pub fn build_oracle(w: &Workload) -> Testbed {
        Testbed::build(TestbedConfig {
            mode: ProxyMode::PassThrough,
            paper_params: site_params(w),
            ..TestbedConfig::default()
        })
    }

    pub fn placement(&self) -> Placement {
        self.placement
    }

    pub fn testbed(&self) -> &Testbed {
        &self.tb
    }

    pub fn cluster(&self) -> Option<&Arc<RingCluster>> {
        self.cluster.as_ref()
    }

    pub fn repo(&self) -> &Arc<Repository> {
        self.tb.engine().repo()
    }

    /// A new keep-alive connection to the world's HTTP front.
    pub fn connect(&self) -> Conn {
        let addr = if self.cluster.is_some() {
            RING_ADDR
        } else {
            PROXY_ADDR
        };
        Conn::open(&self.tb, addr)
    }

    /// The serving entry point called directly, without the HTTP front.
    pub fn serve_direct(&self, req: Request) -> Response {
        match &self.cluster {
            Some(cluster) => cluster.serve(req),
            None => self.tb.proxy().serve(req),
        }
    }

    /// Scrape `GET /_dpc/metrics` over `conn`. A ring front renders the
    /// cluster's registry, which has no wire meters; those come from the
    /// origin testbed's own front.
    pub fn scrape(&self, conn: &mut Conn) -> Scrape {
        let t0 = Instant::now();
        let text = conn.get_body("/_dpc/metrics");
        let elapsed_ms = t0.elapsed().as_secs_f64() * 1e3;
        let mut lines = Scrape::parse(&text);
        if self.cluster.is_some() {
            let wires = Conn::open(&self.tb, PROXY_ADDR).get_body("/_dpc/metrics");
            lines.extend(
                Scrape::parse(&wires)
                    .into_iter()
                    .filter(|(k, _)| k.starts_with("dpc_wire_")),
            );
        }
        Scrape { lines, elapsed_ms }
    }
}

/// Which path served a response, from `X-Cache` and `X-DPC-Peer-Fetched`.
/// The order is the cost ladder: each class should cost at least as much
/// as the one before it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Class {
    L1Hit,
    L2Hit,
    Assembled,
    PeerFetched,
    Bypass,
    Other,
}

impl Class {
    pub const LADDER: [Class; 5] = [
        Class::L1Hit,
        Class::L2Hit,
        Class::Assembled,
        Class::PeerFetched,
        Class::Bypass,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Class::L1Hit => "l1_hit",
            Class::L2Hit => "l2_hit",
            Class::Assembled => "assembled",
            Class::PeerFetched => "peer_fetched",
            Class::Bypass => "bypass",
            Class::Other => "other",
        }
    }

    fn from_headers(x_cache: &[u8], peer_fetched: bool) -> Class {
        match x_cache {
            b"dpc-l1" => Class::L1Hit,
            b"dpc-l2" => Class::L2Hit,
            b"dpc-assembled" if peer_fetched => Class::PeerFetched,
            b"dpc-assembled" => Class::Assembled,
            b"dpc-bypass" => Class::Bypass,
            _ => Class::Other,
        }
    }

    pub fn of_response(resp: &Response) -> Class {
        Class::from_headers(
            resp.headers.get("X-Cache").unwrap_or("").as_bytes(),
            resp.headers.get("X-DPC-Peer-Fetched").is_some(),
        )
    }
}

/// The parts of one response the driver looks at. The body stays in the
/// connection's buffer until the next read.
#[derive(Debug, Clone, Copy)]
pub struct Reply {
    pub status: u16,
    pub content_length: usize,
    pub class: Class,
}

pub struct Conn {
    stream: BoxStream,
    buf: Vec<u8>,
    /// Unconsumed bytes are `buf[start..end]`.
    start: usize,
    end: usize,
    /// Where in `buf` the last reply's body lies.
    body: (usize, usize),
}

impl Conn {
    fn open(tb: &Testbed, addr: &str) -> Conn {
        let stream = tb
            .net()
            .connector()
            .connect(addr)
            .unwrap_or_else(|e| panic!("connect to {addr}: {e}"));
        Conn {
            stream,
            buf: vec![0; 64 << 10],
            start: 0,
            end: 0,
            body: (0, 0),
        }
    }

    /// Write request bytes (one request, or several pipelined).
    pub fn send(&mut self, bytes: &[u8]) {
        self.stream.write_all(bytes).expect("write request");
    }

    fn fill(&mut self) -> io::Result<()> {
        if self.end == self.buf.len() {
            if self.start > 0 {
                self.buf.copy_within(self.start..self.end, 0);
                self.end -= self.start;
                self.start = 0;
            } else {
                self.buf.resize(self.buf.len() * 2, 0);
            }
        }
        let n = self.stream.read(&mut self.buf[self.end..])?;
        if n == 0 {
            return Err(io::ErrorKind::UnexpectedEof.into());
        }
        self.end += n;
        Ok(())
    }

    /// Read one response; its body is then available from [`Conn::body`].
    pub fn read_reply(&mut self) -> Reply {
        self.try_read_reply().expect("read response")
    }

    fn try_read_reply(&mut self) -> io::Result<Reply> {
        // Offsets are relative to `start`: `fill` may move the unconsumed
        // bytes to the front of the buffer.
        let mut searched = 0usize;
        let head_len = loop {
            let unread = &self.buf[self.start..self.end];
            let from = searched.saturating_sub(3);
            if let Some(i) = find(&unread[from..], b"\r\n\r\n") {
                break from + i + 4;
            }
            searched = unread.len();
            self.fill()?;
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_owned());
        let head = &self.buf[self.start..self.start + head_len];
        let mut lines = head.split(|b| *b == b'\n');
        // "HTTP/1.1 200 OK"
        let status_line = lines.next().ok_or_else(|| bad("empty head"))?;
        let status = status_line
            .split(|b| *b == b' ')
            .nth(1)
            .and_then(|s| std::str::from_utf8(s).ok())
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("status line"))?;
        let mut content_length = 0;
        let mut x_cache: &[u8] = b"";
        let mut peer_fetched = false;
        for line in lines {
            let line = line.strip_suffix(b"\r").unwrap_or(line);
            let Some(colon) = line.iter().position(|b| *b == b':') else {
                continue;
            };
            let (name, value) = (&line[..colon], line[colon + 1..].trim_ascii());
            if name.eq_ignore_ascii_case(b"content-length") {
                content_length = std::str::from_utf8(value)
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .ok_or_else(|| bad("content-length"))?;
            } else if name.eq_ignore_ascii_case(b"x-cache") {
                x_cache = value;
            } else if name.eq_ignore_ascii_case(b"x-dpc-peer-fetched") {
                peer_fetched = true;
            }
        }
        let class = Class::from_headers(x_cache, peer_fetched);
        while self.end - self.start < head_len + content_length {
            self.fill()?;
        }
        let body_start = self.start + head_len;
        self.body = (body_start, body_start + content_length);
        self.start = self.body.1;
        if self.start == self.end {
            self.start = 0;
            self.end = 0;
        }
        Ok(Reply {
            status,
            content_length,
            class,
        })
    }

    /// Body of the reply last read.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body.0..self.body.1]
    }

    fn get_body(&mut self, target: &str) -> String {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: dpc\r\n\r\n").as_bytes());
        let reply = self.read_reply();
        assert_eq!(reply.status, 200, "GET {target}");
        String::from_utf8_lossy(self.body()).into_owned()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// One `/_dpc/metrics` exposition: `name{labels}` → value.
#[derive(Debug, Default, Clone)]
pub struct Scrape {
    lines: HashMap<String, f64>,
    /// How long the front took to answer, for `metrics.scrape_ms`.
    pub elapsed_ms: f64,
}

impl Scrape {
    fn parse(text: &str) -> HashMap<String, f64> {
        text.lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| {
                let (key, value) = l.rsplit_once(' ')?;
                Some((key.to_owned(), value.parse().ok()?))
            })
            .collect()
    }

    /// Sum of every series of metric `name` whose label set contains
    /// `label` (pass `""` for all of them).
    pub fn sum(&self, name: &str, label: &str) -> f64 {
        self.lines
            .iter()
            .filter(|(key, _)| {
                let (metric, labels) = key.split_once('{').unwrap_or((key, ""));
                metric == name && labels.contains(label)
            })
            .map(|(_, v)| v)
            .sum()
    }
}
