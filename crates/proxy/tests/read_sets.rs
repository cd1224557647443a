//! Pages stamped with their read set, end to end: the origin names what a
//! render read, the proxy's page tier keeps it beside the page, and an
//! update unserves only the pages that read what it changed.
//!
//! * **The wire is the proxy's.** A client's copy of the request header
//!   never reaches the origin, the response header never reaches a
//!   client, and a read set the proxy cannot judge (malformed, `*`, over
//!   the cap) installs the page under the coarse rule.
//! * **Unknown stays coarse.** A page whose render took an object-cache
//!   hit read rows this request never saw: it installs coarsely, is
//!   counted in `dpc_page_coarse_installs_total`, and dies with any
//!   update, as every tiered page did before read sets.
//! * **A crowd racing an update** never sees the page's old bytes once the
//!   update has returned, while a page that did not read the row keeps
//!   serving from the tier.
//! * **A ring member's tier** follows the same rule: the origin's
//!   invalidation sink bumps the updated row's stripe on every update,
//!   also one that frees no directory key.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_appserver::ScriptEngine;
use dpc_core::epoch::MAX_READ_STRIPES;
use dpc_core::proto::{Provenance, READS_HEADER, WANT_READS_HEADER};
use dpc_core::{stripe_of, Bem, BemConfig, CoherencyEpoch, FragmentStore};
use dpc_http::{Client, Request, Server};
use dpc_metrics::Registry;
use dpc_net::{Clock, MeterRegistry, ProtocolModel, SimNetwork};
use dpc_proxy::node::{self, NodeSpec};
use dpc_proxy::testbed::{Testbed, TestbedConfig, ORIGIN_ADDR, PROXY_ADDR};
use dpc_proxy::{ProxyMode, RingCluster, RingConfig};
use dpc_repository::datasets::DatasetConfig;
use dpc_repository::Repository;
use dpc_trace::Tracer;
use parking_lot::Mutex;

fn params() -> PaperSiteParams {
    PaperSiteParams {
        pages: 4,
        fragments_per_page: 4,
        fragment_bytes: 512,
        cacheability: 0.5,
        ..PaperSiteParams::default()
    }
}

fn page(p: usize) -> String {
    format!("/paper/page.jsp?p={p}")
}

fn tiered(config: TestbedConfig) -> Testbed {
    Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        l1_budget_bytes: 1 << 20,
        ..config
    })
}

/// The summed value of `name`'s samples in the proxy's metrics text.
fn scraped(tb: &Testbed, name: &str) -> u64 {
    let body = tb.get("/_dpc/metrics", None).body.to_vec();
    String::from_utf8(body)
        .unwrap()
        .lines()
        .filter(|line| line.starts_with(name))
        .map(|line| line.rsplit(' ').next().unwrap().parse::<u64>().unwrap())
        .sum()
}

#[test]
fn a_clients_read_set_headers_never_cross_the_proxy() {
    // Tier off: the proxy asks for no read set, and drops the client's
    // request, so the origin leg is byte-identical to a plain GET.
    let tb = Testbed::build(TestbedConfig {
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let _ = tb.get(&page(0), None);
    let origin_leg = |req: Request| {
        tb.reset_meters();
        let resp = dpc_http::Client::new(Arc::new(tb.net().connector()))
            .request(PROXY_ADDR, req)
            .unwrap();
        assert_eq!(resp.headers.get(READS_HEADER), None);
        tb.origin_wire()
    };
    let plain = origin_leg(Request::get(page(0)));
    let asking = origin_leg(Request::get(page(0)).with_header(WANT_READS_HEADER, "1"));
    assert_eq!(plain.payload_bytes, asking.payload_bytes);
    assert_eq!(plain.wire_bytes, asking.wire_bytes);

    // Tier on: the origin answers the proxy, never the client.
    let tb = tiered(TestbedConfig::default());
    for _ in 0..3 {
        let resp = tb.get(&page(1), None);
        assert_eq!(resp.status.0, 200);
        assert_eq!(resp.headers.get(READS_HEADER), None);
    }
}

/// A lone DPC node with its page tier on, in front of a paper-site origin
/// whose read-set header is replaced by whatever `forged` holds.
struct ForgingOrigin {
    proxy: Arc<dpc_proxy::Proxy>,
    epoch: CoherencyEpoch,
    forged: Arc<Mutex<Option<String>>>,
    _origin: dpc_http::ServerHandle,
}

impl ForgingOrigin {
    fn build() -> ForgingOrigin {
        let net = SimNetwork::new(MeterRegistry::new(), ProtocolModel::default());
        let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(64)));
        let mut engine = ScriptEngine::new(bem, Repository::with_defaults());
        paper_site::install(&mut engine, params());
        engine.connect_invalidation();
        let engine = Arc::new(engine);
        let forged: Arc<Mutex<Option<String>>> = Arc::default();
        let handler = {
            let forged = Arc::clone(&forged);
            move |req: Request| {
                let mut resp = engine.serve(&req);
                if let Some(value) = forged.lock().clone() {
                    assert!(resp.headers.get(READS_HEADER).is_some(), "proxy asked");
                    resp.headers.set(READS_HEADER, value);
                }
                resp
            }
        };
        let origin = Server::new(Box::new(net.listen(ORIGIN_ADDR)), Arc::new(handler)).spawn();
        let epoch = CoherencyEpoch::new();
        let (clock, _) = Clock::virtual_clock();
        let proxy = node::build(NodeSpec {
            mode: ProxyMode::Dpc,
            id: None,
            store: Arc::new(FragmentStore::new(64)),
            coherence: Some(epoch.clone()),
            page_tier: true,
            firewall: None,
            dep_purger: None,
            net: &net,
            clock,
            tracer: &Tracer::off(),
            metrics: &Arc::new(Registry::new()),
        });
        ForgingOrigin {
            proxy,
            epoch,
            forged,
            _origin: origin,
        }
    }

    fn x_cache(&self, target: &str) -> String {
        let resp = self.proxy.serve(Request::get(target));
        assert_eq!(resp.status.0, 200);
        assert_eq!(resp.headers.get(READS_HEADER), None);
        resp.headers.get("X-Cache").unwrap().to_owned()
    }
}

#[test]
fn a_read_set_the_proxy_cannot_judge_installs_the_page_coarsely() {
    let node = ForgingOrigin::build();
    let oversized: Vec<u16> = (0..=MAX_READ_STRIPES as u16).collect();
    let oversized = oversized
        .iter()
        .map(u16::to_string)
        .collect::<Vec<_>>()
        .join(",");
    let at_cap: Vec<u16> = (0..MAX_READ_STRIPES as u16).collect();
    let cases = [
        (None, false),
        (Some("*".to_owned()), true),
        (Some("12,banana".to_owned()), true),
        (Some("4096".to_owned()), true),
        (Some("1,,2".to_owned()), true),
        (Some(oversized), true),
        (
            Some(
                Provenance {
                    reads: Some(at_cap.as_slice().into()),
                    session_free: false,
                }
                .format(),
            ),
            false,
        ),
    ];
    for (p, (forged, coarse)) in cases.into_iter().enumerate() {
        let target = page(p % 4);
        // Start from an empty tier so this request installs.
        node.epoch.bump();
        *node.forged.lock() = forged.clone();
        let before = node.proxy.page_cache().stats().coarse_installs;
        assert_eq!(node.x_cache(&target), "dpc-assembled", "{forged:?}");
        let installs = node.proxy.page_cache().stats().coarse_installs - before;
        assert_eq!(installs, u64::from(coarse), "{forged:?}");
        assert_eq!(node.x_cache(&target), "dpc-l2", "{forged:?}");
        // A label the page did not read: only a coarse page dies of it.
        let read: Vec<u16> = (0..4)
            .map(|s| format!("paper/{}", paper_site::fragment_key(p % 4, s)))
            .map(|label| stripe_of(&label))
            .chain(at_cap.iter().copied())
            .collect();
        let unrelated = (0..)
            .map(|i| format!("elsewhere/{i}"))
            .find(|l| !read.contains(&stripe_of(l)))
            .unwrap();
        node.epoch.bump_label(&unrelated);
        let after = node.x_cache(&target);
        if coarse {
            assert_eq!(after, "dpc-assembled", "{forged:?}");
        } else {
            assert_eq!(after, "dpc-l2", "{forged:?}");
        }
    }
}

#[test]
fn an_object_cache_hit_installs_coarsely_and_is_counted() {
    let tb = tiered(TestbedConfig {
        demo_sites: true,
        dataset: DatasetConfig {
            users: 8,
            categories: 3,
            products_per_category: 3,
            fragment_bytes: 128,
            ..DatasetConfig::default()
        },
        ..TestbedConfig::default()
    });
    // Paper-site pages read only repository rows: every install is known.
    for p in 0..4 {
        let _ = tb.get(&page(p), None);
    }
    assert_eq!(tb.proxy().page_cache().stats().coarse_installs, 0);
    assert_eq!(scraped(&tb, "dpc_page_coarse_installs_total"), 0);

    // user1's first page loads the profile (rows this render read); the
    // second takes the object-cache hit, so its read set is unknown.
    let home = tb.get("/home.jsp", Some("user1"));
    assert_eq!(home.headers.get("x-cache"), Some("dpc-assembled"));
    assert_eq!(tb.proxy().page_cache().stats().coarse_installs, 0);
    let catalog = "/catalog.jsp?categoryID=cat1";
    let resp = tb.get(catalog, Some("user1"));
    assert_eq!(resp.headers.get("x-cache"), Some("dpc-assembled"));
    assert!(String::from_utf8_lossy(&resp.body.to_vec()).contains("Hello,"));
    assert_eq!(tb.proxy().page_cache().stats().coarse_installs, 1);
    assert_eq!(scraped(&tb, "dpc_page_coarse_installs_total"), 1);
    assert_eq!(
        tb.get(catalog, Some("user1")).headers.get("x-cache"),
        Some("dpc-l2")
    );
    assert_eq!(
        tb.get("/home.jsp", Some("user1")).headers.get("x-cache"),
        Some("dpc-l2")
    );

    // Any update at all unserves the coarse page, as before read sets; the
    // home page read nothing of the paper site and keeps serving.
    paper_site::invalidate_fragment(tb.engine().repo(), 3, 3);
    assert_eq!(
        tb.get(catalog, Some("user1")).headers.get("x-cache"),
        Some("dpc-assembled")
    );
    assert_eq!(
        tb.get("/home.jsp", Some("user1")).headers.get("x-cache"),
        Some("dpc-l2")
    );
}

const CROWD: usize = 8;
/// Reads each crowd client makes once it has seen the update return.
const READS_AFTER: usize = 12;

/// Page A is read by the crowd while one of its rows changes; page B
/// reads nothing of that row.
const A: usize = 1;
const B: usize = 2;

/// The row the update changes feeds A's last, uncacheable slot: the
/// update frees no directory key, so nothing but A's read set can unserve
/// A's tiered copies. (A key freed and handed out again opens a
/// different race, the reused slot spliced before its `SET` lands —
/// ROADMAP direction 1(a) — which `flash_crowd_tier.rs` keeps racing.)
const SLOT: usize = 3;

#[test]
fn crowd_reading_a_page_while_a_row_it_read_changes_never_sees_its_old_bytes() {
    let tb = Arc::new(tiered(TestbedConfig {
        loops: 2,
        ..TestbedConfig::default()
    }));
    let oracle = Testbed::build(TestbedConfig {
        mode: ProxyMode::PassThrough,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let old_a = oracle.get(&page(A), None).body.to_vec();
    let bytes_b = oracle.get(&page(B), None).body.to_vec();
    paper_site::invalidate_fragment(oracle.engine().repo(), A, SLOT);
    let new_a = oracle.get(&page(A), None).body.to_vec();
    assert_ne!(old_a, new_a);

    // Warm both pages over every client's own connection, so the page
    // cache both loops share holds them.
    let clients: Vec<Client> = (0..CROWD)
        .map(|_| Client::new(Arc::new(tb.net().connector())))
        .collect();
    let get =
        |client: &Client, p: usize| client.request(PROXY_ADDR, Request::get(page(p))).unwrap();
    for client in &clients {
        for p in [A, B] {
            for _ in 0..4 {
                let resp = get(client, p);
                let want = if p == A { &old_a } else { &bytes_b };
                assert_eq!(&resp.body.to_vec(), want);
            }
        }
    }
    assert_eq!(get(&clients[0], A).headers.get("x-cache"), Some("dpc-l2"));

    let start = Arc::new(Barrier::new(CROWD + 1));
    let served = Arc::new(AtomicUsize::new(0));
    let updated = Arc::new(AtomicBool::new(false));
    let crowd: Vec<_> = clients
        .into_iter()
        .map(|client| {
            let (start, served, updated) = (
                Arc::clone(&start),
                Arc::clone(&served),
                Arc::clone(&updated),
            );
            thread::spawn(move || {
                start.wait();
                let mut seen = Vec::new();
                let mut after = 0;
                while after < READS_AFTER {
                    // Read before sending: a request that starts once the
                    // update has returned must see the new bytes.
                    let landed = updated.load(Ordering::Acquire);
                    let resp = client.request(PROXY_ADDR, Request::get(page(A))).unwrap();
                    served.fetch_add(1, Ordering::Release);
                    after += usize::from(landed);
                    seen.push((landed, resp.body.to_vec()));
                }
                let b = client.request(PROXY_ADDR, Request::get(page(B))).unwrap();
                (seen, b)
            })
        })
        .collect();
    start.wait();
    // Let the crowd get going on its tier hits, then land the update.
    while served.load(Ordering::Acquire) < CROWD {
        thread::yield_now();
    }
    paper_site::invalidate_fragment(tb.engine().repo(), A, SLOT);
    updated.store(true, Ordering::Release);

    for client in crowd {
        let (seen, b) = client.join().expect("a crowd client panicked");
        for (landed, body) in seen {
            if landed {
                assert!(body == new_a, "A's old bytes after the update returned");
            } else {
                assert!(body == old_a || body == new_a, "A matches no render");
            }
        }
        assert_eq!(b.body.to_vec(), bytes_b);
        assert_eq!(
            b.headers.get("x-cache"),
            Some("dpc-l2"),
            "B, which did not read the row, must keep serving from the tier"
        );
    }
    assert_eq!(tb.proxy().page_cache().stats().coarse_installs, 0);
}

/// A tiered ring unserves a page after an update to any row it read, and
/// only then. Slot 3 is uncacheable, so an update to its row frees no
/// directory key and only the read set can tell the page is outdated.
#[test]
fn a_ring_members_tier_unserves_a_page_after_an_update_to_any_row_it_read() {
    let origin = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let oracle = Testbed::build(TestbedConfig {
        mode: ProxyMode::PassThrough,
        paper_params: params(),
        ..TestbedConfig::default()
    });
    let ring = Arc::new(RingCluster::new(
        origin.net(),
        3,
        RingConfig {
            page_tier: true,
            ..RingConfig::default()
        },
    ));
    ring.connect_origin(origin.engine().bem());
    let tiered_page_1 = || {
        let _ = ring.get(&page(1), None);
        let resp = ring.get(&page(1), None);
        assert_eq!(resp.headers.get("x-cache"), Some("dpc-l2"));
        resp.body.to_vec()
    };
    let update = |p: usize, slot: usize| {
        paper_site::invalidate_fragment(origin.engine().repo(), p, slot);
        paper_site::invalidate_fragment(oracle.engine().repo(), p, slot);
    };

    for (slot, what) in [(3, "uncacheable slot 3"), (0, "cacheable slot 0")] {
        let before = tiered_page_1();
        update(1, slot);
        let resp = ring.get(&page(1), None);
        let truth = oracle.get(&page(1), None).body.to_vec();
        assert!(truth != before, "{what}: the update changed the page");
        assert!(
            resp.body.to_vec() == truth,
            "{what}: the ring served page 1 from before the update ({:?})",
            resp.headers.get("x-cache")
        );
        assert_eq!(resp.headers.get("x-cache"), Some("dpc-assembled"), "{what}");
    }

    // A row page 1 never read: its tiered page keeps serving, so the bump
    // went to the row's stripe, not to the whole ring.
    let before = tiered_page_1();
    update(2, 0);
    let resp = ring.get(&page(1), None);
    assert_eq!(resp.headers.get("x-cache"), Some("dpc-l2"));
    assert!(resp.body.to_vec() == before);
    assert!(before == oracle.get(&page(1), None).body.to_vec());
}
