//! One tiered copy of a page for every session, when and only when the
//! origin asserts that the render never observed the session.
//!
//! Every body is compared with a pass-through render of the same request.
//!
//! * **(a) A session-reading page stays per session.** Books and
//!   brokerage pages render through `RequestCtx::profile`: two sessions
//!   each get their own bytes from the tier, and the shared key (the bare
//!   target) never holds them.
//! * **(b) A page can start reading the session.** A script that greets
//!   the visitor only while a row says so: the row's update makes the
//!   shared copy stale by its read set, and each session then gets, and
//!   keeps, its own correct bytes.
//! * **(c) Sharing needs the origin's positive assertion.** A read set
//!   without the mark, `*`, a mark after an unknown read set, or a garbled
//!   mark all keep the page per session.
//! * **(d) A crowd over many sessions** reads one shared page while a row
//!   it read changes, and no request that starts after the update has
//!   returned sees the old bytes.
//!
//! (a) and (d) run on the Figure 4 testbed. (b) and (c) need a script of
//! their own or a rewritten origin header, so they run the same parts —
//! script engine, HTTP origin front, node proxy with its page tier, and
//! the update bus bumping the node's epoch — on a simulated network of
//! their own.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread;
use std::time::Duration;

use dpc_appserver::apps::paper_site::{self, PaperSiteParams};
use dpc_appserver::context::RequestCtx;
use dpc_appserver::{Script, ScriptEngine};
use dpc_core::prelude::*;
use dpc_core::proto::{READS_HEADER, SESSION_FREE_MARK};
use dpc_core::{Bem, BemConfig, CoherencyEpoch, FragmentStore};
use dpc_http::{Client, Request, Response, Server, ServerHandle};
use dpc_metrics::Registry;
use dpc_net::{Clock, MeterRegistry, ProtocolModel, SimNetwork};
use dpc_proxy::node::{self, NodeSpec};
use dpc_proxy::testbed::{Testbed, TestbedConfig, ORIGIN_ADDR, PROXY_ADDR};
use dpc_proxy::{Proxy, ProxyMode};
use dpc_repository::datasets::DatasetConfig;
use dpc_repository::{Repository, Row};
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

fn demo(mode: ProxyMode, config: TestbedConfig) -> Testbed {
    Testbed::build(TestbedConfig {
        mode,
        paper_params: params(),
        demo_sites: true,
        dataset: DatasetConfig {
            users: 8,
            categories: 3,
            products_per_category: 3,
            fragment_bytes: 128,
            ..DatasetConfig::default()
        },
        l1_budget_bytes: if mode == ProxyMode::Dpc { 1 << 20 } else { 0 },
        ..config
    })
}

fn x_cache(resp: &Response) -> &str {
    resp.headers.get("x-cache").unwrap_or("")
}

#[test]
fn a_profile_page_is_never_served_to_another_session() {
    let tb = demo(ProxyMode::Dpc, TestbedConfig::default());
    let oracle = demo(ProxyMode::PassThrough, TestbedConfig::default());
    let targets = [
        "/home.jsp",
        "/catalog.jsp?categoryID=cat1",
        "/quote.jsp?symbol=SYM1",
        "/portfolio.jsp",
    ];
    let sessions = [Some("user1"), Some("user2"), None];
    for target in targets {
        let truth: Vec<Vec<u8>> = sessions
            .iter()
            .map(|user| oracle.get(target, *user).body.to_vec())
            .collect();
        assert_ne!(truth[0], truth[1], "{target} must differ per user");
        // Interleave the sessions so every probe meets the others' copies.
        for round in 0..3 {
            for (user, want) in sessions.iter().zip(&truth) {
                let resp = tb.get(target, *user);
                assert_eq!(resp.status.0, 200, "{target} {user:?}");
                assert!(
                    &resp.body.to_vec() == want,
                    "{target} served {user:?} another session's page"
                );
                let expected = if round == 0 {
                    "dpc-assembled"
                } else {
                    "dpc-l2"
                };
                assert_eq!(x_cache(&resp), expected, "{target} {user:?} {round}");
            }
        }
        let shared = tb.proxy().page_cache().lookup(&[target]);
        assert!(shared.is_none(), "{target} reached the shared key");
    }
    assert_eq!(
        tb.proxy().page_cache().len(),
        targets.len() * sessions.len()
    );
    // This target spells user1's session key as a shared key. The parser
    // refuses a NUL on the wire; an in-process request holding one skips
    // the tier.
    let forged = tb.proxy().serve(Request::get("/home.jsp\0user1"));
    assert_ne!(x_cache(&forged), "dpc-l2");
    let user1 = oracle.get("/home.jsp", Some("user1")).body.to_vec();
    assert!(forged.body.to_vec() != user1, "user1's page leaked");
}

/// Greets the visitor by name only while the `flags/greet` row says so:
/// its render reads the session on some updates and not on others.
struct GreetingScript;

const GREETING: &str = "/greeting.jsp";

impl Script for GreetingScript {
    fn path(&self) -> &str {
        GREETING
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let flag = ctx.charge(ctx.repo().get("flags", "greet"));
        w.literal(b"<h1>News</h1>");
        w.fragment(
            &FragmentId::new("headline"),
            FragmentPolicy::ttl(Duration::from_secs(600)).with_deps(&["news/top"]),
            |out| out.extend_from_slice(b"<p>Markets up</p>"),
        );
        if flag.is_some_and(|row| row.bool("on")) {
            let who = ctx.user().unwrap_or("guest");
            w.literal(format!("<p>Hello, {who}</p>").as_bytes());
        }
    }
}

/// Rewrites the origin's read-set header: `None` removes it.
type Forge = fn(&str) -> Option<String>;

/// A lone node in front of its own origin, wired like the testbed's: the
/// update bus runs the BEM's invalidation, then bumps the node's epoch.
struct Site {
    repo: Arc<Repository>,
    proxy: Arc<Proxy>,
    forge: Arc<Mutex<Option<Forge>>>,
    _origin: ServerHandle,
}

impl Site {
    fn build(mode: ProxyMode) -> Site {
        let net = SimNetwork::new(MeterRegistry::new(), ProtocolModel::default());
        let repo = Repository::with_defaults();
        repo.seed("flags", "greet", Row::new().with("on", false));
        let dpc = mode == ProxyMode::Dpc;
        let bem = Arc::new(Bem::new(
            BemConfig::default().with_capacity(64).with_enabled(dpc),
        ));
        let mut engine = ScriptEngine::new(bem, Arc::clone(&repo));
        paper_site::install(&mut engine, params());
        engine.register(GreetingScript);
        engine.connect_invalidation();
        let epoch = CoherencyEpoch::new();
        if dpc {
            let epoch = epoch.clone();
            repo.bus().subscribe(move |dep| {
                epoch.bump_label(dep);
            });
        }
        let forge: Arc<Mutex<Option<Forge>>> = Arc::default();
        let handler = {
            let forge = Arc::clone(&forge);
            move |req: Request| {
                let mut resp = engine.serve(&req);
                if let Some(forge) = *forge.lock() {
                    let value = resp.headers.get(READS_HEADER).expect("the node asked");
                    match forge(value) {
                        Some(value) => resp.headers.set(READS_HEADER, value),
                        None => {
                            resp.headers.remove(READS_HEADER);
                        }
                    }
                }
                resp
            }
        };
        let origin = Server::new(Box::new(net.listen(ORIGIN_ADDR)), Arc::new(handler)).spawn();
        let (clock, _) = Clock::virtual_clock();
        let proxy = node::build(NodeSpec {
            mode,
            id: 0,
            store: Arc::new(FragmentStore::new(64)),
            coherence: epoch,
            page_tier: dpc,
            firewall: None,
            dep_purger: None,
            net: &net,
            clock,
            tracer: &Tracer::off(),
            metrics: &Arc::new(Registry::new()),
        });
        Site {
            repo,
            proxy,
            forge,
            _origin: origin,
        }
    }

    fn get(&self, target: &str, user: Option<&str>) -> Response {
        let mut req = Request::get(target);
        if let Some(user) = user {
            req.headers.set("Cookie", format!("session={user}"));
        }
        let resp = self.proxy.serve(req);
        assert_eq!(resp.status.0, 200, "{target} {user:?}");
        assert_eq!(resp.headers.get(READS_HEADER), None);
        resp
    }

    fn greet(&self, on: bool) {
        self.repo.update("flags", "greet", |row| row.set("on", on));
    }

    /// Whether the bare target, the key every session shares, holds a page.
    fn shares(&self, target: &str) -> bool {
        self.proxy.page_cache().lookup(&[target]).is_some()
    }
}

#[test]
fn a_page_that_starts_reading_the_session_goes_per_session() {
    let site = Site::build(ProxyMode::Dpc);
    let oracle = Site::build(ProxyMode::PassThrough);
    let sessions = [Some("alice"), Some("bob"), None];
    let check = |user: Option<&str>| -> Response {
        let resp = site.get(GREETING, user);
        let want = oracle.get(GREETING, user).body.to_vec();
        assert!(resp.body.to_vec() == want, "{user:?} got wrong bytes");
        resp
    };

    // Greeting off: one render serves every session.
    for (i, user) in sessions.iter().enumerate() {
        for j in 0..2 {
            let expected = if (i, j) == (0, 0) {
                "dpc-assembled"
            } else {
                "dpc-l2"
            };
            assert_eq!(x_cache(&check(*user)), expected, "{user:?}");
        }
    }
    assert!(site.shares(GREETING));

    // Greeting on: the shared copy read the row, so it goes stale, and
    // every session renders and then hits its own page.
    site.greet(true);
    oracle.greet(true);
    let stale_before = site.proxy.page_cache().stats().stale_evictions;
    let mut bodies = Vec::new();
    for user in sessions {
        assert_eq!(x_cache(&check(user)), "dpc-assembled", "{user:?}");
        bodies.push(check(user).body.to_vec());
    }
    for user in sessions {
        assert_eq!(x_cache(&check(user)), "dpc-l2", "{user:?}");
    }
    assert_ne!(bodies[0], bodies[1]);
    assert_ne!(bodies[1], bodies[2]);
    // An empty session cookie is no session: the render and the key both
    // take it as anonymous.
    assert_eq!(x_cache(&check(Some(""))), "dpc-l2");
    assert!(site.proxy.page_cache().stats().stale_evictions > stale_before);
    assert!(!site.shares(GREETING));

    // Greeting off again: the session copies read the row too, and the
    // next render is shared once more.
    site.greet(false);
    oracle.greet(false);
    assert_eq!(x_cache(&check(Some("alice"))), "dpc-assembled");
    assert_eq!(x_cache(&check(Some("bob"))), "dpc-l2");
    assert_eq!(x_cache(&check(None)), "dpc-l2");
    assert!(site.shares(GREETING));
}

#[test]
fn sharing_needs_the_origins_exact_mark_after_a_known_read_set() {
    let site = Site::build(ProxyMode::Dpc);
    let oracle = Site::build(ProxyMode::PassThrough);
    let forgeries: [(&str, Forge); 6] = [
        ("no header", |_| None),
        ("no mark", |v| {
            v.strip_suffix(SESSION_FREE_MARK).map(str::to_owned)
        }),
        ("unknown reads", |_| Some("*".to_owned())),
        ("mark after unknown reads", |_| {
            Some(format!("*{SESSION_FREE_MARK}"))
        }),
        ("garbled mark", |v| {
            Some(v.replace(";session-free", ";session-fre"))
        }),
        ("mark twice", |v| Some(format!("{v}{SESSION_FREE_MARK}"))),
    ];
    for (p, (what, forge)) in forgeries.into_iter().enumerate() {
        let target = page(p % 4);
        site.proxy.page_cache().clear();
        *site.forge.lock() = Some(forge);
        let want = oracle.get(&target, None).body.to_vec();
        for (user, expected) in [
            (Some("alice"), "dpc-assembled"),
            (Some("bob"), "dpc-assembled"),
            (Some("alice"), "dpc-l2"),
            (Some("bob"), "dpc-l2"),
        ] {
            let resp = site.get(&target, user);
            assert!(resp.body.to_vec() == want, "{what}: wrong bytes");
            assert_eq!(x_cache(&resp), expected, "{what}: {user:?}");
        }
        assert!(!site.shares(&target), "{what}: shared");
    }
    // The origin's own header shares the page.
    *site.forge.lock() = None;
    site.proxy.page_cache().clear();
    assert_eq!(x_cache(&site.get(&page(0), Some("alice"))), "dpc-assembled");
    assert_eq!(x_cache(&site.get(&page(0), Some("bob"))), "dpc-l2");
    assert!(site.shares(&page(0)));
}

const THREADS: usize = 16;
const SESSIONS: usize = 8;
/// Reads each crowd thread makes once it has seen the update return.
const READS_AFTER: usize = 12;

/// The crowd's page, and a page that does not read the updated row.
const A: usize = 1;
const B: usize = 2;

/// The updated row feeds A's last, uncacheable slot, so the update frees
/// no directory key and only A's read set can unserve its shared copy (a
/// freed and reused key opens ROADMAP race 1(a), which
/// `flash_crowd_tier.rs` races on its own).
const SLOT: usize = 3;

#[test]
fn crowd_over_many_sessions_never_sees_a_shared_pages_old_bytes() {
    let tb = Arc::new(demo(
        ProxyMode::Dpc,
        TestbedConfig {
            loops: 2,
            ..TestbedConfig::default()
        },
    ));
    let oracle = demo(ProxyMode::PassThrough, TestbedConfig::default());
    let old_a = oracle.get(&page(A), Some("user0")).body.to_vec();
    let bytes_b = oracle.get(&page(B), Some("user0")).body.to_vec();
    paper_site::invalidate_fragment(oracle.engine().repo(), A, SLOT);
    let new_a = oracle.get(&page(A), Some("user1")).body.to_vec();
    assert_ne!(old_a, new_a);

    // Each thread its own connection and one of eight sessions; the first
    // request installs each page once, for every session.
    let clients: Vec<(Client, String)> = (0..THREADS)
        .map(|i| {
            let client = Client::new(Arc::new(tb.net().connector()));
            (client, format!("session=user{}", i % SESSIONS))
        })
        .collect();
    let get = |(client, cookie): &(Client, String), p: usize| {
        let req = Request::get(page(p)).with_header("Cookie", cookie.as_str());
        client.request(PROXY_ADDR, req).unwrap()
    };
    for client in &clients {
        for p in [A, B] {
            let want = if p == A { &old_a } else { &bytes_b };
            assert_eq!(&get(client, p).body.to_vec(), want);
        }
    }
    let stats = tb.proxy().page_cache().stats();
    assert_eq!((stats.misses, tb.proxy().page_cache().len()), (2, 2));

    let start = Arc::new(Barrier::new(THREADS + 1));
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
                    let resp = get(&client, A);
                    served.fetch_add(1, Ordering::Release);
                    after += usize::from(landed);
                    seen.push((landed, resp.body.to_vec()));
                }
                (seen, get(&client, B))
            })
        })
        .collect();
    start.wait();
    // Let the crowd get going on its tier hits, then land the update.
    while served.load(Ordering::Acquire) < THREADS {
        thread::yield_now();
    }
    paper_site::invalidate_fragment(tb.engine().repo(), A, SLOT);
    updated.store(true, Ordering::Release);

    for thread in crowd {
        let (seen, b) = thread.join().expect("a crowd thread panicked");
        for (landed, body) in seen {
            if landed {
                assert!(body == new_a, "A's old bytes after the update returned");
            } else {
                assert!(body == old_a || body == new_a, "A matches no render");
            }
        }
        assert_eq!(b.body.to_vec(), bytes_b);
        assert_eq!(
            x_cache(&b),
            "dpc-l2",
            "B, which did not read the row, must keep serving from the tier"
        );
    }
    // One copy of each page, whichever sessions asked.
    assert_eq!(tb.proxy().page_cache().len(), 2);
}
