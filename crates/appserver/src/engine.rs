//! The script engine: URL → script dispatch, BEM wiring, HTTP glue.
//!
//! Equivalent to the application-server tier of Figure 1: a request maps to
//! an invocation of a script (the paper's `catalog.jsp` example); the
//! script runs presentation/business/data logic and writes its output
//! through the BEM's [`TemplateWriter`]. The engine implements
//! [`dpc_http::Handler`], so it mounts directly on an HTTP [`Server`].
//!
//! [`TemplateWriter`]: dpc_core::bem::TemplateWriter
//! [`Server`]: dpc_http::Server

use dpc_core::bem::TemplateWriter;
use dpc_core::proto::{Answer, Ask, Provenance};
use dpc_core::Bem;
use dpc_http::{Handler, Request, Response, Status};
use dpc_repository::{reads, Repository};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::context::{RequestCtx, COST_HEADER};

/// A dynamic script: one registered page generator.
pub trait Script: Send + Sync + 'static {
    /// The path this script is mounted at, e.g. `/catalog.jsp`.
    fn path(&self) -> &str;

    /// Generate the page. Cacheable code blocks go through
    /// [`TemplateWriter::fragment`]; layout and uncacheable content through
    /// [`TemplateWriter::literal`].
    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>);
}

/// Fixed simulated cost of invoking a script (interpreter startup,
/// session handling — §2.2.2's presentation-layer overhead).
const SCRIPT_INVOCATION_COST: Duration = Duration::from_micros(300);

/// The application server.
pub struct ScriptEngine {
    bem: Arc<Bem>,
    repo: Arc<Repository>,
    scripts: HashMap<String, Box<dyn Script>>,
    requests: AtomicU64,
    bypasses: AtomicU64,
    not_found: AtomicU64,
}

impl ScriptEngine {
    pub fn new(bem: Arc<Bem>, repo: Arc<Repository>) -> ScriptEngine {
        ScriptEngine {
            bem,
            repo,
            scripts: HashMap::new(),
            requests: AtomicU64::new(0),
            bypasses: AtomicU64::new(0),
            not_found: AtomicU64::new(0),
        }
    }

    /// Mount a script at its path. Replaces any previous script there.
    pub fn register(&mut self, script: impl Script) {
        self.scripts
            .insert(script.path().to_owned(), Box::new(script));
    }

    /// Subscribe the BEM's invalidation manager to the repository's update
    /// bus. Call once after all seeding is done.
    pub fn connect_invalidation(&self) {
        let bem = Arc::clone(&self.bem);
        self.repo.bus().subscribe(move |dep| {
            bem.on_data_update(dep);
        });
    }

    /// The BEM behind this engine.
    pub fn bem(&self) -> &Arc<Bem> {
        &self.bem
    }

    /// The repository behind this engine.
    pub fn repo(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// Mounted script paths (sorted).
    pub fn paths(&self) -> Vec<&str> {
        let mut p: Vec<&str> = self.scripts.keys().map(String::as_str).collect();
        p.sort_unstable();
        p
    }

    /// (requests, bypass requests, 404s).
    pub fn counters(&self) -> (u64, u64, u64) {
        (
            self.requests.load(Ordering::Relaxed),
            self.bypasses.load(Ordering::Relaxed),
            self.not_found.load(Ordering::Relaxed),
        )
    }

    /// Serve one request (also reachable through the `Handler` impl).
    pub fn serve(&self, req: &Request) -> Response {
        self.requests.fetch_add(1, Ordering::Relaxed);
        let ctx = RequestCtx::new(req, Arc::clone(&self.repo), Arc::clone(&self.bem));
        let Some(script) = self.scripts.get(ctx.uri().path.as_str()) else {
            self.not_found.fetch_add(1, Ordering::Relaxed);
            return Response::error(
                Status::NOT_FOUND,
                &format!("no script mounted at {}", ctx.uri().path),
            );
        };
        let ask = Ask::parse(|name| req.headers.get(name));
        if ask.bypass {
            self.bypasses.fetch_add(1, Ordering::Relaxed);
        }
        let node = ask.node.unwrap_or(0);
        let mut writer = if ask.bypass {
            self.bem.bypass_writer()
        } else {
            if !ask.missing.is_empty() {
                self.bem.forget_stored(node, &ask.missing);
            }
            self.bem.template_writer_for_node(node)
        };
        ctx.charge_fixed(SCRIPT_INVOCATION_COST);
        let provenance = if ask.answers_reads() {
            writer.record_reads();
            let ((), rows) = reads::record(|| script.run(&ctx, &mut writer));
            let mut read_set = writer.take_reads().unwrap_or_default();
            match rows {
                Some(rows) => rows.iter().for_each(|row| read_set.note(row)),
                None => read_set.mark_unknown(),
            }
            Some(Provenance::recorded(&read_set, ctx.session_observed()))
        } else {
            script.run(&ctx, &mut writer);
            None
        };
        let answer = Answer {
            instrumented: writer.is_instrumented(),
            provenance,
        };
        let mut resp = Response::html(writer.finish());
        resp.headers.set("Server", "dpc-origin/0.1");
        resp.headers
            .set(COST_HEADER, ctx.cost().as_nanos().to_string());
        for (name, value) in answer.format() {
            resp.headers.set(name, value);
        }
        resp
    }
}

impl Handler for ScriptEngine {
    fn handle(&self, req: Request) -> Response {
        self.serve(&req)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::prelude::*;
    use dpc_core::proto::{
        BYPASS_HEADER, INSTRUMENTED_HEADER, MISSING_HEADER, NODE_HEADER, READS_HEADER,
        WANT_READS_HEADER,
    };
    use dpc_core::{BemConfig, FragmentId};
    use dpc_http::Request;

    struct HelloScript;

    impl Script for HelloScript {
        fn path(&self) -> &str {
            "/hello.jsp"
        }

        fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
            let who = ctx.param("who").unwrap_or("world").to_owned();
            w.literal(b"<h1>");
            w.fragment(
                &FragmentId::with_params("hello", &[("who", &who)]),
                FragmentPolicy::ttl(Duration::from_secs(60)),
                move |out| out.extend_from_slice(format!("Hello, {who}!").as_bytes()),
            );
            w.literal(b"</h1>");
        }
    }

    /// Reads the session: its bytes differ per visitor.
    struct WhoamiScript;

    impl Script for WhoamiScript {
        fn path(&self) -> &str {
            "/whoami.jsp"
        }

        fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
            w.literal(ctx.user().unwrap_or("guest").as_bytes());
        }
    }

    fn engine() -> Arc<ScriptEngine> {
        let repo = Repository::with_defaults();
        let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(64)));
        let mut engine = ScriptEngine::new(bem, repo);
        engine.register(HelloScript);
        engine.register(WhoamiScript);
        Arc::new(engine)
    }

    #[test]
    fn reads_mark_a_render_session_free_only_when_it_never_saw_the_session() {
        let e = engine();
        let asking = |target: &str| {
            Request::get(target)
                .with_header("Cookie", "session=u1")
                .with_header(WANT_READS_HEADER, "1")
        };
        let reads = |resp: &Response| resp.headers.get(READS_HEADER).map(Provenance::parse);
        let hello = reads(&e.serve(&asking("/hello.jsp?who=bob"))).expect("asked");
        assert_eq!(hello.reads.as_deref(), Some(&[][..]));
        assert!(hello.shared(), "{hello:?}");
        let whoami = reads(&e.serve(&asking("/whoami.jsp"))).expect("asked");
        assert!(!whoami.shared(), "{whoami:?}");
        // Not asked, or a bypass: no read set and no mark.
        assert_eq!(reads(&e.serve(&Request::get("/hello.jsp"))), None);
        let bypass = asking("/hello.jsp").with_header(BYPASS_HEADER, "1");
        assert_eq!(reads(&e.serve(&bypass)), None);
    }

    #[test]
    fn serves_instrumented_template() {
        let e = engine();
        let resp = e.serve(&Request::get("/hello.jsp?who=bob"));
        assert_eq!(resp.status, Status::OK);
        assert!(is_instrumented(&resp.body.flatten()));
        assert_eq!(resp.headers.get(INSTRUMENTED_HEADER), Some("1"));
        assert!(resp.headers.get(COST_HEADER).is_some());
        // Assembles to the expected page.
        let store = FragmentStore::new(64);
        let page = assemble(&resp.body.flatten(), &store).unwrap();
        assert_eq!(page.html, b"<h1>Hello, bob!</h1>".to_vec());
    }

    #[test]
    fn bypass_header_yields_plain_page() {
        let e = engine();
        let req = Request::get("/hello.jsp?who=amy").with_header(BYPASS_HEADER, "1");
        let resp = e.serve(&req);
        assert!(!is_instrumented(&resp.body.flatten()));
        assert_eq!(resp.body, *b"<h1>Hello, amy!</h1>");
        assert_eq!(e.counters().1, 1);
    }

    #[test]
    fn named_missing_keys_are_re_set() {
        use dpc_core::tag::{Op, Scanner};
        let e = engine();
        let as_node = |node: u32| {
            Request::get("/hello.jsp?who=bob").with_header(NODE_HEADER, node.to_string())
        };
        let ops = |resp: &Response| -> Vec<String> {
            Scanner::new(&resp.body.flatten())
                .unwrap()
                .collect_ops()
                .unwrap()
                .into_iter()
                .filter_map(|op| match op {
                    Op::Get(k) => Some(format!("GET {}", k.0)),
                    Op::Set { key, .. } => Some(format!("SET {}", key.0)),
                    Op::Literal(_) => None,
                })
                .collect()
        };
        // Node 1 stores the fragment.
        let first = e.serve(&as_node(1));
        let Some(Op::Set { key, .. }) = Scanner::new(&first.body.flatten())
            .unwrap()
            .collect_ops()
            .unwrap()
            .into_iter()
            .find(|op| matches!(op, Op::Set { .. }))
        else {
            panic!("a cold fragment is SET");
        };
        // Node 2 never stored it: a node-miss SET under the same key, then
        // a plain GET.
        assert_eq!(ops(&e.serve(&as_node(2))), vec![format!("SET {}", key.0)]);
        assert_eq!(ops(&e.serve(&as_node(2))), vec![format!("GET {}", key.0)]);
        // A refresh naming the key gets it re-SET, once.
        let r = e.serve(&as_node(2).with_header(MISSING_HEADER, key.to_string()));
        assert_eq!(ops(&r), vec![format!("SET {}", key.0)]);
        assert_eq!(ops(&e.serve(&as_node(2))), vec![format!("GET {}", key.0)]);
        assert_eq!(e.bem().stats().snapshot().missing_keys, 1);
    }

    #[test]
    fn unknown_path_is_404() {
        let e = engine();
        let resp = e.serve(&Request::get("/nope.jsp"));
        assert_eq!(resp.status, Status::NOT_FOUND);
        assert_eq!(e.counters().2, 1);
    }

    #[test]
    fn cost_header_reflects_work() {
        let e = engine();
        let r1 = e.serve(&Request::get("/hello.jsp?who=x"));
        let cost1: u64 = r1.headers.get(COST_HEADER).unwrap().parse().unwrap();
        assert!(cost1 >= SCRIPT_INVOCATION_COST.as_nanos() as u64);
    }

    #[test]
    fn second_request_is_smaller_via_directory_hit() {
        let e = engine();
        let r1 = e.serve(&Request::get("/hello.jsp?who=bob"));
        let r2 = e.serve(&Request::get("/hello.jsp?who=bob"));
        assert!(r2.body.len() < r1.body.len());
    }

    #[test]
    fn invalidation_subscription_works() {
        let e = engine();
        e.connect_invalidation();
        // Warm a fragment that depends on nothing; then check dep routing
        // by registering a dependent fragment through the BEM directly.
        let bem = Arc::clone(e.bem());
        let mut w = bem.template_writer();
        w.fragment(
            &FragmentId::new("dep-frag"),
            FragmentPolicy::ttl(Duration::from_secs(600)).with_deps(&["users/user1"]),
            |b| b.extend_from_slice(b"X"),
        );
        let _ = w.finish();
        assert_eq!(bem.directory_stats().misses, 1);
        // A repository update must invalidate it via the bus.
        e.repo().seed(
            "users",
            "user1",
            dpc_repository::Row::new().with("name", "N"),
        );
        e.repo().update("users", "user1", |r| r.set("name", "M"));
        let mut w = bem.template_writer();
        let hit = w.fragment(
            &FragmentId::new("dep-frag"),
            FragmentPolicy::ttl(Duration::from_secs(600)).with_deps(&["users/user1"]),
            |b| b.extend_from_slice(b"X"),
        );
        let _ = w.finish();
        assert!(!hit, "update should have invalidated the fragment");
    }
}
