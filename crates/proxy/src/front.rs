//! The proxy front end: one HTTP handler, four modes.
//!
//! [`Proxy`] is the [`Handler`] every serving tier mounts — the Figure 4
//! testbed's proxy server, and each node of the ring cluster. The server
//! front invokes it inline on each of its event loops
//! (`dpc_http::Server::with_loops`), concurrently across loops, so
//! everything here is shared state behind `Arc`s and atomics. The handler
//! blocks its loop on origin fetches and never parks; the origin never
//! calls back into the proxy, so the wait always ends.

use dpc_core::proto::{
    self, Answer, Ask, Provenance, ASSEMBLY_ERROR_HEADER, DEP_HEADER, JOURNEY_HEADER,
    PURGED_KEYS_HEADER, TRACE_HEADER,
};
use dpc_core::{assemble_rope, salvage, AssembleError, DpcKey, FragmentStore};
use dpc_firewall::Firewall;
use dpc_http::{Body, Client, Handler, Method, Request, Response, Status};
use dpc_metrics::Registry as MetricsRegistry;
use dpc_trace::{render_journey, Layer, SpanStatus, Tracer};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::esi::EsiAssembler;
use crate::modes::ProxyMode;
use crate::page_cache::PageCache;
use crate::tier::{etag_matches, hit_status, page_key, page_response, session_of};

/// Counters exposed by the proxy.
#[derive(Debug, Default)]
pub struct ProxyStats {
    pub requests: AtomicU64,
    /// DPC mode: templates successfully assembled.
    pub assembled: AtomicU64,
    /// DPC mode: assembly failures that fell back to a bypass refetch.
    pub bypass_refetches: AtomicU64,
    /// DPC mode: assembly failures repaired by a *refresh* refetch — a
    /// classic §7 round trip naming the absent keys, which the BEM
    /// re-`SET`s — instead of a full bypass.
    pub refresh_refetches: AtomicU64,
    /// DPC mode: origin responses that were not instrumented (forwarded
    /// verbatim).
    pub uninstrumented: AtomicU64,
    /// Upstream fetch failures surfaced as 502.
    pub upstream_errors: AtomicU64,
    /// Bytes of final pages delivered to clients.
    pub delivered_bytes: AtomicU64,
    /// Bytes of origin response bodies received.
    pub origin_bytes: AtomicU64,
    /// DPC mode: running totals of every assembly pass's
    /// [`dpc_core::AssemblyStats`], accumulated per assembled page.
    pub asm_gets: AtomicU64,
    pub asm_sets: AtomicU64,
    pub asm_literal_bytes: AtomicU64,
    pub asm_get_bytes: AtomicU64,
    pub asm_set_bytes: AtomicU64,
    pub asm_template_bytes: AtomicU64,
}

/// One failed assembly attempt: the error, and the keys of the template's
/// `GET`s still absent once its `SET`s were installed.
struct Failed {
    err: AssembleError,
    missing: Vec<DpcKey>,
}

/// Dependency-wide invalidation hook: frees every cached key registered
/// under the given dependency and returns the freed-key count, or `None`
/// while the node has no origin BEM to send the update to.
pub type DepPurger = Arc<dyn Fn(&str) -> Option<usize> + Send + Sync>;

/// The reverse proxy (Figure 4's "External" box: firewall + proxy cache +
/// DPC).
pub struct Proxy {
    mode: ProxyMode,
    /// Node id announced to the BEM (§7 operation); the lone proxy is
    /// node 0.
    node: u32,
    origin_addr: String,
    client: Arc<Client>,
    store: Arc<FragmentStore>,
    page_cache: Arc<PageCache>,
    esi: Arc<EsiAssembler>,
    firewall: Option<Arc<Firewall>>,
    /// DPC mode only: serve repeat GETs of assembled pages from the page
    /// cache (the node's L2 tier), one copy per session or, for a page the
    /// origin marked session-free, one for all sessions, and install freshly
    /// assembled pages into it, stamped with the coherency epoch and the
    /// read set the origin names when asked. Off by default — the classic
    /// DPC path reassembles every request and asks for no read set.
    page_tier: bool,
    /// When set, `GET /_dpc/metrics` is served right here from the
    /// registry's text exposition instead of being forwarded.
    metrics: Option<Arc<MetricsRegistry>>,
    /// Dependency-wide invalidation hook for `PURGE` + `X-DPC-Dep`:
    /// returns the number of keys freed. Every node points this at its
    /// origin BEM's data-update path, which bumps the node's page epoch.
    dep_purger: Option<DepPurger>,
    /// Span recorder handle. `Tracer::off()` unless installed via
    /// [`Proxy::with_tracer`]; the serving paths then record spans under
    /// the request's trace context (established by the HTTP front, or by
    /// [`Proxy::serve`] itself for direct calls).
    tracer: Tracer,
    stats: ProxyStats,
}

impl Proxy {
    /// Build a proxy in `mode` forwarding to `origin_addr` via `client`.
    pub fn new(
        mode: ProxyMode,
        origin_addr: &str,
        client: Arc<Client>,
        store: Arc<FragmentStore>,
        page_cache: Arc<PageCache>,
        esi: Arc<EsiAssembler>,
        firewall: Option<Arc<Firewall>>,
    ) -> Proxy {
        Proxy {
            mode,
            node: 0,
            origin_addr: origin_addr.to_owned(),
            client,
            store,
            page_cache,
            esi,
            firewall,
            page_tier: false,
            metrics: None,
            dep_purger: None,
            tracer: Tracer::off(),
            stats: ProxyStats::default(),
        }
    }

    /// Builder: record spans into `tracer`'s flight recorder and serve
    /// `GET /_dpc/trace/recent` from its keep-list. Pass a tracer built on
    /// the fleet's shared recorder so this front's spans stitch into the
    /// same traces as the HTTP servers'.
    pub fn with_tracer(mut self, tracer: Tracer) -> Proxy {
        self.tracer = tracer;
        self
    }

    /// The proxy's span recorder handle.
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// Builder: make this proxy node `node` (0–63), the id it announces
    /// to the BEM.
    pub fn with_node(mut self, node: u32) -> Proxy {
        assert!(node < 64, "at most 64 DPC nodes");
        self.node = node;
        self
    }

    /// Builder: enable the DPC page tier — assembled pages are installed
    /// into the page cache under session-qualified keys, or under the bare
    /// target when the origin marked the render session-free (see
    /// [`crate::tier::page_key`]), stamped with the page cache's coherency
    /// epoch and their read set, and repeat GETs are served from there
    /// without reassembly.
    pub fn with_page_tier(mut self) -> Proxy {
        self.page_tier = true;
        self
    }

    /// Builder: serve `GET /_dpc/metrics` from `registry`'s Prometheus
    /// text exposition (rendered at request time, so scrapes always see
    /// live counters).
    pub fn with_metrics(mut self, registry: Arc<MetricsRegistry>) -> Proxy {
        self.metrics = Some(registry);
        self
    }

    /// Builder: route `PURGE` requests carrying an `X-DPC-Dep` header to
    /// `purger`, which invalidates every key registered under that
    /// dependency and returns the freed-key count.
    pub fn with_dep_purger(mut self, purger: DepPurger) -> Proxy {
        self.dep_purger = Some(purger);
        self
    }

    /// Node id announced to the BEM.
    pub fn node(&self) -> u32 {
        self.node
    }

    /// Operating mode.
    pub fn mode(&self) -> ProxyMode {
        self.mode
    }

    /// The DPC slot store (for tests and restart simulation).
    pub fn store(&self) -> &Arc<FragmentStore> {
        &self.store
    }

    /// The node's page cache: page-cache mode's cache, DPC mode's page
    /// tier.
    pub fn page_cache(&self) -> &Arc<PageCache> {
        &self.page_cache
    }

    /// The ESI assembler (Esi mode).
    pub fn esi(&self) -> &Arc<EsiAssembler> {
        &self.esi
    }

    /// Counter access.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Serve one client request.
    ///
    /// The HTTP front normally establishes the trace context before the
    /// handler runs; a direct call (tests, embedding without a server)
    /// opens its own root span here so the journey is still recorded.
    pub fn serve(&self, req: Request) -> Response {
        if !self.tracer.enabled() || dpc_trace::current().is_some() {
            return self.serve_traced(req);
        }
        let Some(ctx) = self
            .tracer
            .begin_request(Layer::Proxy, req.headers.get(TRACE_HEADER))
        else {
            return self.serve_traced(req);
        };
        let guard = dpc_trace::enter(ctx.trace_id, ctx.span_id);
        let resp = self.serve_traced(req);
        drop(guard);
        let ok = resp.status.is_success() || resp.status == Status::NOT_MODIFIED;
        self.tracer.finish_root(
            ctx,
            if ok {
                SpanStatus::Ok
            } else {
                SpanStatus::Error
            },
        );
        resp
    }

    fn serve_traced(&self, req: Request) -> Response {
        self.stats.requests.fetch_add(1, Ordering::Relaxed);
        if req.method == Method::Get && req.path() == "/_dpc/metrics" {
            if let Some(registry) = &self.metrics {
                return Response::html(registry.render())
                    .with_header("Content-Type", "text/plain; version=0.0.4");
            }
        }
        if req.method == Method::Get && req.path() == "/_dpc/trace/recent" {
            if let Some(rec) = self.tracer.recorder() {
                return Response::html(rec.recent_json())
                    .with_header("Content-Type", "application/json");
            }
        }
        if req.method == Method::Purge {
            let resp = {
                let mut sp = self.tracer.span(Layer::Purge);
                let resp = self.handle_purge(&req);
                if !resp.status.is_success() {
                    sp.set_status(SpanStatus::Error);
                }
                resp
            };
            if req.headers.get(JOURNEY_HEADER).is_some() {
                return self.attach_journey(resp);
            }
            return resp;
        }
        let resp = match self.mode {
            ProxyMode::PassThrough => self.forward(&req),
            ProxyMode::PageCache => self.serve_page_cache(&req),
            ProxyMode::Esi => self.serve_esi(&req),
            ProxyMode::Dpc => self.serve_dpc(&req),
        };
        self.stats
            .delivered_bytes
            .fetch_add(resp.body.len() as u64, Ordering::Relaxed);
        if req.headers.get(JOURNEY_HEADER).is_some() {
            return self.attach_journey(resp);
        }
        resp
    }

    /// Annotate a response with its cache journey (opt-in via the
    /// `X-DPC-Trace` request header), rendered from the span recorder:
    /// the trace id, which tier served it, the single-flight role it
    /// played, how many rope segments it carries, and which node produced
    /// it. Space-separated `k=v` pairs so tests and operators can parse
    /// it without a grammar.
    fn attach_journey(&self, resp: Response) -> Response {
        let Some((trace_id, _)) = dpc_trace::current() else {
            return resp;
        };
        let Some(rec) = self.tracer.recorder() else {
            return resp;
        };
        let segments = resp.body.segments().len();
        let spans = rec.spans_of(trace_id);
        let journey = render_journey(trace_id, &spans, segments, self.node());
        resp.with_header(JOURNEY_HEADER, journey)
    }

    fn handle_purge(&self, req: &Request) -> Response {
        if let Some(dep) = req.headers.get(DEP_HEADER) {
            // Dependency-wide purge: every key registered under `dep` is
            // invalidated (for every node the origin BEM serves), and the
            // freed-key count is reported — a bare target purge cannot
            // reach session-qualified page keys, this can.
            let Some(freed) = self.dep_purger.as_ref().and_then(|purge| purge(dep)) else {
                return Response::error(Status(501), "dependency purge has no origin on this node");
            };
            return Response::html(format!("purged {freed} keys"))
                .with_header("X-Cache", "purged")
                .with_header(PURGED_KEYS_HEADER, freed.to_string());
        }
        let purged = self.page_cache.purge(&req.target);
        let esi_purged = self.esi.invalidate_fragment(&req.target);
        if purged || esi_purged {
            Response::html("purged").with_header("X-Cache", "purged")
        } else {
            Response::status(Status::NOT_FOUND)
        }
    }

    /// Fetch from the origin, running the firewall over the response body
    /// (the boundary every origin byte crosses in Figure 4). The origin
    /// sees none of the client's internal headers: only what this node
    /// asks.
    fn fetch_origin(&self, req: &Request, ask: &Ask) -> Result<Response, Response> {
        let mut upstream_req = req.clone();
        for name in proto::INTERNAL_REQUEST {
            upstream_req.headers.remove(name);
        }
        if let Some((tid, sid)) = dpc_trace::current() {
            // Propagate the trace context on the origin leg so an
            // instrumented upstream (another DPC node, a traced origin
            // front) stitches its spans into this request's trace.
            upstream_req
                .headers
                .set(TRACE_HEADER, dpc_trace::format_ctx(tid, sid));
        }
        for (name, value) in ask.format() {
            upstream_req.headers.set(name, value);
        }
        let resp = self
            .client
            .request(&self.origin_addr, upstream_req)
            .map_err(|e| {
                self.stats.upstream_errors.fetch_add(1, Ordering::Relaxed);
                Response::error(Status::BAD_GATEWAY, &format!("upstream: {e}"))
            })?;
        self.stats
            .origin_bytes
            .fetch_add(resp.body.len() as u64, Ordering::Relaxed);
        if let Some(fw) = &self.firewall {
            // Origin responses come off the parser as single buffers, so
            // flattening for the scan is a refcount bump.
            let outcome = fw.scan(&resp.body.flatten());
            if !outcome.allowed {
                return Err(Response::error(
                    Status::BAD_GATEWAY,
                    "response blocked by firewall policy",
                ));
            }
        }
        Ok(resp)
    }

    fn forward(&self, req: &Request) -> Response {
        match self.fetch_origin(req, &Ask::default()) {
            Ok(resp) => strip_internal_headers(resp).with_header("X-Cache", "pass"),
            Err(e) => e,
        }
    }

    // -- PageCache mode ------------------------------------------------------

    /// §3.2.1's page cache: lookup, else fetch and install. Misses are not
    /// coalesced; the purge epoch captured before the fetch keeps a page
    /// that a purge overtook out of the cache.
    fn serve_page_cache(&self, req: &Request) -> Response {
        let get = req.method == Method::Get;
        if get {
            let mut sp = self.tracer.span(Layer::TierL2);
            if let Some(page) = self.page_cache.lookup(&[&req.target]) {
                sp.set_status(SpanStatus::Hit);
                return Response::html(page.body)
                    .with_header("Content-Type", page.content_type)
                    .with_header("X-Cache", "page-hit");
            }
            sp.set_status(SpanStatus::Miss);
        }
        let epoch = self.page_cache.purge_epoch();
        let resp = match self.fetch_origin(req, &Ask::default()) {
            Ok(resp) => resp,
            Err(e) => return e,
        };
        if get && resp.status.is_success() {
            let content_type = resp.headers.get("content-type").unwrap_or("text/html");
            self.page_cache.install_unless_purged(
                &req.target,
                resp.body.flatten(),
                content_type,
                epoch,
            );
        }
        strip_internal_headers(resp).with_header("X-Cache", "page-miss")
    }

    // -- Esi mode -------------------------------------------------------------

    fn serve_esi(&self, req: &Request) -> Response {
        // Templates are keyed by the full target (path + query): each page
        // instance has its own template, as deployed ESI caches do.
        let path = req.target.clone();
        if !self.esi.has_template(&path) {
            // No template registered: behave like a pass-through (static
            // assets, unfactored pages).
            return self.forward(req);
        }
        match self.esi.assemble(&path, &self.client, &self.origin_addr) {
            Ok(page) => Response::html(page).with_header("X-Cache", "esi-assembled"),
            Err(e) => Response::error(Status::BAD_GATEWAY, &e),
        }
    }

    // -- Dpc mode --------------------------------------------------------------

    fn serve_dpc(&self, req: &Request) -> Response {
        let resp = if self.page_tier && req.method == Method::Get {
            self.serve_dpc_tiered(req)
        } else {
            self.serve_dpc_assembling(req, false).0
        };
        self.finish_conditional(req, resp)
    }

    /// Collapse a full response into `304 Not Modified` when the client's
    /// `If-None-Match` still names the page's current identity. Runs
    /// *after* the tier install, so a conditional GET that misses every
    /// cache still warms them — only the client leg is spared the bytes.
    fn finish_conditional(&self, req: &Request, resp: Response) -> Response {
        if resp.status != Status::OK {
            return resp;
        }
        let matched = match (req.headers.get("If-None-Match"), resp.headers.get("ETag")) {
            (Some(if_none_match), Some(etag)) => etag_matches(if_none_match, etag),
            _ => false,
        };
        if !matched {
            return resp;
        }
        let etag = resp.headers.get("ETag").expect("matched above").to_owned();
        // The full page was rebuilt (and installed tier-side) but only the
        // hash goes to the client — record the collapse so the journey
        // reports `revalidated`, not the rebuild path.
        let mut sp = self.tracer.span(Layer::Proxy);
        sp.set_status(SpanStatus::Revalidated);
        drop(sp);
        let x_cache = resp.headers.get("X-Cache").map(str::to_owned);
        let mut out = Response::status(Status::NOT_MODIFIED).with_header("ETag", etag);
        if let Some(x_cache) = x_cache {
            out = out.with_header("X-Cache", x_cache);
        }
        out
    }

    /// The page-tier wrapper around the classic assemble path: one probe of
    /// the page's shared key, then its session key, and on a miss install
    /// the assembled page for the next request, stamped with the read set
    /// the origin named for it — under the shared key when the origin
    /// marked the render session-free, else under the session key. The
    /// epoch stamp is read *before* the origin fetch, so the install
    /// refuses a page whose assembly raced an invalidation of something it
    /// read.
    fn serve_dpc_tiered(&self, req: &Request) -> Response {
        let session = session_of(req);
        // The parser refuses a NUL on the wire; an in-process caller's could
        // make one key spell another, so its request skips the tier.
        if req.target.contains('\0') || session.contains('\0') {
            return self.serve_dpc_assembling(req, false).0;
        }
        let key = page_key(&req.target, session);
        let shared = req.target.as_str();
        let mut sp = self.tracer.span(Layer::TierL2);
        if let Some(page) = self.page_cache.lookup(&[shared, &key]) {
            let resp = page_response(req, &page, "dpc-l2");
            sp.set_status(hit_status(&resp));
            return resp;
        }
        sp.set_status(SpanStatus::Miss);
        drop(sp);
        let stamp = self.page_cache.coherence_stamp();
        let (resp, provenance) = self.serve_dpc_assembling(req, true);
        if resp.status.is_success() && resp.headers.get("X-Cache") == Some("dpc-assembled") {
            // Only genuinely assembled pages enter the tier: passes,
            // bypasses and errors are per-request outcomes, not pages.
            let content_type = resp.headers.get("Content-Type").unwrap_or("text/html");
            let etag = resp.headers.get("ETag").map(str::to_owned);
            self.page_cache.install(
                if provenance.shared() { shared } else { &key },
                resp.body.flatten(),
                content_type,
                Some(stamp.with_reads(provenance.reads)),
                etag,
            );
        }
        resp
    }

    /// The repair ladder. A template request names this node; if a `GET`
    /// finds its slot without the generation it names, the node refreshes
    /// once, naming those keys so the BEM re-`SET`s them (the `SET` may
    /// not be assembled here yet, the key may have moved since the render,
    /// or a restart emptied the store behind its stored bit). The bypass
    /// is the last rung. With `want_reads` the template requests
    /// ask for the page's read set, returned beside an assembled page.
    fn serve_dpc_assembling(&self, req: &Request, want_reads: bool) -> (Response, Provenance) {
        let ask = Ask {
            node: Some(self.node),
            want_reads,
            ..Ask::default()
        };
        let failed = match self.serve_dpc_once(req, &ask) {
            Ok(served) => return served,
            Err(failed) => failed,
        };
        if !matches!(failed.err, AssembleError::MissingFragment(_)) {
            return (self.bypass_refetch(req, failed.err), Provenance::default());
        }
        self.stats.refresh_refetches.fetch_add(1, Ordering::Relaxed);
        let refresh = Ask {
            missing: failed.missing,
            ..ask
        };
        match self.serve_dpc_once(req, &refresh) {
            Ok(served) => served,
            Err(failed) => (self.bypass_refetch(req, failed.err), Provenance::default()),
        }
    }

    /// One origin fetch + assembly attempt. `Ok` carries any terminal
    /// response (assembled page, pass-through, upstream error) and, for an
    /// assembled page, the provenance its template named; `Err` means
    /// assembly failed and the caller escalates (refresh, then bypass).
    /// A failed assembly first installs every `SET` its template carried,
    /// because the BEM recorded them as stored here when it emitted them.
    fn serve_dpc_once(&self, req: &Request, ask: &Ask) -> Result<(Response, Provenance), Failed> {
        let upstream = match self.fetch_origin(req, ask) {
            Ok(r) => r,
            Err(e) => return Ok((e, Provenance::default())),
        };
        // The template arrives as a single parsed buffer; this flatten is a
        // refcount bump.
        let template = upstream.body.flatten();
        if !upstream.status.is_success() || !dpc_core::tag::is_instrumented(&template) {
            // Plain response (errors, disabled BEM, non-HTML): forward.
            self.stats.uninstrumented.fetch_add(1, Ordering::Relaxed);
            let resp = strip_internal_headers(upstream).with_header("X-Cache", "dpc-pass");
            return Ok((resp, Provenance::default()));
        }
        let answer = Answer::parse(ask, |name| upstream.headers.get(name));
        // Zero-copy assembly, end to end: cached fragments are spliced into
        // the rope by refcount bump, the rope's segments become the
        // response body unflattened, and the HTTP serializer puts them on
        // the wire with vectored writes. No byte of a cached fragment is
        // copied between the slot store and the client socket.
        let rope = {
            let mut sp = self.tracer.span(Layer::Assembly);
            match assemble_rope(&template, &self.store) {
                Ok(rope) => {
                    sp.set_detail(rope.segments.len() as u64);
                    rope
                }
                Err(err) => {
                    sp.set_status(SpanStatus::Error);
                    let missing = match err {
                        AssembleError::MissingFragment(_) => {
                            salvage(&template, &self.store).unwrap_or_default()
                        }
                        _ => Vec::new(),
                    };
                    return Err(Failed { err, missing });
                }
            }
        };
        self.stats.assembled.fetch_add(1, Ordering::Relaxed);
        // The strong ETag is the assembly-time content identity: pages
        // built from the same fragments and literals agree on it, whether
        // their fragments came as SETs or GETs, so a client holding it can
        // revalidate without the body.
        let etag = format!("\"{:016x}\"", rope.stats.page_identity);
        let asm = &rope.stats;
        self.stats.asm_gets.fetch_add(asm.gets, Ordering::Relaxed);
        self.stats.asm_sets.fetch_add(asm.sets, Ordering::Relaxed);
        self.stats
            .asm_literal_bytes
            .fetch_add(asm.literal_bytes, Ordering::Relaxed);
        self.stats
            .asm_get_bytes
            .fetch_add(asm.get_bytes, Ordering::Relaxed);
        self.stats
            .asm_set_bytes
            .fetch_add(asm.set_bytes, Ordering::Relaxed);
        self.stats
            .asm_template_bytes
            .fetch_add(asm.template_bytes, Ordering::Relaxed);
        let mut resp = upstream;
        resp.body = Body::Rope(rope.segments);
        let resp = strip_internal_headers(resp)
            .with_header("X-Cache", "dpc-assembled")
            .with_header("ETag", etag);
        // An origin that was not asked, or names a set this node cannot
        // judge, leaves the page under the coarse rule and its session key.
        Ok((resp, answer.provenance.unwrap_or_default()))
    }

    /// Assembly failed (raced slot, restarted store, corrupt template):
    /// refetch fully expanded. Users always receive correct bytes.
    fn bypass_refetch(&self, req: &Request, err: AssembleError) -> Response {
        self.stats.bypass_refetches.fetch_add(1, Ordering::Relaxed);
        let bypass = Ask {
            node: Some(self.node),
            bypass: true,
            ..Ask::default()
        };
        match self.fetch_origin(req, &bypass) {
            Ok(resp) => strip_internal_headers(resp)
                .with_header("X-Cache", "dpc-bypass")
                .with_header(ASSEMBLY_ERROR_HEADER, err.to_string()),
            Err(e) => e,
        }
    }
}

impl Handler for Proxy {
    fn handle(&self, req: Request) -> Response {
        self.serve(req)
    }
}

/// Remove origin-internal headers before delivering to clients.
fn strip_internal_headers(mut resp: Response) -> Response {
    for name in proto::INTERNAL_RESPONSE {
        resp.headers.remove(name);
    }
    resp
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testbed::{Testbed, TestbedConfig};
    use dpc_appserver::apps::paper_site::PaperSiteParams;

    // Mode-specific behaviour is exercised end-to-end in testbed.rs and the
    // workspace integration tests; here we cover the handler surface.

    #[test]
    fn purge_on_empty_cache_is_404() {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::PageCache,
            ..TestbedConfig::default()
        });
        let mut req = Request::get("/paper/page.jsp?p=0");
        req.method = Method::Purge;
        let resp = tb.proxy().serve(req);
        assert_eq!(resp.status, Status::NOT_FOUND);
    }

    #[test]
    fn upstream_error_is_502() {
        let tb = Testbed::build(TestbedConfig::default());
        // Kill the origin by dropping its listener registration: connect to
        // a bogus origin through a fresh proxy instead.
        let proxy = Proxy::new(
            ProxyMode::PassThrough,
            "nowhere",
            Arc::new(Client::new(Arc::new(tb.net().connector()))),
            Arc::new(FragmentStore::new(4)),
            Arc::new(PageCache::new(
                dpc_net::Clock::real(),
                std::time::Duration::from_secs(1),
                4,
                dpc_core::CoherencyEpoch::new(),
            )),
            Arc::new(EsiAssembler::new(
                dpc_net::Clock::real(),
                std::time::Duration::from_secs(1),
            )),
            None,
        );
        let resp = proxy.serve(Request::get("/x"));
        assert_eq!(resp.status, Status::BAD_GATEWAY);
        assert_eq!(proxy.stats().upstream_errors.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn dpc_mode_serves_rope_with_zero_body_memcpys() {
        use bytes::Bytes;
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            ..TestbedConfig::default()
        });
        let url = "/paper/page.jsp?p=0";
        // First request installs the fragments (SET path); the next two are
        // served from the slot store (GET splices).
        let warm = tb.proxy().serve(Request::get(url));
        assert_eq!(warm.headers.get("x-cache"), Some("dpc-assembled"));
        let a = tb.proxy().serve(Request::get(url));
        let b = tb.proxy().serve(Request::get(url));
        let (Body::Rope(sa), Body::Rope(sb)) = (&a.body, &b.body) else {
            panic!("assembled pages must be served as ropes, not flattened");
        };
        assert_eq!(a.body, b.body, "same page, same bytes");
        // Zero-copy proof: a cached fragment spliced into both responses is
        // the *same allocation* — its `Bytes` refcount was bumped into each
        // rope. Flattening anywhere on the way would produce fresh buffers
        // with distinct pointers (as the literal segments do).
        let ptr_of = |s: &Bytes| (s.as_slice().as_ptr() as usize, s.len());
        let in_b: std::collections::HashSet<_> = sb.iter().map(ptr_of).collect();
        let shared = sa
            .iter()
            .filter(|s| !s.is_empty() && in_b.contains(&ptr_of(s)))
            .count();
        assert!(
            shared >= 1,
            "at least one cached fragment must be pointer-shared across responses"
        );
        // And the serializer keeps those segments unflattened on the way to
        // the wire: the response's wire image contains the same pointers.
        let wire: std::collections::HashSet<_> = dpc_http::serialize::response_segments(&a)
            .iter()
            .map(ptr_of)
            .collect();
        for seg in sa {
            assert!(
                seg.is_empty() || wire.contains(&ptr_of(seg)),
                "body segment must reach the wire without a copy"
            );
        }
    }

    #[test]
    fn dpc_mode_strips_instrumentation_header() {
        let tb = Testbed::build(TestbedConfig {
            mode: ProxyMode::Dpc,
            paper_params: PaperSiteParams::default(),
            ..TestbedConfig::default()
        });
        let resp = tb.get("/paper/page.jsp?p=0", None);
        assert_eq!(resp.status.0, 200);
        assert_eq!(resp.headers.get(proto::INSTRUMENTED_HEADER), None);
        assert_eq!(resp.headers.get("x-cache"), Some("dpc-assembled"));
    }
}
