//! Per-request context handed to scripts, and the headers a DPC node and
//! the origin exchange.
//!
//! Bundles the parsed request, the resolved session, the repository handle
//! and a simulated-cost accumulator. The accumulated cost is reported to
//! the proxy/harness in the `X-Origin-Cost-Nanos` response header, giving
//! the benches a precise content-generation-delay figure per request
//! (§2.2.2's server latency) without wall-clock noise.
//!
//! A ring node repairs its slots in three rungs, each one origin request:
//!
//! 1. The template request names the node ([`NODE_HEADER`]) and its donor
//!    ([`PEER_FETCH_HEADER`]). The response lists the `GET`s granted on
//!    the donor's copy ([`FROM_DONOR_HEADER`]); the node pulls those from
//!    the donor.
//! 2. If assembly still finds an empty slot, a *refresh* names the node's
//!    absent `GET` keys ([`MISSING_HEADER`]). The BEM forgets that the
//!    node stores them and re-`SET`s them.
//! 3. If that fails too, a bypass ([`BYPASS_HEADER`]) fetches the page
//!    fully expanded.
//!
//! A node that caches assembled pages asks for each page's read set
//! ([`WANT_READS_HEADER`]); the template response answers with the epoch
//! stripes of every row and dependency the render read
//! ([`READS_HEADER`]), so an update unserves only the pages that read it.
//! The session is one more input a render may read: the answer carries
//! [`SESSION_FREE_MARK`] when the script never observed it
//! ([`RequestCtx::session_observed`]), and the node then caches one copy
//! of the page for every session.

use dpc_core::{Bem, DpcKey};
use dpc_http::{Request, Uri};
use dpc_repository::{Costed, Repository};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::profile::UserProfile;

/// Name of the session cookie carrying the user id.
pub const SESSION_COOKIE: &str = "session";
/// Request header that forces a fully expanded (bypass) response.
pub const BYPASS_HEADER: &str = "X-DPC-Bypass";
/// Request header a distributed DPC node uses to announce its node id
/// (0–63) so the BEM can track per-node fragment placement (§7).
pub const NODE_HEADER: &str = "X-DPC-Node";
/// Request header a cluster node adds to name the node it pulls slots
/// from (its donor, 0–63). The BEM then emits a `GET` for a valid fragment
/// the node has not stored but the donor has, and lists it in
/// [`FROM_DONOR_HEADER`], instead of a node-miss `SET` — the lazy
/// key-range handoff contract of the ring cluster.
pub const PEER_FETCH_HEADER: &str = "X-DPC-Peer-Fetch";
/// Response header listing the keys (see [`format_keys`]) the BEM emitted
/// as `GET`s on the strength of the donor's copy. The node fills them
/// from the donor and never splices its own copy, which may be an older
/// generation whose scrub has not arrived yet.
pub const FROM_DONOR_HEADER: &str = "X-DPC-From-Donor";
/// Refresh request header listing the keys (see [`format_keys`]) whose
/// `GET`s found the node's slots empty. The BEM clears the node's stored
/// bit on each before rendering, so the refresh re-`SET`s them.
pub const MISSING_HEADER: &str = "X-DPC-Missing";
/// Most keys the BEM reads from one [`MISSING_HEADER`]; the rest are
/// ignored, so a page with more absent slots than this falls through to a
/// bypass.
pub const MAX_MISSING_KEYS: usize = 64;
/// Request header a node with a page tier sends on a template request to
/// ask for the page's read set, and whether the render read the session.
pub const WANT_READS_HEADER: &str = "X-DPC-Want-Reads";
/// Template response header answering [`WANT_READS_HEADER`]: the page's
/// read set as epoch stripes (`dpc_core::epoch::format_read_set`), or `*`
/// when the render read something no label names. A known read set is
/// followed by [`SESSION_FREE_MARK`] when the render never observed the
/// session (`3,17;session-free`), so its bytes are the same for every
/// session. A node strips the header before a page reaches a client.
pub const READS_HEADER: &str = "X-DPC-Reads";
/// Suffix of a [`READS_HEADER`] value asserting that the render never
/// observed the session. Only this exact suffix after a known read set
/// counts (see [`session_free`]); anything else keeps the page per session,
/// and so does `*;session-free`, whose read set is unknown.
pub const SESSION_FREE_MARK: &str = ";session-free";
/// Response header carrying the simulated origin generation cost.
pub const COST_HEADER: &str = "X-Origin-Cost-Nanos";

/// Everything a script can see while serving one request.
pub struct RequestCtx {
    uri: Uri,
    user: Option<String>,
    repo: Arc<Repository>,
    bem: Arc<Bem>,
    cost: Mutex<Duration>,
    /// Set by [`RequestCtx::user`] and [`RequestCtx::profile`], the only
    /// ways a script sees the request beyond its target.
    session_observed: AtomicBool,
}

impl RequestCtx {
    /// Build from a parsed HTTP request.
    pub fn new(req: &Request, repo: Arc<Repository>, bem: Arc<Bem>) -> RequestCtx {
        let uri = Uri::parse(&req.target);
        let user = req
            .headers
            .get("cookie")
            .and_then(parse_session_cookie)
            .map(str::to_owned);
        RequestCtx {
            uri,
            user,
            repo,
            bem,
            cost: Mutex::new(Duration::ZERO),
            session_observed: AtomicBool::new(false),
        }
    }

    /// The parsed request target.
    pub fn uri(&self) -> &Uri {
        &self.uri
    }

    /// Query parameter lookup.
    pub fn param(&self, name: &str) -> Option<&str> {
        self.uri.param(name)
    }

    /// Session user id, if a session cookie was presented. Marks the
    /// session observed.
    pub fn user(&self) -> Option<&str> {
        self.session_observed.store(true, Ordering::Relaxed);
        self.user.as_deref()
    }

    /// Whether the script has called [`RequestCtx::user`] or
    /// [`RequestCtx::profile`]. A render that never did produces the same
    /// bytes for every session.
    pub fn session_observed(&self) -> bool {
        self.session_observed.load(Ordering::Relaxed)
    }

    /// The content repository.
    pub fn repo(&self) -> &Arc<Repository> {
        &self.repo
    }

    /// The BEM (for object-cache access).
    pub fn bem(&self) -> &Arc<Bem> {
        &self.bem
    }

    /// Unwrap a costed repository result, charging its simulated latency
    /// to this request.
    pub fn charge<T>(&self, costed: Costed<T>) -> T {
        *self.cost.lock() += costed.cost;
        costed.value
    }

    /// Charge a fixed simulated latency (script interpretation, business
    /// logic, object churn).
    pub fn charge_fixed(&self, d: Duration) {
        *self.cost.lock() += d;
    }

    /// Total simulated generation cost accumulated so far.
    pub fn cost(&self) -> Duration {
        *self.cost.lock()
    }

    /// Resolve the visitor profile through the BEM's object cache: the
    /// repository is hit at most once per TTL per user, however many
    /// fragments ask (§3.2.2's shared user-profile object). A cache hit
    /// reads rows an earlier request loaded, which this request's read
    /// recording never sees, so it makes the read set unknown. Marks the
    /// session observed, for an anonymous visitor too.
    pub fn profile(&self) -> Arc<UserProfile> {
        match self.user().map(str::to_owned) {
            None => Arc::new(UserProfile::anonymous()),
            Some(user) => {
                let repo = Arc::clone(&self.repo);
                let key = format!("profile/{user}");
                let charged = Mutex::new(None);
                let profile =
                    self.bem
                        .objects()
                        .get_or_insert_with(&key, Duration::from_secs(60), || {
                            let (profile, cost) = UserProfile::load(&repo, &user);
                            *charged.lock() = Some(cost);
                            profile
                        });
                match *charged.lock() {
                    Some(cost) => self.charge_fixed(cost),
                    None => dpc_repository::reads::note_unseen(),
                }
                profile
            }
        }
    }
}

/// The read set of a [`READS_HEADER`] value that ends in
/// [`SESSION_FREE_MARK`], or `None` when it does not.
pub fn session_free(reads: &str) -> Option<&str> {
    reads.trim().strip_suffix(SESSION_FREE_MARK)
}

/// A key list header value: decimal keys joined by commas (`3,17,42`).
pub fn format_keys(keys: &[DpcKey]) -> String {
    let mut out = String::with_capacity(keys.len() * 5);
    for (i, key) in keys.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&key.0.to_string());
    }
    out
}

/// Parse a [`format_keys`] value lazily, skipping entries that are not a
/// decimal `u32`. A caller reading an untrusted list bounds it with
/// `take`.
pub fn parse_keys(value: &str) -> impl Iterator<Item = DpcKey> + '_ {
    value
        .split(',')
        .filter_map(|k| k.trim().parse().ok().map(DpcKey))
}

/// Extract the session user from a Cookie header value
/// (`a=1; session=user3; b=2` → `user3`). An empty value is no session.
/// The one reading of the session cookie: a node keying pages by session
/// must name the same user the render saw.
pub fn parse_session_cookie(cookie: &str) -> Option<&str> {
    cookie
        .split(';')
        .find_map(|part| {
            let (k, v) = part.split_once('=')?;
            (k.trim() == SESSION_COOKIE).then_some(v.trim())
        })
        .filter(|user| !user.is_empty())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::BemConfig;
    use dpc_repository::datasets::{seed_users, DatasetConfig};

    fn fixture() -> (Arc<Repository>, Arc<Bem>) {
        let repo = Repository::with_defaults();
        seed_users(
            &repo,
            &DatasetConfig {
                users: 4,
                ..DatasetConfig::default()
            },
        );
        (repo, Arc::new(Bem::new(BemConfig::default())))
    }

    fn request(target: &str, cookie: Option<&str>) -> Request {
        let mut req = Request::get(target);
        if let Some(c) = cookie {
            req.headers.set("Cookie", c);
        }
        req
    }

    #[test]
    fn parses_params_and_session() {
        let (repo, bem) = fixture();
        let req = request("/catalog.jsp?categoryID=cat3", Some("session=user1"));
        let ctx = RequestCtx::new(&req, repo, bem);
        assert_eq!(ctx.param("categoryID"), Some("cat3"));
        assert_eq!(ctx.user(), Some("user1"));
    }

    #[test]
    fn only_user_and_profile_observe_the_session() {
        let (repo, bem) = fixture();
        let req = request("/x?a=1", Some("session=user1"));
        let ctx = RequestCtx::new(&req, Arc::clone(&repo), Arc::clone(&bem));
        let _ = (ctx.uri(), ctx.param("a"), ctx.repo(), ctx.bem(), ctx.cost());
        assert!(!ctx.session_observed());
        let _ = ctx.user();
        assert!(ctx.session_observed());
        // An anonymous profile still depends on there being no session.
        let ctx = RequestCtx::new(&request("/x", None), repo, bem);
        let _ = ctx.profile();
        assert!(ctx.session_observed());
    }

    #[test]
    fn only_the_exact_mark_is_session_free() {
        assert_eq!(session_free("3,17;session-free"), Some("3,17"));
        assert_eq!(session_free(";session-free"), Some(""));
        for value in ["3,17", "", "*", "3,17;session", "3,17;session-free;x"] {
            assert_eq!(session_free(value), None, "{value}");
        }
    }

    #[test]
    fn cookie_parsing_variants() {
        assert_eq!(parse_session_cookie("session=u1"), Some("u1"));
        assert_eq!(parse_session_cookie("a=1; session=u2 ; b=3"), Some("u2"));
        assert_eq!(parse_session_cookie("a=1; b=2"), None);
        assert_eq!(parse_session_cookie("session= ; b=2"), None);
        assert_eq!(parse_session_cookie(""), None);
    }

    #[test]
    fn key_lists_round_trip() {
        let keys = [DpcKey(0), DpcKey(17), DpcKey(u32::MAX)];
        assert_eq!(format_keys(&keys), "0,17,4294967295");
        assert_eq!(parse_keys(&format_keys(&keys)).collect::<Vec<_>>(), keys);
        assert_eq!(format_keys(&[]), "");
        assert_eq!(parse_keys("").count(), 0);
        // Junk entries are skipped, not fatal.
        assert_eq!(
            parse_keys("5, x,-1,4294967296,6").collect::<Vec<_>>(),
            vec![DpcKey(5), DpcKey(6)]
        );
    }

    #[test]
    fn charges_accumulate() {
        let (repo, bem) = fixture();
        let req = request("/x", None);
        let ctx = RequestCtx::new(&req, Arc::clone(&repo), bem);
        let _ = ctx.charge(repo.get("users", "user0"));
        ctx.charge_fixed(Duration::from_micros(100));
        assert!(ctx.cost() >= Duration::from_micros(100));
    }

    #[test]
    fn profile_is_cached_across_requests() {
        let (repo, bem) = fixture();
        let mk = |repo: &Arc<Repository>, bem: &Arc<Bem>| {
            let req = request("/x", Some("session=user2"));
            RequestCtx::new(&req, Arc::clone(repo), Arc::clone(bem))
        };
        let ctx1 = mk(&repo, &bem);
        let p1 = ctx1.profile();
        assert!(p1.registered);
        let ctx2 = mk(&repo, &bem);
        let p2 = ctx2.profile();
        assert_eq!(p1, p2);
        // Second resolution hit the object cache: no repository cost.
        assert_eq!(ctx2.cost(), Duration::ZERO);
        let (hits, misses) = bem.objects().counters();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn anonymous_profile_without_cookie() {
        let (repo, bem) = fixture();
        let ctx = RequestCtx::new(&request("/x", None), repo, bem);
        assert!(!ctx.profile().registered);
    }
}
