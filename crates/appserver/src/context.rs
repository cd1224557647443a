//! Per-request context handed to scripts.
//!
//! Bundles the parsed request, the resolved session, the repository handle
//! and a simulated-cost accumulator. The accumulated cost is reported to
//! the proxy/harness in the `X-Origin-Cost-Nanos` response header, giving
//! the benches a precise content-generation-delay figure per request
//! (§2.2.2's server latency) without wall-clock noise. The headers a DPC
//! node and the origin exchange live in [`dpc_core::proto`].

use dpc_core::proto::parse_session_cookie;
use dpc_core::Bem;
use dpc_http::{Request, Uri};
use dpc_repository::{Costed, Repository};
use parking_lot::Mutex;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::profile::UserProfile;

// The benchmark's pipeline probe (`dpcbench`'s `trace.rs`, whose sources
// are held fixed) imports the node header by this path.
pub use dpc_core::proto::NODE_HEADER;
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
        use dpc_core::proto::Provenance;
        use dpc_core::ReadSet;
        // A render that never touched the session records the bare mark.
        let (repo, bem) = fixture();
        let ctx = RequestCtx::new(&request("/x", Some("session=user1")), repo, bem);
        let p = Provenance::recorded(&ReadSet::default(), ctx.session_observed());
        assert_eq!(p.format(), ";session-free");
        assert!(Provenance::parse(&p.format()).shared());
        let free = |value: &str| {
            let p = Provenance::parse(value);
            p.shared().then(|| p.reads.unwrap().to_vec())
        };
        assert_eq!(free("3,17;session-free"), Some(vec![3, 17]));
        assert_eq!(free(";session-free"), Some(vec![]));
        for value in ["3,17", "", "*", "3,17;session", "3,17;session-free;x"] {
            assert_eq!(free(value), None, "{value}");
        }
    }

    #[test]
    fn cookie_parsing_variants() {
        let (repo, bem) = fixture();
        let user = |cookie: &str| {
            let ctx = RequestCtx::new(
                &request("/x", Some(cookie)),
                Arc::clone(&repo),
                Arc::clone(&bem),
            );
            ctx.user().map(str::to_owned)
        };
        assert_eq!(user("session=u1").as_deref(), Some("u1"));
        assert_eq!(user("a=1; session=u2 ; b=3").as_deref(), Some("u2"));
        assert_eq!(user("a=1; b=2"), None);
        assert_eq!(user("session= ; b=2"), None);
        assert_eq!(user(""), None);
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
