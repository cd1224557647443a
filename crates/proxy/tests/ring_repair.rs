//! Ring slot repair, pinned deterministically: one thread, no sleeps.
//!
//! The BEM directory keeps one stored bit per ring node and fragment, and
//! every tag names its fragment's generation: a set bit means "this node
//! was sent the entry's `SET`", and a `GET` splices only a slot that holds
//! the generation it names. Each test drives one way a node's slot can lag
//! behind its bit:
//!
//! * a regenerated fragment's `SET`, rendered for the owner but assembled
//!   late, leaves the previous generation in the owner's slot — one
//!   refresh naming the key must repair it for good, not a bypass on every
//!   request until the next update;
//! * a page returning to its old owner, whose slot still holds the
//!   pre-update bytes of a reused key, must not splice them;
//! * an assembly that stops on such a `GET` must still install every
//!   `SET` its template carried, because the BEM already set their bits.
//!
//! No slot is emptied or refilled by hand: a late `SET` is a template the
//! origin rendered for the owner and the test holds back. Every page is
//! checked against a pass-through testbed that receives the same updates.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpc_appserver::apps::paper_site::{invalidate_fragment, PaperSiteParams};
use dpc_core::proto::NODE_HEADER;
use dpc_core::{assemble, DpcKey, FragmentId};
use dpc_http::{Request, Response};
use dpc_proxy::testbed::{Testbed, TestbedConfig};
use dpc_proxy::{ProxyMode, RingCluster, RingConfig};

const PAGES: usize = 64;

struct World {
    /// The ring's origin (its own proxy is unused).
    tb: Testbed,
    /// Uncached renders of the same site, updated in step.
    oracle: Testbed,
    cluster: Arc<RingCluster>,
}

fn world() -> World {
    let params = PaperSiteParams {
        pages: PAGES,
        fragments_per_page: 4,
        fragment_bytes: 512,
        cacheability: 1.0,
        ..PaperSiteParams::default()
    };
    let tb = Testbed::build(TestbedConfig {
        mode: ProxyMode::Dpc,
        paper_params: params,
        ..TestbedConfig::default()
    });
    let oracle = Testbed::build(TestbedConfig {
        mode: ProxyMode::PassThrough,
        paper_params: params,
        ..TestbedConfig::default()
    });
    let cluster = Arc::new(RingCluster::new(tb.net(), 3, RingConfig::default()));
    // Bus invalidations reach every member before the update returns.
    cluster.connect_origin(tb.engine().bem());
    World {
        tb,
        oracle,
        cluster,
    }
}

fn target(page: usize) -> String {
    format!("/paper/page.jsp?p={page}")
}

/// Byte equality without dumping two pages into the failure message.
#[track_caller]
fn assert_page(got: &Response, want: &[u8], what: &str) {
    assert!(
        got.body.to_vec() == want,
        "{what}: the page differs from the origin's render"
    );
}

fn served_by(resp: &Response) -> u32 {
    resp.headers
        .get("X-DPC-Served-By")
        .expect("ring responses name their node")
        .parse()
        .unwrap()
}

impl World {
    fn get(&self, page: usize) -> Response {
        let resp = self.cluster.get(&target(page), None);
        assert_eq!(resp.status.0, 200);
        resp
    }

    fn truth(&self, page: usize) -> Vec<u8> {
        self.oracle.get(&target(page), None).body.to_vec()
    }

    /// Bump one fragment's row at the origin and at the oracle.
    fn update(&self, page: usize, slot: usize) {
        invalidate_fragment(self.tb.engine().repo(), page, slot);
        invalidate_fragment(self.oracle.engine().repo(), page, slot);
    }

    /// The directory key and generation of fragment `slot` of `page`.
    fn key(&self, page: usize, slot: usize) -> (DpcKey, u64) {
        let id = FragmentId::with_params(
            "paperfrag",
            &[("p", &page.to_string()), ("s", &slot.to_string())],
        );
        self.tb
            .engine()
            .bem()
            .directory()
            .current_key(&id)
            .expect("fragment is valid")
    }

    /// The template the origin renders for node `id`, held back instead of
    /// assembled: the directory has set `id`'s bit on every `SET` in it.
    fn render_for(&self, id: u32, page: usize) -> Vec<u8> {
        let req = Request::get(target(page)).with_header(NODE_HEADER, id.to_string());
        self.tb.engine().serve(&req).body.to_vec()
    }

    /// The first page node 0 does not own.
    fn page_not_at_node_0(&self) -> usize {
        (0..PAGES)
            .find(|p| self.cluster.owner_of(&target(*p)) != Some(0))
            .expect("three nodes share 64 pages")
    }

    /// (refreshes, bypasses) of node `id` so far.
    fn ladder(&self, id: u32) -> (u64, u64) {
        let stats = self.cluster.proxy(id).unwrap();
        let stats = stats.stats();
        (
            stats.refresh_refetches.load(Ordering::Relaxed),
            stats.bypass_refetches.load(Ordering::Relaxed),
        )
    }
}

#[test]
fn late_scrub_is_repaired_by_one_refresh() {
    let w = world();
    let p = w.page_not_at_node_0();
    let owner = w.cluster.owner_of(&target(p)).unwrap();
    let store = Arc::clone(w.cluster.proxy(owner).unwrap().store());
    assert_page(&w.get(p), &w.truth(p), "warm-up");
    let (old_key, old_gen) = w.key(p, 0);

    // Regenerate the updated fragment for its owner under the key the
    // update just freed, and hold the template back: its SET is late, so
    // the owner's slot keeps the previous generation behind the owner's
    // stored bit.
    w.update(p, 0);
    let late = w.render_for(owner, p);
    let (key, gen) = w.key(p, 0);
    assert_eq!(key, old_key, "the freed key is reused");
    assert!(gen > old_gen);
    assert!(store.get(key, old_gen).is_some());
    assert!(store.get(key, gen).is_none());

    let origin_before = w.tb.origin_requests();
    let (refreshes, bypasses) = w.ladder(owner);
    let truth = w.truth(p);
    for i in 0..5 {
        let resp = w.get(p);
        assert_eq!(served_by(&resp), owner);
        assert_eq!(
            resp.headers.get("X-Cache"),
            Some("dpc-assembled"),
            "GET {i}"
        );
        assert_page(&resp, &truth, &format!("GET {i}"));
    }
    // One template fetch plus one refresh for the first GET, then one
    // template fetch each: the refresh re-SET the slot for good.
    assert_eq!(w.tb.origin_requests() - origin_before, 6);
    let (refreshes_after, bypasses_after) = w.ladder(owner);
    assert_eq!(refreshes_after - refreshes, 1);
    assert_eq!(bypasses_after - bypasses, 0);
    // The late SET lands last: the same generation, so the same bytes.
    assert_eq!(assemble(&late, &store).unwrap().html, truth);
    assert_page(&w.get(p), &truth, "after the late SET");
}

#[test]
fn ownership_return_never_splices_the_old_owners_copy() {
    let w = world();
    for p in 0..PAGES {
        assert_page(&w.get(p), &w.truth(p), &format!("warm-up page {p}"));
    }
    let owners: Vec<u32> = (0..PAGES)
        .map(|p| w.cluster.owner_of(&target(p)).unwrap())
        .collect();
    let newcomer = w.cluster.join();
    let p = (0..PAGES)
        .find(|p| w.cluster.owner_of(&target(*p)) == Some(newcomer) && owners[*p] != 0)
        .expect("the newcomer takes a page from node 1 or 2");
    let old_owner = owners[p];

    // The newcomer fills the page's slots from node-miss SETs.
    let moved = w.get(p);
    assert_eq!(served_by(&moved), newcomer);
    let newcomer_sets = w
        .cluster
        .proxy(newcomer)
        .unwrap()
        .stats()
        .asm_sets
        .load(Ordering::Relaxed);
    assert_eq!(newcomer_sets, 4, "one SET per fragment of the page");
    assert_page(&moved, &w.truth(p), "node-miss SETs");

    // Update and regenerate at the newcomer, which then leaves. The old
    // owner still holds the pre-update bytes under the reused key.
    let (key, old_gen) = w.key(p, 0);
    let old_store = Arc::clone(w.cluster.proxy(old_owner).unwrap().store());
    assert!(
        old_store.get(key, old_gen).is_some(),
        "the old owner holds slot 0"
    );
    w.update(p, 0);
    assert_page(&w.get(p), &w.truth(p), "regeneration");
    assert_eq!(w.key(p, 0).0, key, "the freed key is reused");
    assert!(w.cluster.leave(newcomer));
    assert!(
        old_store.get(key, old_gen).is_some(),
        "its stale bytes sit unused"
    );

    let back = w.get(p);
    assert_eq!(served_by(&back), old_owner);
    assert_eq!(back.headers.get("X-Cache"), Some("dpc-assembled"));
    assert_page(&back, &w.truth(p), "ownership return");
}

#[test]
fn failed_assembly_installs_the_sets_its_template_carried() {
    let w = world();
    let p = w.page_not_at_node_0();
    let owner = w.cluster.owner_of(&target(p)).unwrap();
    let store = Arc::clone(w.cluster.proxy(owner).unwrap().store());
    let bem = w.tb.engine().bem();
    assert_page(&w.get(p), &w.truth(p), "warm-up");
    let (k0, k1) = (w.key(p, 0).0, w.key(p, 1).0);

    // Slots 0 and 1 are updated and regenerated for the owner in a
    // template held back, so the owner's slots keep their previous
    // generations behind its bits; then the owner forgets slot 1 (a node
    // miss). The next template is `GET k0 … SET k1 …`, and assembly stops
    // on k0 before it reaches the SET.
    w.update(p, 0);
    w.update(p, 1);
    let _late = w.render_for(owner, p);
    let ((key0, _), (key1, gen1)) = (w.key(p, 0), w.key(p, 1));
    assert_eq!((key0, key1), (k0, k1), "the freed keys are reused");
    assert_eq!(bem.directory().forget_stored(owner, &[k1]), 1);

    let (refreshes, bypasses) = w.ladder(owner);
    let missing_before = bem.stats().snapshot().missing_keys;
    let resp = w.get(p);
    assert_eq!(resp.headers.get("X-Cache"), Some("dpc-assembled"));
    let truth = w.truth(p);
    assert_page(&resp, &truth, "repaired serve");
    // The refresh named k0 alone and could GET k1: the failed attempt had
    // already installed it.
    assert_eq!(bem.stats().snapshot().missing_keys - missing_before, 1);
    let (refreshes_after, bypasses_after) = w.ladder(owner);
    assert_eq!(refreshes_after - refreshes, 1);
    assert_eq!(bypasses_after - bypasses, 0);
    let slot = store.get(k1, gen1).expect("the SET was installed");
    assert_eq!(slot.len(), 512);
    assert!(
        truth.windows(slot.len()).any(|w| w == slot.as_slice()),
        "slot 1 holds the page's fragment bytes"
    );
}
