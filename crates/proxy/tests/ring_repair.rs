//! Ring slot repair, pinned deterministically: one thread, no sleeps.
//!
//! The BEM directory keeps one stored bit per ring node and fragment. The
//! ring only serves the origin's bytes if a set bit means "this node's
//! slot holds that entry's bytes, or is empty". Each test drives one way
//! that promise used to break:
//!
//! * a scrub that lands after the slot was regenerated empties it behind
//!   the bit — one refresh naming the key must repair it for good, not a
//!   bypass on every request until the next update;
//! * a page returning to its old owner must not splice the old owner's
//!   pre-update copy of a reused key, were a scrub ever to miss it;
//! * an assembly that stops on an empty slot must still install every
//!   `SET` its template carried, because the BEM already set their bits.
//!
//! The ring scrubs every member inside the update, so the tests stage the
//! late or missing scrub by hand: `FragmentStore::clear_key` empties a
//! slot behind its bit, and a re-`set` puts a pre-update copy back. Every
//! page is checked against a pass-through testbed that receives the same
//! updates.

use std::sync::atomic::Ordering;
use std::sync::Arc;

use dpc_appserver::apps::paper_site::{invalidate_fragment, PaperSiteParams};
use dpc_core::{DpcKey, FragmentId};
use dpc_http::Response;
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
    // Bus invalidations scrub every member before the update returns.
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

    /// The directory key of fragment `slot` of `page`.
    fn key(&self, page: usize, slot: usize) -> DpcKey {
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
    let old_key = w.key(p, 0);

    // Regenerate the updated fragment at its owner: a fresh SET under
    // the key the update just freed.
    w.update(p, 0);
    assert_page(&w.get(p), &w.truth(p), "regeneration");
    let key = w.key(p, 0);
    assert_eq!(key, old_key, "the freed key is reused");
    assert!(store.get(key).is_some());
    // The scrub for the *old* entry lands late and empties the new bytes,
    // while the owner's stored bit stays set.
    assert!(store.clear_key(key), "the late scrub emptied the slot");

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

    // Update and regenerate at the newcomer, which then leaves. Had the
    // scrub missed the old owner, it would still hold the pre-update bytes
    // under the reused key: put them back.
    let key = w.key(p, 0);
    let old_store = Arc::clone(w.cluster.proxy(old_owner).unwrap().store());
    let old_bytes = old_store.get(key).expect("the old owner holds slot 0");
    w.update(p, 0);
    assert!(
        old_store.get(key).is_none(),
        "the update scrubbed every member"
    );
    assert_page(&w.get(p), &w.truth(p), "regeneration");
    assert_eq!(w.key(p, 0), key, "the freed key is reused");
    assert!(w.cluster.leave(newcomer));
    old_store.set(key, old_bytes);

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
    let (k0, k1) = (w.key(p, 0), w.key(p, 1));

    // Slot 0 empties behind the owner's bit, as a late scrub leaves it,
    // and the owner no longer stores slot 1 (a node miss). The next
    // template is `GET k0 … SET k1 …`, and assembly stops on k0 before
    // it reaches the SET.
    store.clear_key(k0);
    store.clear_key(k1);
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
    let slot = store.get(k1).expect("the SET was installed");
    assert_eq!(slot.len(), 512);
    assert!(
        truth.windows(slot.len()).any(|w| w == slot.as_slice()),
        "slot 1 holds the page's fragment bytes"
    );
}
