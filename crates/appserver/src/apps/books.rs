//! BooksOnline — the paper's running example (§2, §4.3.2).
//!
//! Three scripts:
//!
//! * `/catalog.jsp?categoryID=<cat>` — the category page of
//!   `http://www.booksOnline.com/catalog.jsp?categoryID=Fiction`: a
//!   navigation bar, a category blurb, a product listing, and — for
//!   registered users — a personal greeting and a recommendations rail.
//! * `/product.jsp?id=<pid>` — a product detail page.
//! * `/home.jsp` — the personalized home page.
//!
//! Layout is *dynamic* (§2.1): registered users' profiles pick one of three
//! page skeletons (`classic`/`wide`/`compact`) and reorder content, so the
//! same URL produces different pages for different sessions — the property
//! that defeats URL-keyed caches and that the DPC handles by design.

use dpc_core::bem::TemplateWriter;
use dpc_core::{FragmentId, FragmentPolicy};

use crate::context::RequestCtx;
use crate::engine::{Script, ScriptEngine};
use crate::profile::UserProfile;

/// Mount all BooksOnline scripts.
pub fn install(engine: &mut ScriptEngine) {
    engine.register(CatalogScript);
    engine.register(ProductScript);
    engine.register(HomeScript);
}

/// TTLs for the site's fragment classes.
mod ttl {
    use std::time::Duration;

    /// Navigation rarely changes.
    pub const NAV: Duration = Duration::from_secs(3600);
    /// Category copy changes with merchandising.
    pub const CATEGORY: Duration = Duration::from_secs(600);
    /// Product listings follow inventory.
    pub const LISTING: Duration = Duration::from_secs(300);
    /// Per-user fragments.
    pub const PERSONAL: Duration = Duration::from_secs(120);
}

/// Shared navigation bar — §4.3.2's `nbKey` example. Parameterized by the
/// profile's layout class so each skeleton caches its own variant.
fn navbar(ctx: &RequestCtx, w: &mut TemplateWriter<'_>, profile: &UserProfile) {
    let layout = &profile.layout;
    let id = FragmentId::with_params("navbar", &[("layout", layout)]);
    w.fragment(&id, FragmentPolicy::ttl(ttl::NAV), |out| {
        let cats = ctx.charge(ctx.repo().scan_where("categories", |_, _| true));
        out.extend_from_slice(format!("<nav class=\"{layout}\">").as_bytes());
        for (key, row) in cats {
            out.extend_from_slice(
                format!(
                    "<a href=\"/catalog.jsp?categoryID={key}\">{}</a>",
                    row.str("name")
                )
                .as_bytes(),
            );
        }
        out.extend_from_slice(b"</nav>");
    });
}

/// Personal greeting — the fragment that makes full pages unique per user
/// (§3.2.1's "Hello, Bob" example). Its name comes from the profile, read
/// before the block, so the block declares the user's row.
fn greeting(w: &mut TemplateWriter<'_>, profile: &UserProfile) {
    if !profile.registered {
        return; // anonymous pages carry no greeting at all
    }
    let user = &profile.user_id;
    let id = FragmentId::with_params("greeting", &[("user", user)]);
    let policy = FragmentPolicy::ttl(ttl::PERSONAL).with_deps(&[&format!("users/{user}")]);
    w.fragment(&id, policy, |out| {
        out.extend_from_slice(
            format!("<div class=\"greet\">Hello, {}!</div>", profile.name).as_bytes(),
        );
    });
}

/// Category blurb fragment.
fn category_blurb(ctx: &RequestCtx, w: &mut TemplateWriter<'_>, category: &str) {
    let id = FragmentId::with_params("catblurb", &[("cat", category)]);
    w.fragment(&id, FragmentPolicy::ttl(ttl::CATEGORY), |out| {
        match ctx.charge(ctx.repo().get("categories", category)) {
            Some(row) => out.extend_from_slice(
                format!(
                    "<section class=\"blurb\"><h2>{}</h2><p>{}</p></section>",
                    row.str("name"),
                    row.str("blurb")
                )
                .as_bytes(),
            ),
            None => out.extend_from_slice(b"<section class=\"blurb\">unknown category</section>"),
        }
    });
}

/// Product listing fragment for a category.
fn product_listing(ctx: &RequestCtx, w: &mut TemplateWriter<'_>, category: &str) {
    let id = FragmentId::with_params("listing", &[("cat", category)]);
    w.fragment(&id, FragmentPolicy::ttl(ttl::LISTING), |out| {
        let rows = ctx.charge(
            ctx.repo()
                .scan_where("products", |_, row| row.str("category") == category),
        );
        out.extend_from_slice(b"<ul class=\"products\">");
        for (pid, row) in rows {
            out.extend_from_slice(
                format!(
                    "<li><a href=\"/product.jsp?id={pid}\">{}</a> ${:.2}</li>",
                    row.str("title"),
                    row.float("price")
                )
                .as_bytes(),
            );
        }
        out.extend_from_slice(b"</ul>");
    });
}

/// Recommendations rail — derived from the *same* profile object as the
/// greeting (§3.2.2's semantically interdependent fragments). The
/// favourite category comes from the profile, so the block declares the
/// user's row.
fn recommendations(ctx: &RequestCtx, w: &mut TemplateWriter<'_>, profile: &UserProfile) {
    if !profile.registered {
        return;
    }
    let fav = &profile.fav_category;
    let user = &profile.user_id;
    let id = FragmentId::with_params("recs", &[("user", user)]);
    let policy = FragmentPolicy::ttl(ttl::PERSONAL).with_deps(&[&format!("users/{user}")]);
    w.fragment(&id, policy, |out| {
        let rows = ctx.charge(
            ctx.repo()
                .scan_where("products", |_, row| row.str("category") == *fav),
        );
        out.extend_from_slice(b"<aside class=\"recs\"><h3>Recommended for you</h3>");
        for (pid, row) in rows.iter().take(3) {
            out.extend_from_slice(
                format!("<a href=\"/product.jsp?id={pid}\">{}</a>", row.str("title")).as_bytes(),
            );
        }
        out.extend_from_slice(b"</aside>");
    });
}

/// `/catalog.jsp` — the category page.
pub struct CatalogScript;

impl Script for CatalogScript {
    fn path(&self) -> &str {
        "/catalog.jsp"
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let profile = ctx.profile();
        let category = ctx.param("categoryID").unwrap_or("cat0").to_owned();
        w.literal(format!("<html><body class=\"{}\">", profile.layout).as_bytes());
        // Dynamic layout: the skeleton decides fragment order per profile.
        match profile.layout.as_str() {
            "wide" => {
                navbar(ctx, w, &profile);
                greeting(w, &profile);
                recommendations(ctx, w, &profile);
                category_blurb(ctx, w, &category);
                product_listing(ctx, w, &category);
            }
            "compact" => {
                greeting(w, &profile);
                category_blurb(ctx, w, &category);
                product_listing(ctx, w, &category);
                navbar(ctx, w, &profile);
            }
            _ => {
                navbar(ctx, w, &profile);
                greeting(w, &profile);
                category_blurb(ctx, w, &category);
                product_listing(ctx, w, &category);
                recommendations(ctx, w, &profile);
            }
        }
        w.literal(b"</body></html>");
    }
}

/// `/product.jsp` — product details.
pub struct ProductScript;

impl Script for ProductScript {
    fn path(&self) -> &str {
        "/product.jsp"
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let profile = ctx.profile();
        let pid = ctx.param("id").unwrap_or("").to_owned();
        w.literal(format!("<html><body class=\"{}\">", profile.layout).as_bytes());
        navbar(ctx, w, &profile);
        greeting(w, &profile);
        let id = FragmentId::with_params("product", &[("id", &pid)]);
        w.fragment(&id, FragmentPolicy::ttl(ttl::LISTING), |out| {
            match ctx.charge(ctx.repo().get("products", &pid)) {
                Some(row) => out.extend_from_slice(
                    format!(
                        "<article><h1>{}</h1><p>{}</p><b>${:.2}</b></article>",
                        row.str("title"),
                        row.str("description"),
                        row.float("price")
                    )
                    .as_bytes(),
                ),
                None => out.extend_from_slice(b"<article>no such product</article>"),
            }
        });
        w.literal(b"</body></html>");
    }
}

/// `/home.jsp` — the personalized home page.
pub struct HomeScript;

impl Script for HomeScript {
    fn path(&self) -> &str {
        "/home.jsp"
    }

    fn run(&self, ctx: &RequestCtx, w: &mut TemplateWriter<'_>) {
        let profile = ctx.profile();
        w.literal(format!("<html><body class=\"{}\">", profile.layout).as_bytes());
        navbar(ctx, w, &profile);
        greeting(w, &profile);
        if profile.registered {
            recommendations(ctx, w, &profile);
            category_blurb(ctx, w, &profile.fav_category.clone());
        } else {
            // Anonymous home: featured category only.
            category_blurb(ctx, w, "cat0");
        }
        w.literal(b"</body></html>");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpc_core::prelude::*;
    use dpc_core::{Bem, BemConfig};
    use dpc_http::Request;
    use dpc_repository::datasets::{seed_all, DatasetConfig};
    use dpc_repository::Repository;
    use std::sync::Arc;

    fn engine() -> Arc<ScriptEngine> {
        let repo = Repository::with_defaults();
        seed_all(
            &repo,
            &DatasetConfig {
                users: 10,
                categories: 4,
                products_per_category: 3,
                fragment_bytes: 200,
                ..DatasetConfig::default()
            },
        );
        let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(512)));
        let mut e = ScriptEngine::new(bem, repo);
        install(&mut e);
        e.connect_invalidation();
        Arc::new(e)
    }

    fn get(e: &ScriptEngine, store: &FragmentStore, target: &str, user: Option<&str>) -> Vec<u8> {
        let mut req = Request::get(target);
        if let Some(u) = user {
            req.headers.set("Cookie", format!("session={u}"));
        }
        let resp = e.serve(&req);
        assert_eq!(resp.status.0, 200, "{target}");
        match assemble(&resp.body.flatten(), store) {
            Ok(p) => p.html,
            Err(err) => panic!("assembly failed for {target}: {err}"),
        }
    }

    /// Render the same target twice against one engine+store pair and check
    /// the hit-path page equals the miss-path page.
    fn stable(target: &str, user: Option<&str>) {
        let e = engine();
        let store = FragmentStore::new(512);
        let serve = |e: &ScriptEngine| {
            let mut req = Request::get(target);
            if let Some(u) = user {
                req.headers.set("Cookie", format!("session={u}"));
            }
            assemble(&e.serve(&req).body.flatten(), &store)
                .unwrap()
                .html
        };
        assert_eq!(serve(&e), serve(&e), "{target}");
    }

    #[test]
    fn bob_and_alice_get_different_pages_for_same_url() {
        let e = engine();
        let store = FragmentStore::new(512);
        let bob = get(&e, &store, "/catalog.jsp?categoryID=cat1", Some("user1"));
        let alice = get(&e, &store, "/catalog.jsp?categoryID=cat1", None);
        assert_ne!(bob, alice, "registered and anonymous pages must differ");
        let bob_s = String::from_utf8_lossy(&bob);
        let alice_s = String::from_utf8_lossy(&alice);
        assert!(bob_s.contains("Hello,"));
        assert!(!alice_s.contains("Hello,"));
    }

    #[test]
    fn shared_fragments_are_reused_across_users() {
        let e = engine();
        let store = FragmentStore::new(512);
        let _ = get(&e, &store, "/catalog.jsp?categoryID=cat1", Some("user1"));
        let misses_after_first = e.bem().directory_stats().misses;
        // A different user with the same layout reuses navbar/blurb/listing.
        // user ids with identical layout are not guaranteed, so compare
        // against an anonymous user (layout classic, like the default).
        let _ = get(&e, &store, "/catalog.jsp?categoryID=cat1", None);
        let stats = e.bem().directory_stats();
        assert!(
            stats.hits >= 2,
            "expected shared fragment hits, got {stats:?}"
        );
        assert!(stats.misses <= misses_after_first + 1);
    }

    #[test]
    fn pages_are_stable_across_hit_and_miss_paths() {
        stable("/catalog.jsp?categoryID=cat2", Some("user3"));
        stable("/product.jsp?id=cat1-p1", Some("user2"));
        stable("/home.jsp", Some("user4"));
        stable("/home.jsp", None);
    }

    #[test]
    fn product_update_invalidates_listing_and_product() {
        let e = engine();
        let store = FragmentStore::new(512);
        let before = get(&e, &store, "/product.jsp?id=cat1-p1", None);
        e.repo().update("products", "cat1-p1", |row| {
            row.set("price", 999.0);
        });
        let after = get(&e, &store, "/product.jsp?id=cat1-p1", None);
        assert_ne!(before, after);
        assert!(String::from_utf8_lossy(&after).contains("999.00"));
    }

    #[test]
    fn layouts_reorder_content() {
        let e = engine();
        // Find two users with different layout preferences.
        let mut layouts = std::collections::HashMap::new();
        for i in 0..10 {
            let user = format!("user{i}");
            let row = e.repo().get("users", &user).value.unwrap();
            layouts.insert(row.str("layout").to_owned(), user);
        }
        if layouts.len() < 2 {
            return; // dataset produced a single layout; nothing to compare
        }
        let store = FragmentStore::new(512);
        let mut pages = Vec::new();
        for user in layouts.values() {
            pages.push(get(&e, &store, "/home.jsp", Some(user)));
        }
        assert!(
            pages.windows(2).any(|w| w[0] != w[1]),
            "different layouts must change the page"
        );
    }

    #[test]
    fn unknown_product_renders_gracefully() {
        let e = engine();
        let store = FragmentStore::new(512);
        let page = get(&e, &store, "/product.jsp?id=nope", None);
        assert!(String::from_utf8_lossy(&page).contains("no such product"));
    }
}
