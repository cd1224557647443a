//! A client cannot speak the node's half of the proxy–origin protocol.
//!
//! A request carrying every internal request header of `dpc_core::proto`
//! is served exactly as the same request without them: same bytes, same
//! `X-Cache`, no bypass render and no forgotten slot at the origin, and no
//! internal response header comes back. Checked against a twin testbed
//! that sees only plain requests, in DPC mode with the page tier off and
//! on, and in pass-through mode.

use std::sync::Arc;

use dpc_appserver::apps::paper_site::PaperSiteParams;
use dpc_core::proto::{
    BYPASS_HEADER, INTERNAL_REQUEST, INTERNAL_RESPONSE, MISSING_HEADER, NODE_HEADER,
    WANT_READS_HEADER,
};
use dpc_http::{Client, Request, Response};
use dpc_proxy::testbed::{Testbed, TestbedConfig, PROXY_ADDR};
use dpc_proxy::ProxyMode;

fn testbed(mode: ProxyMode, tier: bool) -> Testbed {
    Testbed::build(TestbedConfig {
        mode,
        paper_params: PaperSiteParams {
            pages: 4,
            fragments_per_page: 4,
            fragment_bytes: 256,
            cacheability: 0.75,
            ..PaperSiteParams::default()
        },
        l1_budget_bytes: if tier { 1 << 20 } else { 0 },
        ..TestbedConfig::default()
    })
}

/// Every internal request header, each with a value the origin would act
/// on: a bypass, another node, a refresh naming every key the small site
/// uses, and a read-set request.
fn forged(mut req: Request) -> Request {
    let keys: Vec<String> = (0..64).map(|k| k.to_string()).collect();
    for (name, value) in [
        (BYPASS_HEADER, "1".to_owned()),
        (NODE_HEADER, "5".to_owned()),
        (MISSING_HEADER, keys.join(",")),
        (WANT_READS_HEADER, "1".to_owned()),
    ] {
        req.headers.set(name, value);
    }
    assert!(INTERNAL_REQUEST
        .iter()
        .all(|n| req.headers.get(n).is_some()));
    req
}

fn served(tb: &Testbed, req: Request) -> Response {
    Client::new(Arc::new(tb.net().connector()))
        .request(PROXY_ADDR, req)
        .expect("proxy request")
}

fn check(mode: ProxyMode, tier: bool) {
    let what = format!("{mode:?}, tier {}", if tier { "on" } else { "off" });
    let (plain, forging) = (testbed(mode, tier), testbed(mode, tier));
    // Cold, warm, warm again, per page and per session.
    let mut targets = Vec::new();
    for p in [0, 1, 0, 2, 1, 0] {
        for user in [None, Some("alice")] {
            targets.push((format!("/paper/page.jsp?p={p}"), user));
        }
    }
    for (target, user) in targets {
        let request = || {
            let req = Request::get(target.as_str());
            match user {
                Some(u) => req.with_header("Cookie", format!("session={u}")),
                None => req,
            }
        };
        let want = served(&plain, request());
        let got = served(&forging, forged(request()));
        assert_eq!(got.status, want.status, "{what}: {target}");
        assert!(got.body == want.body, "{what}: {target}: other bytes");
        assert_eq!(
            got.headers.get("X-Cache"),
            want.headers.get("X-Cache"),
            "{what}: {target}"
        );
        for name in INTERNAL_RESPONSE {
            assert_eq!(
                got.headers.get(name),
                None,
                "{what}: {name} reached a client"
            );
        }
    }
    let (requests, bypasses, _) = forging.engine().counters();
    assert_eq!(
        requests,
        plain.engine().counters().0,
        "{what}: origin renders"
    );
    assert_eq!(bypasses, 0, "{what}: a client's bypass reached the origin");
    let missing = forging.engine().bem().stats().snapshot().missing_keys;
    assert_eq!(missing, 0, "{what}: a client's refresh reached the BEM");
}

#[test]
fn a_clients_internal_headers_change_nothing_without_the_tier() {
    check(ProxyMode::Dpc, false);
}

#[test]
fn a_clients_internal_headers_change_nothing_with_the_tier() {
    check(ProxyMode::Dpc, true);
}

#[test]
fn a_clients_internal_headers_change_nothing_in_pass_through() {
    check(ProxyMode::PassThrough, false);
}
