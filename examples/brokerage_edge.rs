//! The brokerage site served over **real TCP sockets** on localhost — the
//! same code that runs on the simulated wire binds actual listeners, so
//! you can also poke it with `curl` while it runs.
//!
//! Topology (the paper's reverse-proxy deployment):
//!
//! ```text
//! this process's client ──tcp──> proxy (DPC) ──tcp──> origin (BEM + apps)
//! ```
//!
//! Run: `cargo run --example brokerage_edge`

use dynproxy::appserver::apps;
use dynproxy::appserver::ScriptEngine;
use dynproxy::core::{Bem, BemConfig, CoherencyEpoch, FragmentStore};
use dynproxy::http::{Client, Request, Server};
use dynproxy::net::{Clock, TcpConnector, TcpListenerAdapter};
use dynproxy::proxy::esi::EsiAssembler;
use dynproxy::proxy::{PageCache, Proxy, ProxyMode};
use dynproxy::repository::datasets::{seed_all, tick_quote, DatasetConfig};
use dynproxy::repository::Repository;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::Arc;
use std::time::Duration;

fn main() {
    // --- Origin box: repository + BEM + script engine on a real socket.
    let repo = Repository::with_defaults();
    seed_all(
        &repo,
        &DatasetConfig {
            symbols: 10,
            users: 20,
            fragment_bytes: 600,
            ..DatasetConfig::default()
        },
    );
    let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(2048)));
    let mut engine = ScriptEngine::new(Arc::clone(&bem), Arc::clone(&repo));
    apps::install_demo_sites(&mut engine);
    engine.connect_invalidation();
    let engine = Arc::new(engine);
    let origin_listener = TcpListenerAdapter::bind("127.0.0.1:0").expect("bind origin");
    let origin = Server::new(Box::new(origin_listener), {
        let engine = Arc::clone(&engine);
        engine as Arc<dyn dynproxy::http::Handler>
    })
    .spawn();
    println!("origin listening on http://{}", origin.addr());

    // --- External box: DPC proxy on a second real socket.
    let clock = Clock::real();
    let upstream = Arc::new(Client::new(Arc::new(TcpConnector)));
    let proxy = Arc::new(Proxy::new(
        ProxyMode::Dpc,
        origin.addr(),
        upstream,
        Arc::new(FragmentStore::new(2048)),
        Arc::new(PageCache::new(
            clock.clone(),
            Duration::from_secs(60),
            256,
            CoherencyEpoch::new(),
        )),
        Arc::new(EsiAssembler::new(clock, Duration::from_secs(60))),
        None,
    ));
    let proxy_listener = TcpListenerAdapter::bind("127.0.0.1:0").expect("bind proxy");
    let proxy_server = Server::new(Box::new(proxy_listener), {
        let proxy = Arc::clone(&proxy);
        proxy as Arc<dyn dynproxy::http::Handler>
    })
    .spawn();
    println!(
        "proxy  listening on http://{}  (try: curl http://{}/quote.jsp?symbol=SYM3)",
        proxy_server.addr(),
        proxy_server.addr()
    );

    // --- A market session through the proxy.
    let client = Client::new(Arc::new(TcpConnector));
    let mut rng = StdRng::seed_from_u64(7);
    let quote = |client: &Client, sym: &str| {
        let resp = client
            .request(
                proxy_server.addr(),
                Request::get(format!("/quote.jsp?symbol={sym}")),
            )
            .expect("quote request");
        assert!(resp.status.is_success());
        resp
    };

    let cold = quote(&client, "SYM3");
    let warm = quote(&client, "SYM3");
    println!(
        "\nSYM3 quote page: cold {} B, warm {} B (identical bytes: {})",
        cold.body.len(),
        warm.body.len(),
        cold.body == warm.body
    );

    // Ticks invalidate only the price fragment; the page updates instantly.
    for _ in 0..3 {
        tick_quote(&repo, "SYM3", &mut rng);
        let fresh = quote(&client, "SYM3");
        let flat = fresh.body.flatten();
        let body = String::from_utf8_lossy(&flat);
        let price = body
            .split("$")
            .nth(1)
            .and_then(|s| s.split_whitespace().next().map(str::to_owned))
            .unwrap_or_default();
        println!("tick -> fresh price ${price}");
    }

    let stats = bem.directory_stats();
    println!(
        "\nBEM directory: h = {:.3}, {} invalidations; proxy assembled {} pages",
        stats.hit_ratio(),
        stats.invalidations,
        proxy
            .stats()
            .assembled
            .load(std::sync::atomic::Ordering::Relaxed)
    );
    println!("done (servers shut down with the process)");
}
