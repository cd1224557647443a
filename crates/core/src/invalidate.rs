//! Invalidation management: dependency naming and the TTL sweeper.
//!
//! The paper's *cache invalidation manager* "monitors fragments to determine
//! when they become invalid … due to, for instance, expiration of the ttl or
//! updates to the underlying data sources." The data-source half is
//! [`crate::bem::Bem::on_data_update`] (driven by the repository's update
//! bus); this module supplies the canonical dependency naming scheme and a
//! background TTL sweeper for deployments on a real clock.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use crate::bem::Bem;

/// Canonical dependency label for a (table, key) pair: `"table/key"`.
///
/// Scripts register fragment dependencies with this exact format and the
/// repository's update bus publishes the same, so the two sides always
/// agree.
pub fn dep(table: &str, key: &str) -> String {
    let mut s = String::with_capacity(table.len() + 1 + key.len());
    s.push_str(table);
    s.push('/');
    s.push_str(key);
    s
}

/// Dependency label for a whole table: `"table/*"`. Published on bulk
/// updates; scripts that scan a table register this.
pub fn dep_table(table: &str) -> String {
    dep(table, "*")
}

/// Background TTL sweeper for BEMs running on a real clock.
///
/// Virtual-clock tests and benches do not need this: expiry is also checked
/// lazily at lookup time. The sweeper keeps directory gauges honest and
/// returns keys to the freeList promptly even for fragments that are never
/// requested again. A sweep holds the directory lock for one pass over its
/// entries.
pub struct Sweeper {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl Sweeper {
    /// Sweep `bem`'s directory and object cache every `period`.
    pub fn spawn(bem: Arc<Bem>, period: Duration) -> Sweeper {
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("bem-sweeper".to_owned())
            .spawn(move || {
                while !stop2.load(Ordering::Acquire) {
                    std::thread::sleep(period);
                    if stop2.load(Ordering::Acquire) {
                        break;
                    }
                    bem.directory().sweep_expired();
                    bem.objects().sweep_expired();
                }
            })
            .expect("spawn sweeper thread");
        Sweeper {
            stop,
            handle: Some(handle),
        }
    }

    /// Stop the sweeper and wait for its thread.
    pub fn stop(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Sweeper {
    fn drop(&mut self) {
        self.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bem::FragmentPolicy;
    use crate::config::BemConfig;
    use crate::key::FragmentId;

    #[test]
    fn dep_formats() {
        assert_eq!(dep("quotes", "IBM"), "quotes/IBM");
        assert_eq!(dep_table("headlines"), "headlines/*");
    }

    #[test]
    fn sweeper_runs_and_stops() {
        let bem = Arc::new(Bem::new(BemConfig::default().with_capacity(4)));
        // Entry with a microscopic TTL on the real clock.
        let mut w = bem.template_writer();
        w.fragment(
            &FragmentId::new("f"),
            FragmentPolicy::ttl(Duration::from_millis(1)),
            |b| b.push(b'x'),
        );
        let _ = w.finish();
        let sweeper = Sweeper::spawn(Arc::clone(&bem), Duration::from_millis(5));
        // Wait for at least one sweep after expiry.
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        loop {
            let stats = bem.directory_stats();
            if stats.expirations >= 1 || std::time::Instant::now() > deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        sweeper.stop();
        assert!(bem.directory_stats().expirations >= 1);
        bem.directory().check_invariants().unwrap();
    }
}
