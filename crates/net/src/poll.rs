//! Readiness registry: the epoll-shaped core of the event-driven HTTP front.
//!
//! The HTTP server multiplexes thousands of keep-alive connections over a
//! handful of threads. It needs two things from the transport layer:
//!
//! 1. **Nonblocking sources** — [`NbStream`]/[`NbListener`], whose `try_*`
//!    operations return [`std::io::ErrorKind::WouldBlock`] instead of
//!    parking the calling thread; and
//! 2. **A way to sleep until any source may have become ready** — the
//!    [`Registry`]/[`Poller`] pair.
//!
//! The registry is a condvar-guarded set of `(token, readiness)` events.
//! Sources that can observe their own state transitions (the in-memory
//! [`SimStream`](crate::SimStream) pipes: a peer write, a close, freed
//! buffer space) *push* a notification after each transition, so a poller
//! waiting on 10k idle connections consumes zero CPU — exactly the epoll
//! model, built portably out of a mutex and a condvar.
//!
//! Wakes follow one discipline, on the sources' locks and on the
//! registry's own: decide under the lock, wake after it is released. A
//! source records its transition under its lock and notifies after
//! dropping it. [`Registry::notify`] merges the event under the registry
//! lock and reads whether the poller is parked on the condvar (a flag the
//! poller raises and lowers around its park); it issues the futex wake
//! after the unlock, and only when the flag was up. A busy poller, which
//! drains the event on its next pass anyway, costs its notifiers no
//! syscall, and a parked one never wakes into a lock its waker still
//! holds.
//!
//! Sources that cannot push (plain `std::net` TCP sockets) hand their fd
//! to [`Registry::register_fd`]. The first such registration attaches the
//! platform's kernel queue (a [`PollBackend`]: epoll on Linux, see
//! [`crate::backend_os`]) to the registry, and from then on the poller
//! parks in the kernel instead of on the condvar. Real TCP therefore gets
//! the same zero-CPU idle behaviour as the simulated streams, and
//! cross-thread wakes ([`Registry::wake`]/[`Registry::notify`]) reach the
//! kernel-parked poller through the backend's self-wake fd. A registry
//! that only ever sees pushed sources never attaches: every `notify` on
//! an attached registry costs an eventfd `write`, which the simulated
//! network does not need.
//!
//! Where there is no kernel queue (non-Linux) or the kernel refuses an
//! fd, the source registers as *polled* instead: while any polled source
//! exists the poller wakes on a periodic tick that reports every polled
//! token as maybe-ready, and the caller's `try_*` calls sort out the
//! truth.
//!
//! Notifications are delivery *hints*, not guarantees of progress: a
//! spurious event costs one `WouldBlock`, a missed state change never
//! happens because sources notify on every transition and on registration.

use std::collections::{BTreeSet, HashMap};
use std::io;
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock};
use std::time::{Duration, Instant};

/// Identifies one registered source within a poller's universe.
pub type Token = u64;

/// Readiness bits carried by one event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ready {
    pub readable: bool,
    pub writable: bool,
}

impl Ready {
    pub const READABLE: Ready = Ready {
        readable: true,
        writable: false,
    };
    pub const WRITABLE: Ready = Ready {
        readable: false,
        writable: true,
    };
    pub const BOTH: Ready = Ready {
        readable: true,
        writable: true,
    };

    /// OR-combine with another readiness set.
    pub fn merge(&mut self, other: Ready) {
        self.readable |= other.readable;
        self.writable |= other.writable;
    }
}

/// How often the poller re-reports polled (non-notifying) sources.
///
/// The tick is only armed while at least one polled source is registered:
/// a push-only poller (the simulated network's streams all notify) blocks
/// until a real event and never spins on the tick — see
/// [`Poller::tick_count`] and the `push_only_poller_never_arms_the_tick`
/// test that pins this down.
const FALLBACK_TICK: Duration = Duration::from_millis(1);

/// An OS readiness queue that a [`Registry`] attaches on its first fd
/// registration: epoll on Linux (kqueue would slot in behind the same four
/// methods). FD sources are added with a token, the poller parks in
/// [`PollBackend::wait`], and [`PollBackend::wake`] interrupts the park
/// from any thread via the backend's self-wake fd — the registry routes
/// `notify`/`wake` through it so pushed events still reach a kernel-parked
/// poller.
pub trait PollBackend: Send + Sync {
    /// Watch `fd` for readability and writability, reporting readiness
    /// under `token`. Registration must surface any readiness that already
    /// holds (the same initial-notification contract as
    /// [`NbStream::register`]).
    fn add_fd(&self, fd: i32, token: Token) -> io::Result<()>;

    /// Stop watching `fd`. Errors are ignored: the fd may already be
    /// closed, which deregisters it kernel-side anyway.
    fn del_fd(&self, fd: i32);

    /// Park until an fd event, a [`wake`](PollBackend::wake), or `timeout`,
    /// appending fd events to `events` (merged per token). A consumed wake
    /// adds nothing: its cause is already recorded in the registry.
    fn wait(&self, events: &mut Vec<(Token, Ready)>, timeout: Option<Duration>);

    /// Interrupt a concurrent [`wait`](PollBackend::wait) from any thread.
    fn wake(&self);
}

#[derive(Default)]
struct RegState {
    /// Pending events, merged per token. A `Vec` with a merge-on-push
    /// linear scan, *not* a map: the pending set between two poller wakes
    /// is tiny, and draining a map costs a bucket walk proportional to its
    /// high-water capacity — which made every wake O(total connections)
    /// after a connection-storm warm-up.
    ready: Vec<(Token, Ready)>,
    /// Set by [`Registry::wake`]; makes the next `wait` return immediately.
    woken: bool,
    /// The poller is parked on the condvar: the next event owes it a futex
    /// wake. Raised by the poller before it parks; cleared when it wakes,
    /// or by the notifier that takes the wake on itself.
    parked: bool,
    /// Tokens of sources that cannot push notifications (TCP fallback).
    polled: BTreeSet<Token>,
    /// FD registered per token with the kernel queue, for deregistration.
    fds: HashMap<Token, i32>,
}

/// Shared readiness state between sources and the poller that sleeps on it.
///
/// Cloneable via `Arc`; sources hold a reference and call
/// [`notify`](Registry::notify) on every state transition.
pub struct Registry {
    state: Mutex<RegState>,
    cv: Condvar,
    /// Kernel readiness queue, attached by the first
    /// [`register_fd`](Registry::register_fd) and kept for the registry's
    /// life. While set, the poller parks in it instead of on the condvar,
    /// and `notify`/`wake` route through its self-wake fd.
    os: OnceLock<Box<dyn PollBackend>>,
}

impl Registry {
    pub fn new() -> Arc<Registry> {
        Arc::new(Registry {
            state: Mutex::new(RegState::default()),
            cv: Condvar::new(),
            os: OnceLock::new(),
        })
    }

    /// Record that `token` may now be ready for `ready` and wake the poller.
    pub fn notify(&self, token: Token, ready: Ready) {
        let mut st = self.state.lock().expect("registry poisoned");
        match st.ready.iter_mut().find(|(t, _)| *t == token) {
            Some((_, r)) => r.merge(ready),
            None => st.ready.push((token, ready)),
        }
        self.release_and_wake(st);
    }

    /// Wake the poller without an event (stop requests, completed handler
    /// results queued out-of-band).
    pub fn wake(&self) {
        let mut st = self.state.lock().expect("registry poisoned");
        st.woken = true;
        self.release_and_wake(st);
    }

    /// The tail of every event the poller must see: wake it on the
    /// condvar if it is parked there, and always through an attached
    /// kernel queue, whose park is not flagged.
    fn release_and_wake(&self, st: MutexGuard<'_, RegState>) {
        self.release_and_wake_parked(st);
        if let Some(os) = self.os.get() {
            os.wake();
        }
    }

    /// Take the parked flag under the lock (the first notifier after a
    /// park owes the one futex wake, later ones find the flag down),
    /// release the lock, then wake the condvar only if the poller was
    /// parked on it.
    fn release_and_wake_parked(&self, mut st: MutexGuard<'_, RegState>) {
        let parked = std::mem::take(&mut st.parked);
        drop(st);
        if parked {
            self.cv.notify_all();
        }
    }

    /// Park the poller on the condvar (at most `timeout`), flagged so the
    /// next event knows it owes a wake.
    fn park<'a>(
        &self,
        mut st: MutexGuard<'a, RegState>,
        timeout: Option<Duration>,
    ) -> MutexGuard<'a, RegState> {
        st.parked = true;
        let mut st = match timeout {
            None => self.cv.wait(st).expect("registry poisoned"),
            Some(dur) => self.cv.wait_timeout(st, dur).expect("registry poisoned").0,
        };
        st.parked = false;
        st
    }

    /// Register `token` as a polled source: it will be reported as
    /// maybe-ready on every fallback tick because it cannot push
    /// notifications itself.
    pub fn register_polled(&self, token: Token) {
        let mut st = self.state.lock().expect("registry poisoned");
        st.polled.insert(token);
        // A poller parked without a deadline re-loops and arms the tick.
        self.release_and_wake_parked(st);
    }

    /// Hand `fd` to the kernel readiness queue under `token`, attaching
    /// the queue on the first call. Returns false when the platform has no
    /// queue or the kernel refused the fd — the caller should fall back to
    /// [`register_polled`](Registry::register_polled).
    pub fn register_fd(&self, fd: i32, token: Token) -> bool {
        let os = match self.os.get() {
            Some(os) => os,
            None => match crate::backend_os::os_backend() {
                // A racing registration may attach first; then ours drops.
                Some(fresh) => self.os.get_or_init(|| fresh),
                None => return false,
            },
        };
        if os.add_fd(fd, token).is_err() {
            return false;
        }
        let mut st = self.state.lock().expect("registry poisoned");
        st.fds.insert(token, fd);
        // A poller parked on the condvar re-loops and parks in the kernel,
        // where this fd's events arrive. Events pushed before the attach
        // are still in `st` and drain first.
        self.release_and_wake_parked(st);
        true
    }

    /// Forget `token`: drops its pending events, its polled registration,
    /// and its fd registration with the kernel queue (if any). Call
    /// *before* closing the fd so a recycled fd number can never be
    /// confused with the old registration.
    pub fn deregister(&self, token: Token) {
        let fd = {
            let mut st = self.state.lock().expect("registry poisoned");
            st.ready.retain(|(t, _)| *t != token);
            st.polled.remove(&token);
            st.fds.remove(&token)
        };
        if let (Some(fd), Some(os)) = (fd, self.os.get()) {
            os.del_fd(fd);
        }
    }
}

/// Waits on a [`Registry`] for the next batch of events.
pub struct Poller {
    registry: Arc<Registry>,
    /// Absolute deadline of the next polled-source tick. Kept across
    /// `wait` calls so a steady stream of pushed events cannot starve
    /// polled sources: once the deadline passes, the next wait reports
    /// them no matter how busy the pushed side is. `None` whenever no
    /// polled source is registered — the tick is never armed for a
    /// push-only poller, which therefore blocks until a real event.
    next_tick: std::cell::Cell<Option<Instant>>,
    /// How many `wait` returns were caused by the polled-source tick.
    /// Zero for the lifetime of a push-only poller.
    ticks: std::cell::Cell<u64>,
}

impl Poller {
    pub fn new() -> Poller {
        Poller {
            registry: Registry::new(),
            next_tick: std::cell::Cell::new(None),
            ticks: std::cell::Cell::new(0),
        }
    }

    /// Whether this poller parks in a kernel readiness queue: true once a
    /// source has registered an fd, false for a push-only poller.
    pub fn is_os_backed(&self) -> bool {
        self.registry.os.get().is_some()
    }

    /// The registry sources should be registered with.
    pub fn registry(&self) -> &Arc<Registry> {
        &self.registry
    }

    /// Number of `wait` returns driven by the polled-source fallback tick.
    /// A poller whose sources all push notifications never ticks.
    pub fn tick_count(&self) -> u64 {
        self.ticks.get()
    }

    /// Block until events are available (or `timeout` expires), draining
    /// them into `events`. Returns true when it returned because of events
    /// or an explicit [`Registry::wake`]; false on timeout with nothing
    /// pending.
    ///
    /// Pushed events, the wake flag and a due polled-source tick are
    /// drained under the registry lock; with nothing to report the poller
    /// parks on the condvar, or in the kernel queue once one is attached.
    pub fn wait(&self, events: &mut Vec<(Token, Ready)>, timeout: Option<Duration>) -> bool {
        events.clear();
        let deadline = timeout.map(|t| Instant::now() + t);
        let registry = &*self.registry;
        let mut st = registry.state.lock().expect("registry poisoned");
        loop {
            let woken = std::mem::take(&mut st.woken);
            events.append(&mut st.ready);
            // Polled-source tick: its deadline is absolute and kept across
            // calls, so pushed events arriving every <1 ms cannot starve
            // polled sources — an overdue tick fires on the next wait no
            // matter how busy the pushed side is.
            if st.polled.is_empty() {
                self.next_tick.set(None);
            } else {
                let now = Instant::now();
                match self.next_tick.get() {
                    Some(due) if now >= due => {
                        self.next_tick.set(Some(now + FALLBACK_TICK));
                        self.ticks.set(self.ticks.get() + 1);
                        let seen: Vec<Token> = events.iter().map(|(t, _)| *t).collect();
                        events.extend(
                            st.polled
                                .iter()
                                .filter(|t| !seen.contains(t))
                                .map(|t| (*t, Ready::BOTH)),
                        );
                    }
                    Some(_) => {}
                    None => self.next_tick.set(Some(now + FALLBACK_TICK)),
                }
            }
            if woken || !events.is_empty() {
                return true;
            }
            let remaining = match deadline {
                Some(d) => {
                    let left = d.saturating_duration_since(Instant::now());
                    if left.is_zero() {
                        return false;
                    }
                    Some(left)
                }
                None => None,
            };
            let tick = self
                .next_tick
                .get()
                .map(|t| t.saturating_duration_since(Instant::now()));
            let park = match (tick, remaining) {
                (Some(t), Some(r)) => Some(t.min(r)),
                (t, r) => t.or(r),
            };
            // Checked under the lock: an attach that lands after this
            // check finds the parked flag up and notifies the condvar, so
            // the park below cannot miss it.
            match (registry.os.get(), park) {
                (None, park) => st = registry.park(st, park),
                (Some(os), park) => {
                    drop(st);
                    os.wait(events, park);
                    if !events.is_empty() {
                        return true;
                    }
                    // A consumed wake, a timeout or a spurious return: the
                    // loop top re-drains pushed state.
                    st = registry.state.lock().expect("registry poisoned");
                }
            }
        }
    }
}

impl Default for Poller {
    fn default() -> Self {
        Poller::new()
    }
}

/// Cross-loop wake handle: one `wake_all` reaches every registered loop's
/// poller. A multi-loop server front stores one registry per event loop
/// here so `stop()` wakes all of them in one call — shutdown stays
/// deterministic no matter which loops are parked on idle connections.
#[derive(Clone, Default)]
pub struct WakeSet {
    registries: Vec<Arc<Registry>>,
}

impl WakeSet {
    pub fn new() -> WakeSet {
        WakeSet::default()
    }

    /// Add one loop's registry to the set.
    pub fn add(&mut self, registry: Arc<Registry>) {
        self.registries.push(registry);
    }

    /// Wake every registered poller (see [`Registry::wake`]).
    pub fn wake_all(&self) {
        for registry in &self.registries {
            registry.wake();
        }
    }

    /// Number of registries in the set.
    pub fn len(&self) -> usize {
        self.registries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.registries.is_empty()
    }
}

/// A nonblocking, registerable byte stream — the readiness-driven sibling
/// of [`Duplex`](crate::Duplex).
///
/// `Ok(0)` from [`try_read`](NbStream::try_read) means EOF;
/// `ErrorKind::WouldBlock` means "no data right now, an event will follow".
pub trait NbStream: Send {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize>;

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize>;

    /// Vectored write: consumes bytes across `bufs` in order. This is the
    /// rope-to-wire path — an assembled page's fragment segments go out in
    /// one call without being flattened into a contiguous buffer first.
    fn try_write_vectored(&mut self, bufs: &[io::IoSlice<'_>]) -> io::Result<usize>;

    /// Register with `registry` under `token`. Implementations must push an
    /// initial notification for any readiness that already holds, so no
    /// pre-registration state transition is lost.
    fn register(&mut self, registry: &Arc<Registry>, token: Token);

    /// A short human-readable description of the peer, for logs.
    fn peer_label(&self) -> String {
        "<peer>".to_owned()
    }
}

/// Boxed nonblocking stream.
pub type BoxNbStream = Box<dyn NbStream>;

/// A nonblocking, registerable connection acceptor.
pub trait NbListener: Send {
    /// Accept one pending connection; `Ok(None)` when none is queued.
    fn try_accept(&mut self) -> io::Result<Option<BoxNbStream>>;

    /// Register with `registry` under `token` (same initial-notification
    /// contract as [`NbStream::register`]).
    fn register(&mut self, registry: &Arc<Registry>, token: Token);

    /// Address clients should use to reach this listener.
    fn local_addr(&self) -> String;
}

/// Boxed nonblocking listener.
pub type BoxNbListener = Box<dyn NbListener>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn notify_wakes_wait() {
        let poller = Poller::new();
        let registry = Arc::clone(poller.registry());
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            registry.notify(7, Ready::READABLE);
        });
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
        assert_eq!(events, vec![(7, Ready::READABLE)]);
        t.join().unwrap();
    }

    #[test]
    fn events_merge_per_token() {
        let poller = Poller::new();
        poller.registry().notify(3, Ready::READABLE);
        poller.registry().notify(3, Ready::WRITABLE);
        poller.registry().notify(4, Ready::READABLE);
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, None));
        events.sort_by_key(|(t, _)| *t);
        assert_eq!(events, vec![(3, Ready::BOTH), (4, Ready::READABLE)]);
    }

    #[test]
    fn wake_returns_without_events() {
        let poller = Poller::new();
        let registry = Arc::clone(poller.registry());
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            registry.wake();
        });
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
        assert!(events.is_empty());
        t.join().unwrap();
    }

    #[test]
    fn timeout_returns_false() {
        let poller = Poller::new();
        let mut events = Vec::new();
        assert!(!poller.wait(&mut events, Some(Duration::from_millis(5))));
        assert!(events.is_empty());
    }

    #[test]
    fn polled_sources_resurface_every_tick() {
        let poller = Poller::new();
        poller.registry().register_polled(9);
        let mut events = Vec::new();
        for _ in 0..3 {
            assert!(poller.wait(&mut events, Some(Duration::from_secs(1))));
            assert_eq!(events, vec![(9, Ready::BOTH)]);
        }
        poller.registry().deregister(9);
        assert!(!poller.wait(&mut events, Some(Duration::from_millis(5))));
    }

    #[test]
    fn busy_pushed_events_cannot_starve_polled_sources() {
        let poller = Poller::new();
        poller.registry().register_polled(9);
        let registry = Arc::clone(poller.registry());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stop2 = Arc::clone(&stop);
        // A pushed source notifying far faster than the 1 ms tick.
        let pusher = std::thread::spawn(move || {
            while !stop2.load(std::sync::atomic::Ordering::Acquire) {
                registry.notify(1, Ready::READABLE);
                std::thread::sleep(Duration::from_micros(100));
            }
        });
        let mut events = Vec::new();
        let mut saw_polled = false;
        for _ in 0..100 {
            poller.wait(&mut events, Some(Duration::from_millis(50)));
            if events.iter().any(|(t, _)| *t == 9) {
                saw_polled = true;
                break;
            }
        }
        stop.store(true, std::sync::atomic::Ordering::Release);
        pusher.join().unwrap();
        assert!(
            saw_polled,
            "the polled tick must fire despite a busy pushed source"
        );
    }

    #[test]
    fn push_only_poller_never_arms_the_tick() {
        // A poller whose sources all push notifications (no polled/TCP
        // fallback sources) must block until a real event: no 1 ms tick
        // wake-ups, no spurious returns.
        let poller = Poller::new();
        let registry = Arc::clone(poller.registry());
        let mut events = Vec::new();
        // Idle with a timeout far beyond the tick period: the wait must
        // run the full timeout without a tick-driven return.
        let start = Instant::now();
        assert!(!poller.wait(&mut events, Some(Duration::from_millis(50))));
        assert!(
            start.elapsed() >= Duration::from_millis(50),
            "idle push-only wait returned early"
        );
        assert_eq!(poller.tick_count(), 0, "no polled sources, no ticks");
        // A real pushed event still wakes it promptly…
        let t = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(10));
            registry.notify(2, Ready::READABLE);
        });
        assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
        assert_eq!(events, vec![(2, Ready::READABLE)]);
        t.join().unwrap();
        assert_eq!(poller.tick_count(), 0, "pushed wake is not a tick");
        // …while a polled registration arms the tick (and deregistration
        // disarms it again).
        poller.registry().register_polled(9);
        assert!(poller.wait(&mut events, Some(Duration::from_secs(1))));
        assert!(poller.tick_count() > 0, "polled source must tick");
        let ticks = poller.tick_count();
        poller.registry().deregister(9);
        assert!(!poller.wait(&mut events, Some(Duration::from_millis(30))));
        assert_eq!(poller.tick_count(), ticks, "deregistering stops ticks");
    }

    #[test]
    fn wake_set_wakes_every_registered_poller() {
        let pollers: Vec<Poller> = (0..3).map(|_| Poller::new()).collect();
        let mut wake = WakeSet::new();
        for p in &pollers {
            wake.add(Arc::clone(p.registry()));
        }
        assert_eq!(wake.len(), 3);
        wake.wake_all();
        for p in &pollers {
            let mut events = Vec::new();
            assert!(
                p.wait(&mut events, Some(Duration::from_secs(1))),
                "wake_all must reach every poller"
            );
            assert!(events.is_empty());
        }
    }

    #[test]
    fn pushed_and_polled_sources_never_attach_the_kernel_queue() {
        // Only an fd registration attaches the kernel queue: an attached
        // registry turns every `notify` into an eventfd write, which the
        // simulated network's push-only pollers must not pay.
        let poller = Poller::new();
        let registry = poller.registry();
        registry.notify(1, Ready::READABLE);
        registry.wake();
        registry.register_polled(2);
        let net = crate::SimNetwork::with_defaults();
        NbListener::register(&mut net.listen("push-only"), registry, 3);
        let (mut client, mut server_side) = crate::SimStream::unmetered_pair("push-only");
        NbStream::register(&mut server_side, registry, 4);
        std::io::Write::write_all(&mut client, b"x").unwrap();
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, Some(Duration::from_secs(1))));
        assert!(events.iter().any(|(t, r)| *t == 4 && r.readable));
        assert!(!poller.is_os_backed(), "no fd was registered");
    }

    #[test]
    fn deregister_drops_pending_events() {
        let poller = Poller::new();
        poller.registry().notify(5, Ready::READABLE);
        poller.registry().deregister(5);
        let mut events = Vec::new();
        assert!(!poller.wait(&mut events, Some(Duration::from_millis(5))));
    }
}
