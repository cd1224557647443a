//! OS readiness backends for [`crate::poll`]: epoll on Linux.
//!
//! The workspace vendors no FFI crates, so the epoll binding is a
//! hand-written `extern "C"` shim over the libc symbols every Linux
//! process already links (`epoll_create1`, `epoll_ctl`, `epoll_wait`,
//! `eventfd`, `read`, `write`, `close`). A [`Registry`](crate::Registry)
//! attaches one the first time a source registers an fd. Other platforms
//! get [`os_backend`] `== None`, and their fd sources fall back to the
//! polled tick — `kqueue` would slot in behind the same [`PollBackend`]
//! trait.
//!
//! Design notes:
//!
//! * **Edge-triggered fds.** Sockets are added with
//!   `EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET`. Level-triggered
//!   `EPOLLOUT` would wake the poller on every pass while a socket's send
//!   buffer has room (i.e. almost always); edge-triggered reports only
//!   transitions, which matches the server's drain-to-`WouldBlock`
//!   connection pump. `EPOLL_CTL_ADD` reports readiness that already
//!   holds, satisfying the registry's initial-notification contract.
//! * **Self-wake eventfd.** Cross-thread `Registry::wake`/`notify` must
//!   interrupt a poller parked in `epoll_wait`. A nonblocking `eventfd`
//!   registered level-triggered under a reserved token does that: writers
//!   bump the counter (saturating, so back-to-back wakes coalesce), the
//!   parked thread sees `EPOLLIN` and drains the counter with one 8-byte
//!   read. The wake's cause (a pushed event or the wake flag) is already
//!   in the registry, which the poller re-drains after every park.
//! * **Deregistration order.** `Registry::deregister` removes the fd from
//!   the epoll set *before* the stream is dropped (and the fd closed), so
//!   a recycled fd number can never alias a stale registration.

use crate::poll::PollBackend;

/// The platform's kernel readiness queue, if it has one: `Some(epoll)` on
/// Linux, `None` elsewhere (fd sources fall back to the polled tick).
#[cfg(target_os = "linux")]
pub fn os_backend() -> Option<Box<dyn PollBackend>> {
    linux::EpollBackend::new()
        .ok()
        .map(|b| Box::new(b) as Box<dyn PollBackend>)
}

/// The platform's kernel readiness queue, if it has one: `Some(epoll)` on
/// Linux, `None` elsewhere (fd sources fall back to the polled tick).
#[cfg(not(target_os = "linux"))]
pub fn os_backend() -> Option<Box<dyn PollBackend>> {
    None
}

#[cfg(target_os = "linux")]
mod linux {
    use std::io;
    use std::os::raw::{c_int, c_uint, c_void};
    use std::time::Duration;

    use crate::poll::{PollBackend, Ready, Token};

    const EPOLL_CLOEXEC: c_int = 0o2000000;
    const EPOLL_CTL_ADD: c_int = 1;
    const EPOLL_CTL_DEL: c_int = 2;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;
    const EPOLLET: u32 = 1 << 31;
    const EFD_CLOEXEC: c_int = 0o2000000;
    const EFD_NONBLOCK: c_int = 0o4000;

    /// Token value reserved for the self-wake eventfd. Server tokens are
    /// small sequential integers, so the top of the space is safe.
    const WAKE_TOKEN: u64 = u64::MAX;

    /// Kernel ABI `struct epoll_event`. Packed on x86-64 (the kernel
    /// declares it `__attribute__((packed))` there); naturally aligned on
    /// other architectures.
    #[repr(C)]
    #[cfg_attr(target_arch = "x86_64", repr(packed))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: c_int) -> c_int;
        fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
        fn epoll_wait(
            epfd: c_int,
            events: *mut EpollEvent,
            maxevents: c_int,
            timeout: c_int,
        ) -> c_int;
        fn eventfd(initval: c_uint, flags: c_int) -> c_int;
        fn read(fd: c_int, buf: *mut c_void, count: usize) -> isize;
        fn write(fd: c_int, buf: *const c_void, count: usize) -> isize;
        fn close(fd: c_int) -> c_int;
    }

    /// Linux epoll implementation of [`PollBackend`].
    pub struct EpollBackend {
        epfd: c_int,
        wakefd: c_int,
    }

    impl EpollBackend {
        pub fn new() -> io::Result<EpollBackend> {
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            let wakefd = unsafe { eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK) };
            if wakefd < 0 {
                let err = io::Error::last_os_error();
                unsafe { close(epfd) };
                return Err(err);
            }
            // Level-triggered: the wake stays visible until the counter is
            // drained, so a wake can never be lost between two waits.
            let mut ev = EpollEvent {
                events: EPOLLIN,
                data: WAKE_TOKEN,
            };
            if unsafe { epoll_ctl(epfd, EPOLL_CTL_ADD, wakefd, &mut ev) } < 0 {
                let err = io::Error::last_os_error();
                unsafe {
                    close(wakefd);
                    close(epfd);
                }
                return Err(err);
            }
            Ok(EpollBackend { epfd, wakefd })
        }
    }

    impl Drop for EpollBackend {
        fn drop(&mut self) {
            unsafe {
                close(self.wakefd);
                close(self.epfd);
            }
        }
    }

    impl PollBackend for EpollBackend {
        fn add_fd(&self, fd: i32, token: Token) -> io::Result<()> {
            if token == WAKE_TOKEN {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidInput,
                    "token reserved for the self-wake fd",
                ));
            }
            let mut ev = EpollEvent {
                events: EPOLLIN | EPOLLOUT | EPOLLRDHUP | EPOLLET,
                data: token,
            };
            if unsafe { epoll_ctl(self.epfd, EPOLL_CTL_ADD, fd, &mut ev) } < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(())
        }

        fn del_fd(&self, fd: i32) {
            let mut ev = EpollEvent { events: 0, data: 0 };
            // Ignore errors: EBADF/ENOENT mean the fd is already gone from
            // the set (closing an fd deregisters it kernel-side).
            unsafe { epoll_ctl(self.epfd, EPOLL_CTL_DEL, fd, &mut ev) };
        }

        fn wait(&self, events: &mut Vec<(Token, Ready)>, timeout: Option<Duration>) {
            const MAX_EVENTS: usize = 256;
            let mut buf = [EpollEvent { events: 0, data: 0 }; MAX_EVENTS];
            // epoll granularity is milliseconds; round a short nonzero
            // timeout up so the caller never busy-spins at sub-ms waits.
            let ms: c_int = match timeout {
                None => -1,
                Some(t) => {
                    let millis = (t.as_micros().div_ceil(1000)).min(c_int::MAX as u128);
                    millis as c_int
                }
            };
            let n = unsafe { epoll_wait(self.epfd, buf.as_mut_ptr(), MAX_EVENTS as c_int, ms) };
            // n == 0 is a timeout, n < 0 EINTR or the like: the poller's
            // outer loop re-checks its deadline either way.
            for ev in buf.iter().take(n.max(0) as usize) {
                let ev = *ev;
                if ev.data == WAKE_TOKEN {
                    let mut counter = [0u8; 8];
                    unsafe { read(self.wakefd, counter.as_mut_ptr() as *mut c_void, 8) };
                    continue;
                }
                let bits = ev.events;
                let ready = Ready {
                    readable: bits & (EPOLLIN | EPOLLRDHUP | EPOLLHUP | EPOLLERR) != 0,
                    writable: bits & (EPOLLOUT | EPOLLHUP | EPOLLERR) != 0,
                };
                match events.iter_mut().find(|(t, _)| *t == ev.data) {
                    Some((_, r)) => r.merge(ready),
                    None => events.push((ev.data, ready)),
                }
            }
        }

        fn wake(&self) {
            let one: u64 = 1;
            // EAGAIN means the counter is already saturated — a wake is
            // pending, which is all a wake needs to guarantee.
            unsafe { write(self.wakefd, &one as *const u64 as *const c_void, 8) };
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use std::io::{Read as _, Write as _};
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsRawFd;
        use std::sync::Arc;
        use std::time::Instant;

        use crate::poll::{NbStream, Poller, Registry, WakeSet};

        /// Register a fresh listening socket's fd with `registry` under
        /// `token`, which attaches epoll. The listener must outlive the
        /// registration, so it is returned.
        fn attach(registry: &Registry, token: Token) -> TcpListener {
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            listener.set_nonblocking(true).unwrap();
            assert!(registry.register_fd(listener.as_raw_fd(), token));
            listener
        }

        /// A poller whose registry attached epoll through [`attach`].
        fn attached_poller(token: Token) -> (Poller, TcpListener) {
            let poller = Poller::new();
            let listener = attach(poller.registry(), token);
            assert!(poller.is_os_backed(), "Linux must provide epoll");
            (poller, listener)
        }

        #[test]
        fn wake_interrupts_kernel_park() {
            let (poller, _listener) = attached_poller(1);
            let registry = Arc::clone(poller.registry());
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                registry.wake();
            });
            let mut events = Vec::new();
            let start = Instant::now();
            assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
            assert!(events.is_empty());
            assert!(start.elapsed() < Duration::from_secs(4));
            t.join().unwrap();
        }

        #[test]
        fn notify_reaches_kernel_parked_poller() {
            let (poller, _listener) = attached_poller(1);
            let registry = Arc::clone(poller.registry());
            let t = std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(20));
                registry.notify(7, Ready::READABLE);
            });
            let mut events = Vec::new();
            assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
            assert_eq!(events, vec![(7, Ready::READABLE)]);
            t.join().unwrap();
        }

        #[test]
        fn tcp_fd_readiness_is_pushed_without_ticks() {
            let poller = Poller::new();
            let listener = TcpListener::bind("127.0.0.1:0").unwrap();
            let addr = listener.local_addr().unwrap();
            let mut client = TcpStream::connect(addr).unwrap();
            let (mut server_side, _) = listener.accept().unwrap();
            NbStream::register(&mut server_side, poller.registry(), 42);
            assert!(poller.is_os_backed(), "Linux must provide epoll");
            // Registration reports the initial (writable) readiness.
            let mut events = Vec::new();
            assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
            assert!(events.iter().any(|(t, _)| *t == 42));
            // Park idle: no data, no tick — the wait must run its full
            // timeout (a polled source would return every 1 ms).
            let start = Instant::now();
            assert!(!poller.wait(&mut events, Some(Duration::from_millis(50))));
            assert!(start.elapsed() >= Duration::from_millis(50));
            assert_eq!(poller.tick_count(), 0, "fd sources must not tick");
            // Data arrives: the kernel pushes readability.
            client.write_all(b"ping").unwrap();
            assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
            assert!(events.iter().any(|(t, r)| *t == 42 && r.readable));
            let mut buf = [0u8; 4];
            server_side.read_exact(&mut buf).unwrap();
            assert_eq!(&buf, b"ping");
            assert_eq!(poller.tick_count(), 0);
        }

        #[test]
        fn wake_set_reaches_os_backed_pollers() {
            let pollers: Vec<(Poller, TcpListener)> = (0..2).map(|_| attached_poller(1)).collect();
            let mut wake = WakeSet::new();
            for (p, _) in &pollers {
                wake.add(Arc::clone(p.registry()));
            }
            wake.wake_all();
            for (p, _) in &pollers {
                let mut events = Vec::new();
                assert!(p.wait(&mut events, Some(Duration::from_secs(1))));
                assert!(events.is_empty());
            }
        }

        #[test]
        fn events_pushed_before_the_attach_drain_first() {
            let poller = Poller::new();
            poller.registry().notify(7, Ready::READABLE);
            poller.registry().wake();
            assert!(!poller.is_os_backed());
            let listener = attach(poller.registry(), 1);
            assert!(poller.is_os_backed(), "an fd registration attaches epoll");
            let mut events = Vec::new();
            assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
            assert_eq!(events, vec![(7, Ready::READABLE)]);
            // A connect after the attach is pushed by the kernel.
            let _client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
            assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
            assert!(events.iter().any(|(t, r)| *t == 1 && r.readable));
            assert_eq!(poller.tick_count(), 0, "the listener must not tick");
        }

        #[test]
        fn attach_from_another_thread_moves_a_condvar_park_into_the_kernel() {
            let poller = Poller::new();
            let registry = Arc::clone(poller.registry());
            let t = std::thread::spawn(move || {
                // Let the poller park on the condvar first. No barrier can
                // observe that park; if the attach wins the race instead,
                // the poller parks straight in epoll and the test still
                // holds, so the sleep only makes the interesting order the
                // likely one.
                std::thread::sleep(Duration::from_millis(50));
                let listener = attach(&registry, 9);
                let client = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
                (listener, client)
            });
            assert!(!poller.is_os_backed());
            let mut events = Vec::new();
            let start = Instant::now();
            assert!(poller.wait(&mut events, Some(Duration::from_secs(5))));
            assert!(
                start.elapsed() < Duration::from_secs(1),
                "the attach must pull the parked poller into epoll"
            );
            assert!(events.iter().any(|(t, r)| *t == 9 && r.readable));
            let _sockets = t.join().unwrap();
        }
    }
}
