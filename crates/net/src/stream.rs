//! Transport abstraction: the HTTP layer talks to `dyn Duplex` (blocking)
//! or `dyn NbStream` (readiness-driven) so that the same server/client code
//! runs over real TCP sockets (examples, manual testing) and over the
//! in-memory simulated wire (tests, benches).
//!
//! The TCP types implement the nonblocking traits via `set_nonblocking`
//! plus a kernel registration ([`Registry::register_fd`], epoll on Linux —
//! readiness is pushed, the fallback tick never arms). Where the platform
//! has no kernel queue or refuses the fd, they take the *polled fallback*
//! (see [`crate::poll`]): polled sources are re-reported every tick and
//! `try_*` calls resolve the truth.

use std::io::{self, IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;

use crate::poll::{BoxNbStream, NbListener, NbStream, Registry, Token};

/// A bidirectional, blocking byte stream — the subset of `TcpStream`
/// behaviour the HTTP layer relies on.
pub trait Duplex: Read + Write + Send {
    /// Half-close the write side, delivering EOF to the peer's reader while
    /// keeping our read side open (mirrors `TcpStream::shutdown(Write)`).
    fn shutdown_write(&mut self) -> std::io::Result<()>;

    /// A short human-readable description of the peer, for logs.
    fn peer_label(&self) -> String {
        "<peer>".to_owned()
    }
}

/// Boxed transport stream.
pub type BoxStream = Box<dyn Duplex>;

/// Accepts inbound connections; implemented for TCP and the simulated
/// network.
pub trait Listener: Send {
    /// Block until a client connects.
    fn accept(&self) -> std::io::Result<BoxStream>;

    /// Address clients should use to reach this listener.
    fn local_addr(&self) -> String;
}

/// Boxed listener.
pub type BoxListener = Box<dyn Listener>;

/// Establishes outbound connections; implemented for TCP and the simulated
/// network.
pub trait Connector: Send + Sync {
    /// Open a new stream to `addr`.
    fn connect(&self, addr: &str) -> std::io::Result<BoxStream>;
}

// ---------------------------------------------------------------------------
// TCP implementations
// ---------------------------------------------------------------------------

impl Duplex for TcpStream {
    fn shutdown_write(&mut self) -> std::io::Result<()> {
        TcpStream::shutdown(self, std::net::Shutdown::Write)
    }

    fn peer_label(&self) -> String {
        self.peer_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| "<tcp>".to_owned())
    }
}

/// [`Listener`] over a real TCP socket.
pub struct TcpListenerAdapter {
    inner: TcpListener,
}

impl TcpListenerAdapter {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`).
    pub fn bind(addr: &str) -> std::io::Result<Self> {
        Ok(TcpListenerAdapter {
            inner: TcpListener::bind(addr)?,
        })
    }
}

impl Listener for TcpListenerAdapter {
    fn accept(&self) -> std::io::Result<BoxStream> {
        let (stream, _) = self.inner.accept()?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }

    fn local_addr(&self) -> String {
        self.inner
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_default()
    }
}

impl NbStream for TcpStream {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        Read::read(self, buf)
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        Write::write(self, buf)
    }

    fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        // Real scatter/gather I/O (`writev`) on the socket.
        Write::write_vectored(self, bufs)
    }

    fn register(&mut self, registry: &Arc<Registry>, token: Token) {
        self.set_nonblocking(true).ok();
        if !register_fd_or_polled(registry, self, token) {
            registry.register_polled(token);
        }
    }

    fn peer_label(&self) -> String {
        Duplex::peer_label(self)
    }
}

/// Try the kernel readiness queue first (kernel push readiness); report
/// whether it took the fd. Non-unix builds have no raw fds to hand over.
#[cfg(unix)]
fn register_fd_or_polled(
    registry: &Arc<Registry>,
    source: &impl std::os::fd::AsRawFd,
    token: Token,
) -> bool {
    registry.register_fd(source.as_raw_fd(), token)
}

#[cfg(not(unix))]
fn register_fd_or_polled<T>(_registry: &Arc<Registry>, _source: &T, _token: Token) -> bool {
    false
}

impl NbListener for TcpListenerAdapter {
    fn try_accept(&mut self) -> io::Result<Option<BoxNbStream>> {
        match self.inner.accept() {
            Ok((stream, _)) => {
                stream.set_nodelay(true).ok();
                stream.set_nonblocking(true).ok();
                Ok(Some(Box::new(stream)))
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => Ok(None),
            Err(e) => Err(e),
        }
    }

    fn register(&mut self, registry: &Arc<Registry>, token: Token) {
        self.inner.set_nonblocking(true).ok();
        if !register_fd_or_polled(registry, &self.inner, token) {
            registry.register_polled(token);
        }
    }

    fn local_addr(&self) -> String {
        Listener::local_addr(self)
    }
}

/// [`Connector`] over real TCP.
#[derive(Default, Clone, Copy)]
pub struct TcpConnector;

impl Connector for TcpConnector {
    fn connect(&self, addr: &str) -> std::io::Result<BoxStream> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        Ok(Box::new(stream))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn tcp_roundtrip_through_traits() {
        let listener = TcpListenerAdapter::bind("127.0.0.1:0").unwrap();
        let addr = Listener::local_addr(&listener);
        let server = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut buf = [0u8; 5];
            s.read_exact(&mut buf).unwrap();
            s.write_all(b"world").unwrap();
            buf
        });
        let mut c = TcpConnector.connect(&addr).unwrap();
        c.write_all(b"hello").unwrap();
        c.shutdown_write().unwrap();
        let mut out = Vec::new();
        c.read_to_end(&mut out).unwrap();
        assert_eq!(server.join().unwrap(), *b"hello");
        assert_eq!(out, b"world");
    }
}
