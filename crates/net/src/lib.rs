//! Network substrate for the dynamic-proxy-cache testbed.
//!
//! The paper's evaluation (Section 6) ran on two physical machines — an
//! *Origin Site* box (IIS + Oracle + BEM) and an *External* box (ISA Server
//! firewall/proxy + DPC) — with a Sniffer network monitor measuring the bytes
//! flowing between them. This crate rebuilds that substrate in-process:
//!
//! * [`wire`] — an in-memory, bidirectional byte stream ([`SimStream`]) that
//!   behaves like a TCP connection (blocking reads, EOF on close) and can be
//!   handed to the HTTP layer exactly like a socket. A [`SimNetwork`] plays
//!   the role of the LAN: it hands out listeners and connectors addressed by
//!   name.
//! * [`meter`] — byte/packet counters attached to each wire. Meters are the
//!   stand-in for the Sniffer tool: they observe *wire* bytes, i.e. payload
//!   plus the simulated TCP/IP framing produced by the [`packet`] model.
//! * [`packet`] — a protocol-overhead model (MSS segmentation, 40-byte
//!   TCP/IP headers, handshake segments). The paper explains the gap between
//!   its analytical and experimental curves by exactly this overhead, so the
//!   testbed must reproduce it.
//! * [`clock`] — real and virtual clocks. Cache TTLs and simulated response
//!   times are driven through [`Clock`] so tests and benches are
//!   deterministic and fast.
//! * [`latency`] — a simple WAN/LAN latency+bandwidth model used to *compute*
//!   simulated response times from measured byte counts (no sleeping).
//!
//! * [`frame`] — the cluster wire-message family: the length-prefixed
//!   peer-fetch request and answer spoken proxy-to-proxy by the
//!   `dpc-cluster` tier.
//! * [`poll`] — the readiness layer: nonblocking stream/listener traits and
//!   an epoll-shaped registry/poller so one event loop can multiplex
//!   thousands of idle connections without pinning threads. Simulated
//!   streams push readiness notifications on every state transition; a
//!   plain TCP socket attaches the kernel queue of [`backend_os`] and gets
//!   its notifications pushed by the kernel (a periodic polled tick only
//!   where the platform has no such queue).
//! * [`backend_os`] — the FD-based [`poll::PollBackend`]: epoll + eventfd
//!   self-wake on Linux, `None` elsewhere.
//!
//! There is deliberately no async runtime (the allowed dependency set has
//! none): blocking paths use plain threads, and the readiness path is an
//! explicit event loop over [`poll::Poller`].

pub mod backend_os;
pub mod clock;
pub mod frame;
pub mod latency;
pub mod meter;
pub mod packet;
pub mod poll;
pub mod stream;
pub mod wire;

pub use clock::{Clock, VirtualClock};
pub use frame::ClusterFrame;
pub use latency::LinkModel;
pub use meter::{Meter, MeterRegistry, MeterSnapshot};
pub use packet::ProtocolModel;
pub use poll::{
    BoxNbListener, BoxNbStream, NbListener, NbStream, PollBackend, Poller, Ready, Registry, Token,
    WakeSet,
};
pub use stream::{
    BoxListener, BoxStream, Connector, Duplex, Listener, TcpConnector, TcpListenerAdapter,
};
pub use wire::{SimConnector, SimListener, SimNetwork, SimStream};
