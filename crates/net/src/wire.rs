//! In-memory simulated network.
//!
//! [`SimNetwork`] plays the role of the test LAN in the paper's Figure 4: it
//! connects the "Origin Site" box to the "External" box (and clients to the
//! proxy) with metered, framed byte streams. Each [`SimStream`] pair behaves
//! like a TCP connection: writes are chunked into messages, reads block until
//! data or EOF, dropping an endpoint (or calling
//! [`shutdown_write`](crate::stream::Duplex::shutdown_write)) delivers EOF.
//!
//! Streams are built on notifying pipes, so they serve both transport
//! models: the blocking [`Duplex`] API parks on a condvar, and the
//! nonblocking [`NbStream`] API returns `WouldBlock` and pushes a readiness
//! notification into a registered [`Registry`] after every state transition
//! (data arrival, EOF, freed buffer space). An optional per-direction byte
//! capacity models TCP send-buffer backpressure: a full pipe blocks (or
//! `WouldBlock`s) the writer until the reader drains — which is what the
//! event-loop server's partial-write resumption tests exercise.
//!
//! A transition notifies after its lock is released, not at the moment of
//! the transition. It records its event under the lock and reads there
//! whom it owes a wake: the condvar only if a thread is parked on it (a
//! `parked` count beside the state), and the endpoint's registered watcher.
//! Then it drops the lock and wakes them. A thread woken while its waker
//! still held the lock would, on a shared CPU, preempt the waker and then
//! block on that lock: two extra context switches per message.
//!
//! Every write is metered with both payload bytes and simulated wire bytes
//! (per the [`ProtocolModel`]); connection establishment charges handshake
//! segments, so the Sniffer-style meters see realistic TCP/IP overhead.

use parking_lot::Mutex as PlMutex;
use std::collections::{HashMap, VecDeque};
use std::io::{self, IoSlice, Read, Write};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

use crate::meter::{Meter, MeterRegistry};
use crate::packet::ProtocolModel;
use crate::poll::{BoxNbStream, NbListener, NbStream, Ready, Registry, Token};
use crate::stream::{BoxStream, Connector, Duplex, Listener};

// ---------------------------------------------------------------------------
// Pipe: one direction of a connection
// ---------------------------------------------------------------------------

struct PipeState {
    chunks: VecDeque<Vec<u8>>,
    /// Read offset into `chunks[0]`.
    head_pos: usize,
    /// Total unread bytes across all chunks.
    buffered: usize,
    write_closed: bool,
    read_closed: bool,
    /// Notified with `READABLE` on data arrival / write-close.
    reader_watcher: Option<(Arc<Registry>, Token)>,
    /// Notified with `WRITABLE` when buffer space frees / read-close.
    writer_watcher: Option<(Arc<Registry>, Token)>,
    /// Threads parked on the pipe's condvar (a blocked reader or writer).
    parked: u32,
}

impl PipeState {
    /// The wake owed to the reading side: data arrived or the writer closed.
    fn wake_reader(&self) -> Wake {
        Wake {
            parked: self.parked > 0,
            watcher: self.reader_watcher.clone(),
            ready: Ready::READABLE,
        }
    }

    /// The wake owed to the writing side: space freed or the reader closed.
    fn wake_writer(&self) -> Wake {
        Wake {
            parked: self.parked > 0,
            watcher: self.writer_watcher.clone(),
            ready: Ready::WRITABLE,
        }
    }
}

/// Whom one transition must wake, read under the lock that recorded it and
/// delivered after that lock is released.
struct Wake {
    /// A thread is parked on the condvar.
    parked: bool,
    watcher: Option<(Arc<Registry>, Token)>,
    ready: Ready,
}

impl Wake {
    /// Release `st`, the guard of the lock that recorded the transition,
    /// then wake: taking the guard makes a wake under the lock impossible.
    fn deliver_after<T>(self, st: MutexGuard<'_, T>, cv: &Condvar) {
        drop(st);
        if self.parked {
            cv.notify_all();
        }
        if let Some((registry, token)) = self.watcher {
            registry.notify(token, self.ready);
        }
    }
}

/// One direction of a simulated connection: a byte queue with blocking and
/// nonblocking endpoints plus readiness notification.
struct Pipe {
    /// Maximum buffered bytes (`None` = unbounded, the pre-backpressure
    /// behaviour every existing test and bench relies on).
    capacity: Option<usize>,
    state: Mutex<PipeState>,
    cv: Condvar,
}

impl Pipe {
    fn new(capacity: Option<usize>) -> Arc<Pipe> {
        Arc::new(Pipe {
            capacity,
            state: Mutex::new(PipeState {
                chunks: VecDeque::new(),
                head_pos: 0,
                buffered: 0,
                write_closed: false,
                read_closed: false,
                reader_watcher: None,
                writer_watcher: None,
                parked: 0,
            }),
            cv: Condvar::new(),
        })
    }

    fn space(&self, st: &PipeState) -> usize {
        self.capacity
            .map_or(usize::MAX, |c| c.saturating_sub(st.buffered))
    }

    /// Park on the condvar, counted in `parked` so a transition knows it
    /// owes a wake.
    fn park<'a>(&self, mut st: MutexGuard<'a, PipeState>) -> MutexGuard<'a, PipeState> {
        st.parked += 1;
        let mut st = self.cv.wait(st).expect("pipe poisoned");
        st.parked -= 1;
        st
    }

    /// Write up to `buf.len()` bytes; partial when capacity-limited.
    /// `record` meters the accepted count under the pipe lock, before the
    /// reader can see the bytes, so whatever the reader does next (answer
    /// a client, who reads the meter) already finds them counted.
    fn write_some(
        &self,
        buf: &[u8],
        blocking: bool,
        record: impl FnOnce(usize),
    ) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.state.lock().expect("pipe poisoned");
        loop {
            if st.read_closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
            }
            let space = self.space(&st);
            if space == 0 {
                if !blocking {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                st = self.park(st);
                continue;
            }
            let n = buf.len().min(space);
            record(n);
            st.chunks.push_back(buf[..n].to_vec());
            st.buffered += n;
            st.wake_reader().deliver_after(st, &self.cv);
            return Ok(n);
        }
    }

    /// Vectored write: gathers bytes across `bufs` (in order) into one
    /// chunk, up to the available space. `record` as in
    /// [`write_some`](Self::write_some).
    fn write_vectored_some(
        &self,
        bufs: &[IoSlice<'_>],
        blocking: bool,
        record: impl FnOnce(usize),
    ) -> io::Result<usize> {
        let total: usize = bufs.iter().map(|b| b.len()).sum();
        if total == 0 {
            return Ok(0);
        }
        let mut st = self.state.lock().expect("pipe poisoned");
        loop {
            if st.read_closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer closed"));
            }
            let space = self.space(&st);
            if space == 0 {
                if !blocking {
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                st = self.park(st);
                continue;
            }
            let n = total.min(space);
            let mut chunk = Vec::with_capacity(n);
            let mut left = n;
            for b in bufs {
                if left == 0 {
                    break;
                }
                let take = b.len().min(left);
                chunk.extend_from_slice(&b[..take]);
                left -= take;
            }
            record(n);
            st.chunks.push_back(chunk);
            st.buffered += n;
            st.wake_reader().deliver_after(st, &self.cv);
            return Ok(n);
        }
    }

    fn read_some(&self, buf: &mut [u8], blocking: bool) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let mut st = self.state.lock().expect("pipe poisoned");
        loop {
            if st.buffered > 0 {
                let mut copied = 0;
                while copied < buf.len() && st.buffered > 0 {
                    let chunk = st.chunks.front().expect("buffered implies a chunk");
                    let chunk_len = chunk.len();
                    let avail = &chunk[st.head_pos..];
                    let n = avail.len().min(buf.len() - copied);
                    buf[copied..copied + n].copy_from_slice(&avail[..n]);
                    copied += n;
                    st.head_pos += n;
                    st.buffered -= n;
                    if st.head_pos == chunk_len {
                        st.chunks.pop_front();
                        st.head_pos = 0;
                    }
                }
                if self.capacity.is_some() {
                    // Freed space: wake blocked writers on both endpoints.
                    st.wake_writer().deliver_after(st, &self.cv);
                }
                return Ok(copied);
            }
            if st.write_closed {
                return Ok(0); // EOF
            }
            if !blocking {
                return Err(io::ErrorKind::WouldBlock.into());
            }
            st = self.park(st);
        }
    }

    /// Writer side gone: readers see EOF after draining.
    fn close_write(&self) {
        let mut st = self.state.lock().expect("pipe poisoned");
        st.write_closed = true;
        st.wake_reader().deliver_after(st, &self.cv);
    }

    /// Reader side gone: writes fail fast with `BrokenPipe`.
    fn close_read(&self) {
        let mut st = self.state.lock().expect("pipe poisoned");
        st.read_closed = true;
        st.wake_writer().deliver_after(st, &self.cv);
    }

    fn watch_reader(&self, registry: &Arc<Registry>, token: Token) {
        let mut st = self.state.lock().expect("pipe poisoned");
        st.reader_watcher = Some((Arc::clone(registry), token));
        let ready = st.buffered > 0 || st.write_closed;
        drop(st);
        if ready {
            registry.notify(token, Ready::READABLE);
        }
    }

    fn watch_writer(&self, registry: &Arc<Registry>, token: Token) {
        let mut st = self.state.lock().expect("pipe poisoned");
        st.writer_watcher = Some((Arc::clone(registry), token));
        let ready = self.space(&st) > 0 || st.read_closed;
        drop(st);
        if ready {
            registry.notify(token, Ready::WRITABLE);
        }
    }
}

// ---------------------------------------------------------------------------
// SimStream
// ---------------------------------------------------------------------------

/// One endpoint of a simulated connection.
pub struct SimStream {
    label: String,
    tx: Option<Arc<Pipe>>,
    rx: Arc<Pipe>,
    /// Meter for the direction we write to.
    out_meter: Arc<Meter>,
    protocol: ProtocolModel,
}

impl SimStream {
    /// Create a connected pair of endpoints.
    ///
    /// `a2b` meters bytes written by the first endpoint, `b2a` bytes written
    /// by the second. The handshake overhead is charged to `a2b` (the
    /// client side initiates).
    pub fn pair(
        label: &str,
        protocol: ProtocolModel,
        a2b: Arc<Meter>,
        b2a: Arc<Meter>,
    ) -> (SimStream, SimStream) {
        SimStream::pair_with_capacity(label, protocol, a2b, b2a, None)
    }

    /// Like [`pair`](SimStream::pair), with a per-direction buffered-byte
    /// capacity modelling TCP send-buffer backpressure (`None` = unbounded).
    pub fn pair_with_capacity(
        label: &str,
        protocol: ProtocolModel,
        a2b: Arc<Meter>,
        b2a: Arc<Meter>,
        capacity: Option<usize>,
    ) -> (SimStream, SimStream) {
        let ab = Pipe::new(capacity);
        let ba = Pipe::new(capacity);
        a2b.record_overhead(
            protocol.handshake_bytes(),
            protocol.handshake_segments as u64,
        );
        let a = SimStream {
            label: format!("{label}.a"),
            tx: Some(Arc::clone(&ab)),
            rx: Arc::clone(&ba),
            out_meter: a2b,
            protocol,
        };
        let b = SimStream {
            label: format!("{label}.b"),
            tx: Some(ba),
            rx: ab,
            out_meter: b2a,
            protocol,
        };
        (a, b)
    }

    /// Unmetered pair, for plumbing that is not part of the measured path.
    pub fn unmetered_pair(label: &str) -> (SimStream, SimStream) {
        SimStream::pair(label, ProtocolModel::ideal(), Meter::new(), Meter::new())
    }

    fn meter_write(&self, n: usize) {
        let payload = n as u64;
        self.out_meter.record(
            payload,
            self.protocol.wire_bytes(payload),
            self.protocol.segments(payload)
                + self.protocol.ack_segments(self.protocol.segments(payload)),
        );
    }

    fn tx(&self) -> io::Result<&Arc<Pipe>> {
        self.tx
            .as_ref()
            .ok_or_else(|| io::Error::new(io::ErrorKind::BrokenPipe, "write after shutdown"))
    }
}

impl Read for SimStream {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read_some(buf, true)
    }
}

impl Write for SimStream {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx()?.write_some(buf, true, |n| self.meter_write(n))
    }

    fn write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.tx()?
            .write_vectored_some(bufs, true, |n| self.meter_write(n))
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Duplex for SimStream {
    fn shutdown_write(&mut self) -> io::Result<()> {
        if let Some(tx) = self.tx.take() {
            tx.close_write(); // delivers EOF to the peer's reader
        }
        Ok(())
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

impl NbStream for SimStream {
    fn try_read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.rx.read_some(buf, false)
    }

    fn try_write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.tx()?.write_some(buf, false, |n| self.meter_write(n))
    }

    fn try_write_vectored(&mut self, bufs: &[IoSlice<'_>]) -> io::Result<usize> {
        self.tx()?
            .write_vectored_some(bufs, false, |n| self.meter_write(n))
    }

    fn register(&mut self, registry: &Arc<Registry>, token: Token) {
        self.rx.watch_reader(registry, token);
        if let Some(tx) = &self.tx {
            tx.watch_writer(registry, token);
        }
    }

    fn peer_label(&self) -> String {
        self.label.clone()
    }
}

impl Drop for SimStream {
    fn drop(&mut self) {
        if let Some(tx) = self.tx.take() {
            tx.close_write();
        }
        self.rx.close_read();
    }
}

// ---------------------------------------------------------------------------
// SimNetwork
// ---------------------------------------------------------------------------

/// Pending-connection queue behind one listening address.
struct AcceptQueue {
    state: Mutex<AcceptState>,
    cv: Condvar,
}

struct AcceptState {
    pending: VecDeque<SimStream>,
    closed: bool,
    watcher: Option<(Arc<Registry>, Token)>,
    /// Threads parked in a blocking accept.
    parked: u32,
}

impl AcceptState {
    fn wake(&self) -> Wake {
        Wake {
            parked: self.parked > 0,
            watcher: self.watcher.clone(),
            ready: Ready::READABLE,
        }
    }
}

impl AcceptQueue {
    fn new() -> Arc<AcceptQueue> {
        Arc::new(AcceptQueue {
            state: Mutex::new(AcceptState {
                pending: VecDeque::new(),
                closed: false,
                watcher: None,
                parked: 0,
            }),
            cv: Condvar::new(),
        })
    }

    fn push(&self, stream: SimStream) -> io::Result<()> {
        let mut st = self.state.lock().expect("accept queue poisoned");
        if st.closed {
            return Err(io::Error::new(
                io::ErrorKind::ConnectionRefused,
                "listener shut down",
            ));
        }
        st.pending.push_back(stream);
        st.wake().deliver_after(st, &self.cv);
        Ok(())
    }

    fn pop_blocking(&self) -> io::Result<SimStream> {
        let mut st = self.state.lock().expect("accept queue poisoned");
        loop {
            if let Some(s) = st.pending.pop_front() {
                return Ok(s);
            }
            if st.closed {
                return Err(io::Error::new(io::ErrorKind::BrokenPipe, "network dropped"));
            }
            st.parked += 1;
            st = self.cv.wait(st).expect("accept queue poisoned");
            st.parked -= 1;
        }
    }

    fn try_pop(&self) -> io::Result<Option<SimStream>> {
        let mut st = self.state.lock().expect("accept queue poisoned");
        if let Some(s) = st.pending.pop_front() {
            return Ok(Some(s));
        }
        if st.closed {
            return Err(io::Error::new(io::ErrorKind::BrokenPipe, "network dropped"));
        }
        Ok(None)
    }

    fn close(&self) {
        let mut st = self.state.lock().expect("accept queue poisoned");
        st.closed = true;
        st.pending.clear();
        st.wake().deliver_after(st, &self.cv);
    }

    fn watch(&self, registry: &Arc<Registry>, token: Token) {
        let mut st = self.state.lock().expect("accept queue poisoned");
        st.watcher = Some((Arc::clone(registry), token));
        let ready = !st.pending.is_empty() || st.closed;
        drop(st);
        if ready {
            registry.notify(token, Ready::READABLE);
        }
    }
}

/// A named, in-process network: listeners register under an address string,
/// connectors open metered stream pairs to them.
///
/// Wire meters are registered in the [`MeterRegistry`] as
/// `"<addr>.c2s"` (client-to-server) and `"<addr>.s2c"`.
pub struct SimNetwork {
    registry: Arc<MeterRegistry>,
    protocol: ProtocolModel,
    /// Per-direction buffered-byte cap applied to every dialed connection.
    stream_capacity: Option<usize>,
    listeners: PlMutex<HashMap<String, Arc<AcceptQueue>>>,
}

impl SimNetwork {
    pub fn new(registry: Arc<MeterRegistry>, protocol: ProtocolModel) -> Arc<Self> {
        SimNetwork::with_stream_capacity(registry, protocol, None)
    }

    /// A network whose connections have a bounded per-direction buffer:
    /// writers stall (blocking) or `WouldBlock` (nonblocking) when the
    /// peer is slow to read — the backpressure the partial-write tests
    /// need. `None` keeps the default unbounded buffers.
    pub fn with_stream_capacity(
        registry: Arc<MeterRegistry>,
        protocol: ProtocolModel,
        stream_capacity: Option<usize>,
    ) -> Arc<Self> {
        Arc::new(SimNetwork {
            registry,
            protocol,
            stream_capacity,
            listeners: PlMutex::new(HashMap::new()),
        })
    }

    /// A network with default TCP-like framing and a private registry.
    pub fn with_defaults() -> Arc<Self> {
        SimNetwork::new(MeterRegistry::new(), ProtocolModel::default())
    }

    /// The meter registry observing all wires of this network.
    pub fn registry(&self) -> &Arc<MeterRegistry> {
        &self.registry
    }

    /// Register a listener under `addr`. Replaces any previous listener at
    /// that address (its pending queue is closed, so blocked accepts fail
    /// and registered pollers are notified).
    pub fn listen(self: &Arc<Self>, addr: &str) -> SimListener {
        let queue = AcceptQueue::new();
        if let Some(old) = self
            .listeners
            .lock()
            .insert(addr.to_owned(), Arc::clone(&queue))
        {
            old.close();
        }
        SimListener {
            addr: addr.to_owned(),
            queue,
        }
    }

    /// Connector handle for clients.
    pub fn connector(self: &Arc<Self>) -> SimConnector {
        SimConnector {
            net: Arc::clone(self),
        }
    }

    fn dial(&self, addr: &str) -> io::Result<SimStream> {
        let queue = {
            let listeners = self.listeners.lock();
            listeners.get(addr).cloned().ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::ConnectionRefused,
                    format!("no listener at {addr}"),
                )
            })?
        };
        let c2s = self.registry.meter(&format!("{addr}.c2s"));
        let s2c = self.registry.meter(&format!("{addr}.s2c"));
        let (client, server) =
            SimStream::pair_with_capacity(addr, self.protocol, c2s, s2c, self.stream_capacity);
        queue.push(server)?;
        Ok(client)
    }
}

impl Drop for SimNetwork {
    fn drop(&mut self) {
        // Wake every blocked/registered accept: the LAN is gone.
        for queue in self.listeners.lock().values() {
            queue.close();
        }
    }
}

/// Accept side of a [`SimNetwork`] address.
pub struct SimListener {
    addr: String,
    queue: Arc<AcceptQueue>,
}

impl Listener for SimListener {
    fn accept(&self) -> io::Result<BoxStream> {
        self.queue.pop_blocking().map(|s| Box::new(s) as BoxStream)
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

impl NbListener for SimListener {
    fn try_accept(&mut self) -> io::Result<Option<BoxNbStream>> {
        Ok(self.queue.try_pop()?.map(|s| Box::new(s) as BoxNbStream))
    }

    fn register(&mut self, registry: &Arc<Registry>, token: Token) {
        self.queue.watch(registry, token);
    }

    fn local_addr(&self) -> String {
        self.addr.clone()
    }
}

/// Connect side of a [`SimNetwork`].
#[derive(Clone)]
pub struct SimConnector {
    net: Arc<SimNetwork>,
}

impl Connector for SimConnector {
    fn connect(&self, addr: &str) -> io::Result<BoxStream> {
        self.net.dial(addr).map(|s| Box::new(s) as BoxStream)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::meter::MeterRegistry;
    use crate::poll::Poller;

    #[test]
    fn stream_pair_roundtrip() {
        let (mut a, mut b) = SimStream::unmetered_pair("t");
        a.write_all(b"ping").unwrap();
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        assert_eq!(&buf, b"ping");
        b.write_all(b"pong!").unwrap();
        let mut buf2 = [0u8; 5];
        a.read_exact(&mut buf2).unwrap();
        assert_eq!(&buf2, b"pong!");
    }

    #[test]
    fn eof_on_drop() {
        let (mut a, b) = SimStream::unmetered_pair("t");
        drop(b);
        let mut buf = [0u8; 1];
        assert_eq!(a.read(&mut buf).unwrap(), 0);
    }

    #[test]
    fn eof_on_shutdown_write_keeps_read_open() {
        let (mut a, mut b) = SimStream::unmetered_pair("t");
        a.write_all(b"req").unwrap();
        a.shutdown_write().unwrap();
        let mut req = Vec::new();
        b.read_to_end(&mut req).unwrap();
        assert_eq!(req, b"req");
        // b can still respond.
        b.write_all(b"resp").unwrap();
        drop(b);
        let mut resp = Vec::new();
        a.read_to_end(&mut resp).unwrap();
        assert_eq!(resp, b"resp");
    }

    #[test]
    fn partial_reads_across_chunks() {
        let (mut a, mut b) = SimStream::unmetered_pair("t");
        a.write_all(b"hello ").unwrap();
        a.write_all(b"world").unwrap();
        drop(a);
        let mut out = Vec::new();
        let mut buf = [0u8; 3];
        loop {
            let n = b.read(&mut buf).unwrap();
            if n == 0 {
                break;
            }
            out.extend_from_slice(&buf[..n]);
        }
        assert_eq!(out, b"hello world");
    }

    #[test]
    fn meters_count_payload_and_wire_bytes() {
        let reg = MeterRegistry::new();
        let net = SimNetwork::new(Arc::clone(&reg), ProtocolModel::default());
        let listener = net.listen("origin");
        let conn = net.connector();
        let handle = std::thread::spawn(move || {
            let mut s = listener.accept().unwrap();
            let mut buf = [0u8; 4];
            s.read_exact(&mut buf).unwrap();
            s.write_all(&vec![7u8; 3000]).unwrap();
        });
        let mut c = conn.connect("origin").unwrap();
        c.write_all(b"GET!").unwrap();
        let mut resp = vec![0u8; 3000];
        c.read_exact(&mut resp).unwrap();
        handle.join().unwrap();

        let c2s = reg.snapshot_prefix("origin.c2s");
        let s2c = reg.snapshot_prefix("origin.s2c");
        assert_eq!(c2s.payload_bytes, 4);
        // handshake (3 segs * 40B) + 1 data segment + 1 ack = 120 + 4+80.
        assert_eq!(c2s.wire_bytes, 120 + 4 + 80);
        assert_eq!(s2c.payload_bytes, 3000);
        // 3000 bytes -> 3 segments + 2 acks -> 200 header bytes.
        assert_eq!(s2c.wire_bytes, 3000 + 200);
    }

    #[test]
    fn connect_to_unknown_address_is_refused() {
        let net = SimNetwork::with_defaults();
        match net.connector().connect("nowhere") {
            Err(err) => assert_eq!(err.kind(), io::ErrorKind::ConnectionRefused),
            Ok(_) => panic!("connect to unknown address should fail"),
        }
    }

    #[test]
    fn many_concurrent_connections() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("svc");
        let server = std::thread::spawn(move || {
            for _ in 0..32 {
                let mut s = listener.accept().unwrap();
                std::thread::spawn(move || {
                    let mut buf = [0u8; 2];
                    s.read_exact(&mut buf).unwrap();
                    s.write_all(&buf).unwrap();
                });
            }
        });
        let conn = net.connector();
        let mut joins = Vec::new();
        for i in 0..32u8 {
            let conn = conn.clone();
            joins.push(std::thread::spawn(move || {
                let mut c = conn.connect("svc").unwrap();
                c.write_all(&[i, i]).unwrap();
                let mut buf = [0u8; 2];
                c.read_exact(&mut buf).unwrap();
                assert_eq!(buf, [i, i]);
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
        server.join().unwrap();
    }

    #[test]
    fn try_read_would_block_then_notifies() {
        let (mut a, mut b) = SimStream::unmetered_pair("t");
        let poller = Poller::new();
        b.register(poller.registry(), 1);
        let mut buf = [0u8; 8];
        assert_eq!(
            b.try_read(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        a.write_all(b"data").unwrap();
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, Some(std::time::Duration::from_secs(5))));
        assert!(events.iter().any(|(t, r)| *t == 1 && r.readable));
        assert_eq!(b.try_read(&mut buf).unwrap(), 4);
    }

    #[test]
    fn capacity_backpressure_blocks_and_resumes() {
        let (mut a, mut b) = SimStream::pair_with_capacity(
            "t",
            ProtocolModel::ideal(),
            Meter::new(),
            Meter::new(),
            Some(4),
        );
        let poller = Poller::new();
        a.register(poller.registry(), 1);
        assert_eq!(a.try_write(b"123456").unwrap(), 4); // capped at capacity
        assert_eq!(
            a.try_write(b"56").unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
        // Reader drains; the writer gets a writable notification.
        let mut buf = [0u8; 4];
        b.read_exact(&mut buf).unwrap();
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, Some(std::time::Duration::from_secs(5))));
        assert!(events.iter().any(|(t, r)| *t == 1 && r.writable));
        assert_eq!(a.try_write(b"56").unwrap(), 2);
        let mut rest = [0u8; 2];
        b.read_exact(&mut rest).unwrap();
        assert_eq!(&rest, b"56");
    }

    #[test]
    fn nonblocking_accept_with_notification() {
        let net = SimNetwork::with_defaults();
        let mut listener = net.listen("svc");
        let poller = Poller::new();
        NbListener::register(&mut listener, poller.registry(), 0);
        assert!(listener.try_accept().unwrap().is_none());
        let _client = net.connector().connect("svc").unwrap();
        let mut events = Vec::new();
        assert!(poller.wait(&mut events, Some(std::time::Duration::from_secs(5))));
        assert!(events.iter().any(|(t, r)| *t == 0 && r.readable));
        assert!(listener.try_accept().unwrap().is_some());
    }

    #[test]
    fn dropping_network_closes_listeners() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("svc");
        let t = std::thread::spawn(move || listener.accept());
        std::thread::sleep(std::time::Duration::from_millis(10));
        drop(net);
        assert!(t.join().unwrap().is_err());
    }
}
