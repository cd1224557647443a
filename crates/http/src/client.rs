//! Pooling HTTP client with keep-alive.
//!
//! Maintains at most a handful of idle connections per address; a request
//! checks one out, sends, reads the response, and returns the connection to
//! the pool unless either side asked for `Connection: close`. If a pooled
//! (possibly stale) connection fails while sending, the client retries once
//! on a fresh connection — the standard keep-alive race mitigation.
//!
//! A connection keeps its read buffer and its request buffer for life, so
//! a request on a pooled connection allocates only its response.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::io::{BufReader, Write};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use dpc_net::{BoxStream, Connector};

use crate::error::HttpError;
use crate::message::{Request, Response};
use crate::parse::read_response;
use crate::serialize::encode_request;
use crate::Result;

/// Maximum idle connections kept per destination address.
const MAX_IDLE_PER_ADDR: usize = 16;

/// A request buffer larger than this (a big POST body) is not kept for the
/// connection's next request.
const KEEP_WBUF_BYTES: usize = 64 * 1024;

/// One connection: the buffered stream and the buffer requests are
/// serialized into.
struct Conn {
    reader: BufReader<BoxStream>,
    wbuf: Vec<u8>,
}

/// HTTP client over an arbitrary [`Connector`].
pub struct Client {
    connector: Arc<dyn Connector>,
    idle: Mutex<HashMap<String, Vec<Conn>>>,
    new_connections: AtomicU64,
    requests: AtomicU64,
}

impl Client {
    pub fn new(connector: Arc<dyn Connector>) -> Client {
        Client {
            connector,
            idle: Mutex::new(HashMap::new()),
            new_connections: AtomicU64::new(0),
            requests: AtomicU64::new(0),
        }
    }

    /// Issue `req` to the server at `addr` and await the full response.
    pub fn request(&self, addr: &str, req: Request) -> Result<Response> {
        self.requests.fetch_add(1, Ordering::Relaxed);
        // First try a pooled connection, falling back to a fresh one.
        if let Some(conn) = self.checkout(addr) {
            match self.roundtrip(conn, &req, addr) {
                Ok(resp) => return Ok(resp),
                // The pooled connection was stale; retry once on a new one.
                Err(HttpError::ConnectionClosed { .. }) | Err(HttpError::Io(_)) => {}
                Err(e) => return Err(e),
            }
        }
        let conn = self.fresh(addr)?;
        self.roundtrip(conn, &req, addr)
    }

    /// Total connections this client has opened.
    pub fn connections_opened(&self) -> u64 {
        self.new_connections.load(Ordering::Relaxed)
    }

    /// Total requests issued.
    pub fn requests_sent(&self) -> u64 {
        self.requests.load(Ordering::Relaxed)
    }

    /// Drop all idle pooled connections.
    pub fn close_idle(&self) {
        self.idle.lock().clear();
    }

    fn checkout(&self, addr: &str) -> Option<Conn> {
        self.idle.lock().get_mut(addr)?.pop()
    }

    fn fresh(&self, addr: &str) -> Result<Conn> {
        let stream = self.connector.connect(addr)?;
        self.new_connections.fetch_add(1, Ordering::Relaxed);
        Ok(Conn {
            reader: BufReader::new(stream),
            wbuf: Vec::new(),
        })
    }

    fn roundtrip(&self, mut conn: Conn, req: &Request, addr: &str) -> Result<Response> {
        conn.wbuf.clear();
        if conn.wbuf.capacity() > KEEP_WBUF_BYTES {
            conn.wbuf = Vec::new();
        }
        encode_request(&mut conn.wbuf, req);
        let stream = conn.reader.get_mut();
        stream.write_all(&conn.wbuf)?;
        stream.flush()?;
        let resp = read_response(&mut conn.reader)?;
        let close = req.headers.connection_close() || resp.headers.connection_close();
        if !close {
            let mut idle = self.idle.lock();
            // Probe first: the address key is allocated once, on the
            // first connection parked for it, not on every request.
            match idle.get_mut(addr) {
                Some(slot) if slot.len() >= MAX_IDLE_PER_ADDR => {}
                Some(slot) => slot.push(conn),
                None => {
                    idle.insert(addr.to_owned(), vec![conn]);
                }
            }
        }
        Ok(resp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{Request, Response};
    use crate::server::{Handler, Server};
    use dpc_net::SimNetwork;

    fn ok_handler() -> Arc<dyn Handler> {
        Arc::new(|_req: Request| Response::html("ok"))
    }

    #[test]
    fn pools_connections() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("svc");
        let _h = Server::new(Box::new(listener), ok_handler()).spawn();
        let client = Client::new(Arc::new(net.connector()));
        for _ in 0..5 {
            client.request("svc", Request::get("/")).unwrap();
        }
        assert_eq!(client.connections_opened(), 1);
        assert_eq!(client.requests_sent(), 5);
    }

    #[test]
    fn close_idle_forces_new_connection() {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("svc");
        let _h = Server::new(Box::new(listener), ok_handler()).spawn();
        let client = Client::new(Arc::new(net.connector()));
        client.request("svc", Request::get("/")).unwrap();
        client.close_idle();
        client.request("svc", Request::get("/")).unwrap();
        assert_eq!(client.connections_opened(), 2);
    }

    #[test]
    fn connect_failure_surfaces() {
        let net = SimNetwork::with_defaults();
        let client = Client::new(Arc::new(net.connector()));
        let err = client.request("ghost", Request::get("/"));
        assert!(err.is_err());
    }

    #[test]
    fn separate_addresses_use_separate_pools() {
        let net = SimNetwork::with_defaults();
        let l1 = net.listen("a");
        let l2 = net.listen("b");
        let _h1 = Server::new(Box::new(l1), ok_handler()).spawn();
        let _h2 = Server::new(Box::new(l2), ok_handler()).spawn();
        let client = Client::new(Arc::new(net.connector()));
        client.request("a", Request::get("/")).unwrap();
        client.request("b", Request::get("/")).unwrap();
        client.request("a", Request::get("/")).unwrap();
        client.request("b", Request::get("/")).unwrap();
        assert_eq!(client.connections_opened(), 2);
    }
}
