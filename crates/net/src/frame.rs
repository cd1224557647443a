//! Cluster wire frames: the message family spoken between DPC nodes.
//!
//! The single-node design needs no proxy-bound messages at all — the shared
//! integer `dpcKey` is the whole coherence protocol. Two cluster-tier
//! operations do need a wire format, and both run proxy-to-proxy, never
//! origin-to-proxy:
//!
//! * **Peer fetch** — after a membership change, a node that owns a key
//!   range it has never served pulls fragment slots lazily from the previous
//!   owner instead of round-tripping to the origin
//!   ([`ClusterFrame::FetchReq`] / [`ClusterFrame::FetchResp`]).
//! * **Gossip anti-entropy** — invalidation events spread epidemically:
//!   a node opens a round with its version vector
//!   ([`ClusterFrame::GossipSyn`]), the peer answers with the events the
//!   opener lacks ([`ClusterFrame::GossipDelta`]), and the opener pushes
//!   back the events the peer lacks (a second `GossipDelta`).
//!
//! Framing is deliberately dumb: one `u32` length prefix, one tag byte,
//! then fixed-width little-endian fields and length-prefixed byte strings.
//! Every length is bounded before allocation so a corrupt or hostile peer
//! cannot balloon memory ([`MAX_FRAME_BYTES`]).

use std::io::{self, Read, Write};

/// Upper bound on one encoded frame (16 MiB): larger than any fragment the
/// testbed produces, small enough that a corrupt length prefix fails fast.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// One gossiped invalidation event.
///
/// `origin`/`seq` name the event uniquely (node `origin`'s `seq`-th local
/// event); `dep` is the data-source dependency that was invalidated and
/// `keys` the dpcKeys the directory freed for it — the receiving node
/// scrubs those slots so a later reassignment of a freed key can never
/// splice the old fragment's bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireEvent {
    /// Node id the event originated at.
    pub origin: u32,
    /// Per-origin sequence number, starting at 1, gap-free.
    pub seq: u64,
    /// Invalidated data-source dependency.
    pub dep: String,
    /// DpcKeys the invalidation returned to the freeList.
    pub keys: Vec<u32>,
}

/// The proxy-to-proxy message family.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ClusterFrame {
    /// Ask a peer for the content of one fragment slot.
    FetchReq {
        /// Raw dpcKey (slot index) being requested.
        key: u32,
        /// Content hash (`dpc_policy::content_hash`) of the bytes the
        /// requester already holds for this slot, or `0` for an
        /// unconditional fetch. A donor whose slot hashes to exactly this
        /// answers with a hash-only [`ClusterFrame::FetchNotModified`]
        /// instead of shipping the body again. (A fragment that really
        /// hashes to `0` is treated as "no validator": at most one
        /// redundant body per astronomically unlikely collision.)
        known: u64,
        /// Requester's span-tracing context as `(trace id, span id)`, so
        /// the donor's serve span stitches into the same trace. Optional
        /// trailing field: peers from before the tracing wire revision
        /// omit it entirely and still decode.
        trace: Option<(u64, u64)>,
    },
    /// Answer to [`ClusterFrame::FetchReq`]. `hit == false` means the peer's
    /// slot is empty (or it refused); `body` is then empty.
    FetchResp {
        hit: bool,
        body: Vec<u8>,
        /// Donor's `(trace id, serve span id)` echo — optional trailing
        /// field, same wire-compat rule as on the request.
        trace: Option<(u64, u64)>,
    },
    /// Answer to a conditional [`ClusterFrame::FetchReq`] whose `known`
    /// hash matched the donor's slot: the requester's bytes are current,
    /// no body moves. `hash` echoes the matched identity.
    FetchNotModified { hash: u64 },
    /// Open an anti-entropy round: "here is everything I have applied".
    GossipSyn {
        /// Sender's node id.
        from: u32,
        /// Sender's version vector as `(origin, highest contiguous seq)`.
        vv: Vec<(u32, u64)>,
    },
    /// Event delta: everything the sender has that the receiver's version
    /// vector lacked, plus the sender's own vector so the receiver can
    /// compute the reverse delta.
    ///
    /// `floor` is the sender's truncation floor: per-origin prefixes it no
    /// longer stores because every alive node's version vector dominated
    /// them. A receiver below the floor (a fresh joiner with an empty
    /// store) fast-forwards its vector to it instead of waiting for events
    /// that will never be shipped.
    GossipDelta {
        from: u32,
        vv: Vec<(u32, u64)>,
        floor: Vec<(u32, u64)>,
        events: Vec<WireEvent>,
    },
}

const TAG_FETCH_REQ: u8 = 1;
const TAG_FETCH_RESP: u8 = 2;
const TAG_GOSSIP_SYN: u8 = 3;
const TAG_GOSSIP_DELTA: u8 = 4;
const TAG_FETCH_NOT_MODIFIED: u8 = 5;

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bytes(buf: &mut Vec<u8>, b: &[u8]) {
    put_u32(buf, b.len() as u32);
    buf.extend_from_slice(b);
}

/// Optional trailing trace context: 16 bytes when present, nothing at all
/// when absent (`None` encodes exactly like a pre-tracing peer's frame).
fn put_trace(buf: &mut Vec<u8>, trace: &Option<(u64, u64)>) {
    if let Some((tid, sid)) = trace {
        put_u64(buf, *tid);
        put_u64(buf, *sid);
    }
}

fn put_vv(buf: &mut Vec<u8>, vv: &[(u32, u64)]) {
    put_u32(buf, vv.len() as u32);
    for (node, seq) in vv {
        put_u32(buf, *node);
        put_u64(buf, *seq);
    }
}

/// Bounded cursor over a decoded frame body.
struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.buf.len() - self.pos < n {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "cluster frame truncated",
            ));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    fn u8(&mut self) -> io::Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> io::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> io::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn bytes(&mut self) -> io::Result<&'a [u8]> {
        let len = self.u32()? as usize;
        self.take(len)
    }

    fn string(&mut self) -> io::Result<String> {
        String::from_utf8(self.bytes()?.to_vec())
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "frame string not UTF-8"))
    }

    /// Remaining undecoded bytes — the hard ceiling for any claimed count.
    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Validate a claimed element count against the bytes actually left,
    /// given each element's minimum encoded size. This caps every
    /// `Vec::with_capacity` at the frame's own byte length — a hostile
    /// count can never amplify a small frame into a large allocation.
    fn count(&mut self, min_encoded: usize) -> io::Result<usize> {
        let n = self.u32()? as usize;
        if n > self.remaining() / min_encoded {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "claimed count exceeds frame bytes",
            ));
        }
        Ok(n)
    }

    fn vv(&mut self) -> io::Result<Vec<(u32, u64)>> {
        let n = self.count(12)?; // 4 origin + 8 seq per entry
        (0..n).map(|_| Ok((self.u32()?, self.u64()?))).collect()
    }

    /// Decode the optional trailing trace context. The claimed length is
    /// the *remaining byte count itself*, so the hostile-length rule
    /// stays airtight: exactly 16 bytes left → `Some`, exactly 0 →
    /// `None` (old-peer frame), anything else is a malformed frame.
    fn trace(&mut self) -> io::Result<Option<(u64, u64)>> {
        match self.remaining() {
            0 => Ok(None),
            16 => Ok(Some((self.u64()?, self.u64()?))),
            _ => Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes are not a trace context",
            )),
        }
    }

    fn done(&self) -> io::Result<()> {
        if self.pos != self.buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "trailing bytes in cluster frame",
            ));
        }
        Ok(())
    }
}

impl ClusterFrame {
    /// Encode into `length ++ body` wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Vec::with_capacity(64);
        match self {
            ClusterFrame::FetchReq { key, known, trace } => {
                body.push(TAG_FETCH_REQ);
                put_u32(&mut body, *key);
                put_u64(&mut body, *known);
                put_trace(&mut body, trace);
            }
            ClusterFrame::FetchResp {
                hit,
                body: b,
                trace,
            } => {
                body.push(TAG_FETCH_RESP);
                body.push(u8::from(*hit));
                put_bytes(&mut body, b);
                put_trace(&mut body, trace);
            }
            ClusterFrame::FetchNotModified { hash } => {
                body.push(TAG_FETCH_NOT_MODIFIED);
                put_u64(&mut body, *hash);
            }
            ClusterFrame::GossipSyn { from, vv } => {
                body.push(TAG_GOSSIP_SYN);
                put_u32(&mut body, *from);
                put_vv(&mut body, vv);
            }
            ClusterFrame::GossipDelta {
                from,
                vv,
                floor,
                events,
            } => {
                body.push(TAG_GOSSIP_DELTA);
                put_u32(&mut body, *from);
                put_vv(&mut body, vv);
                put_vv(&mut body, floor);
                put_u32(&mut body, events.len() as u32);
                for ev in events {
                    put_u32(&mut body, ev.origin);
                    put_u64(&mut body, ev.seq);
                    put_bytes(&mut body, ev.dep.as_bytes());
                    put_u32(&mut body, ev.keys.len() as u32);
                    for k in &ev.keys {
                        put_u32(&mut body, *k);
                    }
                }
            }
        }
        let mut out = Vec::with_capacity(4 + body.len());
        put_u32(&mut out, body.len() as u32);
        out.extend_from_slice(&body);
        out
    }

    /// Write one frame to `w` (single `write_all`, so concurrent writers on
    /// distinct streams never interleave partial frames).
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        w.write_all(&self.encode())
    }

    /// Read one frame from `r`. Returns `Ok(None)` on clean EOF at a frame
    /// boundary (the peer closed between frames).
    pub fn read_from(r: &mut impl Read) -> io::Result<Option<ClusterFrame>> {
        let mut len_buf = [0u8; 4];
        let mut got = 0;
        while got < 4 {
            let n = r.read(&mut len_buf[got..])?;
            if n == 0 {
                if got == 0 {
                    return Ok(None); // clean EOF between frames
                }
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "EOF inside frame length",
                ));
            }
            got += n;
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        if len == 0 || len > MAX_FRAME_BYTES {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("cluster frame length {len} out of bounds"),
            ));
        }
        let mut body = vec![0u8; len];
        r.read_exact(&mut body)?;
        Self::decode_body(&body).map(Some)
    }

    fn decode_body(body: &[u8]) -> io::Result<ClusterFrame> {
        let mut c = Cursor { buf: body, pos: 0 };
        let frame = match c.u8()? {
            TAG_FETCH_REQ => ClusterFrame::FetchReq {
                key: c.u32()?,
                known: c.u64()?,
                trace: c.trace()?,
            },
            TAG_FETCH_RESP => {
                let hit = c.u8()? != 0;
                let body = c.bytes()?.to_vec();
                let trace = c.trace()?;
                ClusterFrame::FetchResp { hit, body, trace }
            }
            TAG_FETCH_NOT_MODIFIED => ClusterFrame::FetchNotModified { hash: c.u64()? },
            TAG_GOSSIP_SYN => ClusterFrame::GossipSyn {
                from: c.u32()?,
                vv: c.vv()?,
            },
            TAG_GOSSIP_DELTA => {
                let from = c.u32()?;
                let vv = c.vv()?;
                let floor = c.vv()?;
                // 4 origin + 8 seq + 4 dep-len + 4 key-count minimum.
                let n = c.count(20)?;
                let mut events = Vec::with_capacity(n);
                for _ in 0..n {
                    let origin = c.u32()?;
                    let seq = c.u64()?;
                    let dep = c.string()?;
                    let nk = c.count(4)?;
                    let keys = (0..nk).map(|_| c.u32()).collect::<io::Result<_>>()?;
                    events.push(WireEvent {
                        origin,
                        seq,
                        dep,
                        keys,
                    });
                }
                ClusterFrame::GossipDelta {
                    from,
                    vv,
                    floor,
                    events,
                }
            }
            tag => {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("unknown cluster frame tag {tag}"),
                ))
            }
        };
        c.done()?;
        Ok(frame)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(frame: ClusterFrame) {
        let bytes = frame.encode();
        let mut r = &bytes[..];
        let back = ClusterFrame::read_from(&mut r).unwrap().unwrap();
        assert_eq!(back, frame);
        assert!(r.is_empty(), "frame must consume exactly its bytes");
    }

    #[test]
    fn all_variants_roundtrip() {
        roundtrip(ClusterFrame::FetchReq {
            key: 0,
            known: 0,
            trace: None,
        });
        roundtrip(ClusterFrame::FetchReq {
            key: u32::MAX,
            known: u64::MAX,
            trace: Some((0xfeed_f00d, 42)),
        });
        roundtrip(ClusterFrame::FetchResp {
            hit: true,
            body: b"<nav>hello</nav>".to_vec(),
            trace: Some((7, u64::MAX)),
        });
        roundtrip(ClusterFrame::FetchResp {
            hit: false,
            body: Vec::new(),
            trace: None,
        });
        roundtrip(ClusterFrame::FetchNotModified { hash: 0xdead_beef });
        roundtrip(ClusterFrame::GossipSyn {
            from: 3,
            vv: vec![(0, 7), (1, 0), (9, u64::MAX)],
        });
        roundtrip(ClusterFrame::GossipDelta {
            from: 1,
            vv: vec![(1, 2)],
            floor: vec![(0, 3), (7, 12)],
            events: vec![
                WireEvent {
                    origin: 1,
                    seq: 1,
                    dep: "paper/p0-f1".to_owned(),
                    keys: vec![4, 9, 1023],
                },
                WireEvent {
                    origin: 2,
                    seq: 8,
                    dep: String::new(),
                    keys: Vec::new(),
                },
            ],
        });
    }

    #[test]
    fn back_to_back_frames_parse_in_order() {
        let a = ClusterFrame::FetchReq {
            key: 5,
            known: 7,
            trace: None,
        };
        let b = ClusterFrame::FetchResp {
            hit: true,
            body: vec![1, 2, 3],
            trace: Some((9, 11)),
        };
        let mut wire = a.encode();
        wire.extend_from_slice(&b.encode());
        let mut r = &wire[..];
        assert_eq!(ClusterFrame::read_from(&mut r).unwrap().unwrap(), a);
        assert_eq!(ClusterFrame::read_from(&mut r).unwrap().unwrap(), b);
        assert_eq!(ClusterFrame::read_from(&mut r).unwrap(), None);
    }

    #[test]
    fn clean_eof_is_none_mid_frame_eof_is_error() {
        let mut empty: &[u8] = &[];
        assert_eq!(ClusterFrame::read_from(&mut empty).unwrap(), None);
        let bytes = ClusterFrame::FetchReq {
            key: 1,
            known: 0,
            trace: None,
        }
        .encode();
        let mut truncated = &bytes[..bytes.len() - 1];
        assert!(ClusterFrame::read_from(&mut truncated).is_err());
        let mut half_length = &bytes[..2];
        assert!(ClusterFrame::read_from(&mut half_length).is_err());
    }

    #[test]
    fn old_peer_frames_without_trace_field_still_decode() {
        // Hand-encode the pre-tracing wire layout (no trailing 16 bytes):
        // an old peer's FetchReq/FetchResp must decode as `trace: None`.
        let mut body = vec![TAG_FETCH_REQ];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&99u64.to_le_bytes());
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert_eq!(
            ClusterFrame::read_from(&mut &wire[..]).unwrap().unwrap(),
            ClusterFrame::FetchReq {
                key: 7,
                known: 99,
                trace: None,
            }
        );

        let mut body = vec![TAG_FETCH_RESP, 1];
        body.extend_from_slice(&3u32.to_le_bytes());
        body.extend_from_slice(b"abc");
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert_eq!(
            ClusterFrame::read_from(&mut &wire[..]).unwrap().unwrap(),
            ClusterFrame::FetchResp {
                hit: true,
                body: b"abc".to_vec(),
                trace: None,
            }
        );
    }

    #[test]
    fn traceless_new_frames_match_old_wire_layout() {
        // The reverse direction: a new node sending `trace: None` puts
        // exactly the old bytes on the wire, so old peers parse it too.
        let wire = ClusterFrame::FetchReq {
            key: 7,
            known: 99,
            trace: None,
        }
        .encode();
        let mut expected = (13u32).to_le_bytes().to_vec();
        expected.push(TAG_FETCH_REQ);
        expected.extend_from_slice(&7u32.to_le_bytes());
        expected.extend_from_slice(&99u64.to_le_bytes());
        assert_eq!(wire, expected);
    }

    #[test]
    fn partial_trace_field_rejected() {
        // 8 trailing bytes is neither "absent" (0) nor a full context
        // (16): the hostile-length rule rejects it instead of guessing.
        let mut body = vec![TAG_FETCH_REQ];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&99u64.to_le_bytes());
        body.extend_from_slice(&1u64.to_le_bytes()); // half a context
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert!(ClusterFrame::read_from(&mut &wire[..]).is_err());
    }

    #[test]
    fn oversized_length_rejected_before_allocation() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&(u32::MAX).to_le_bytes());
        wire.extend_from_slice(&[0u8; 16]);
        let err = ClusterFrame::read_from(&mut &wire[..]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn unknown_tag_and_trailing_bytes_rejected() {
        let mut wire = Vec::new();
        wire.extend_from_slice(&1u32.to_le_bytes());
        wire.push(99);
        assert!(ClusterFrame::read_from(&mut &wire[..]).is_err());

        let mut body = vec![TAG_FETCH_REQ];
        body.extend_from_slice(&7u32.to_le_bytes());
        body.extend_from_slice(&0u64.to_le_bytes());
        body.push(0xAB); // trailing garbage
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert!(ClusterFrame::read_from(&mut &wire[..]).is_err());
    }

    #[test]
    fn hostile_counts_do_not_allocate() {
        // A GossipDelta claiming 2^31 events in a small frame.
        let mut body = vec![TAG_GOSSIP_DELTA];
        body.extend_from_slice(&0u32.to_le_bytes()); // from
        body.extend_from_slice(&0u32.to_le_bytes()); // empty vv
        body.extend_from_slice(&0u32.to_le_bytes()); // empty floor
        body.extend_from_slice(&(1u32 << 31).to_le_bytes()); // event count
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert!(ClusterFrame::read_from(&mut &wire[..]).is_err());
    }

    #[test]
    fn hostile_counts_cannot_amplify_small_frames() {
        // Counts that fit inside the raw byte length but claim far more
        // elements than the bytes can encode (each event needs ≥ 20 B,
        // each vv entry 12 B, each key 4 B) must be rejected before any
        // allocation amplifies them.
        let padding = 1000usize;
        // Event-count amplification.
        let mut body = vec![TAG_GOSSIP_DELTA];
        body.extend_from_slice(&0u32.to_le_bytes()); // from
        body.extend_from_slice(&0u32.to_le_bytes()); // empty vv
        body.extend_from_slice(&0u32.to_le_bytes()); // empty floor
        body.extend_from_slice(&(padding as u32).to_le_bytes()); // claims 1000 events
        body.extend_from_slice(&vec![0u8; padding / 2]); // but only 500 B follow
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert!(ClusterFrame::read_from(&mut &wire[..]).is_err());

        // Version-vector amplification.
        let mut body = vec![TAG_GOSSIP_SYN];
        body.extend_from_slice(&0u32.to_le_bytes()); // from
        body.extend_from_slice(&(padding as u32).to_le_bytes()); // claims 1000 entries
        body.extend_from_slice(&vec![0u8; padding]); // 1000 B < 12000 B needed
        let mut wire = (body.len() as u32).to_le_bytes().to_vec();
        wire.extend_from_slice(&body);
        assert!(ClusterFrame::read_from(&mut &wire[..]).is_err());
    }
}
