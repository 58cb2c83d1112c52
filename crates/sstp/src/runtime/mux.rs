//! Session multiplexing over a single nonblocking UDP socket.
//!
//! Many SSTP sessions share one socket and one peer, so a datagram
//! carries a *run* of frames, each
//!
//! ```text
//! session u32 ‖ len u16 ‖ packet (len bytes: one encoded wire Packet)
//! ```
//!
//! big-endian, back to back, nothing between or after them. The sender
//! fills a datagram until the next frame would pass [`DATAGRAM_BUDGET`]
//! and sends whatever it has when its caller says the batch is over
//! ([`SocketMux::flush`]) — the runtime says so at the end of every poll,
//! so no frame waits for company. The receiver walks the frames of one
//! datagram before it reads the next: a frame whose packet does not
//! decode costs itself only (its `len` says where the next one starts),
//! a header that runs past the datagram's end discards the rest.
//!
//! The mux owns the socket (the library's only one), the frame codec and
//! the deadline wait; the runtime owns routing (frame → per-session
//! bounded inbox) and all ingress drop accounting, so every frame either
//! reaches a state machine or increments a counter — never an unbounded
//! queue, never a panic.

use crate::wire::{Packet, WireError, HEADER_OVERHEAD};
use bytes::{BufMut, BytesMut};
use std::collections::VecDeque;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::time::Duration;

/// The longest a single [`SocketMux::wait`] may block: later deadlines
/// are reached by waking and re-waiting.
const MAX_WAIT: Duration = Duration::from_millis(50);

/// Bytes the frame header (session id, packet length) adds to each wire
/// packet.
pub const FRAME_OVERHEAD: usize = 6;

/// What one datagram may carry, in **wire-model** bytes
/// ([`frame_wire_len`] summed over its frames): a 1500-byte MTU less the
/// [`HEADER_OVERHEAD`] every datagram is charged once. The model counts
/// a data packet's *simulated* payload, so a batch is what a deployment
/// that carried the payloads would fit under the MTU, not what fits
/// because they are left out. A single frame larger than this travels
/// alone.
pub const DATAGRAM_BUDGET: usize = 1500 - HEADER_OVERHEAD;

/// The wire-model bytes `pkt` takes as one frame of a datagram: frame
/// header, encoding and simulated payload.
pub fn frame_wire_len(pkt: &Packet) -> usize {
    FRAME_OVERHEAD + pkt.wire_len() - HEADER_OVERHEAD
}

/// One decoded inbound frame: which session, which packet.
#[derive(Clone, Debug)]
pub struct Frame {
    /// The session id from the frame header.
    pub session: u32,
    /// The decoded packet.
    pub pkt: Packet,
}

/// Why an inbound frame failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FrameError {
    /// The datagram ended inside the 6-byte frame header, or before the
    /// `len` bytes the header promised. Whatever followed is lost with it.
    Truncated,
    /// The frame was whole but its packet failed wire decoding.
    Wire(WireError),
}

/// Appends one frame for `session` to `out`. Returns `false`, leaving
/// `out` as it was, when the packet's encoding is longer than the `u16`
/// length prefix can say.
pub fn append_frame(session: u32, pkt: &Packet, out: &mut BytesMut) -> bool {
    let Ok(len) = u16::try_from(pkt.encoded_len()) else {
        return false;
    };
    let start = out.len();
    out.put_u32(session);
    out.put_u16(len);
    pkt.encode(out);
    debug_assert_eq!(out.len() - start, FRAME_OVERHEAD + usize::from(len));
    true
}

/// Encodes `pkt` for `session` into `out` (cleared first) as a whole
/// single-frame datagram. `false`: see [`append_frame`].
pub fn encode_frame(session: u32, pkt: &Packet, out: &mut BytesMut) -> bool {
    out.clear();
    append_frame(session, pkt, out)
}

/// Decodes the frame at `datagram[*pos..]` and moves `*pos` past it: to
/// the next frame when this one's header was sound (whether or not its
/// packet decoded), to the end of the datagram when it was not.
fn decode_frame_at(datagram: &[u8], pos: &mut usize) -> Result<Frame, FrameError> {
    let framed = datagram[*pos..]
        .split_first_chunk::<FRAME_OVERHEAD>()
        .and_then(|(&[s0, s1, s2, s3, l0, l1], body)| {
            let packet = body.get(..usize::from(u16::from_be_bytes([l0, l1])))?;
            Some((u32::from_be_bytes([s0, s1, s2, s3]), packet))
        });
    let Some((session, packet)) = framed else {
        *pos = datagram.len();
        return Err(FrameError::Truncated);
    };
    *pos += FRAME_OVERHEAD + packet.len();
    let pkt = Packet::decode_slice(packet).map_err(FrameError::Wire)?;
    Ok(Frame { session, pkt })
}

/// Decodes the first frame of `datagram` (all of a single-frame one).
pub fn decode_frame(datagram: &[u8]) -> Result<Frame, FrameError> {
    decode_frame_at(datagram, &mut 0)
}

/// The frames of one datagram in order, decoded or not: what
/// [`SocketMux::recv`] hands out between two socket reads, each `Err`
/// one counted decode error. (An empty datagram yields nothing here;
/// `recv` counts it as one truncated frame.)
pub fn decode_frames(datagram: &[u8]) -> impl Iterator<Item = Result<Frame, FrameError>> + '_ {
    let mut pos = 0;
    std::iter::from_fn(move || (pos < datagram.len()).then(|| decode_frame_at(datagram, &mut pos)))
}

/// A bounded FIFO between the socket reader and a session state machine.
///
/// The capacity caps the length; it is not preallocated. A fresh queue
/// holds no heap and grows on demand, so an idle session costs nothing
/// here. `push` refuses at the cap: a `false` return is the caller's
/// cue to count a backpressure drop. The queue can never exceed its
/// capacity (checked by [`BoundedQueue::high_water`], which the soak
/// test asserts stays `<= capacity`).
#[derive(Debug)]
pub struct BoundedQueue<T> {
    items: VecDeque<T>,
    capacity: usize,
    drops: u64,
    high_water: usize,
}

impl<T> BoundedQueue<T> {
    /// An empty queue bounded at `capacity` (> 0).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "zero-capacity queue");
        BoundedQueue {
            items: VecDeque::new(),
            capacity,
            drops: 0,
            high_water: 0,
        }
    }

    /// Enqueues `item` if there is room; otherwise counts a drop and
    /// returns `false`.
    pub fn push(&mut self, item: T) -> bool {
        if self.items.len() == self.capacity {
            self.drops += 1;
            return false;
        }
        self.items.push_back(item);
        self.high_water = self.high_water.max(self.items.len());
        debug_assert!(
            self.items.len() <= self.capacity,
            "queue grew past capacity"
        );
        true
    }

    /// Dequeues the oldest item.
    pub fn pop(&mut self) -> Option<T> {
        self.items.pop_front()
    }

    /// Items currently queued.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The capacity bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Pushes refused because the queue was full.
    pub fn drops(&self) -> u64 {
        self.drops
    }

    /// The deepest the queue has ever been — provably `<= capacity`.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Socket-level counters.
#[derive(Clone, Copy, Debug, Default)]
pub struct MuxStats {
    /// Datagrams sent.
    pub datagrams_tx: u64,
    /// Datagrams received (before any ingress filtering).
    pub datagrams_rx: u64,
    /// Frames sent inside those datagrams.
    pub frames_tx: u64,
    /// Frames [`SocketMux::recv`] handed out, decoded or not.
    pub frames_rx: u64,
    /// Received frames that failed frame or wire decoding.
    pub decode_errors: u64,
    /// Frames that never left: too long for the length prefix, or in a
    /// datagram the socket refused.
    pub egress_drops: u64,
}

/// `EMSGSIZE` — the socket cannot send a datagram this large — for which
/// std has no stable `io::ErrorKind`.
#[cfg(any(target_os = "linux", target_os = "android"))]
const EMSGSIZE: i32 = 90;
#[cfg(all(unix, not(any(target_os = "linux", target_os = "android"))))]
const EMSGSIZE: i32 = 40;
#[cfg(windows)]
const EMSGSIZE: i32 = 10_040;

/// The shared nonblocking socket plus the frame codec state.
pub struct SocketMux {
    socket: UdpSocket,
    peer: SocketAddr,
    rx_buf: Vec<u8>,
    /// The datagram being walked is `rx_buf[..rx_len]`; the frames before
    /// `rx_pos` have been handed out.
    rx_len: usize,
    rx_pos: usize,
    /// The datagram under construction: `tx_frames` frames, `tx_wire`
    /// wire-model bytes.
    tx_buf: BytesMut,
    tx_frames: u64,
    tx_wire: usize,
    stats: MuxStats,
}

impl SocketMux {
    /// Binds a nonblocking socket at `bind`, targeting `peer`.
    pub fn bind(bind: SocketAddr, peer: SocketAddr) -> io::Result<Self> {
        let socket = UdpSocket::bind(bind)?;
        socket.set_nonblocking(true)?;
        Ok(SocketMux {
            socket,
            peer,
            rx_buf: vec![0u8; 65_536],
            rx_len: 0,
            rx_pos: 0,
            tx_buf: BytesMut::with_capacity(2048),
            tx_frames: 0,
            tx_wire: 0,
            stats: MuxStats::default(),
        })
    }

    /// The bound local address (useful with ephemeral ports).
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.socket.local_addr()
    }

    /// Re-targets the peer (e.g. once the remote ephemeral port is known).
    pub fn set_peer(&mut self, peer: SocketAddr) {
        self.peer = peer;
    }

    /// Blocks until a datagram is readable or `timeout` elapses: callers
    /// wait exactly until their next protocol deadline and wake early for
    /// traffic, never spinning on a fixed interval. `Ok(true)` when a
    /// datagram is waiting — peeked, **not** consumed, so
    /// [`SocketMux::recv`] still sees it — `Ok(false)` on timeout; the
    /// socket is nonblocking again either way. The timeout is clamped into
    /// `[1µs, 50ms]`: zero would mean "block forever" to
    /// `set_read_timeout`, and a long wait would miss deadline changes.
    pub fn wait(&self, timeout: Duration) -> io::Result<bool> {
        let timeout = timeout.clamp(Duration::from_micros(1), MAX_WAIT);
        self.socket.set_nonblocking(false)?;
        self.socket.set_read_timeout(Some(timeout))?;
        let mut probe = [0u8; 1];
        let res = self.socket.peek_from(&mut probe);
        // Restore nonblocking before interpreting the result so an early
        // return can never leave the socket blocking.
        self.socket.set_nonblocking(true)?;
        match res {
            Ok(_) => Ok(true),
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                Ok(false)
            }
            Err(e) => Err(e),
        }
    }

    /// Decodes the next waiting frame: the next of the datagram last
    /// read, or the first of a new one. `Ok(None)` when the socket has
    /// nothing; decode failures are counted and surfaced as
    /// `Ok(Some(Err(..)))` so the caller keeps draining. (An empty
    /// datagram counts as one truncated frame.)
    pub fn recv(&mut self) -> io::Result<Option<Result<Frame, FrameError>>> {
        if self.rx_pos == self.rx_len {
            match self.socket.recv_from(&mut self.rx_buf) {
                Ok((n, _from)) => {
                    self.stats.datagrams_rx += 1;
                    (self.rx_len, self.rx_pos) = (n, 0);
                }
                Err(e)
                    if e.kind() == io::ErrorKind::WouldBlock
                        || e.kind() == io::ErrorKind::TimedOut =>
                {
                    return Ok(None);
                }
                Err(e) => return Err(e),
            }
        }
        let decoded = decode_frame_at(&self.rx_buf[..self.rx_len], &mut self.rx_pos);
        self.stats.frames_rx += 1;
        if decoded.is_err() {
            self.stats.decode_errors += 1;
        }
        Ok(Some(decoded))
    }

    /// Adds one frame for `session` to the datagram under construction,
    /// first sending that datagram if the frame would take it past
    /// [`DATAGRAM_BUDGET`]. The frame is on the wire after the next
    /// [`SocketMux::flush`] at the latest. A packet too long to frame is
    /// a counted egress drop, not an error.
    pub fn append(&mut self, session: u32, pkt: &Packet) -> io::Result<()> {
        let cost = frame_wire_len(pkt);
        if self.tx_frames > 0 && self.tx_wire + cost > DATAGRAM_BUDGET {
            // An error out of here takes this frame with it.
            self.flush().inspect_err(|_| self.stats.egress_drops += 1)?;
        }
        if append_frame(session, pkt, &mut self.tx_buf) {
            self.tx_frames += 1;
            self.tx_wire += cost;
        } else {
            self.stats.egress_drops += 1;
        }
        Ok(())
    }

    /// Sends the datagram under construction, if it holds anything. A
    /// datagram the socket will not take — send buffer full
    /// (`WouldBlock`) or too large (`EMSGSIZE`) — is dropped and its
    /// frames counted: each was an idempotent refresh, and the caller's
    /// poll goes on. Any other error is returned, its frames counted too.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.tx_frames == 0 {
            return Ok(());
        }
        let sent = self.socket.send_to(&self.tx_buf, self.peer);
        let frames = std::mem::take(&mut self.tx_frames);
        self.tx_wire = 0;
        self.tx_buf.clear();
        match sent {
            Ok(_) => {
                self.stats.datagrams_tx += 1;
                self.stats.frames_tx += frames;
                Ok(())
            }
            Err(e) => {
                self.stats.egress_drops += frames;
                let refused =
                    e.kind() == io::ErrorKind::WouldBlock || e.raw_os_error() == Some(EMSGSIZE);
                if refused {
                    Ok(())
                } else {
                    Err(e)
                }
            }
        }
    }

    /// Frames one packet for `session` and sends it now: the
    /// single-frame case of [`SocketMux::append`] + [`SocketMux::flush`].
    pub fn send(&mut self, session: u32, pkt: &Packet) -> io::Result<()> {
        self.append(session, pkt)?;
        self.flush()
    }

    /// Socket counters.
    pub fn stats(&self) -> MuxStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::Digest;
    use crate::namespace::MetaTag;
    use crate::wire::{NodeSummaryPacket, RepairQueryPacket, WireChildEntry};
    use softstate::Key;
    use std::time::Instant;

    fn any() -> SocketAddr {
        "127.0.0.1:0".parse().unwrap()
    }

    /// A bare socket, for datagrams no mux would send.
    fn raw() -> UdpSocket {
        UdpSocket::bind(any()).unwrap()
    }

    fn query(path: Vec<u16>) -> Packet {
        Packet::RepairQuery(RepairQueryPacket { path })
    }

    /// A node summary of `leaves` FNV leaf entries: 13 + 24·leaves bytes
    /// encoded.
    fn summary(leaves: u16) -> Packet {
        let entries = (0..leaves)
            .map(|slot| WireChildEntry::Leaf {
                slot,
                key: Key(u64::from(slot)),
                digest: Digest::from_u64(u64::from(slot)),
                tag: MetaTag(0),
            })
            .collect();
        Packet::NodeSummary(NodeSummaryPacket {
            seq: 1,
            path: Vec::new(),
            entries,
        })
    }

    /// Two muxes on loopback, the first targeting the second.
    fn pair() -> (SocketMux, SocketMux) {
        let rx = SocketMux::bind(any(), any()).unwrap();
        let tx = SocketMux::bind(any(), rx.local_addr().unwrap()).unwrap();
        (tx, rx)
    }

    /// Everything `rx` has, waiting out loopback delivery.
    fn drain(rx: &mut SocketMux) -> Vec<Result<Frame, FrameError>> {
        std::thread::sleep(std::time::Duration::from_millis(20));
        std::iter::from_fn(|| rx.recv().unwrap()).collect()
    }

    #[test]
    fn frame_roundtrip() {
        let mut buf = BytesMut::new();
        assert!(encode_frame(0xdead_beef, &query(vec![1, 2]), &mut buf));
        let frame = decode_frame(&buf).unwrap();
        assert_eq!(frame.session, 0xdead_beef);
        assert_eq!(frame.pkt, query(vec![1, 2]));
        assert_eq!(decode_frames(&buf).count(), 1);
    }

    #[test]
    fn truncated_frame_rejected() {
        assert_eq!(
            decode_frame(&[0, 1, 2, 3, 4]).unwrap_err(),
            FrameError::Truncated
        );
        // A sound header promising more than the datagram holds.
        assert_eq!(
            decode_frame(&[0, 0, 0, 7, 0, 2, 4]).unwrap_err(),
            FrameError::Truncated
        );
    }

    #[test]
    fn garbage_payload_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u32(7);
        buf.put_u16(3);
        buf.extend_from_slice(&[0xff; 3]);
        assert!(matches!(
            decode_frame(&buf).unwrap_err(),
            FrameError::Wire(_)
        ));
    }

    /// A bad packet costs its own frame; a bad header costs the rest.
    #[test]
    fn walk_skips_a_bad_packet_and_stops_at_a_bad_header() {
        let mut buf = BytesMut::new();
        assert!(append_frame(1, &query(vec![1]), &mut buf));
        buf.put_u32(2);
        buf.put_u16(3);
        buf.extend_from_slice(&[0xff; 3]);
        assert!(append_frame(3, &query(vec![3]), &mut buf));
        buf.put_u32(4);
        buf.put_u16(100); // runs past the end
        assert!(append_frame(5, &query(vec![5]), &mut buf));
        let walked: Vec<_> = decode_frames(&buf).map(|f| f.map(|f| f.session)).collect();
        assert!(
            matches!(
                walked[..],
                [
                    Ok(1),
                    Err(FrameError::Wire(_)),
                    Ok(3),
                    Err(FrameError::Truncated)
                ]
            ),
            "{walked:?}"
        );
    }

    /// Frames share datagrams up to the budget, `flush` sends the rest,
    /// and the receiver counts what it walked.
    #[test]
    fn appended_frames_share_datagrams_up_to_the_budget() {
        let (mut tx, mut rx) = pair();
        let pkt = summary(10); // 253 B encoded, 259 as a frame: 5 fit
        let per_datagram = (DATAGRAM_BUDGET / frame_wire_len(&pkt)) as u64;
        assert_eq!(per_datagram, 5);
        for session in 0..12 {
            tx.append(session, &pkt).unwrap();
        }
        assert_eq!(tx.stats().datagrams_tx, 2, "full datagrams leave at once");
        tx.flush().unwrap();
        tx.flush().unwrap(); // nothing left: not an empty datagram
        let sent = tx.stats();
        assert_eq!((sent.datagrams_tx, sent.frames_tx), (3, 12));
        let got = drain(&mut rx);
        let sessions: Vec<u32> = got.iter().map(|f| f.as_ref().unwrap().session).collect();
        assert_eq!(sessions, (0..12).collect::<Vec<_>>());
        assert!(got.iter().all(|f| f.as_ref().unwrap().pkt == pkt));
        let seen = rx.stats();
        assert_eq!(
            (seen.datagrams_rx, seen.frames_rx, seen.decode_errors),
            (3, 12, 0)
        );
    }

    /// A frame over the budget travels alone, and closes the datagram
    /// before it.
    #[test]
    fn oversized_frame_travels_alone() {
        let (mut tx, mut rx) = pair();
        let big = summary(100);
        assert!(frame_wire_len(&big) > DATAGRAM_BUDGET);
        tx.append(1, &query(vec![1])).unwrap();
        tx.append(2, &big).unwrap();
        tx.append(3, &query(vec![3])).unwrap();
        tx.flush().unwrap();
        assert_eq!(tx.stats().datagrams_tx, 3);
        let got = drain(&mut rx);
        assert_eq!(got.len(), 3);
        assert_eq!(got[1].as_ref().unwrap().pkt, big);
    }

    /// What cannot be framed or sent is counted, and is not an error.
    #[test]
    fn unsendable_frames_are_counted_drops() {
        let (mut tx, mut rx) = pair();
        // 65,557 B encoded: past the u16 length prefix.
        tx.send(1, &summary(2731)).unwrap();
        assert_eq!(tx.stats().egress_drops, 1);
        // 65,509 B encoded: framed, but more than a UDP datagram holds.
        tx.send(2, &summary(2729)).unwrap();
        assert_eq!(tx.stats().egress_drops, 2);
        // A refused datagram drops every frame in it and nothing after.
        tx.append(3, &query(vec![3])).unwrap();
        tx.send(4, &query(vec![4])).unwrap();
        let sent = tx.stats();
        assert_eq!((sent.datagrams_tx, sent.frames_tx), (1, 2));
        assert_eq!(drain(&mut rx).len(), 2);
    }

    /// A raw datagram — good frame, undecodable frame, good frame, cut
    /// header — through the socket: the counters say what happened.
    #[test]
    fn recv_counts_frames_and_errors() {
        let (tx, mut rx) = (raw(), SocketMux::bind(any(), any()).unwrap());
        let mut buf = BytesMut::new();
        assert!(append_frame(1, &query(vec![1]), &mut buf));
        buf.put_u32(2);
        buf.put_u16(1);
        buf.put_u8(0xff);
        assert!(append_frame(3, &query(vec![3]), &mut buf));
        buf.extend_from_slice(&[0, 0, 0]);
        let to = rx.local_addr().unwrap();
        tx.send_to(&buf, to).unwrap();
        tx.send_to(&[], to).unwrap();
        let got = drain(&mut rx);
        assert_eq!(got.iter().filter(|f| f.is_ok()).count(), 2);
        let seen = rx.stats();
        assert_eq!(
            (seen.datagrams_rx, seen.frames_rx, seen.decode_errors),
            (2, 5, 3)
        );
    }

    #[test]
    fn wait_times_out_without_traffic() {
        let mux = SocketMux::bind(any(), any()).unwrap();
        let start = Instant::now();
        assert!(!mux.wait(Duration::from_millis(20)).unwrap());
        let waited = start.elapsed();
        assert!(
            waited >= Duration::from_millis(15),
            "returned too early: {waited:?}"
        );
        // And the socket is back to nonblocking.
        let mut buf = [0u8; 8];
        assert_eq!(
            mux.socket.recv_from(&mut buf).unwrap_err().kind(),
            io::ErrorKind::WouldBlock
        );
    }

    #[test]
    fn wait_wakes_on_datagram_without_consuming_it() {
        let (mut tx, mut rx) = pair();
        tx.send(9, &query(vec![9])).unwrap();
        assert!(rx.wait(Duration::from_millis(500)).unwrap());
        // The datagram is still there for the normal receive path.
        let frame = rx.recv().unwrap().expect("a datagram").unwrap();
        assert_eq!((frame.session, frame.pkt), (9, query(vec![9])));
    }

    #[test]
    fn wait_clamps_long_timeouts() {
        let mux = SocketMux::bind(any(), any()).unwrap();
        let start = Instant::now();
        assert!(!mux.wait(Duration::from_secs(3600)).unwrap());
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn bounded_queue_refuses_at_capacity() {
        let mut q = BoundedQueue::new(2);
        assert!(q.push(1));
        assert!(q.push(2));
        assert!(!q.push(3));
        assert_eq!(q.drops(), 1);
        assert_eq!(q.high_water(), 2);
        assert_eq!(q.pop(), Some(1));
        assert!(q.push(3));
        assert_eq!(q.high_water(), 2);
        assert!(q.high_water() <= q.capacity());
    }
}
