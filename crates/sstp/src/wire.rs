//! SSTP wire formats.
//!
//! Six packet types carry the protocol: application data, the sender's
//! periodic root summary (the "cold transmissions of the root summary"),
//! per-node summaries answering repair queries, receiver repair queries,
//! NACKs, and RTCP-style receiver reports. Every type round-trips through
//! a compact binary codec built on `bytes`; [`Packet::wire_len`] is the
//! exact encoded size plus simulated payload, which is what the simulated
//! channels charge for bandwidth.
//!
//! Data-channel packets (data, root summary, node summary) carry a shared
//! sequence number so receivers can estimate the channel loss rate from
//! sequence gaps, RTCP-style (§6.1 "the average packet loss rate,
//! periodically obtained from RTCP-like receiver reports").

// D004 (DESIGN.md §8): decoding untrusted bytes must be total.
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::indexing_slicing,
    clippy::panic
)]

use crate::digest::Digest;
use crate::namespace::{ChildEntry, MetaTag, Path};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use softstate::Key;

/// Codec failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The buffer ended before the packet did.
    Truncated,
    /// Unknown packet or entry type tag.
    BadTag(u8),
    /// A digest length that is neither 8 (FNV) nor 16 (MD5).
    BadDigestLen(u8),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated packet"),
            WireError::BadTag(t) => write!(f, "unknown type tag {t:#04x}"),
            WireError::BadDigestLen(n) => write!(f, "invalid digest length {n}"),
        }
    }
}

impl std::error::Error for WireError {}

/// New application data (or a NACK-triggered retransmission of it).
///
/// ADUs larger than the sender's MTU travel as several fragments; each
/// carries its byte `offset` and the ADU's `total_len` so receivers can
/// track the contiguous *right edge* they hold — the §6.2 quantity leaf
/// digests are computed over. An unfragmented ADU is the special case
/// `offset = 0, payload_len = total_len`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DataPacket {
    /// Data-channel sequence number.
    pub seq: u64,
    /// The record's key.
    pub key: Key,
    /// The record's version.
    pub version: u64,
    /// Namespace path of the ADU's parent node.
    pub parent_path: Path,
    /// The ADU's child slot under that parent.
    pub slot: u16,
    /// Interest tag.
    pub tag: MetaTag,
    /// Byte offset of this fragment within the ADU.
    pub offset: u32,
    /// Bytes of application payload in this fragment (simulated, not
    /// carried, but charged on the wire).
    pub payload_len: u32,
    /// Total size of the ADU this fragment belongs to.
    pub total_len: u32,
}

impl DataPacket {
    /// The byte just past this fragment: `offset + payload_len`
    /// (saturating: both fields are wire input).
    pub fn end(&self) -> u32 {
        self.offset.saturating_add(self.payload_len)
    }

    /// True when this single packet carries the whole ADU.
    pub fn is_whole(&self) -> bool {
        self.offset == 0 && self.payload_len == self.total_len
    }
}

/// The periodic summary of everything previously transmitted.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RootSummaryPacket {
    /// Data-channel sequence number.
    pub seq: u64,
    /// Root namespace digest.
    pub digest: Digest,
    /// Live ADU count (lets late joiners size their catch-up).
    pub live_adus: u32,
}

/// One child slot's description inside a [`NodeSummaryPacket`]: what the
/// namespace says about the slot is what goes on the wire.
pub type WireChildEntry = ChildEntry;

/// A repair response: the digests one level below `path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NodeSummaryPacket {
    /// Data-channel sequence number.
    pub seq: u64,
    /// The summarized node's path.
    pub path: Path,
    /// One entry per child slot.
    pub entries: Vec<WireChildEntry>,
}

/// A receiver's request for the next level of signatures under `path`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct RepairQueryPacket {
    /// The node whose children the receiver wants summarized.
    pub path: Path,
}

/// A receiver's negative acknowledgment for specific ADUs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NackPacket {
    /// Keys whose data the receiver is missing (or holds stale).
    pub keys: Vec<Key>,
}

/// An RTCP-style receiver report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ReceiverReportPacket {
    /// The reporting receiver.
    pub receiver_id: u32,
    /// Highest data-channel sequence seen.
    pub highest_seq: u64,
    /// Total data-channel packets received.
    pub received: u64,
}

/// Any SSTP packet.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Packet {
    /// Application data.
    Data(DataPacket),
    /// Periodic root summary.
    RootSummary(RootSummaryPacket),
    /// Repair response.
    NodeSummary(NodeSummaryPacket),
    /// Repair query.
    RepairQuery(RepairQueryPacket),
    /// Negative acknowledgment.
    Nack(NackPacket),
    /// Receiver report.
    ReceiverReport(ReceiverReportPacket),
}

const TAG_DATA: u8 = 1;
const TAG_ROOT: u8 = 2;
const TAG_NODE: u8 = 3;
const TAG_QUERY: u8 = 4;
const TAG_NACK: u8 = 5;
const TAG_REPORT: u8 = 6;

const ENTRY_DEAD: u8 = 0;
const ENTRY_INTERIOR: u8 = 1;
const ENTRY_LEAF: u8 = 2;

/// Fixed per-packet header overhead we charge on the wire (IP+UDP-ish).
pub const HEADER_OVERHEAD: usize = 28;

fn put_path(buf: &mut BytesMut, path: &Path) {
    buf.put_u16(path.len() as u16);
    for &p in path {
        buf.put_u16(p);
    }
}

/// Encoded size of a path: a u16 count plus a u16 per component.
fn path_len(path: &Path) -> usize {
    2 + 2 * path.len()
}

/// Encoded size of a digest: a u8 length prefix plus the digest bytes.
fn digest_len(d: &Digest) -> usize {
    1 + d.len()
}

fn get_path<B: Buf>(buf: &mut B) -> Result<Path, WireError> {
    if buf.remaining() < 2 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u16() as usize;
    if buf.remaining() < n * 2 {
        return Err(WireError::Truncated);
    }
    Ok((0..n).map(|_| buf.get_u16()).collect())
}

fn put_digest(buf: &mut BytesMut, d: &Digest) {
    buf.put_u8(d.len() as u8);
    buf.put_slice(d.as_bytes());
}

fn get_digest<B: Buf>(buf: &mut B) -> Result<Digest, WireError> {
    if buf.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    let n = buf.get_u8();
    if buf.remaining() < n as usize {
        return Err(WireError::Truncated);
    }
    match n {
        8 => {
            let mut b = [0u8; 8];
            buf.copy_to_slice(&mut b);
            Ok(Digest::from_u64(u64::from_be_bytes(b)))
        }
        16 => {
            let mut b = [0u8; 16];
            buf.copy_to_slice(&mut b);
            Ok(Digest::from_md5(b))
        }
        other => Err(WireError::BadDigestLen(other)),
    }
}

impl Packet {
    /// Encodes the packet into `buf`.
    pub fn encode(&self, buf: &mut BytesMut) {
        // One up-front reservation instead of doubling mid-packet.
        buf.reserve(self.encoded_len());
        match self {
            Packet::Data(p) => {
                buf.put_u8(TAG_DATA);
                buf.put_u64(p.seq);
                buf.put_u64(p.key.0);
                buf.put_u64(p.version);
                put_path(buf, &p.parent_path);
                buf.put_u16(p.slot);
                buf.put_u32(p.tag.0);
                buf.put_u32(p.offset);
                buf.put_u32(p.payload_len);
                buf.put_u32(p.total_len);
            }
            Packet::RootSummary(p) => {
                buf.put_u8(TAG_ROOT);
                buf.put_u64(p.seq);
                put_digest(buf, &p.digest);
                buf.put_u32(p.live_adus);
            }
            Packet::NodeSummary(p) => {
                buf.put_u8(TAG_NODE);
                buf.put_u64(p.seq);
                put_path(buf, &p.path);
                buf.put_u16(p.entries.len() as u16);
                for e in &p.entries {
                    match e {
                        WireChildEntry::Dead { slot } => {
                            buf.put_u8(ENTRY_DEAD);
                            buf.put_u16(*slot);
                        }
                        WireChildEntry::Interior { slot, digest, tag } => {
                            buf.put_u8(ENTRY_INTERIOR);
                            buf.put_u16(*slot);
                            put_digest(buf, digest);
                            buf.put_u32(tag.0);
                        }
                        WireChildEntry::Leaf {
                            slot,
                            key,
                            digest,
                            tag,
                        } => {
                            buf.put_u8(ENTRY_LEAF);
                            buf.put_u16(*slot);
                            buf.put_u64(key.0);
                            put_digest(buf, digest);
                            buf.put_u32(tag.0);
                        }
                    }
                }
            }
            Packet::RepairQuery(p) => {
                buf.put_u8(TAG_QUERY);
                put_path(buf, &p.path);
            }
            Packet::Nack(p) => {
                buf.put_u8(TAG_NACK);
                buf.put_u16(p.keys.len() as u16);
                for k in &p.keys {
                    buf.put_u64(k.0);
                }
            }
            Packet::ReceiverReport(p) => {
                buf.put_u8(TAG_REPORT);
                buf.put_u32(p.receiver_id);
                buf.put_u64(p.highest_seq);
                buf.put_u64(p.received);
            }
        }
    }

    /// Decodes one packet from `buf`.
    pub fn decode(mut buf: Bytes) -> Result<Packet, WireError> {
        Packet::decode_from(&mut buf)
    }

    /// Decodes one packet straight from a byte slice — a frame still
    /// sitting in the receive buffer — copying nothing but the fields.
    pub fn decode_slice(mut buf: &[u8]) -> Result<Packet, WireError> {
        Packet::decode_from(&mut buf)
    }

    fn decode_from<B: Buf>(b: &mut B) -> Result<Packet, WireError> {
        macro_rules! need {
            ($n:expr) => {
                if b.remaining() < $n {
                    return Err(WireError::Truncated);
                }
            };
        }
        need!(1);
        let tag = b.get_u8();
        match tag {
            TAG_DATA => {
                need!(24);
                let seq = b.get_u64();
                let key = Key(b.get_u64());
                let version = b.get_u64();
                let parent_path = get_path(b)?;
                need!(18);
                let slot = b.get_u16();
                let tag = MetaTag(b.get_u32());
                let offset = b.get_u32();
                let payload_len = b.get_u32();
                let total_len = b.get_u32();
                Ok(Packet::Data(DataPacket {
                    seq,
                    key,
                    version,
                    parent_path,
                    slot,
                    tag,
                    offset,
                    payload_len,
                    total_len,
                }))
            }
            TAG_ROOT => {
                need!(8);
                let seq = b.get_u64();
                let digest = get_digest(b)?;
                need!(4);
                let live_adus = b.get_u32();
                Ok(Packet::RootSummary(RootSummaryPacket {
                    seq,
                    digest,
                    live_adus,
                }))
            }
            TAG_NODE => {
                need!(8);
                let seq = b.get_u64();
                let path = get_path(b)?;
                need!(2);
                let n = b.get_u16() as usize;
                let mut entries = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    need!(3);
                    let etag = b.get_u8();
                    let slot = b.get_u16();
                    entries.push(match etag {
                        ENTRY_DEAD => WireChildEntry::Dead { slot },
                        ENTRY_INTERIOR => {
                            let digest = get_digest(b)?;
                            need!(4);
                            let tag = MetaTag(b.get_u32());
                            WireChildEntry::Interior { slot, digest, tag }
                        }
                        ENTRY_LEAF => {
                            need!(8);
                            let key = Key(b.get_u64());
                            let digest = get_digest(b)?;
                            need!(4);
                            let tag = MetaTag(b.get_u32());
                            WireChildEntry::Leaf {
                                slot,
                                key,
                                digest,
                                tag,
                            }
                        }
                        other => return Err(WireError::BadTag(other)),
                    });
                }
                Ok(Packet::NodeSummary(NodeSummaryPacket {
                    seq,
                    path,
                    entries,
                }))
            }
            TAG_QUERY => Ok(Packet::RepairQuery(RepairQueryPacket {
                path: get_path(b)?,
            })),
            TAG_NACK => {
                need!(2);
                let n = b.get_u16() as usize;
                need!(n * 8);
                let keys = (0..n).map(|_| Key(b.get_u64())).collect();
                Ok(Packet::Nack(NackPacket { keys }))
            }
            TAG_REPORT => {
                need!(20);
                Ok(Packet::ReceiverReport(ReceiverReportPacket {
                    receiver_id: b.get_u32(),
                    highest_seq: b.get_u64(),
                    received: b.get_u64(),
                }))
            }
            other => Err(WireError::BadTag(other)),
        }
    }

    /// Exact number of bytes [`Packet::encode`] writes, computed without
    /// encoding. `wire_len` is called for every simulated transmission
    /// (the channels charge bandwidth by it), and materializing a
    /// throwaway `BytesMut` per packet dominated the sstp send path;
    /// this arithmetic version allocates nothing. Kept in lockstep with
    /// `encode` by the `encoded_len_matches_encode_for_every_variant`
    /// test.
    pub fn encoded_len(&self) -> usize {
        match self {
            Packet::Data(p) => 1 + 8 + 8 + 8 + path_len(&p.parent_path) + 2 + 4 + 4 + 4 + 4,
            Packet::RootSummary(p) => 1 + 8 + digest_len(&p.digest) + 4,
            Packet::NodeSummary(p) => {
                let entries: usize = p
                    .entries
                    .iter()
                    .map(|e| match e {
                        WireChildEntry::Dead { .. } => 1 + 2,
                        WireChildEntry::Interior { digest, .. } => 1 + 2 + digest_len(digest) + 4,
                        WireChildEntry::Leaf { digest, .. } => 1 + 2 + 8 + digest_len(digest) + 4,
                    })
                    .sum();
                1 + 8 + path_len(&p.path) + 2 + entries
            }
            Packet::RepairQuery(p) => 1 + path_len(&p.path),
            Packet::Nack(p) => 1 + 2 + 8 * p.keys.len(),
            Packet::ReceiverReport(_) => 1 + 4 + 8 + 8,
        }
    }

    /// The bytes this packet occupies on the wire: header overhead +
    /// encoded control bytes + simulated payload (data packets only).
    pub fn wire_len(&self) -> usize {
        let payload = match self {
            Packet::Data(d) => d.payload_len as usize,
            _ => 0,
        };
        HEADER_OVERHEAD + self.encoded_len() + payload
    }

    /// The data-channel sequence number, for packets that carry one.
    pub fn data_seq(&self) -> Option<u64> {
        match self {
            Packet::Data(p) => Some(p.seq),
            Packet::RootSummary(p) => Some(p.seq),
            Packet::NodeSummary(p) => Some(p.seq),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: Packet) {
        let mut buf = BytesMut::new();
        p.encode(&mut buf);
        let decoded = Packet::decode(buf.freeze()).expect("decode");
        assert_eq!(decoded, p);
    }

    #[test]
    fn data_roundtrip() {
        roundtrip(Packet::Data(DataPacket {
            seq: 12345,
            key: Key(999),
            version: 7,
            parent_path: vec![1, 0, 65535],
            slot: 42,
            tag: MetaTag(3),
            offset: 500,
            payload_len: 500,
            total_len: 1000,
        }));
    }

    #[test]
    fn root_summary_roundtrip_both_digests() {
        roundtrip(Packet::RootSummary(RootSummaryPacket {
            seq: 1,
            digest: Digest::from_u64(0xdeadbeef),
            live_adus: 77,
        }));
        roundtrip(Packet::RootSummary(RootSummaryPacket {
            seq: 2,
            digest: Digest::from_md5([7u8; 16]),
            live_adus: 0,
        }));
    }

    #[test]
    fn node_summary_roundtrip_mixed_entries() {
        roundtrip(Packet::NodeSummary(NodeSummaryPacket {
            seq: 9,
            path: vec![],
            entries: vec![
                WireChildEntry::Dead { slot: 0 },
                WireChildEntry::Interior {
                    slot: 1,
                    digest: Digest::from_u64(11),
                    tag: MetaTag(5),
                },
                WireChildEntry::Leaf {
                    slot: 2,
                    key: Key(123),
                    digest: Digest::from_md5([1u8; 16]),
                    tag: MetaTag(0),
                },
            ],
        }));
    }

    #[test]
    fn control_roundtrips() {
        roundtrip(Packet::RepairQuery(RepairQueryPacket { path: vec![0, 1] }));
        roundtrip(Packet::Nack(NackPacket {
            keys: vec![Key(1), Key(2), Key(u64::MAX)],
        }));
        roundtrip(Packet::Nack(NackPacket { keys: vec![] }));
        roundtrip(Packet::ReceiverReport(ReceiverReportPacket {
            receiver_id: 4,
            highest_seq: 1_000_000,
            received: 999_888,
        }));
    }

    #[test]
    fn wire_len_includes_payload_and_header() {
        let d = Packet::Data(DataPacket {
            seq: 0,
            key: Key(0),
            version: 0,
            parent_path: vec![],
            slot: 0,
            tag: MetaTag(0),
            offset: 0,
            payload_len: 1000,
            total_len: 1000,
        });
        let mut buf = BytesMut::new();
        d.encode(&mut buf);
        assert_eq!(d.wire_len(), HEADER_OVERHEAD + buf.len() + 1000);

        let n = Packet::Nack(NackPacket { keys: vec![Key(1)] });
        assert_eq!(n.wire_len(), HEADER_OVERHEAD + 1 + 2 + 8);
    }

    #[test]
    fn encoded_len_matches_encode_for_every_variant() {
        let packets = vec![
            Packet::Data(DataPacket {
                seq: 1,
                key: Key(2),
                version: 3,
                parent_path: vec![4, 5, 6],
                slot: 7,
                tag: MetaTag(8),
                offset: 9,
                payload_len: 10,
                total_len: 11,
            }),
            Packet::RootSummary(RootSummaryPacket {
                seq: 1,
                digest: Digest::from_u64(2),
                live_adus: 3,
            }),
            Packet::RootSummary(RootSummaryPacket {
                seq: 1,
                digest: Digest::from_md5([9u8; 16]),
                live_adus: 3,
            }),
            Packet::NodeSummary(NodeSummaryPacket {
                seq: 4,
                path: vec![1],
                entries: vec![
                    WireChildEntry::Dead { slot: 0 },
                    WireChildEntry::Interior {
                        slot: 1,
                        digest: Digest::from_u64(5),
                        tag: MetaTag(6),
                    },
                    WireChildEntry::Leaf {
                        slot: 2,
                        key: Key(7),
                        digest: Digest::from_md5([3u8; 16]),
                        tag: MetaTag(8),
                    },
                ],
            }),
            Packet::RepairQuery(RepairQueryPacket { path: vec![] }),
            Packet::RepairQuery(RepairQueryPacket { path: vec![1, 2] }),
            Packet::Nack(NackPacket { keys: vec![] }),
            Packet::Nack(NackPacket {
                keys: vec![Key(1), Key(2)],
            }),
            Packet::ReceiverReport(ReceiverReportPacket {
                receiver_id: 1,
                highest_seq: 2,
                received: 3,
            }),
        ];
        for p in packets {
            let mut buf = BytesMut::new();
            p.encode(&mut buf);
            assert_eq!(p.encoded_len(), buf.len(), "encoded_len drifted: {p:?}");
        }
    }

    #[test]
    fn data_seq_only_on_data_channel_packets() {
        assert_eq!(Packet::Nack(NackPacket { keys: vec![] }).data_seq(), None);
        assert_eq!(
            Packet::RepairQuery(RepairQueryPacket { path: vec![] }).data_seq(),
            None
        );
        let r = Packet::RootSummary(RootSummaryPacket {
            seq: 5,
            digest: Digest::from_u64(0),
            live_adus: 0,
        });
        assert_eq!(r.data_seq(), Some(5));
    }

    #[test]
    fn decode_errors() {
        assert_eq!(
            Packet::decode(Bytes::from_static(&[])),
            Err(WireError::Truncated)
        );
        assert_eq!(
            Packet::decode(Bytes::from_static(&[0x77])),
            Err(WireError::BadTag(0x77))
        );
        // Truncated data packet.
        let mut buf = BytesMut::new();
        Packet::Data(DataPacket {
            seq: 1,
            key: Key(1),
            version: 1,
            parent_path: vec![1],
            slot: 0,
            tag: MetaTag(0),
            offset: 0,
            payload_len: 0,
            total_len: 0,
        })
        .encode(&mut buf);
        let full = buf.freeze();
        for cut in 1..full.len() {
            let r = Packet::decode(full.slice(0..cut));
            assert!(r.is_err(), "decoding {cut}/{} bytes must fail", full.len());
        }
    }

    #[test]
    fn bad_digest_len_rejected() {
        // Hand-craft a root summary with digest length 9.
        let mut buf = BytesMut::new();
        buf.put_u8(2); // TAG_ROOT
        buf.put_u64(1);
        buf.put_u8(9);
        buf.put_slice(&[0u8; 9]);
        buf.put_u32(0);
        assert_eq!(
            Packet::decode(buf.freeze()),
            Err(WireError::BadDigestLen(9))
        );
    }

    #[test]
    fn error_display() {
        assert_eq!(WireError::Truncated.to_string(), "truncated packet");
        assert!(WireError::BadTag(3).to_string().contains("0x03"));
        assert!(WireError::BadDigestLen(9).to_string().contains('9'));
    }
}
