//! Replication protocol messages and their wire encoding.
//!
//! Every message variant implements [`Wire`] with an **exact**
//! `encoded_len`, so the byte counts charged to the simulated network and
//! the frames pushed through the real TCP transport are the same bytes.
//! The assertion test at the bottom pins `encode(m).len() ==
//! m.encoded_len()` for every variant.

use dmv_common::ids::{PageId, TxnId};
use dmv_common::version::VersionVector;
use dmv_common::wire::{put_u32, put_u64, Reader, Wire};
use dmv_common::{DmvError, DmvResult};
use dmv_pagestore::diff::PageDiff;
use dmv_pagestore::page::image_of;
use dmv_pagestore::{Image, PAGE_SIZE};
use std::sync::Arc;

/// The write-set a master broadcasts at pre-commit (paper Figure 2): the
/// per-page modification encodings of one update transaction plus the
/// database version vector the commit produces.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteSet {
    /// The committing transaction.
    pub txn: TxnId,
    /// Master-local commit sequence number, assigned in commit order
    /// (strictly increasing, starting at 1 for each master incarnation).
    /// Slaves acknowledge the highest contiguously enqueued `seq` with
    /// one cumulative [`Msg::CumAck`] instead of a per-txn ack.
    pub seq: u64,
    /// The version vector the database enters when this commit applies.
    /// Only the entries of tables in the write set were incremented.
    pub versions: VersionVector,
    /// Per-page byte diffs, in first-write order.
    pub pages: Vec<(PageId, PageDiff)>,
}

impl Wire for WriteSet {
    fn encoded_len(&self) -> usize {
        self.txn.encoded_len()
            + 8
            + self.versions.encoded_len()
            + 4
            + self.pages.iter().map(|(p, d)| p.encoded_len() + Wire::encoded_len(d)).sum::<usize>()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        self.txn.encode_into(out);
        put_u64(out, self.seq);
        self.versions.encode_into(out);
        put_u32(out, self.pages.len() as u32);
        for (page, diff) in &self.pages {
            page.encode_into(out);
            diff.encode_into(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> DmvResult<Self> {
        let txn = TxnId::decode(r)?;
        let seq = r.u64()?;
        let versions = VersionVector::decode(r)?;
        let count = r.u32()? as usize;
        // Minimum per entry: 8-byte PageId + 2-byte empty diff.
        let n = r.seq_len(count, 10)?;
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            let page = PageId::decode(r)?;
            let diff = PageDiff::decode(r)?;
            pages.push((page, diff));
        }
        Ok(WriteSet { txn, seq, versions, pages })
    }
}

/// A group-commit flush: write-sets of consecutive commits coalesced
/// while the previous broadcast was in flight, sent as one frame. The
/// write-sets appear in strictly increasing `seq` order; a slave
/// enqueues them all before acknowledging the last one, so a batch is
/// all-or-nothing with respect to the cumulative-ack watermark.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteSetBatch {
    /// Coalesced write-sets, in commit (`seq`) order. Each is shared
    /// (`Arc`) so the fan-out clones pointers, exactly as for a lone
    /// [`Msg::WriteSet`].
    pub sets: Vec<Arc<WriteSet>>,
}

impl Wire for WriteSetBatch {
    fn encoded_len(&self) -> usize {
        4 + self.sets.iter().map(|ws| ws.encoded_len()).sum::<usize>()
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.sets.len() as u32);
        for ws in &self.sets {
            ws.encode_into(out);
        }
    }

    fn decode(r: &mut Reader<'_>) -> DmvResult<Self> {
        let count = r.u32()? as usize;
        // Minimum per entry: TxnId (12) + seq (8) + empty VV (2) + count (4).
        let n = r.seq_len(count, 26)?;
        let mut sets = Vec::with_capacity(n);
        for _ in 0..n {
            sets.push(Arc::new(WriteSet::decode(r)?));
        }
        Ok(WriteSetBatch { sets })
    }
}

/// A batch of full page images sent during data migration (paper §4.4):
/// only pages newer than the joining node's checkpointed versions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PageBatch {
    /// `(page, version, image)` triples; each image is the sender's
    /// page image, shared, not copied.
    pub pages: Vec<(PageId, u64, Image)>,
    /// True on the final batch of a migration.
    pub done: bool,
}

impl Wire for PageBatch {
    fn encoded_len(&self) -> usize {
        4 + self.pages.len() * (8 + 8 + 4 + PAGE_SIZE) + 1
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        put_u32(out, self.pages.len() as u32);
        for (page, version, img) in &self.pages {
            page.encode_into(out);
            put_u64(out, *version);
            put_u32(out, PAGE_SIZE as u32);
            out.extend_from_slice(&img[..]);
        }
        out.push(u8::from(self.done));
    }

    fn decode(r: &mut Reader<'_>) -> DmvResult<Self> {
        let count = r.u32()? as usize;
        let n = r.seq_len(count, 8 + 8 + 4)?;
        let mut pages = Vec::with_capacity(n);
        for _ in 0..n {
            let page = PageId::decode(r)?;
            let version = r.u64()?;
            let len = r.u32()? as usize;
            // An image is exactly one page; reject any other length.
            if len != PAGE_SIZE {
                return Err(DmvError::Codec(format!(
                    "page image of {len} bytes, expected {PAGE_SIZE}"
                )));
            }
            pages.push((page, version, image_of(r.bytes(len)?)));
        }
        let done = match r.u8()? {
            0 => false,
            1 => true,
            b => return Err(DmvError::Codec(format!("bad bool byte {b}"))),
        };
        Ok(PageBatch { pages, done })
    }
}

/// Messages carried by the cluster transport.
#[derive(Debug, Clone, PartialEq)]
pub enum Msg {
    /// Master → replicas: a pre-commit write-set flush. The write-set is
    /// shared (`Arc`) so an `n`-slave fan-out clones a pointer per
    /// target instead of re-allocating the page diffs `n` times; slaves
    /// keep the same allocation alive in their pending queues until the
    /// diffs are materialized.
    WriteSet(Arc<WriteSet>),
    /// Master → replicas: a group-commit flush of several consecutive
    /// write-sets (strictly increasing `seq`). Shared (`Arc`) so the
    /// fan-out clones one pointer per target for the whole batch.
    WriteSetBatch(Arc<WriteSetBatch>),
    /// Replica → master: cumulative acknowledgement — every write-set
    /// with `seq` up to and including this one has been received and
    /// enqueued. Supersedes per-txn acks: links are FIFO and the master
    /// sends in `seq` order, so the highest seq seen is the highest
    /// contiguous seq.
    CumAck {
        /// Highest contiguously enqueued commit sequence number.
        seq: u64,
    },
    /// Support slave → joining node: migration page batch.
    PageBatch(PageBatch),
    /// Active slave → spare backup: identifiers of hot (buffer-resident)
    /// pages; the spare touches them to keep its cache warm (§4.5).
    PageIdHint {
        /// Hot page ids.
        pages: Vec<PageId>,
    },
}

/// Wire tags of the [`Msg`] variants (protocol version 1).
///
/// Tag 1 (`WRITE_SET_ACK`) is retired: per-txn acks were replaced by
/// cumulative [`Msg::CumAck`] sequence acks. Tags 4 (`DISCARD_ABOVE`)
/// and 5 (`TOPOLOGY`) are retired too: nothing ever sent them (the
/// scheduler reconfigures replicas by direct call). Tag 8 (`WATERMARK`)
/// is retired for the same reason: the cluster's GC sweeper reclaims on
/// every replica by direct call. Retired tags are not reused so a stale
/// peer's frame decodes as an unknown-tag error instead of misparsing.
mod tag {
    pub const WRITE_SET: u8 = 0;
    pub const PAGE_BATCH: u8 = 2;
    pub const PAGE_ID_HINT: u8 = 3;
    pub const WRITE_SET_BATCH: u8 = 6;
    pub const CUM_ACK: u8 = 7;
}

impl Wire for Msg {
    fn encoded_len(&self) -> usize {
        1 + match self {
            Msg::WriteSet(ws) => ws.encoded_len(),
            Msg::WriteSetBatch(b) => b.encoded_len(),
            Msg::CumAck { .. } => 8,
            Msg::PageBatch(b) => b.encoded_len(),
            Msg::PageIdHint { pages } => 4 + pages.len() * 8,
        }
    }

    fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            Msg::WriteSet(ws) => {
                out.push(tag::WRITE_SET);
                ws.encode_into(out);
            }
            Msg::WriteSetBatch(b) => {
                out.push(tag::WRITE_SET_BATCH);
                b.encode_into(out);
            }
            Msg::CumAck { seq } => {
                out.push(tag::CUM_ACK);
                put_u64(out, *seq);
            }
            Msg::PageBatch(b) => {
                out.push(tag::PAGE_BATCH);
                b.encode_into(out);
            }
            Msg::PageIdHint { pages } => {
                out.push(tag::PAGE_ID_HINT);
                put_u32(out, pages.len() as u32);
                for p in pages {
                    p.encode_into(out);
                }
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> DmvResult<Self> {
        match r.u8()? {
            tag::WRITE_SET => Ok(Msg::WriteSet(Arc::new(WriteSet::decode(r)?))),
            tag::WRITE_SET_BATCH => Ok(Msg::WriteSetBatch(Arc::new(WriteSetBatch::decode(r)?))),
            tag::CUM_ACK => Ok(Msg::CumAck { seq: r.u64()? }),
            tag::PAGE_BATCH => Ok(Msg::PageBatch(PageBatch::decode(r)?)),
            tag::PAGE_ID_HINT => {
                let count = r.u32()? as usize;
                let n = r.seq_len(count, 8)?;
                let mut pages = Vec::with_capacity(n);
                for _ in 0..n {
                    pages.push(PageId::decode(r)?);
                }
                Ok(Msg::PageIdHint { pages })
            }
            t => Err(DmvError::Codec(format!("unknown message tag {t}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmv_common::ids::{NodeId, TableId};
    use dmv_common::wire::decode_exact;

    fn sample_writeset(seq: u64, fill: u8) -> WriteSet {
        let before = vec![0u8; PAGE_SIZE];
        let mut after = before.clone();
        after[0..100].fill(fill);
        WriteSet {
            txn: TxnId::new(NodeId(0), seq),
            seq,
            versions: VersionVector::from_entries(vec![seq, 0]),
            pages: vec![(PageId::heap(TableId(0), 0), PageDiff::compute(&before, &after))],
        }
    }

    /// Every `Msg` variant — the satellite's shapes.
    fn all_variants() -> Vec<Msg> {
        vec![
            Msg::WriteSet(Arc::new(sample_writeset(1, 7))),
            Msg::WriteSetBatch(Arc::new(WriteSetBatch {
                sets: vec![Arc::new(sample_writeset(2, 3)), Arc::new(sample_writeset(3, 9))],
            })),
            Msg::WriteSetBatch(Arc::new(WriteSetBatch { sets: vec![] })),
            Msg::CumAck { seq: 42 },
            Msg::CumAck { seq: 0 },
            Msg::PageBatch(PageBatch {
                pages: vec![(PageId::index(TableId(2), 1, 5), 9, Arc::new([3u8; PAGE_SIZE]))],
                done: true,
            }),
            Msg::PageBatch(PageBatch { pages: vec![], done: false }),
            Msg::PageIdHint { pages: vec![PageId::heap(TableId(0), 0)] },
            Msg::PageIdHint { pages: vec![] },
        ]
    }

    #[test]
    fn encoded_len_is_exact_for_all_variants() {
        for m in all_variants() {
            assert_eq!(m.encode().len(), m.encoded_len(), "encoded_len drift for {m:?}");
        }
    }

    #[test]
    fn all_variants_roundtrip() {
        for m in all_variants() {
            let bytes = m.encode();
            assert_eq!(decode_exact::<Msg>(&bytes).unwrap(), m);
        }
    }

    #[test]
    fn writeset_size_tracks_payload() {
        let small = sample_writeset(1, 7);
        let before = vec![0u8; PAGE_SIZE];
        let mut big_after = before.clone();
        big_after.fill(9);
        let big = WriteSet {
            txn: TxnId::new(NodeId(0), 2),
            seq: 2,
            versions: VersionVector::new(2),
            pages: vec![(PageId::heap(TableId(0), 0), PageDiff::compute(&before, &big_after))],
        };
        assert!(big.encoded_len() > small.encoded_len());
        assert!(small.encoded_len() < 300);
    }

    #[test]
    fn msg_sizes_nonzero() {
        for m in all_variants() {
            assert!(m.encoded_len() > 0);
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert!(matches!(decode_exact::<Msg>(&[200]), Err(DmvError::Codec(_))));
        // Retired tags must not decode to anything. What a stale peer
        // would send: tag 1 + the acked txn id, tag 4 + a version
        // vector, tag 5 + a master id and a replica list, tag 8 + a
        // reclamation watermark.
        let mut stale_ack = vec![1u8];
        TxnId::new(NodeId(1), 1).encode_into(&mut stale_ack);
        let mut stale_discard = vec![4u8];
        VersionVector::from_entries(vec![4, 0, 2]).encode_into(&mut stale_discard);
        let mut stale_topology = vec![5u8];
        NodeId(0).encode_into(&mut stale_topology);
        put_u32(&mut stale_topology, 1);
        NodeId(10).encode_into(&mut stale_topology);
        let mut stale_watermark = vec![8u8];
        VersionVector::from_entries(vec![7, 0, 3]).encode_into(&mut stale_watermark);
        for stale in [stale_ack, stale_discard, stale_topology, stale_watermark] {
            let err = decode_exact::<Msg>(&stale).unwrap_err();
            assert!(
                matches!(&err, DmvError::Codec(m) if m.contains("unknown message tag")),
                "{err}"
            );
        }
    }

    #[test]
    fn batch_overhead_is_one_tag_and_one_count() {
        // A batch spends one tag byte and one 4-byte count no matter how
        // many write-sets it carries; the per-commit savings (frame
        // headers, send syscalls, per-target ack round-trips) live in
        // the transport and ack tiers, not in the payload encoding.
        let a = sample_writeset(1, 7);
        let b = sample_writeset(2, 9);
        let batch = Msg::WriteSetBatch(Arc::new(WriteSetBatch {
            sets: vec![Arc::new(a.clone()), Arc::new(b.clone())],
        }));
        assert_eq!(batch.encoded_len(), 1 + 4 + a.encoded_len() + b.encoded_len());
    }

    #[test]
    fn wrong_page_image_size_rejected() {
        // The type holds only whole pages, so the 16-byte image a faulty
        // peer might send is made by patching an encoded batch: its
        // length field says 16 and 16 image bytes follow.
        let page = PageId::heap(TableId(0), 0);
        let good = PageBatch { pages: vec![(page, 1, Arc::new([0u8; PAGE_SIZE]))], done: false };
        let mut bytes = good.encode();
        assert!(decode_exact::<PageBatch>(&bytes).is_ok());
        let len_at = 4 + page.encoded_len() + 8;
        bytes[len_at..len_at + 4].copy_from_slice(&16u32.to_le_bytes());
        bytes.truncate(len_at + 4 + 16);
        bytes.push(0);
        assert!(matches!(decode_exact::<PageBatch>(&bytes), Err(DmvError::Codec(_))));
    }

    #[test]
    fn truncated_message_never_panics() {
        let full = Msg::WriteSet(Arc::new(sample_writeset(3, 5))).encode();
        for cut in 0..full.len() {
            assert!(decode_exact::<Msg>(&full[..cut]).is_err(), "cut at {cut}");
        }
    }
}
