//! Codec robustness properties (wire tier): every wire type round-trips
//! through encode/decode, `encoded_len` is exact byte-for-byte, and the
//! decoder is total — random bytes, truncations and trailing garbage
//! all surface as `DmvError::Codec`, never a panic.

use dmv_common::ids::{NodeId, PageId, PageSpace, TableId, TxnId};
use dmv_common::version::VersionVector;
use dmv_common::wire::{decode_exact, Wire};
use dmv_core::messages::{Msg, PageBatch, WriteSet, WriteSetBatch};
use dmv_pagestore::diff::{DiffRun, PageDiff};
use dmv_pagestore::PAGE_SIZE;
use proptest::prelude::*;
use std::sync::Arc;

/// Encode → decode must reproduce the value, and the byte count must
/// match `encoded_len` exactly (the simnet charge and the TCP frame
/// payload are the same bytes).
fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: &T) {
    let bytes = v.encode();
    assert_eq!(bytes.len(), v.encoded_len(), "encoded_len drift for {v:?}");
    assert_eq!(&decode_exact::<T>(&bytes).unwrap(), v);
    // One trailing byte must be rejected, not silently ignored.
    let mut longer = bytes;
    longer.push(0);
    assert!(decode_exact::<T>(&longer).is_err(), "trailing byte accepted for {v:?}");
}

fn arb_space() -> impl Strategy<Value = PageSpace> {
    prop_oneof![Just(PageSpace::Heap), any::<u8>().prop_map(PageSpace::Index)]
}

fn arb_page_id() -> impl Strategy<Value = PageId> {
    (any::<u16>(), arb_space(), any::<u32>()).prop_map(|(t, space, page_no)| PageId {
        table: TableId(t),
        space,
        page_no,
    })
}

fn arb_txn_id() -> impl Strategy<Value = TxnId> {
    (any::<u32>(), any::<u64>()).prop_map(|(node, seq)| TxnId::new(NodeId(node), seq))
}

fn arb_version_vector() -> impl Strategy<Value = VersionVector> {
    proptest::collection::vec(any::<u64>(), 0..6).prop_map(VersionVector::from_entries)
}

fn arb_diff() -> impl Strategy<Value = PageDiff> {
    proptest::collection::vec((0usize..PAGE_SIZE, 1usize..32, any::<u8>()), 0..6).prop_map(|runs| {
        let runs = runs
            .into_iter()
            .map(|(offset, len, fill)| DiffRun {
                offset: offset as u16,
                bytes: vec![fill; len.min(PAGE_SIZE - offset)],
            })
            .collect();
        PageDiff::from_runs(runs).expect("runs clamped to page bounds")
    })
}

fn arb_write_set() -> impl Strategy<Value = WriteSet> {
    (
        arb_txn_id(),
        any::<u64>(),
        arb_version_vector(),
        proptest::collection::vec((arb_page_id(), arb_diff()), 0..4),
    )
        .prop_map(|(txn, seq, versions, pages)| WriteSet { txn, seq, versions, pages })
}

fn arb_write_set_batch() -> impl Strategy<Value = WriteSetBatch> {
    proptest::collection::vec(arb_write_set().prop_map(Arc::new), 0..4)
        .prop_map(|sets| WriteSetBatch { sets })
}

fn arb_image() -> impl Strategy<Value = Vec<u8>> {
    (any::<u8>(), any::<u8>()).prop_map(|(fill, first)| {
        let mut img = vec![fill; PAGE_SIZE];
        img[0] = first;
        img
    })
}

fn arb_page_batch() -> impl Strategy<Value = PageBatch> {
    (proptest::collection::vec((arb_page_id(), any::<u64>(), arb_image()), 0..3), any::<bool>())
        .prop_map(|(pages, done)| PageBatch { pages, done })
}

/// Every [`Msg`] variant, with arbitrary contents.
fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        arb_write_set().prop_map(|ws| Msg::WriteSet(Arc::new(ws))),
        arb_write_set_batch().prop_map(|b| Msg::WriteSetBatch(Arc::new(b))),
        any::<u64>().prop_map(|seq| Msg::CumAck { seq }),
        arb_page_batch().prop_map(Msg::PageBatch),
        proptest::collection::vec(arb_page_id(), 0..8).prop_map(|pages| Msg::PageIdHint { pages }),
    ]
}

/// Two version vectors over the same table set (merge/compare are only
/// defined for equal lengths).
fn arb_vv_pair() -> impl Strategy<Value = (VersionVector, VersionVector)> {
    (0usize..6).prop_flat_map(|n| {
        (
            proptest::collection::vec(any::<u64>(), n).prop_map(VersionVector::from_entries),
            proptest::collection::vec(any::<u64>(), n).prop_map(VersionVector::from_entries),
        )
    })
}

fn arb_vv_triple() -> impl Strategy<Value = (VersionVector, VersionVector, VersionVector)> {
    (0usize..6).prop_flat_map(|n| {
        let vv =
            || proptest::collection::vec(any::<u64>(), n).prop_map(VersionVector::from_entries);
        (vv(), vv(), vv())
    })
}

proptest! {
    #[test]
    fn msg_roundtrips_with_exact_len(msg in arb_msg()) {
        roundtrip(&msg);
    }

    // The version-vector lattice properties every consistency argument
    // rests on: the scheduler's "latest" is a running merge of commit
    // vectors, and read tags compare via `dominates`. Merge must be a
    // commutative, monotone least upper bound or tagged reads could be
    // routed to slaves that miss some of the commits the tag implies.

    #[test]
    fn vv_merge_is_commutative_and_dominates_both((a, b) in arb_vv_pair()) {
        let m = a.merged(&b);
        prop_assert_eq!(&m, &b.merged(&a));
        prop_assert!(m.dominates(&a) && m.dominates(&b));
        // Least upper bound: nothing strictly smaller also dominates both.
        prop_assert_eq!(&a.merged(&a), &a, "merge is idempotent");
    }

    #[test]
    fn vv_merge_is_monotone_and_associative((a, b, c) in arb_vv_triple()) {
        prop_assert_eq!(&a.merged(&b).merged(&c), &a.merged(&b.merged(&c)));
        if a.dominates(&b) {
            prop_assert!(
                a.merged(&c).dominates(&b.merged(&c)),
                "merging the same vector must preserve dominance"
            );
        }
        // Least-upper-bound minimality: any common upper bound of a and
        // b dominates their merge.
        let ub = a.merged(&b).merged(&c);
        prop_assert!(ub.dominates(&a.merged(&b)));
    }

    #[test]
    fn vv_dominance_is_a_partial_order((a, b) in arb_vv_pair()) {
        prop_assert!(a.dominates(&a), "reflexive");
        if a.dominates(&b) && b.dominates(&a) {
            prop_assert_eq!(&a, &b, "antisymmetric");
        }
        if a.strictly_dominates(&b) {
            prop_assert!(a.dominates(&b) && a != b);
        }
    }

    #[test]
    fn component_types_roundtrip(
        ws in arb_write_set(),
        wsb in arb_write_set_batch(),
        batch in arb_page_batch(),
        diff in arb_diff(),
        vv in arb_version_vector(),
        (page, txn) in (arb_page_id(), arb_txn_id()),
    ) {
        roundtrip(&ws);
        roundtrip(&wsb);
        roundtrip(&batch);
        roundtrip(&diff);
        roundtrip(&vv);
        roundtrip(&page);
        roundtrip(&txn);
    }

    #[test]
    fn random_bytes_never_panic_the_decoder(bytes in proptest::collection::vec(any::<u8>(), 0..300)) {
        let _ = decode_exact::<Msg>(&bytes);
        let _ = decode_exact::<WriteSet>(&bytes);
        let _ = decode_exact::<WriteSetBatch>(&bytes);
        let _ = decode_exact::<PageBatch>(&bytes);
        let _ = decode_exact::<VersionVector>(&bytes);
        let _ = decode_exact::<PageDiff>(&bytes);
    }

    #[test]
    fn truncation_is_always_an_error(msg in arb_msg(), cut in any::<usize>()) {
        let full = msg.encode();
        // A strict prefix can never be a complete message: all sequence
        // lengths are declared up front, so a missing tail is detected.
        let cut = cut % full.len();
        prop_assert!(decode_exact::<Msg>(&full[..cut]).is_err(), "cut at {}", cut);
    }

    #[test]
    fn corrupted_tag_never_decodes_to_the_original(msg in arb_msg(), flip in any::<u8>()) {
        let mut bytes = msg.encode();
        let flip = flip | 0x80; // tags are < 16, so this always changes the tag
        bytes[0] ^= flip;
        match decode_exact::<Msg>(&bytes) {
            // Unknown tag: rejected.
            Err(_) => {}
            // A different known tag may parse by coincidence, but must
            // not reproduce the original message.
            Ok(other) => prop_assert!(other != msg, "corrupt tag decoded to the original"),
        }
    }
}
