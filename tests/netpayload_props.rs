//! Property tests for the multi-node SP transport: the `NetPayload` shard
//! variants' wire codec (encode ∘ decode = id, including dictionary pages
//! and `Opt` validity), and the hash ring's shard → node assignment (total,
//! contiguous, and node-count-independent for keys).

use proptest::prelude::*;

use jarvis::core::engine::netwire::{decode_shard_payload, encode_shard_payload};
use jarvis::core::engine::NetPayload;
use jarvis::streamkit::agg::AggState;
use jarvis::streamkit::batch::Batch;
use jarvis::streamkit::ops::{GroupPartialEntry, StatePartial};
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema, SchemaRef};
use jarvis::streamkit::shard::{node_of_shard, shards_of_node};
use jarvis::streamkit::value::Value;

fn schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("tenant", DataType::Str),
        Field::new("bucket", DataType::I64),
        Field::new("load", DataType::F64),
    ])
}

/// Rows over a deliberately small tenant pool so `dict_encode` has dense
/// pages to build, with nulls (tenant code 5 / `load_null`) to exercise
/// `Opt` validity.
fn row_strategy() -> impl Strategy<Value = (i64, u8, i64, f64, bool)> {
    (
        0i64..10_000,
        0u8..6,
        -50i64..50,
        -1e6f64..1e6,
        any::<bool>(),
    )
}

proptest! {
    /// ShardBatch payloads survive the wire byte-identically — plain string
    /// columns, dictionary pages, and null validity alike.
    #[test]
    fn shard_batch_wire_round_trips(
        rows in proptest::collection::vec(row_strategy(), 0..80),
        dict in any::<bool>(),
        shard in 0u32..64,
        epoch in 0u64..1000,
        source in 0u32..8,
    ) {
        let recs: Vec<Record> = rows
            .iter()
            .map(|(ts, tenant, bucket, load, load_null)| {
                Record::new(*ts, vec![
                    if *tenant == 5 {
                        Value::Null
                    } else {
                        Value::str(format!("tenant-{tenant}"))
                    },
                    Value::I64(*bucket),
                    if *load_null { Value::Null } else { Value::F64(*load) },
                ])
            })
            .collect();
        let mut batch = Batch::from_records(schema(), &recs).unwrap();
        if dict {
            let _ = batch.dict_encode(16);
        }
        let payload = NetPayload::ShardBatch { shard, epoch, source, rel: 0, batch };
        let wire = encode_shard_payload(&payload);
        let back = decode_shard_payload(wire.clone(), &[schema()]).unwrap();
        prop_assert_eq!(back, payload);
        // Wire-reachable bytes never panic the decoder: the envelope's
        // length field refuses every truncation, and a corrupted byte
        // anywhere is a typed error or some other well-formed payload.
        for cut in 0..wire.len() {
            prop_assert!(decode_shard_payload(wire.slice(0..cut), &[schema()]).is_err());
        }
        for at in 0..wire.len() {
            let mut raw = wire.to_vec();
            raw[at] ^= 0xFF;
            if let Ok(NetPayload::ShardBatch { batch, .. }) =
                decode_shard_payload(raw.into(), &[schema()])
            {
                prop_assert!(batch.columns.iter().all(|c| c.len() == batch.len()));
            }
        }
    }

    /// ShardState payloads (split `StatePartial`s) survive the wire.
    #[test]
    fn shard_state_wire_round_trips(
        entries in proptest::collection::vec(
            (0i64..100, 0u64..50, -1e3f64..1e3, 1u64..1000), 0..40),
        shard in 0u32..64,
        epoch in 0u64..1000,
    ) {
        let entries: Vec<GroupPartialEntry> = entries
            .iter()
            .map(|(win, key, sum, count)| GroupPartialEntry {
                window_start: win * 10_000_000,
                key: vec![Value::str(format!("k{key}")), Value::U64(*key)],
                states: vec![
                    AggState::Count(*count),
                    AggState::Sum(*sum),
                    AggState::Avg { sum: *sum, count: *count },
                ],
            })
            .collect();
        let payload = NetPayload::ShardState {
            shard,
            epoch,
            source: 0,
            rel: 0,
            delta: StatePartial::Group(entries),
        };
        let wire = encode_shard_payload(&payload);
        let back = decode_shard_payload(wire, &[schema()]).unwrap();
        prop_assert_eq!(back, payload);
    }

    /// The ring assignment is total: for every node count, every shard is
    /// owned by exactly one node, `node_of_shard` inverts `shards_of_node`,
    /// and slices are contiguous with sizes differing by at most one.
    #[test]
    fn node_assignment_is_total_and_stable(n_shards in 1usize..=64) {
        for n_nodes in 1usize..=8 {
            let n_nodes = n_nodes.min(n_shards);
            let mut owner = vec![usize::MAX; n_shards];
            let mut prev_end = 0usize;
            for node in 0..n_nodes {
                let slice = shards_of_node(node, n_shards, n_nodes);
                prop_assert_eq!(slice.start, prev_end, "slices must be contiguous");
                prev_end = slice.end;
                for s in slice {
                    prop_assert_eq!(owner[s], usize::MAX, "shard owned twice");
                    owner[s] = node;
                }
            }
            prop_assert_eq!(prev_end, n_shards, "slices must cover the ring");
            for (s, &node) in owner.iter().enumerate() {
                prop_assert_eq!(node_of_shard(s, n_shards, n_nodes), node);
            }
            let sizes: Vec<usize> = (0..n_nodes)
                .map(|n| shards_of_node(n, n_shards, n_nodes).len())
                .collect();
            let (min, max) = (sizes.iter().min().unwrap(), sizes.iter().max().unwrap());
            prop_assert!(max - min <= 1, "slices must be balanced: {:?}", sizes);
            prop_assert!(*min >= 1, "no node may own an empty slice");
        }
    }
}

// ---- transport frame hardening (PR 6) ----
//
// The TCP transport wraps these same `netwire` envelopes in a framed
// header (magic, protocol version, length, CRC32 of the body). Corruption
// anywhere must surface as a typed error — or, where a bit-flip happens to
// produce another *valid* frame (e.g. the kind byte flipping to a
// different legal tag), at least never as the original frame.

use jarvis::core::engine::transport::{
    decode_frame, encode_frame, FrameKind, FrameReader, TransportError, HEADER_LEN,
};

/// All twelve legal wire tags (the `kind_tag in 1u8..=12` draws below).
fn kind_of(tag: u8) -> FrameKind {
    FrameKind::from_u8(tag).expect("legal tag range")
}

proptest! {
    /// encode ∘ decode = id for every kind and body, and the consumed count
    /// is exact.
    #[test]
    fn frames_round_trip(
        kind_tag in 1u8..=12,
        body in proptest::collection::vec(any::<u8>(), 0..512),
    ) {
        let kind = kind_of(kind_tag);
        let frame = encode_frame(kind, &body);
        prop_assert_eq!(frame.len(), HEADER_LEN + body.len());
        let (k, b, consumed) = decode_frame(&frame).unwrap();
        prop_assert_eq!(k, kind);
        prop_assert_eq!(&b[..], &body[..]);
        prop_assert_eq!(consumed, frame.len());
    }

    /// A single bit-flip in the header never yields the original frame:
    /// magic, version, kind, and length corruption each produce a typed
    /// error (or a detectably different frame, when the flip lands on a
    /// field value that is still legal).
    #[test]
    fn corrupt_headers_never_pass_as_the_original(
        kind_tag in 1u8..=12,
        body in proptest::collection::vec(any::<u8>(), 0..256),
        byte in 0usize..HEADER_LEN,
        bit in 0u8..8,
    ) {
        let kind = kind_of(kind_tag);
        let frame = encode_frame(kind, &body);
        let mut corrupt = frame.to_vec();
        corrupt[byte] ^= 1 << bit;
        match decode_frame(&corrupt) {
            // Every header field is covered by a typed error...
            Err(
                TransportError::BadMagic { .. }
                | TransportError::VersionMismatch { .. }
                | TransportError::BadKind { .. }
                | TransportError::CrcMismatch { .. }
                | TransportError::Truncated { .. }
                | TransportError::Oversized { .. },
            ) => {}
            Err(other) => prop_assert!(false, "unexpected error {other:?}"),
            // ...except a kind-byte flip onto another legal tag (the CRC
            // covers the body only): then the decoded frame must differ.
            Ok((k, b, _)) => {
                prop_assert!(
                    k != kind || b[..] != body[..],
                    "corrupted header decoded as the original frame"
                );
            }
        }
    }

    /// Any single bit-flip in the body is caught by the CRC.
    #[test]
    fn corrupt_bodies_fail_the_crc(
        kind_tag in 1u8..=12,
        body in proptest::collection::vec(any::<u8>(), 1..256),
        flip in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let kind = kind_of(kind_tag);
        let frame = encode_frame(kind, &body);
        let mut corrupt = frame.to_vec();
        let at = HEADER_LEN + flip % body.len();
        corrupt[at] ^= 1 << bit;
        prop_assert!(matches!(
            decode_frame(&corrupt),
            Err(TransportError::CrcMismatch { .. })
        ));
    }

    /// A stream cut mid-frame is a `Truncated` error, never a short frame;
    /// a stream cut exactly on a frame boundary is a clean close. Frames
    /// before the cut still decode.
    #[test]
    fn truncated_streams_are_detected(
        bodies in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..64), 1..6),
        cut_frac in 0.0f64..1.0,
    ) {
        let mut stream = Vec::new();
        let mut boundaries = vec![0usize];
        for body in &bodies {
            stream.extend_from_slice(&encode_frame(FrameKind::Shard, body));
            boundaries.push(stream.len());
        }
        let cut = (stream.len() as f64 * cut_frac) as usize;
        let mut reader = FrameReader::new(&stream[..cut]);
        let mut frames = Vec::new();
        let err = loop {
            match reader.read_frame() {
                Ok(frame) => frames.push(frame),
                Err(e) => break e,
            }
        };
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        prop_assert_eq!(frames.len(), whole, "whole frames before the cut decode");
        for (i, (kind, body)) in frames.iter().enumerate() {
            prop_assert_eq!(*kind, FrameKind::Shard);
            prop_assert_eq!(&body[..], &bodies[i][..]);
        }
        if boundaries.contains(&cut) {
            prop_assert!(
                matches!(err, TransportError::Closed),
                "a cut on a frame boundary is a clean close, got {:?}", err
            );
        } else {
            prop_assert!(
                matches!(err, TransportError::Truncated { .. }),
                "a mid-frame cut must be Truncated, got {:?}", err
            );
        }
    }

    /// A frame from a future protocol version is a `VersionMismatch`.
    #[test]
    fn future_versions_are_rejected(
        body in proptest::collection::vec(any::<u8>(), 0..64),
        bump in 1u16..100,
    ) {
        let frame = encode_frame(FrameKind::Shard, &body);
        let mut next = frame.to_vec();
        let v = (u16::from_le_bytes([next[4], next[5]]) + bump).to_le_bytes();
        next[4] = v[0];
        next[5] = v[1];
        prop_assert!(matches!(
            decode_frame(&next),
            Err(TransportError::VersionMismatch { .. })
        ));
    }
}

// ---- persistent dictionary deltas (PR 9) ----
//
// Cross-epoch dictionary pages ship as `DictDelta` tails against a
// receiver-side mirror. The contract: append-only growth reassembles
// bit-identically and never remaps a code, a delta applied out of order is
// a typed error (the mirror stays unpoisoned), and corruption anywhere in a
// delta-aware frame is a typed error or a detectably different payload —
// never the original frame with a silently wrong dictionary.

use jarvis::core::engine::netwire::{decode_shard_payload_with, encode_shard_payload_with};
use jarvis::streamkit::batch::{Column, DictRegistry, DictVersions, StreamDict};
use jarvis::streamkit::error::Error;

fn dict_schema() -> SchemaRef {
    Schema::new(vec![Field::new("tenant", DataType::Str)])
}

proptest! {
    /// Any entry stream, cut into arbitrary delta batches, reassembles on a
    /// mirror with the same version and entry-for-entry identical codes.
    #[test]
    fn dict_deltas_reassemble_append_only(
        entries in proptest::collection::vec("[a-z]{1,12}", 1..60),
        cuts in proptest::collection::vec(1usize..8, 1..12),
    ) {
        let mut source = StreamDict::new();
        let mut mirror = StreamDict::new();
        let mut pending = entries.iter();
        let sync = |source: &StreamDict, mirror: &mut StreamDict| {
            let delta = source.delta_since(mirror.version());
            assert_eq!(delta.base, mirror.version());
            mirror.apply_delta(&delta).expect("in-order deltas apply");
        };
        for cut in cuts {
            let before = source.version();
            for e in pending.by_ref().take(cut) {
                source.intern(e);
            }
            prop_assert!(source.version() >= before, "interning never shrinks");
            sync(&source, &mut mirror);
        }
        for e in pending {
            source.intern(e);
        }
        sync(&source, &mut mirror);
        prop_assert_eq!(mirror.version(), source.version());
        for code in 0..source.len() as u32 {
            prop_assert_eq!(mirror.get(code), source.get(code), "codes are never remapped");
        }
    }

    /// Skipping a delta (or replaying a stale one) is a version-mismatch
    /// error, and the mirror is left exactly where it was.
    #[test]
    fn out_of_order_deltas_are_rejected(
        first in proptest::collection::vec("[a-z]{1,8}", 1..10),
        second in proptest::collection::vec("[A-Z]{1,8}", 1..10),
    ) {
        let mut source = StreamDict::new();
        for e in &first {
            source.intern(e);
        }
        let d1 = source.delta_since(0);
        let base2 = source.version();
        for e in &second {
            source.intern(e);
        }
        // The [A-Z] pool is disjoint from the [a-z] first batch, so the
        // second batch always appends at least one novel entry.
        prop_assert!(source.version() > base2);
        let d2 = source.delta_since(base2);

        let mut mirror = StreamDict::new();
        prop_assert!(matches!(mirror.apply_delta(&d2), Err(Error::Decode(_))));
        prop_assert_eq!(mirror.version(), 0, "a rejected delta must not move the mirror");
        mirror.apply_delta(&d1).unwrap();
        prop_assert!(
            matches!(mirror.apply_delta(&d1), Err(Error::Decode(_))),
            "replaying a stale delta is a version mismatch, not a silent no-op"
        );
        prop_assert_eq!(mirror.version(), d1.entries.len() as u32);
        mirror.apply_delta(&d2).unwrap();
        prop_assert_eq!(mirror.version(), source.version());
    }

    /// A delta-aware ShardBatch frame round-trips through a registry, and
    /// any single bit-flip decodes to a typed error or a payload that
    /// differs from the original — never the original with a corrupt page.
    #[test]
    fn delta_frames_round_trip_and_corruption_is_detected(
        tenants in proptest::collection::vec(0u8..12, 1..40),
        corrupt_one in any::<bool>(),
        at in 0usize..100_000,
        bit in 0u8..8,
    ) {
        let mut stream = StreamDict::new();
        let codes: Vec<u32> = tenants
            .iter()
            .map(|t| stream.intern(&format!("tenant-{t}")))
            .collect();
        let batch = Batch {
            schema: dict_schema(),
            timestamps: (0..tenants.len() as i64).collect(),
            columns: vec![Column::Dict {
                codes,
                dict: stream.snapshot(),
            }],
        };
        let payload = NetPayload::ShardBatch {
            shard: 3,
            epoch: 1,
            source: 0,
            rel: 0,
            batch,
        };
        let mut link = DictVersions::new();
        let wire = encode_shard_payload_with(&payload, &mut link);

        let mut registry = DictRegistry::new();
        if corrupt_one {
            let mut corrupt = wire.to_vec();
            let at = at % corrupt.len();
            corrupt[at] ^= 1 << bit;
            match decode_shard_payload_with(corrupt.into(), &[dict_schema()], &mut registry) {
                Err(_) => {}
                Ok(back) => prop_assert!(
                    back != payload,
                    "a bit-flip at byte {} decoded as the original frame",
                    at
                ),
            }
        } else {
            let back = decode_shard_payload_with(wire, &[dict_schema()], &mut registry).unwrap();
            prop_assert_eq!(back, payload);
        }
    }
}
