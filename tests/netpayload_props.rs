//! Property tests for the multi-node SP transport: the `NetPayload` shard
//! variants' wire codec (encode ∘ decode = id, including dictionary pages
//! and `Opt` validity), and the hash ring's shard → node assignment (total,
//! contiguous, and node-count-independent for keys).

use proptest::prelude::*;

use jarvis::core::engine::netwire::{decode_shard_payload, encode_shard_payload};
use jarvis::core::engine::NetPayload;
use jarvis::streamkit::agg::AggState;
use jarvis::streamkit::batch::Batch;
use jarvis::streamkit::ops::{GroupKey, GroupPartialEntry, StatePartial};
use jarvis::streamkit::record::Record;
use jarvis::streamkit::schema::{DataType, Field, Schema, SchemaRef};
use jarvis::streamkit::shard::{node_of_shard, shards_of_node};
use jarvis::streamkit::value::Value;

mod common;
use common::key_value;

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

/// A timestamp column to lay over the rows, or
/// `None` to keep the rows' own unsorted small timestamps. `kind` picks a
/// sorted run from `base` by `steps` (each a magnitude class, then bits:
/// zero, under 128, under 2^20 or any `u64`, saturating at `i64::MAX`),
/// the same run rotated by `seed` and maybe reversed (out of order, same
/// values), or the step bits themselves as values over the whole `i64`
/// range.
fn timestamp_column(kind: u8, base: i64, steps: &[(u8, u64)], seed: u64) -> Option<Vec<i64>> {
    let sorted = || -> Vec<i64> {
        steps
            .iter()
            .scan(base, |t, &(class, bits)| {
                let now = *t;
                let step = match class {
                    0 => 0,
                    1 => bits % 128,
                    2 => bits % (1 << 20),
                    _ => bits,
                };
                *t = t.saturating_add_unsigned(step);
                Some(now)
            })
            .collect()
    };
    match kind {
        0 => None,
        1 => Some(sorted()),
        2 => {
            let mut ts = sorted();
            let at = (seed % ts.len() as u64) as usize;
            ts.rotate_left(at);
            if seed & 1 == 1 {
                ts.reverse();
            }
            Some(ts)
        }
        _ => Some(steps.iter().map(|&(_, bits)| bits as i64).collect()),
    }
}

proptest! {
    /// ShardBatch payloads survive the wire byte-identically — plain string
    /// columns, dictionary pages, null validity, and timestamps sorted (a
    /// delta page when that is shorter) or not (frame of reference) alike.
    #[test]
    fn shard_batch_wire_round_trips(
        rows in proptest::collection::vec(row_strategy(), 0..80),
        ts_kind in 0u8..4,
        ts_base in any::<i64>(),
        ts_steps in proptest::collection::vec((0u8..4, any::<u64>()), 1..80),
        ts_seed in any::<u64>(),
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
        if let Some(mut ts) = timestamp_column(ts_kind, ts_base, &ts_steps, ts_seed) {
            // Fit the column to the rows, repeating its last value (a zero
            // step) rather than breaking a sorted run.
            let last = ts[ts.len() - 1];
            ts.resize(batch.len(), last);
            batch.timestamps = ts;
        }
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
                key: GroupKey::from_values(&[Value::str(format!("k{key}")), Value::U64(*key)]),
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

    /// Keys of every value kind — nulls, both bools, integer extremes,
    /// signed zeros, infinities, NaN payloads, empty, multi-byte and long
    /// strings, keys inline and boxed — cross the wire byte for byte,
    /// however the kinds fall into runs.
    #[test]
    fn state_keys_of_every_kind_cross_the_wire(
        keys in proptest::collection::vec(
            proptest::collection::vec((0u8..8, any::<u64>(), 0usize..40), 0..4),
            1..30,
        ),
    ) {
        let entries: Vec<GroupPartialEntry> = keys
            .iter()
            .enumerate()
            .map(|(i, draws)| GroupPartialEntry {
                window_start: i as i64 % 3,
                key: GroupKey::from_values(
                    &draws.iter().map(|&(k, b, l)| key_value(k, b, l)).collect::<Vec<_>>(),
                ),
                states: vec![AggState::Count(i as u64), AggState::Max(i as f64)],
            })
            .collect();
        let payload = NetPayload::ShardState {
            shard: 1,
            epoch: 2,
            source: 3,
            rel: 0,
            delta: StatePartial::Group(entries),
        };
        let back = decode_shard_payload(encode_shard_payload(&payload), &[schema()]).unwrap();
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

// ---- state body size on the paper's queries ----

use jarvis::streamkit::logical::LogicalPlan;
use jarvis::streamkit::ops::AggRole;
use jarvis::streamkit::physical::{build_pipeline, CostProfile};
use jarvis::streamkit::shard::Ring;
use jarvis::telemetry::loganalytics::{LogConfig, LogGenerator};
use jarvis::telemetry::pingmesh::{PingmeshConfig, PingmeshGenerator};
use jarvis::telemetry::queries;

/// Bytes per entry of the partial state that `plan`'s source-side G+R
/// builds over one generator epoch, shipped to a ring of `shards` as
/// `ShardState` frames (envelopes included), as a Jarvis source ships it.
fn state_bytes_per_entry(plan: &LogicalPlan, epoch: Batch, shards: usize) -> f64 {
    let (boundary, keys) = plan.shard_boundary().expect("the query has a G+R");
    let mut ops =
        build_pipeline(plan, &CostProfile::default(), AggRole::Partial).expect("valid plan");
    ops.truncate(boundary + 1);
    let mut batches = vec![epoch];
    for op in &mut ops {
        let mut next = Vec::new();
        for b in batches {
            op.process_batch(b, &mut next);
        }
        batches = next;
    }
    let delta = ops[boundary]
        .take_state_delta()
        .expect("the partial G+R holds state");
    let entries = delta.entry_count();
    assert!(entries > 100, "{entries} entries");
    let bytes: usize = Ring::new(shards, keys)
        .split_state(delta)
        .into_iter()
        .map(|(shard, delta)| {
            let payload = NetPayload::ShardState {
                shard: shard as u32,
                epoch: 0,
                source: 0,
                rel: 0,
                delta,
            };
            let wire = encode_shard_payload(&payload);
            assert_eq!(
                decode_shard_payload(wire.clone(), &[schema()]).unwrap(),
                payload
            );
            wire.len()
        })
        .sum();
    bytes as f64 / entries as f64
}

/// Columnar state bodies stay narrow on the two queries whose sources ship
/// partials: the per-value format spent 65 B an S2S entry and 55 B a
/// LogAnalytics one, and raw float pages 28 B an S2S entry. The rings are the repo benchmark's: 4 shards for the
/// S2S TCP workload, 2 for the LogAnalytics one. Every frame carries its
/// own dictionary pages, so the string-keyed LogAnalytics cost grows with
/// the shard count.
#[test]
fn source_partials_ship_narrow_state_bodies() {
    let mut pingmesh = PingmeshGenerator::new(PingmeshConfig {
        seed: 17,
        ..Default::default()
    });
    let s2s = state_bytes_per_entry(
        &queries::s2s_probe(),
        pingmesh.generate_epoch_batch(0, 1.0),
        4,
    );
    assert!(s2s <= 12.0, "S2S state: {s2s:.2} B/entry");
    let mut logs = LogGenerator::new(LogConfig {
        seed: 17,
        ..Default::default()
    });
    let log = state_bytes_per_entry(
        &queries::log_analytics(),
        logs.generate_epoch_batch(0, 1.0),
        2,
    );
    assert!(log <= 8.0, "LogAnalytics state: {log:.2} B/entry");
}

// ---- integral float pages ----
//
// An `F64` page whose every value survives `x as i64 as f64` bit for bit
// ships as an integer page, flagged in bit 1 of the column's presence byte;
// every other page is the raw 8-byte bits. The contract: every float comes
// back bit for bit, an integer page is never larger than the raw page, a
// page with any other value is byte for byte the raw page, and a flag the
// format does not define is a typed error.

use jarvis::streamkit::encode::{
    decode_batch, decode_group_state, encode_batch, encode_group_state,
};

/// One float of the corpus, picked by `kind` and built from raw `bits` or
/// a fraction `frac`: signed zero, infinities, the edges of exact integers
/// and of `i64`, NaNs with payloads and subnormals (either sign), integers
/// anywhere, and fractions. Kinds 3–7, 10 and 11 are integers.
fn corpus_value(kind: u8, bits: u64, frac: f64) -> f64 {
    match kind {
        0 => -0.0,
        1 => f64::INFINITY,
        2 => f64::NEG_INFINITY,
        3 => ((1i64 << 53) - 1) as f64,
        4 => ((1i64 << 53) + 1) as f64,
        5 => 2f64.powi(63),
        6 => -(2f64.powi(63)),
        7 => i64::MAX as f64,
        8 => f64::from_bits(bits | 0x7FF0_0000_0000_0001),
        9 => f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF | 1),
        10 => (bits as i64 % 1000) as f64,
        11 => bits as i64 as f64,
        _ => frac,
    }
}

/// Raw draws for one page: narrow or not, a base, narrow offsets and
/// corpus picks.
type PageDraws = (bool, i32, Vec<i64>, Vec<(u8, u64, f64)>);

fn page_draws() -> impl Strategy<Value = PageDraws> {
    (
        any::<bool>(),
        any::<i32>(),
        proptest::collection::vec(0i64..300, 0..64),
        proptest::collection::vec((0u8..13, any::<u64>(), -1e6f64..1e6), 0..64),
    )
}

/// A page of floats: integers within 300 of a random base, or corpus picks.
fn page((narrow, base, offsets, picks): &PageDraws) -> Vec<f64> {
    if *narrow {
        offsets
            .iter()
            .map(|o| (i64::from(*base) + o) as f64)
            .collect()
    } else {
        picks
            .iter()
            .map(|&(k, b, f)| corpus_value(k, b, f))
            .collect()
    }
}

fn is_integral(x: f64) -> bool {
    (x as i64 as f64).to_bits() == x.to_bits()
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|x| x.to_bits()).collect()
}

/// A batch of one `F64` column over `values`, with validity when given.
fn float_batch(values: &[f64], valid: Option<Vec<bool>>) -> Batch {
    let col = Column::F64(values.to_vec());
    Batch {
        schema: Schema::new(vec![Field::new("x", DataType::F64)]),
        timestamps: (0..values.len() as i64).collect(),
        columns: vec![match valid {
            Some(valid) => Column::Opt {
                valid,
                values: Box::new(col),
            },
            None => col,
        }],
    }
}

/// Encoded length of `batch`'s header and timestamp page: the encoding of
/// the same rows with no columns.
fn head_len(batch: &Batch) -> usize {
    encode_batch(&Batch {
        schema: Schema::new(vec![]),
        timestamps: batch.timestamps.clone(),
        columns: vec![],
    })
    .len()
}

/// One state entry carrying four floats: `Sum`, `Min`, `Max` and `Avg`'s sum.
fn float_entry(i: u64, x: [f64; 4]) -> GroupPartialEntry {
    GroupPartialEntry {
        window_start: 0,
        key: GroupKey::from_values(&[Value::U64(i)]),
        states: vec![
            AggState::Sum(x[0]),
            AggState::Min(x[1]),
            AggState::Max(x[2]),
            AggState::Avg {
                sum: x[3],
                count: i,
            },
        ],
    }
}

fn state_float_bits(entries: &[GroupPartialEntry]) -> Vec<u64> {
    entries
        .iter()
        .flat_map(|e| &e.states)
        .map(|s| match s {
            AggState::Sum(x) | AggState::Min(x) | AggState::Max(x) => x.to_bits(),
            AggState::Avg { sum, .. } => sum.to_bits(),
            other => panic!("unexpected state {other:?}"),
        })
        .collect()
}

/// A float column over `values` (with validity when given) comes back bit
/// for bit; its page is never larger than the raw page, and is the raw page
/// itself when any value is one the integer page cannot carry.
fn check_float_page(values: &[f64], valid: Option<Vec<bool>>) {
    let batch = float_batch(values, valid.clone());
    let wire = encode_batch(&batch);
    let back = decode_batch(batch.schema.clone(), wire.clone()).unwrap();
    let (back_valid, back_values) = match &back.columns[0] {
        Column::Opt { valid, values } => (Some(valid.clone()), values.as_ref()),
        dense => (None, dense),
    };
    assert_eq!(back_valid, valid);
    let Column::F64(back_values) = back_values else {
        panic!("an F64 column decodes as F64, got {back_values:?}");
    };
    assert_eq!(bits(back_values), bits(values), "{values:?}");

    let mut raw = wire[..head_len(&batch)].to_vec();
    raw.push(u8::from(valid.is_some()));
    raw.extend(valid.iter().flatten().map(|&v| u8::from(v)));
    raw.extend(values.iter().flat_map(|x| x.to_le_bytes()));
    assert!(
        wire.len() <= raw.len(),
        "{} B over the raw {} B",
        wire.len(),
        raw.len()
    );
    if !values.iter().all(|&x| is_integral(x)) {
        assert_eq!(&wire[..], &raw[..], "{values:?}");
    }
}

proptest! {
    /// Dense and `Opt` float pages, as drawn and with one value swapped
    /// for each kind of the corpus in turn.
    #[test]
    fn float_pages_round_trip_bit_exactly(
        draws in page_draws(),
        nulls in proptest::collection::vec(any::<bool>(), 64..65),
        with_validity in any::<bool>(),
        swap in (any::<u64>(), -1e6f64..1e6),
    ) {
        let values = page(&draws);
        let valid = with_validity.then(|| nulls[..values.len()].to_vec());
        check_float_page(&values, valid.clone());
        if !values.is_empty() {
            let at = draws.1.unsigned_abs() as usize % values.len();
            for kind in 0..13 {
                let mut swapped = values.clone();
                swapped[at] = corpus_value(kind, swap.0, swap.1);
                check_float_page(&swapped, valid.clone());
            }
        }
    }

    /// State runs carry their float components bit for bit.
    #[test]
    fn float_state_components_round_trip_bit_exactly(
        draws in (page_draws(), page_draws(), page_draws(), page_draws()),
    ) {
        let columns = [page(&draws.0), page(&draws.1), page(&draws.2), page(&draws.3)];
        let n = columns.iter().map(Vec::len).min().unwrap_or(0);
        let entries: Vec<GroupPartialEntry> = (0..n)
            .map(|i| float_entry(i as u64, [0, 1, 2, 3].map(|c| columns[c][i])))
            .collect();
        let back = decode_group_state(encode_group_state(&entries)).unwrap();
        prop_assert_eq!(format!("{back:?}"), format!("{entries:?}"));
        prop_assert_eq!(state_float_bits(&back), state_float_bits(&entries));
    }
}

/// A flag bit the format does not define, and the integer-page bit on any
/// column but `F64`, are typed errors.
#[test]
fn undefined_column_flags_are_typed_errors() {
    let schema = |dtype| Schema::new(vec![Field::new("c", dtype)]);
    let cases = [
        (DataType::Bool, Value::Bool(true), Value::Bool(false)),
        (DataType::I64, Value::I64(-2), Value::I64(3)),
        (DataType::U64, Value::U64(2), Value::U64(3)),
        (DataType::Str, Value::str("a"), Value::str("b")),
        (DataType::F64, Value::F64(2.0), Value::F64(3.0)),
        (DataType::F64, Value::F64(0.5), Value::F64(3.0)),
    ];
    for (dtype, a, b) in cases {
        let recs = [
            Record::new(0, vec![a]),
            Record::new(1, vec![b]),
            Record::new(2, vec![Value::Null]),
        ];
        for recs in [&recs[..2], &recs[..]] {
            let batch = Batch::from_records(schema(dtype), recs).unwrap();
            let wire = encode_batch(&batch);
            let at = head_len(&batch);
            assert_eq!(decode_batch(schema(dtype), wire.clone()).unwrap(), batch);
            let flags = wire[at];
            let mut forged = Vec::new();
            for bit in 2..8 {
                forged.push(flags | 1 << bit);
            }
            if dtype != DataType::F64 {
                forged.push(flags | 2);
            }
            for bad in forged {
                let mut raw = wire.to_vec();
                raw[at] = bad;
                let got = decode_batch(schema(dtype), raw.into());
                assert!(
                    matches!(&got, Err(Error::Decode(m)) if m.contains("column flags")),
                    "{dtype:?} with flags {bad:#04x}: {got:?}"
                );
            }
        }
    }
}
