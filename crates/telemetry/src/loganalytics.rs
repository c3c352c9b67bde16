//! Synthetic LogAnalytics text streams (paper §VI-A, Listing 3).
//!
//! Unstructured log lines carrying per-tenant analytics-job statistics —
//! tenant name, job running time (ms), CPU and memory utilisation — mixed
//! with non-matching noise lines. The default rate follows the paper's
//! derivation from \[11\]: 10s of PB/day over 200 K nodes ⇒ 0.62 MB/s
//! (4.96 Mbps) per node, scaled 10× for experiments.

use std::ops::Range;
use std::sync::Arc;

use bytes::Bytes;
use rand::Rng;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::{Deserialize, Serialize};
use streamkit::batch::{layout, Batch, Column, StrDict, StreamDict};
use streamkit::record::Record;
use streamkit::schema::{DataType, Field, Schema, SchemaRef};
use streamkit::time::Ts;

use crate::anomaly::AnomalySchedule;

/// The patterns from Listing 3.
pub const LOG_PATTERNS: [&str; 4] = ["tenant name", "job running time", "cpu util", "memory util"];

/// Stat names embedded in matching lines.
pub const STAT_NAMES: [&str; 3] = ["job running time", "cpu util", "memory util"];

/// Single-column schema holding the raw line.
pub fn log_schema() -> SchemaRef {
    Schema::new(vec![Field::new("line", DataType::Str)])
}

/// Post-parse schema of the LogAnalytics stream — what `ParseJobStats`
/// produces from the raw lines: `(tenant, stat_name, stat)`.
pub fn structured_log_schema() -> SchemaRef {
    Schema::new(vec![
        Field::new("tenant", DataType::Str),
        Field::new("stat_name", DataType::Str),
        Field::new("stat", DataType::F64),
    ])
}

/// Appends `v` in decimal, as `{v}` formats it.
fn push_decimal(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[at..]);
}

/// Appends `v` as `{v:.1}` formats it: the exact binary value rounded to one
/// decimal place, ties to even. Non-negative values below 10^15 are
/// rounded in integer arithmetic; any other goes through `write!`.
fn push_one_decimal(out: &mut Vec<u8>, v: f64) {
    if !(v.is_sign_positive() && v < 1e15) {
        use std::io::Write;
        write!(out, "{v:.1}").expect("writing to a Vec cannot fail");
        return;
    }
    // v = mantissa * 2^-shift exactly, with shift >= 3 below 10^15 < 2^50.
    let bits = v.to_bits();
    let exponent = (bits >> 52) as i64;
    let (mantissa, shift) = match exponent {
        0 => (bits, 1074),
        _ => (bits & ((1 << 52) - 1) | (1 << 52), 1075 - exponent),
    };
    // Tenths: mantissa * 10 / 2^shift, rounded half to even.
    let tenths = u128::from(mantissa) * 10;
    let shift = shift.min(127) as u32;
    let mut q = (tenths >> shift) as u64;
    let rest = tenths & ((1 << shift) - 1);
    let half = 1 << (shift - 1);
    if rest > half || (rest == half && q % 2 == 1) {
        q += 1;
    }
    push_decimal(out, q / 10);
    out.push(b'.');
    out.push(b'0' + (q % 10) as u8);
}

/// Generator configuration.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogConfig {
    /// Data rate in bytes/second before scaling (paper: 0.62 MB/s).
    pub bytes_per_sec: f64,
    /// Rate scaling (paper uses 10×).
    pub scale: f64,
    /// Fraction of lines that match the Listing 3 patterns (the paper notes a
    /// *low filter-out rate*, so most lines match).
    pub match_rate: f64,
    /// Number of distinct tenants.
    pub tenants: u32,
    /// Error/traffic-burst schedule: active windows multiply the line rate.
    pub bursts: AnomalySchedule,
    /// RNG seed.
    pub seed: u64,
    /// Keep the structured stream's dictionaries across epochs (persistent
    /// per-stream dictionaries: codes stable across batches and epochs,
    /// dictionary pages ship as deltas). Off reproduces the historical
    /// per-epoch rebuild, which the `dict_epoch` bench and parity tests
    /// compare against.
    pub persistent_dicts: bool,
}

impl Default for LogConfig {
    fn default() -> Self {
        LogConfig {
            bytes_per_sec: 0.62 * 1024.0 * 1024.0,
            scale: 1.0,
            match_rate: 0.75,
            tenants: 200,
            bursts: AnomalySchedule::none(),
            seed: 0xF00D,
            persistent_dicts: true,
        }
    }
}

impl LogConfig {
    /// Effective data rate in bits/second (before bursts).
    pub fn bits_per_sec(&self) -> f64 {
        self.bytes_per_sec * self.scale * 8.0
    }
}

/// Deterministic log-line generator.
#[derive(Debug, Clone)]
pub struct LogGenerator {
    cfg: LogConfig,
    rng: ChaCha8Rng,
    carry_bytes: f64,
    seq: u64,
    /// Persistent structured-stream dictionaries (tenant names, stat
    /// names), held across `generate_structured_epoch_batch` calls so codes
    /// are stable identity for the whole stream.
    tenant_dict: StreamDict,
    stat_dict: StreamDict,
    /// tenant id → persistent tenant-dict code (`u32::MAX` = not interned).
    tenant_code: Vec<u32>,
}

impl LogGenerator {
    /// Creates a generator.
    pub fn new(cfg: LogConfig) -> LogGenerator {
        let rng = ChaCha8Rng::seed_from_u64(cfg.seed);
        let mut stat_dict = StreamDict::new();
        for stat in STAT_NAMES {
            stat_dict.intern(stat);
        }
        let tenant_code = vec![u32::MAX; cfg.tenants as usize];
        LogGenerator {
            cfg,
            rng,
            carry_bytes: 0.0,
            seq: 0,
            tenant_dict: StreamDict::new(),
            stat_dict,
            tenant_code,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &LogConfig {
        &self.cfg
    }

    /// Appends one matching line to `data` and returns its parsed parts:
    /// `(tenant id, stat index, the value's byte range in data)`. The value
    /// is written to one decimal place, and parsing those bytes gives what
    /// a downstream parse of the line recovers, so structured epochs
    /// correspond exactly to parsing the raw stream.
    fn push_matching_line(&mut self, data: &mut Vec<u8>) -> (u32, usize, Range<usize>) {
        let tenant = self.rng.gen_range(0..self.cfg.tenants);
        let stat_idx = (self.seq % STAT_NAMES.len() as u64) as usize;
        let stat = STAT_NAMES[stat_idx];
        let value: f64 = match stat {
            "job running time" => self.rng.gen_range(20.0..30_000.0),
            _ => self.rng.gen_range(0.0..100.0),
        };
        // level=INFO job={seq} tenant name=tenant-{tenant}, {stat}={value:.1}, host=h{seq % 97}
        data.extend_from_slice(b"level=INFO job=");
        push_decimal(data, self.seq);
        data.extend_from_slice(b" tenant name=tenant-");
        push_decimal(data, u64::from(tenant));
        data.extend_from_slice(b", ");
        data.extend_from_slice(stat.as_bytes());
        data.push(b'=');
        let shown = data.len();
        push_one_decimal(data, value);
        let shown = shown..data.len();
        data.extend_from_slice(b", host=h");
        push_decimal(data, self.seq % 97);
        (tenant, stat_idx, shown)
    }

    /// Appends one noise line to `data`.
    fn push_noise_line(&self, data: &mut Vec<u8>) {
        const KINDS: [&str; 3] = ["heartbeat ok", "gc pause", "scheduler tick"];
        // level=DEBUG {kind} node=n{seq % 131} seq={seq}
        data.extend_from_slice(b"level=DEBUG ");
        data.extend_from_slice(KINDS[(self.seq % 3) as usize].as_bytes());
        data.extend_from_slice(b" node=n");
        push_decimal(data, self.seq % 131);
        data.extend_from_slice(b" seq=");
        push_decimal(data, self.seq);
    }

    /// Drives one epoch's byte budget, appending every line that fits to
    /// `data` and then calling `emit(timestamp, data, parts)`, where `parts`
    /// are a matching line's [`LogGenerator::push_matching_line`] parts. A
    /// line the budget refuses is truncated away. The single source of the
    /// rate model (burst fold, byte budget, carry, even timestamp spread)
    /// behind both the raw and the structured epoch generators — they must
    /// stay in lockstep or the structured stream stops corresponding to
    /// parsing the raw one.
    fn drive_epoch(
        &mut self,
        epoch_start: Ts,
        epoch_secs: f64,
        data: &mut Vec<u8>,
        mut emit: impl FnMut(Ts, &mut Vec<u8>, Option<(u32, usize, Range<usize>)>),
    ) {
        let t_s = epoch_start as f64 / 1e6;
        let burst = self
            .cfg
            .bursts
            .windows
            .iter()
            .filter(|w| w.active_at(t_s))
            .map(|w| w.severity)
            .fold(1.0_f64, f64::max);
        let mut budget =
            self.cfg.bytes_per_sec * self.cfg.scale * burst * epoch_secs + self.carry_bytes;
        // Lines average ~90 B; emit until the byte budget for the epoch runs
        // out, spreading timestamps evenly by bytes emitted.
        let total_budget = budget;
        let per_row_envelope = layout::row_envelope(&log_schema());
        while budget > 0.0 {
            let start = data.len();
            let parts = if self.rng.gen_bool(self.cfg.match_rate) {
                Some(self.push_matching_line(data))
            } else {
                self.push_noise_line(data);
                None
            };
            self.seq += 1;
            let frac = 1.0 - budget / total_budget;
            let ts = epoch_start + (frac * epoch_secs * 1e6) as Ts;
            let size = (per_row_envelope + layout::str_bytes(data.len() - start)) as f64;
            if size > budget {
                // Not enough budget left for this line: carry the remainder.
                self.carry_bytes = budget;
                // Undo: the line is dropped, not carried (rates stay exact in
                // expectation; line boundaries never split).
                data.truncate(start);
                break;
            }
            budget -= size;
            emit(ts, data, parts);
        }
        if budget <= 0.0 {
            self.carry_bytes = 0.0;
        }
    }

    /// [`LogGenerator::drive_epoch`] for the post-parse shape: calls
    /// `emit(timestamp, tenant id, stat index, value)` for every matching
    /// line, the value parsed from the bytes the line carries. Noise lines
    /// consume budget but emit nothing.
    fn drive_structured_epoch(
        &mut self,
        epoch_start: Ts,
        epoch_secs: f64,
        mut emit: impl FnMut(Ts, u32, usize, f64),
    ) {
        let mut line = Vec::new();
        self.drive_epoch(epoch_start, epoch_secs, &mut line, |ts, line, parts| {
            if let Some((tenant, stat_idx, shown)) = parts {
                let value = std::str::from_utf8(&line[shown])
                    .ok()
                    .and_then(|shown| shown.parse().ok())
                    .expect("a formatted value parses");
                emit(ts, tenant, stat_idx, value);
            }
            line.clear();
        });
    }

    /// Generates one epoch of log lines starting at `epoch_start` (µs),
    /// directly in columnar form (one string column, bytes appended in
    /// place).
    pub fn generate_epoch_batch(&mut self, epoch_start: Ts, epoch_secs: f64) -> Batch {
        let mut timestamps = Vec::new();
        let mut offsets: Vec<u32> = vec![0];
        let mut data: Vec<u8> = Vec::new();
        self.drive_epoch(epoch_start, epoch_secs, &mut data, |ts, data, _| {
            timestamps.push(ts);
            offsets.push(data.len() as u32);
        });
        Batch {
            schema: log_schema(),
            timestamps,
            columns: vec![Column::Str {
                offsets,
                data: Bytes::from(data),
            }],
        }
    }

    /// Row-oriented view of [`LogGenerator::generate_epoch_batch`].
    pub fn generate_epoch(&mut self, epoch_start: Ts, epoch_secs: f64) -> Vec<Record> {
        self.generate_epoch_batch(epoch_start, epoch_secs)
            .to_records()
    }

    /// Generates one epoch directly in the post-parse shape
    /// ([`structured_log_schema`]): the matching lines of the same raw
    /// stream (identical RNG draws and byte budget — noise lines consume
    /// budget but emit nothing), with the low-cardinality string fields
    /// emitted as native dictionary columns. No strings are parsed and no
    /// per-row tenant strings are allocated; this is the workload for the
    /// group-aggregate fast path.
    pub fn generate_structured_epoch_batch(&mut self, epoch_start: Ts, epoch_secs: f64) -> Batch {
        if self.cfg.persistent_dicts {
            return self.structured_epoch_persistent(epoch_start, epoch_secs);
        }
        let mut timestamps = Vec::new();
        let mut tenant_dict = StrDict::new();
        let mut tenant_code: Vec<u32> = vec![u32::MAX; self.cfg.tenants as usize];
        let mut tenant_codes: Vec<u32> = Vec::new();
        let mut stat_codes: Vec<u32> = Vec::new();
        let mut stats: Vec<f64> = Vec::new();
        self.drive_structured_epoch(epoch_start, epoch_secs, |ts, tenant, stat_idx, value| {
            let code = tenant_code[tenant as usize];
            let code = if code == u32::MAX {
                let c = tenant_dict.push(&format!("tenant-{tenant}"));
                tenant_code[tenant as usize] = c;
                c
            } else {
                code
            };
            timestamps.push(ts);
            tenant_codes.push(code);
            stat_codes.push(stat_idx as u32);
            stats.push(value);
        });
        Batch {
            schema: structured_log_schema(),
            timestamps,
            columns: vec![
                Column::Dict {
                    codes: tenant_codes,
                    dict: Arc::new(tenant_dict),
                },
                Column::Dict {
                    codes: stat_codes,
                    dict: Arc::new(StrDict::from_entries(STAT_NAMES)),
                },
                Column::F64(stats),
            ],
        }
    }

    /// Persistent-dict variant of the structured epoch: the tenant and stat
    /// dictionaries live in the generator, so codes never change meaning
    /// across epochs and each column's page is a monotone snapshot of one
    /// stream dictionary. Stat codes equal the `STAT_NAMES` index (interned
    /// at construction); tenant codes are first-sight interning order —
    /// exactly what the per-epoch rebuild produces within one epoch, so row
    /// *contents* are identical either way.
    fn structured_epoch_persistent(&mut self, epoch_start: Ts, epoch_secs: f64) -> Batch {
        let mut timestamps = Vec::new();
        let mut tenant_dict = std::mem::take(&mut self.tenant_dict);
        let mut tenant_code = std::mem::take(&mut self.tenant_code);
        tenant_code.resize(self.cfg.tenants as usize, u32::MAX);
        let mut tenant_codes: Vec<u32> = Vec::new();
        let mut stat_codes: Vec<u32> = Vec::new();
        let mut stats: Vec<f64> = Vec::new();
        self.drive_structured_epoch(epoch_start, epoch_secs, |ts, tenant, stat_idx, value| {
            let code = tenant_code[tenant as usize];
            let code = if code == u32::MAX {
                let c = tenant_dict.intern(&format!("tenant-{tenant}"));
                tenant_code[tenant as usize] = c;
                c
            } else {
                code
            };
            timestamps.push(ts);
            tenant_codes.push(code);
            stat_codes.push(stat_idx as u32);
            stats.push(value);
        });
        let batch = Batch {
            schema: structured_log_schema(),
            timestamps,
            columns: vec![
                Column::Dict {
                    codes: tenant_codes,
                    dict: tenant_dict.snapshot(),
                },
                Column::Dict {
                    codes: stat_codes,
                    dict: self.stat_dict.snapshot(),
                },
                Column::F64(stats),
            ],
        };
        self.tenant_dict = tenant_dict;
        self.tenant_code = tenant_code;
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use streamkit::record::wire_size_of;

    #[test]
    fn rate_matches_paper_arithmetic() {
        let cfg = LogConfig::default();
        let mbps = cfg.bits_per_sec() / (1 << 20) as f64;
        assert!((mbps - 4.96).abs() < 0.01, "mbps={mbps}");
    }

    #[test]
    fn epoch_bytes_track_configured_rate() {
        let cfg = LogConfig {
            scale: 10.0,
            ..Default::default()
        };
        let target = cfg.bytes_per_sec * cfg.scale;
        let mut g = LogGenerator::new(cfg);
        let schema = log_schema();
        let mut total = 0usize;
        for e in 0..20 {
            total += wire_size_of(&g.generate_epoch(e * 1_000_000, 1.0), &schema);
        }
        let per_epoch = total as f64 / 20.0;
        assert!(
            (per_epoch - target).abs() / target < 0.02,
            "per_epoch={per_epoch} target={target}"
        );
    }

    #[test]
    fn match_rate_is_respected() {
        let mut g = LogGenerator::new(LogConfig::default());
        let recs = g.generate_epoch(0, 1.0);
        let matching = recs
            .iter()
            .filter(|r| {
                let line = r.values[0].as_str().unwrap();
                LOG_PATTERNS.iter().any(|p| line.contains(p))
            })
            .count();
        let rate = matching as f64 / recs.len() as f64;
        assert!((rate - 0.75).abs() < 0.03, "rate={rate}");
    }

    #[test]
    fn matching_lines_parse_into_job_stats() {
        use streamkit::ops::MapFn;
        let mut g = LogGenerator::new(LogConfig::default());
        let recs = g.generate_epoch(0, 0.1);
        let parse = MapFn::ParseJobStats {
            col: 0,
            stats: STAT_NAMES
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
        };
        let lower = MapFn::TrimLower(0);
        let mut parsed = 0;
        for r in &recs {
            let normalised = lower.apply(r).unwrap();
            if let Some(out) = parse.apply(&normalised) {
                parsed += 1;
                assert!(out.values[0].as_str().unwrap().starts_with("tenant-"));
                assert!(out.values[2].as_f64().is_some());
            }
        }
        assert!(parsed > 0, "at least some lines must parse");
    }

    #[test]
    fn structured_epoch_matches_parsing_the_raw_stream() {
        use streamkit::batch::Column;
        use streamkit::ops::MapFn;
        use streamkit::value::Value;

        // Same config and seed: the structured generator must produce
        // exactly the rows ParseJobStats recovers from the raw lines.
        let mut raw_gen = LogGenerator::new(LogConfig::default());
        let mut structured_gen = LogGenerator::new(LogConfig::default());
        let parse = MapFn::ParseJobStats {
            col: 0,
            stats: STAT_NAMES
                .iter()
                .map(std::string::ToString::to_string)
                .collect(),
        };
        for epoch in 0..3 {
            let start = epoch * 1_000_000;
            let raw = raw_gen.generate_epoch(start, 1.0);
            let parsed: Vec<Record> = raw.iter().filter_map(|r| parse.apply(r)).collect();
            let structured = structured_gen.generate_structured_epoch_batch(start, 1.0);
            assert!(
                matches!(structured.columns[0], Column::Dict { .. })
                    && matches!(structured.columns[1], Column::Dict { .. }),
                "string key fields must be native dict columns"
            );
            assert_eq!(structured.to_records(), parsed, "epoch {epoch}");
            assert!(structured
                .to_records()
                .iter()
                .all(|r| matches!(r.values[2], Value::F64(_))));
        }
    }

    #[test]
    fn persistent_structured_dicts_share_identity_across_epochs() {
        let mut g = LogGenerator::new(LogConfig::default());
        let b0 = g.generate_structured_epoch_batch(0, 1.0);
        let b1 = g.generate_structured_epoch_batch(1_000_000, 1.0);
        let Column::Dict { dict: d0, .. } = &b0.columns[0] else {
            panic!("tenant column must be dict");
        };
        let Column::Dict { dict: d1, .. } = &b1.columns[0] else {
            panic!("tenant column must be dict");
        };
        assert_ne!(d0.id(), 0, "persistent dicts carry a stream id");
        assert_eq!(d0.id(), d1.id(), "same stream across epochs");
        assert!(d1.len() >= d0.len(), "append-only growth");
        for (i, e) in d0.iter().enumerate() {
            assert_eq!(e, d1.get(i as u32), "codes never remapped");
        }

        // The historical per-epoch rebuild stays available and produces
        // identical row contents (it only loses cross-epoch identity).
        let mut rebuilt = LogGenerator::new(LogConfig {
            persistent_dicts: false,
            ..Default::default()
        });
        let c0 = rebuilt.generate_structured_epoch_batch(0, 1.0);
        let Column::Dict { dict, .. } = &c0.columns[0] else {
            panic!("tenant column must be dict");
        };
        assert_eq!(dict.id(), 0, "rebuild mode is batch-local");
        assert_eq!(c0.to_records(), b0.to_records());
    }

    #[test]
    fn bursts_scale_the_rate() {
        let cfg = LogConfig {
            bursts: AnomalySchedule::single(0.0, 10.0, 1.0, 3.0),
            ..Default::default()
        };
        let quiet_cfg = LogConfig::default();
        let mut bursty = LogGenerator::new(cfg);
        let mut quiet = LogGenerator::new(quiet_cfg);
        let b = bursty.generate_epoch(0, 1.0).len();
        let q = quiet.generate_epoch(0, 1.0).len();
        assert!(b as f64 > 2.5 * q as f64, "burst {b} vs quiet {q}");
    }

    #[test]
    fn generation_is_deterministic() {
        let mk = || LogGenerator::new(LogConfig::default()).generate_epoch(0, 0.5);
        assert_eq!(mk(), mk());
    }

    /// FNV-1a over every row's timestamp and line bytes, `epochs` 1 s epochs.
    fn raw_fingerprint(cfg: LogConfig, epochs: i64) -> (usize, u64) {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        let mut rows = 0;
        let mut g = LogGenerator::new(cfg);
        for e in 0..epochs {
            let batch = g.generate_epoch_batch(e * 1_000_000, 1.0);
            let Column::Str { offsets, data } = &batch.columns[0] else {
                panic!("raw lines are a string column");
            };
            for (row, ts) in batch.timestamps.iter().enumerate() {
                fold(&ts.to_le_bytes());
                fold(&data[offsets[row] as usize..offsets[row + 1] as usize]);
                fold(b"\n");
            }
            rows += batch.len();
        }
        (rows, h)
    }

    #[test]
    fn raw_lines_keep_their_pinned_bytes() {
        // Read when every line was built by `format!`: the byte writer must
        // reproduce those lines exactly — `job=`, `host=`, `node=` and `seq=`
        // digits included, which the query's results never see.
        const PINNED: [(f64, u64, usize, u64); 6] = [
            (1.0, 17, 26289, 0xf551_5748_6c61_8db6),
            (1.0, 289, 26347, 0x18d3_5b81_2a84_32dd),
            (1.0, 4913, 26350, 0x1816_9b2e_b647_7e51),
            (5.0, 17, 130_604, 0x3548_8935_fdda_8fdd),
            (5.0, 289, 130_735, 0x7398_4b6d_7409_6943),
            (5.0, 4913, 130_728, 0xd2ff_8046_f577_7f03),
        ];
        for (scale, seed, rows, fnv) in PINNED {
            let cfg = LogConfig {
                scale,
                seed,
                ..Default::default()
            };
            assert_eq!(
                raw_fingerprint(cfg, 3),
                (rows, fnv),
                "scale {scale}, seed {seed}"
            );
        }
    }

    #[test]
    fn digit_writers_match_format() {
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        let mut values: Vec<f64> = (0..200_000)
            .map(|i| match i % 3 {
                0 => rng.gen_range(20.0..30_000.0),
                1 => rng.gen_range(0.0..100.0),
                _ => f64::from_bits(rand::RngCore::next_u64(&mut rng) >> 1),
            })
            .collect();
        // Exact ties (x.x5 is never exact in binary; x.25 and x.75 are).
        values.extend((0..140_000).map(|k| f64::from(k) / 4.0));
        values.extend([
            0.0,
            -0.0,
            0.05,
            0.95,
            99.95,
            29_999.95,
            f64::MIN_POSITIVE,
            5e-324,
            1e15 - 0.25,
            1e15,
            -2.25,
            f64::MAX,
            f64::INFINITY,
            f64::NAN,
        ]);
        let mut out = Vec::new();
        for v in values {
            out.clear();
            push_one_decimal(&mut out, v);
            assert_eq!(out, format!("{v:.1}").into_bytes(), "{v:e}");
        }
        for v in [0, 9, 10, 99, 100, 12_345, u64::from(u32::MAX), u64::MAX] {
            out.clear();
            push_decimal(&mut out, v);
            assert_eq!(out, v.to_string().into_bytes());
        }
    }
}
