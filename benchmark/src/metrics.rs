//! The metric tables — names, units, directions, bounds — and how each value
//! is derived from a driven session, its spans and the ladder's counts.
//! `BENCHMARK.json` repeats the tables; a unit test keeps the two equal.

use std::collections::BTreeMap;
use std::time::Instant;

use jarvis_lp::loadfactor::{solve_load_factors, LoadFactorProblem};

use crate::ladder::{Counts, RUNGS};
use crate::session::SessionRun;
use crate::stats::{median, percentile, slope};
use crate::trace::NameTotal;
use crate::workloads::{is_window_boundary, Workload, CHECKPOINT_INTERVAL, WARMUP_EPOCHS};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// How far a set median may move before two sets of runs disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Agreement {
    /// A timing or memory reading: medians within the bound.
    Within,
    /// A count made by the program: identical on every run of one seed.
    Exact,
}

/// One metric of the benchmark's contract.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the parent's median by which the metric may get worse
    /// (end-to-end metrics only).
    pub bound: f64,
    pub agreement: Agreement,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def {
        name,
        unit,
        better,
        bound,
        agreement: Agreement::Within,
    }
}

const fn count(name: &'static str, unit: &'static str, bound: f64) -> Def {
    Def {
        name,
        unit,
        better: Better::Lower,
        bound,
        agreement: Agreement::Exact,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better) -> Def {
    Def {
        name,
        unit,
        better,
        bound: 0.0,
        agreement: Agreement::Within,
    }
}

/// The seven end-to-end metrics, reported by every untraced run.
///
/// The timing bounds are what this host allows, not what one would wish for:
/// the same binary at the same seed runs up to a third slower for minutes at
/// a time (a neighbour on the shared core or cache; steal time stays near
/// zero), so ten back-to-back runs spread by 6-13 % whatever the run length.
/// See README.md, "Noise floor".
pub const END_TO_END: [Def; 7] = [
    e2e("rows_per_s", "rows/s", Better::Higher, 0.25),
    e2e("epoch_ms_p50", "ms", Better::Lower, 0.25),
    e2e("cpu_ns_per_row", "ns/row", Better::Lower, 0.25),
    // Counts repeat exactly at one seed; the bound only has to cover how
    // much they differ between seeds (most on the adaptive workload, whose
    // episodes depend on the generated lines).
    count("uplink_bytes_per_row", "B/row", 0.02),
    count("sp_wire_bytes_per_row", "B/row", 0.02),
    e2e("peak_rss_mb", "MiB", Better::Lower, 0.10),
    e2e("setup_s", "s", Better::Lower, 0.25),
];

use Better::{Higher, Lower};

/// The per-layer metrics, reported by every traced run. A metric of a layer
/// the workload never enters reads 0.
pub const PER_LAYER: [Def; 57] = [
    layer("telemetry.gen_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.window_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.filter_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.filter_selectivity", "ratio", Lower),
    layer("streamkit.ops.join_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.map_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.project_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.group_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.partial_group_ns_per_row", "ns/row", Lower),
    layer("streamkit.ops.group_entries_per_row", "entries/row", Lower),
    layer("streamkit.ops.merge_ns_per_entry", "ns/entry", Lower),
    layer("streamkit.ops.drain_ns_per_result_row", "ns/row", Lower),
    layer("streamkit.ops.small_batch_ratio", "ratio", Lower),
    layer("streamkit.ops.chain_rows_per_s", "rows/s", Higher),
    layer("streamkit.shard.ns_per_row", "ns/row", Lower),
    layer("streamkit.shard.skew", "ratio", Lower),
    layer("engine.netwire.batch_encode_ns_per_row", "ns/row", Lower),
    layer("engine.netwire.batch_decode_ns_per_row", "ns/row", Lower),
    layer("engine.netwire.batch_bytes_per_row", "B/row", Lower),
    layer(
        "engine.netwire.state_encode_ns_per_entry",
        "ns/entry",
        Lower,
    ),
    layer(
        "engine.netwire.state_decode_ns_per_entry",
        "ns/entry",
        Lower,
    ),
    layer("engine.netwire.state_bytes_per_entry", "B/entry", Lower),
    layer(
        "engine.netwire.dict_delta_bytes_per_epoch",
        "B/epoch",
        Lower,
    ),
    layer("rt.chan.hop_ns_per_msg", "ns/msg", Lower),
    layer("rt.chan.msgs_per_row", "msgs/row", Lower),
    layer("rt.spawn_ns_per_task", "ns/task", Lower),
    layer("engine.transport.frame_ns_per_kib", "ns/KiB", Lower),
    layer("engine.transport.tcp_mb_per_s", "MB/s", Higher),
    layer("live.session.new_ms", "ms", Lower),
    layer("live.session.warmup_s", "s", Lower),
    layer("live.session.epoch_ns_per_row", "ns/row", Lower),
    layer("live.session.epoch_ms_p90", "ms", Lower),
    layer("live.session.epoch_ms_max", "ms", Lower),
    layer("live.session.window_close_epoch_ms_p50", "ms", Lower),
    layer(
        "live.session.epoch_drift_ms_per_100_epochs",
        "ms/100epochs",
        Lower,
    ),
    layer("live.session.finish_ms", "ms", Lower),
    layer("live.session.cpu_per_wall", "ratio", Lower),
    layer("live.session.drained_rows_frac", "ratio", Lower),
    layer("live.session.results_rows", "rows", Lower),
    layer("live.session.rungs_ns_per_row", "ns/row", Lower),
    layer("live.session.overhead_ns_per_row", "ns/row", Lower),
    layer("live.session.traced_rows_per_s", "rows/s", Higher),
    layer("node.plain_epoch_ms_p50", "ms", Lower),
    layer("node.ckpt_epoch_ms_p50", "ms", Lower),
    layer("node.ckpt_growth_ms_per_100_epochs", "ms/100epochs", Lower),
    layer("runtime.adapt_epochs", "epochs", Lower),
    layer("runtime.episodes", "count", Lower),
    layer("runtime.load_factor_0", "ratio", Higher),
    layer("lp.solve_us", "us", Lower),
    layer("planner.spec_ms", "ms", Lower),
    layer("host.yardstick_ms", "ms", Lower),
    layer("host.yardstick_drift", "ratio", Lower),
    layer("trace.spans", "count", Lower),
    layer("trace.session_cpu_ns_per_row", "ns/row", Lower),
    layer("trace.ladder_rows", "rows", Higher),
    layer("trace.ladder_epochs", "epochs", Higher),
    layer("trace.epoch_samples", "count", Higher),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

fn is_checkpoint_epoch(epoch: u64) -> bool {
    (epoch + 1).is_multiple_of(CHECKPOINT_INTERVAL)
}

/// The end-to-end metrics of an untraced run.
pub fn end_to_end(run: &SessionRun) -> Values {
    let rows = run.measured_rows as f64;
    let total_rows = run.total_rows as f64;
    Values::from([
        ("rows_per_s", rows / run.measured_wall_s()),
        ("epoch_ms_p50", median(&run.epoch_ms)),
        ("cpu_ns_per_row", run.cpu_s * 1e9 / rows),
        ("uplink_bytes_per_row", run.drained_bytes / total_rows),
        (
            "sp_wire_bytes_per_row",
            run.node_wire_bytes as f64 / total_rows,
        ),
        ("peak_rss_mb", run.peak_rss_mib),
        ("setup_s", run.setup_median_s()),
    ])
}

/// Adaptation episodes that started after the warm-up: how many, and how
/// many epochs they lasted together.
pub fn episodes_after_warmup(episodes: &[(u64, u64)]) -> (u64, u64) {
    let after: Vec<_> = episodes
        .iter()
        .filter(|(trigger, _)| *trigger >= WARMUP_EPOCHS)
        .collect();
    let epochs = after.iter().map(|(t, s)| s.saturating_sub(*t)).sum();
    (after.len() as u64, epochs)
}

/// Per-row cost of the ladder's rungs: each rung's self time over the rows
/// that entered the ladder, i.e. its ns per unit weighted by the share of
/// input rows that reach it.
pub fn rungs_ns_per_row(totals: &BTreeMap<&'static str, NameTotal>, input_rows: u64) -> f64 {
    let ns: u64 = RUNGS
        .iter()
        .filter_map(|name| totals.get(name))
        .map(|t| t.self_ns)
        .sum();
    ns as f64 / input_rows.max(1) as f64
}

/// What the session costs per row beyond the ladder's rungs (topology
/// rebuild, scheduling, routing, copies). CPU rather than wall, so the
/// 2-worker workload is not under-counted.
pub fn overhead_ns_per_row(session_cpu_ns_per_row: f64, rungs_ns_per_row: f64) -> f64 {
    session_cpu_ns_per_row - rungs_ns_per_row
}

/// Mean microseconds of one `solve_load_factors` call on the profile the
/// session's runtime last measured.
fn lp_solve_us(run: &SessionRun) -> f64 {
    let Some(est) = &run.profile else {
        return 0.0;
    };
    let problem = LoadFactorProblem {
        relay: est.relay_bytes.clone(),
        cost_us: est.cost_us.clone(),
        records: est.records_per_epoch,
        budget_us: est.budget_us,
    };
    const SOLVES: u32 = 200;
    let t = Instant::now();
    for _ in 0..SOLVES {
        let _ = std::hint::black_box(solve_load_factors(std::hint::black_box(&problem)));
    }
    t.elapsed().as_secs_f64() * 1e6 / f64::from(SOLVES)
}

/// Everything the traced run measured besides the session itself.
pub struct Traced<'a> {
    pub totals: &'a BTreeMap<&'static str, NameTotal>,
    pub spans: usize,
    pub counts: &'a Counts,
    /// Rows per second of the single-threaded reference pass.
    pub chain_rows_per_s: f64,
    pub yardstick_before_ms: f64,
    pub yardstick_after_ms: f64,
}

/// The per-layer metrics of a traced run.
pub fn per_layer(w: &Workload, run: &SessionRun, traced: &Traced) -> Values {
    let total = |name: &str| traced.totals.get(name).copied().unwrap_or_default();
    let per = |name: &str| total(name).ns_per_count();
    let c = traced.counts;
    let rows = run.measured_rows as f64;
    let ladder_rows = c.input_rows.max(1) as f64;

    // Epoch populations: window-boundary epochs, checkpoint epochs (TCP) and
    // the plain rest.
    let epochs: Vec<(u64, f64)> = (WARMUP_EPOCHS..)
        .zip(run.epoch_ms.iter().copied())
        .collect();
    let boundary: Vec<f64> = epochs
        .iter()
        .filter(|(e, _)| is_window_boundary(*e))
        .map(|(_, ms)| *ms)
        .collect();
    let ckpt: Vec<(f64, f64)> = epochs
        .iter()
        .filter(|(e, _)| w.is_tcp() && is_checkpoint_epoch(*e))
        .map(|(e, ms)| (*e as f64, *ms))
        .collect();
    let plain: Vec<(f64, f64)> = epochs
        .iter()
        .filter(|(e, _)| !(is_window_boundary(*e) || w.is_tcp() && is_checkpoint_epoch(*e)))
        .map(|(e, ms)| (*e as f64, *ms))
        .collect();
    let xs = |v: &[(f64, f64)]| v.iter().map(|p| p.0).collect::<Vec<_>>();
    let ys = |v: &[(f64, f64)]| v.iter().map(|p| p.1).collect::<Vec<_>>();

    let session_cpu = run.cpu_s * 1e9 / rows;
    let rungs = rungs_ns_per_row(traced.totals, c.input_rows);
    let (episodes, adapt_epochs) = episodes_after_warmup(&run.episodes);
    let state_entries = total("engine.netwire.state_encode").count.max(1) as f64;
    let wire_rows = total("engine.netwire.batch_encode").count.max(1) as f64;
    let group_rows =
        total("streamkit.ops.group").count + total("streamkit.ops.partial_group").count;
    let frame = total("engine.transport.frame");
    let hop = total("engine.transport.tcp_hop");

    Values::from([
        ("telemetry.gen_ns_per_row", per("telemetry.gen")),
        (
            "streamkit.ops.window_ns_per_row",
            per("streamkit.ops.window"),
        ),
        (
            "streamkit.ops.filter_ns_per_row",
            per("streamkit.ops.filter"),
        ),
        (
            "streamkit.ops.filter_selectivity",
            c.filter_out as f64 / c.filter_in.max(1) as f64,
        ),
        ("streamkit.ops.join_ns_per_row", per("streamkit.ops.join")),
        ("streamkit.ops.map_ns_per_row", per("streamkit.ops.map")),
        (
            "streamkit.ops.project_ns_per_row",
            per("streamkit.ops.project"),
        ),
        ("streamkit.ops.group_ns_per_row", per("streamkit.ops.group")),
        (
            "streamkit.ops.partial_group_ns_per_row",
            per("streamkit.ops.partial_group"),
        ),
        (
            "streamkit.ops.group_entries_per_row",
            c.result_rows as f64 / group_rows.max(1) as f64,
        ),
        (
            "streamkit.ops.merge_ns_per_entry",
            per("streamkit.ops.merge"),
        ),
        (
            "streamkit.ops.drain_ns_per_result_row",
            per("streamkit.ops.drain"),
        ),
        ("streamkit.ops.small_batch_ratio", c.small_batch_ratio),
        ("streamkit.ops.chain_rows_per_s", traced.chain_rows_per_s),
        ("streamkit.shard.ns_per_row", per("streamkit.shard")),
        ("streamkit.shard.skew", c.shard_skew()),
        (
            "engine.netwire.batch_encode_ns_per_row",
            per("engine.netwire.batch_encode"),
        ),
        (
            "engine.netwire.batch_decode_ns_per_row",
            per("engine.netwire.batch_decode"),
        ),
        (
            "engine.netwire.batch_bytes_per_row",
            c.batch_wire_bytes as f64 / wire_rows,
        ),
        (
            "engine.netwire.state_encode_ns_per_entry",
            per("engine.netwire.state_encode"),
        ),
        (
            "engine.netwire.state_decode_ns_per_entry",
            per("engine.netwire.state_decode"),
        ),
        (
            "engine.netwire.state_bytes_per_entry",
            c.state_wire_bytes as f64 / state_entries,
        ),
        (
            "engine.netwire.dict_delta_bytes_per_epoch",
            c.dict_delta_bytes as f64 / c.epochs.max(1) as f64,
        ),
        ("rt.chan.hop_ns_per_msg", per("rt.chan.hop")),
        (
            "rt.chan.msgs_per_row",
            (c.source_msgs + c.node_msgs) as f64 / ladder_rows,
        ),
        ("rt.spawn_ns_per_task", per("rt.spawn")),
        (
            "engine.transport.frame_ns_per_kib",
            frame.ns_per_count() * 1024.0,
        ),
        (
            "engine.transport.tcp_mb_per_s",
            if hop.self_ns == 0 {
                0.0
            } else {
                hop.count as f64 * 1e3 / hop.self_ns as f64
            },
        ),
        ("live.session.new_ms", run.new_ms),
        ("live.session.warmup_s", run.warmup_s),
        (
            "live.session.epoch_ns_per_row",
            run.epoch_ms.iter().sum::<f64>() * 1e6 / rows,
        ),
        ("live.session.epoch_ms_p90", percentile(&run.epoch_ms, 90.0)),
        (
            "live.session.epoch_ms_max",
            percentile(&run.epoch_ms, 100.0),
        ),
        ("live.session.window_close_epoch_ms_p50", median(&boundary)),
        (
            "live.session.epoch_drift_ms_per_100_epochs",
            slope(&xs(&plain), &ys(&plain)) * 100.0,
        ),
        ("live.session.finish_ms", run.finish_ms),
        (
            "live.session.cpu_per_wall",
            run.cpu_s / run.measured_wall_s(),
        ),
        (
            "live.session.drained_rows_frac",
            run.drained_rows as f64 / run.total_rows as f64,
        ),
        ("live.session.results_rows", run.results.rows as f64),
        ("live.session.rungs_ns_per_row", rungs),
        (
            "live.session.overhead_ns_per_row",
            overhead_ns_per_row(session_cpu, rungs),
        ),
        (
            "live.session.traced_rows_per_s",
            rows / run.measured_wall_s(),
        ),
        (
            "node.plain_epoch_ms_p50",
            if w.is_tcp() { median(&ys(&plain)) } else { 0.0 },
        ),
        (
            "node.ckpt_epoch_ms_p50",
            if ckpt.is_empty() {
                0.0
            } else {
                median(&ys(&ckpt))
            },
        ),
        (
            "node.ckpt_growth_ms_per_100_epochs",
            slope(&xs(&ckpt), &ys(&ckpt)) * 100.0,
        ),
        ("runtime.adapt_epochs", adapt_epochs as f64),
        ("runtime.episodes", episodes as f64),
        (
            "runtime.load_factor_0",
            run.final_load_factors.first().copied().unwrap_or(0.0),
        ),
        ("lp.solve_us", lp_solve_us(run)),
        ("planner.spec_ms", run.spec_ms),
        ("host.yardstick_ms", traced.yardstick_before_ms),
        (
            "host.yardstick_drift",
            traced.yardstick_after_ms / traced.yardstick_before_ms,
        ),
        ("trace.spans", traced.spans as f64),
        ("trace.session_cpu_ns_per_row", session_cpu),
        ("trace.ladder_rows", c.input_rows as f64),
        ("trace.ladder_epochs", c.epochs as f64),
        ("trace.epoch_samples", run.epoch_ms.len() as f64),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn overhead_is_session_cpu_minus_row_weighted_rungs() {
        // A synthetic trace: 1000 input rows; the filter saw all of them at
        // 10 ns/row, the group-by only the 400 that survived at 50 ns/row,
        // and 20 state entries crossed the codec at 100 ns/entry.
        let t = |self_ns, count| NameTotal {
            self_ns,
            count,
            calls: 1,
        };
        let totals = BTreeMap::from([
            ("streamkit.ops.filter", t(10_000, 1000)),
            ("streamkit.ops.group", t(20_000, 400)),
            ("engine.netwire.state_encode", t(2_000, 20)),
            // Not a rung: must not be counted.
            ("live.session.run_epoch", t(9_999_999, 0)),
        ]);
        // 10·1.0 + 50·0.4 + 100·0.02 = 32 ns per input row.
        let rungs = rungs_ns_per_row(&totals, 1000);
        assert!((rungs - 32.0).abs() < 1e-9);
        // A session that spent 50 ns of CPU per row has 18 left over.
        let overhead = overhead_ns_per_row(50.0, rungs);
        assert!((overhead - 18.0).abs() < 1e-9);
        assert!(rungs <= 50.0 && overhead >= 0.0);
    }

    #[test]
    fn only_episodes_triggered_after_warmup_count() {
        let episodes = [(3, 5), (27, 29), (42, 45)];
        assert_eq!(episodes_after_warmup(&episodes), (2, 5));
        assert_eq!(episodes_after_warmup(&[]), (0, 0));
    }

    #[test]
    fn checkpoint_epochs_follow_the_interval() {
        let ckpt: Vec<u64> = (10..30).filter(|e| is_checkpoint_epoch(*e)).collect();
        assert_eq!(ckpt, vec![14, 19, 24, 29]);
    }

    /// Names, units, directions and bounds in `BENCHMARK.json` are the ones
    /// the code reports.
    #[test]
    fn benchmark_json_repeats_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let check = |key: &str, defs: &[Def], bounded: bool| {
            let listed = doc.get(key).unwrap().items();
            assert_eq!(listed.len(), defs.len(), "{key}");
            for (json, def) in listed.iter().zip(defs) {
                let field = |k: &str| json.get(k).unwrap();
                assert_eq!(field("name").as_str(), Some(def.name));
                assert_eq!(field("unit").as_str(), Some(def.unit), "{}", def.name);
                assert_eq!(field("better").as_str(), Some(def.better.label()));
                assert_eq!(json.get("bound").is_some(), bounded);
                if bounded {
                    assert_eq!(field("bound").as_f64(), Some(def.bound), "{}", def.name);
                }
            }
        };
        check("end_to_end", &END_TO_END, true);
        check("per_layer", &PER_LAYER, false);
        let workloads = doc.get("workloads").unwrap().items();
        for (json, w) in workloads.iter().zip(crate::workloads::ALL) {
            assert_eq!(json.get("name").unwrap().as_str(), Some(w.name));
            assert_eq!(json.get("why").unwrap().as_str(), Some(w.why));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'));
        }
        assert_eq!(workloads.len(), crate::workloads::ALL.len());
    }
}
