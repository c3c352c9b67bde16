//! `repro` — regenerates every table and figure of the Jarvis paper.
//!
//! ```text
//! repro <experiment> [--json]
//! repro all [--json]
//! repro plancheck [workload..] [--all] [--json] [--deny-warnings]
//! ```
//!
//! Experiments: fig3, fig7a, fig7b, fig7c, fig8a, fig8b, fig8c, fig9,
//! fig10a, fig10b, fig10c, fig11a, fig11b, fig11c, latency, opcount,
//! overhead, bench.
//!
//! `bench` is not a paper figure: it measures the str-keyed vs dict-keyed
//! group-aggregate kernels, the sharded SP runtime's 1/2/4-shard scaling,
//! the multi-node SP tier's 1/2/4-node scaling, the seeded fault-recovery
//! drill and the persistent-dictionary cross-epoch series (group-by
//! throughput vs per-epoch rebuild plus delta vs full-page wire bytes)
//! and the batch wire codec's encoded vs fixed-width bytes per boundary
//! chunk, and (with `--json`) writes `BENCH_throughput.json`, the
//! perf-trajectory artifact CI uploads. With
//! `--check` it additionally fails (exit 1) when a measured speedup
//! regresses more than 20% below the committed baseline, when the
//! fault-recovery drill fails to prove exact recovery, or when the wire
//! codec's byte counts differ from the committed ones.

use jarvis_bench::output::{f2, render_ascii_chart, render_table, write_json};
use jarvis_bench::*;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("plancheck") {
        std::process::exit(jarvis_bench::plancheck_cli::run_cli(&args[1..]));
    }
    let json = args.iter().any(|a| a == "--json");
    let check = args.iter().any(|a| a == "--check");
    let which: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(std::string::String::as_str)
        .collect();
    let which = if which.is_empty() { vec!["all"] } else { which };

    let all = [
        "fig3", "fig7a", "fig7b", "fig7c", "fig8a", "fig8b", "fig8c", "fig9", "fig10a", "fig10b",
        "fig10c", "fig11a", "fig11b", "fig11c", "latency", "opcount", "overhead",
    ];
    let selected: Vec<&str> = if which.contains(&"all") {
        all.to_vec()
    } else {
        which
    };

    for name in selected {
        let started = std::time::Instant::now();
        println!("==================================================================");
        match name {
            "fig3" => run_fig3(json),
            "fig7a" => run_fig7(fig7a(), "Fig 7(a) S2SProbe", json),
            "fig7b" => run_fig7(fig7b(), "Fig 7(b) T2TProbe (table 500)", json),
            "fig7c" => run_fig7(fig7c(), "Fig 7(c) LogAnalytics", json),
            "fig8a" => run_fig8(fig8a(), "Fig 8(a) S2SProbe 10%->90%->60%", json),
            "fig8b" => run_fig8(fig8b(), "Fig 8(b) T2TProbe 10%->100%, table x10", json),
            "fig8c" => run_fig8(fig8c(), "Fig 8(c) LogAnalytics 5%->30%->15%", json),
            "fig9" => run_fig9(json),
            "fig10a" => run_fig10(fig10a(), "Fig 10(a) 10x, 55% CPU", json),
            "fig10b" => run_fig10(fig10b(), "Fig 10(b) 5x, 30% CPU", json),
            "fig10c" => run_fig10(fig10c(), "Fig 10(c) 1x, 5% CPU", json),
            "fig11a" => run_fig11(fig11a(), "Fig 11(a) 10x", json),
            "fig11b" => run_fig11(fig11b(), "Fig 11(b) 5x", json),
            "fig11c" => run_fig11(fig11c(), "Fig 11(c) 1x", json),
            "latency" => run_latency(json),
            "opcount" => run_opcount(json),
            "overhead" => run_overhead(json),
            "bench" => run_bench(json, check),
            other => {
                eprintln!("unknown experiment: {other}");
                eprintln!("known: {}, bench", all.join(", "));
                std::process::exit(2);
            }
        }
        println!("[{name} took {:.1?}]", started.elapsed());
    }
}

fn run_fig3(json: bool) {
    let r = fig3();
    println!("Fig 3: operator-level vs data-level partitioning @ 80% CPU (S2SProbe 10x)");
    println!("  input rate                : {} Mbps", f2(r.input_mbps));
    println!(
        "  operator-level network    : {} Mbps (paper: 22.5)",
        f2(r.operator_level_mbps)
    );
    println!(
        "  data-level network        : {} Mbps (paper:  9.4)",
        f2(r.data_level_mbps)
    );
    println!(
        "    of which state/results  : {} Mbps (paper:  5.6)",
        f2(r.data_level_state_mbps)
    );
    println!(
        "  reduction                 : {}x (paper: 2.4x)",
        f2(r.reduction_factor)
    );
    println!("  Jarvis load factors       : {:?}", r.jarvis_load_factors);
    maybe_json(json, "fig3", &r);
}

fn run_fig7(r: Fig7Result, title: &str, json: bool) {
    println!(
        "{title}: throughput (Mbps) over CPU budgets; input = {} Mbps",
        f2(r.input_mbps)
    );
    let mut headers = vec!["CPU"];
    for s in &r.strategies {
        headers.push(s);
    }
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(cpu, tputs)| {
            let mut row = vec![format!("{:.0}%", cpu * 100.0)];
            row.extend(tputs.iter().map(|t| f2(*t)));
            row
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    let xs: Vec<String> = r
        .rows
        .iter()
        .map(|(cpu, _)| format!("{:.0}%", cpu * 100.0))
        .collect();
    let series: Vec<(&str, Vec<f64>)> = r
        .strategies
        .iter()
        .enumerate()
        .map(|(i, s)| (s.as_str(), r.rows.iter().map(|(_, t)| t[i]).collect()))
        .collect();
    print!("{}", render_ascii_chart("CPU", &xs, &series, 48));
    let name = format!("fig7_{}", r.query.to_lowercase());
    maybe_json(json, &name, &r);
}

fn run_fig8(r: Fig8Result, title: &str, json: bool) {
    println!("{title}: per-epoch runtime state");
    println!("  key: S=Stable D=Detect I=Idle P=Profile C=Congested");
    for (variant, series) in r.variants.iter().zip(&r.series) {
        println!("  {variant:<12} {}", compress_series(series));
    }
    for (variant, eps) in r.variants.iter().zip(&r.episodes) {
        let spans: Vec<String> = eps
            .iter()
            .map(|(a, b)| format!("{}->{} ({} epochs)", a, b, b - a))
            .collect();
        println!(
            "  {variant:<12} convergence episodes: {}",
            if spans.is_empty() {
                "none (did not stabilise)".to_string()
            } else {
                spans.join(", ")
            }
        );
    }
    let name = format!("fig8_{}", r.query.to_lowercase());
    maybe_json(json, &name, &r);
}

fn compress_series(series: &[String]) -> String {
    let short = |s: &str| match s {
        "Stable" => 'S',
        "Detect" => 'D',
        "Idle" => 'I',
        "Profile" => 'P',
        "Congested" => 'C',
        _ => '?',
    };
    series.iter().map(|s| short(s)).collect()
}

fn run_fig9(json: bool) {
    let r = fig9();
    println!("Fig 9(a): CDF of RTT-range estimation error (fraction of pairs <= err)");
    let mut headers = vec!["err (ms)".to_string()];
    headers.extend(r.rates.iter().map(|x| format!("rate {x}")));
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = r
        .thresholds_ms
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let mut row = vec![format!("{t}")];
            row.extend(r.cdf.iter().map(|series| f2(series[i])));
            row
        })
        .collect();
    print!("{}", render_table(&headers_ref, &rows));
    println!(
        "Fig 9(b): average network transfer per source (input = {} Mbps)",
        f2(r.input_mbps)
    );
    for (rate, mbps) in r.rates.iter().zip(&r.sampling_mbps) {
        println!("  sampling rate {rate}: {} Mbps", f2(*mbps));
    }
    println!("  Jarvis (100% CPU): {} Mbps", f2(r.jarvis_100_mbps));
    println!("  Jarvis (20% CPU) : {} Mbps", f2(r.jarvis_20_mbps));
    println!("  missed alerts by rate: {:?}", r.missed_alert_frac);
    maybe_json(json, "fig9", &r);
}

fn run_fig10(r: Fig10Result, title: &str, json: bool) {
    println!("{title}: aggregate throughput (Mbps) vs number of sources");
    let headers = ["sources", "Jarvis", "Best-OP", "Expected"];
    let rows: Vec<Vec<String>> = r
        .sources
        .iter()
        .enumerate()
        .map(|(i, n)| {
            vec![
                n.to_string(),
                f2(r.jarvis_mbps[i]),
                f2(r.best_op_mbps[i]),
                f2(r.expected_mbps[i]),
            ]
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    let xs: Vec<String> = r.sources.iter().map(u32::to_string).collect();
    let series: Vec<(&str, Vec<f64>)> = vec![
        ("Jarvis", r.jarvis_mbps.clone()),
        ("Best-OP", r.best_op_mbps.clone()),
        ("Expected", r.expected_mbps.clone()),
    ];
    print!("{}", render_ascii_chart("srcs", &xs, &series, 48));
    let name = format!("fig10_{}", r.scale.to_lowercase());
    maybe_json(json, &name, &r);
}

fn run_fig11(r: Fig11Result, title: &str, json: bool) {
    println!("{title}: aggregate throughput (Mbps) vs concurrent queries");
    let headers = ["queries", "1 core", "2 cores"];
    let rows: Vec<Vec<String>> = r
        .queries
        .iter()
        .enumerate()
        .map(|(i, k)| {
            vec![
                k.to_string(),
                f2(r.one_core_mbps[i]),
                f2(r.two_core_mbps[i]),
            ]
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    let name = format!("fig11_{}", r.scale.to_lowercase());
    maybe_json(json, &name, &r);
}

fn run_latency(json: bool) {
    let r = latency();
    println!("Section VI-E: epoch-processing latency, 5x input, 30% CPU");
    let headers = [
        "sources",
        "Jarvis med (s)",
        "Jarvis max (s)",
        "BestOP med (s)",
        "BestOP max (s)",
    ];
    let rows: Vec<Vec<String>> = r
        .rows
        .iter()
        .map(|(n, jm, jx, bm, bx)| vec![n.to_string(), f2(*jm), f2(*jx), f2(*bm), f2(*bx)])
        .collect();
    print!("{}", render_table(&headers, &rows));
    maybe_json(json, "latency", &r);
}

fn run_opcount(json: bool) {
    let r = opcount(5);
    println!("Section VI-C sim: fine-tuning convergence vs operator count (w/o LP init)");
    let headers = [
        "ops",
        "binary worst",
        "binary mean",
        "linear worst",
        "linear mean",
        "failures",
    ];
    let rows: Vec<Vec<String>> = r
        .binary
        .iter()
        .zip(&r.linear)
        .map(|(b, l)| {
            vec![
                b.ops.to_string(),
                b.worst.to_string(),
                f2(b.mean),
                l.worst.to_string(),
                f2(l.mean),
                (b.failures + l.failures).to_string(),
            ]
        })
        .collect();
    print!("{}", render_table(&headers, &rows));
    maybe_json(json, "opcount", &r);
}

fn run_overhead(json: bool) {
    let r = overhead();
    println!(
        "Section VI-B: Jarvis adaptation overhead = {:.3}% of one core (paper: < 1%)",
        r.overhead_core_frac * 100.0
    );
    maybe_json(json, "overhead", &r);
}

fn run_bench(json: bool, check: bool) {
    // Load the committed baseline before the JSON write below overwrites it.
    let baseline: Option<ThroughputReport> = check
        .then(|| {
            let path = jarvis_bench::output::out_dir().join("BENCH_throughput.json");
            let raw = std::fs::read_to_string(&path)
                .map_err(|e| eprintln!("[no committed baseline at {}: {e}]", path.display()))
                .ok()?;
            serde_json::from_str(&raw)
                .map_err(|e| eprintln!("[unreadable baseline: {e}]"))
                .ok()
        })
        .flatten();

    let report = ThroughputReport {
        group_agg: bench_group_agg(15),
        shard_scaling: bench_shard_scaling(15),
        node_scaling: bench_node_scaling(15),
        net_transport: bench_net_transport(15),
        fault_recovery: Some(bench_fault_recovery()),
        dict_epoch: Some(bench_dict_epoch(15)),
        wire_codec: Some(bench_wire_codec(15)),
    };
    let g = &report.group_agg;
    println!("Group-aggregate kernels: str keys vs dict keys, and wide-int keys");
    println!("  pipeline : {}", g.pipeline);
    println!("  rows/iter: {}", g.rows);
    println!(
        "  str keys : {:.0} rows/s ({:.0} ns/row)",
        g.str_rows_per_sec, g.str_ns_per_row
    );
    println!(
        "  dict keys: {:.0} rows/s ({:.0} ns/row)",
        g.dict_rows_per_sec, g.dict_ns_per_row
    );
    println!("  speedup  : {:.2}x (target: >= 1.5x)", g.speedup);
    println!(
        "  wide ints: {:.0} rows/s ({:.0} ns/row, {:.2}x a std HashMap; {} rows over 32 operators)",
        g.wide_int_rows_per_sec, g.wide_int_ns_per_row, g.wide_int_vs_std_map, g.wide_int_rows
    );
    let s = &report.shard_scaling;
    println!("Sharded SP runtime: keyed shard pipelines, critical-path throughput");
    println!("  pipeline : {}", s.pipeline);
    println!("  rows/iter: {}", s.rows);
    for (i, n) in s.shards.iter().enumerate() {
        println!(
            "  {n} shard{} : {:.0} rows/s ({:.2}x)",
            if *n == 1 { " " } else { "s" },
            s.rows_per_sec[i],
            s.speedup[i]
        );
    }
    println!(
        "  speedup  : {:.2}x at {} shards (target: >= 1.5x)",
        s.speedup_at_max(),
        s.shards.last().unwrap_or(&1)
    );
    let nd = &report.node_scaling;
    println!("Multi-node SP tier: consistent-hash dispatch, critical-path throughput");
    println!("  pipeline : {}", nd.pipeline);
    println!("  rows/iter: {}", nd.rows);
    for (i, n) in nd.nodes.iter().enumerate() {
        println!(
            "  {n} node{}  : {:.0} rows/s ({:.2}x)",
            if *n == 1 { " " } else { "s" },
            nd.rows_per_sec[i],
            nd.speedup[i]
        );
    }
    println!(
        "  speedup  : {:.2}x at {} nodes (target: >= 1.5x)",
        nd.speedup_at_max(),
        nd.nodes.last().unwrap_or(&1)
    );
    let t = &report.net_transport;
    println!("Framed-TCP transport: loopback sockets vs in-process channel");
    println!("  pipeline : {}", t.pipeline);
    println!("  channel  : {:.0} frames/s", t.channel_frames_per_sec);
    println!(
        "  tcp      : {:.0} frames/s ({:.0} MB/s)",
        t.tcp_frames_per_sec, t.tcp_mbytes_per_sec
    );
    println!(
        "  relative : {:.2}x of the in-process channel",
        t.relative_throughput
    );
    if let Some(fr) = &report.fault_recovery {
        println!("Fault recovery: seeded sever + reassign over loopback TCP");
        println!("  drill    : {}", fr.pipeline);
        println!(
            "  evidence : {} incident(s), {} replay bytes, {} heartbeats",
            fr.incidents, fr.replay_bytes, fr.heartbeats_sent
        );
        println!(
            "  exactness: digest_match={} complete={} (target: both true)",
            fr.digest_match, fr.complete
        );
        println!(
            "  wallclock: {:.2}s faulted vs {:.2}s fault-free (context only)",
            fr.faulted_secs, fr.baseline_secs
        );
    }
    if let Some(de) = &report.dict_epoch {
        println!("Persistent dictionaries: cross-epoch streams vs per-epoch rebuild");
        println!("  pipeline : {}", de.pipeline);
        println!("  rows/iter: {} over {} epochs", de.rows, de.epochs);
        println!(
            "  rebuild  : {:.0} rows/s (batch-local pages every epoch)",
            de.rebuild_rows_per_sec
        );
        println!(
            "  persist  : {:.0} rows/s (one StreamDict per key stream)",
            de.persistent_rows_per_sec
        );
        println!("  speedup  : {:.2}x (target: >= 1.3x)", de.speedup);
        println!(
            "  wire     : {:.0} B/epoch full pages vs {:.0} B/epoch deltas ({:.2}x smaller)",
            de.full_page_wire_bytes_per_epoch, de.delta_wire_bytes_per_epoch, de.wire_reduction
        );
    }
    if let Some(wc) = &report.wire_codec {
        println!("Batch wire codec: content-sized integer pages vs the fixed-width format");
        for p in [&wc.s2s, &wc.log] {
            println!(
                "  part     : {} ({} rows, {} frames)",
                p.part, p.rows, p.frames
            );
            println!(
                "  bytes    : {} encoded ({:.2} B/row) vs {} fixed-width ({:.2}x smaller)",
                p.encoded_bytes,
                p.encoded_bytes_per_row,
                p.fixed_width_bytes,
                p.fixed_width_bytes as f64 / p.encoded_bytes as f64
            );
            println!(
                "  cost     : encode {:.1} ns/row, decode {:.1} ns/row (context only)",
                p.encode_ns_per_row, p.decode_ns_per_row
            );
        }
    }
    maybe_json(json, "BENCH_throughput", &report);

    if check {
        match baseline {
            Some(baseline) => {
                let regressions = report.regressions_vs(&baseline);
                if regressions.is_empty() {
                    println!("[check] all speedups within tolerance of the committed baseline");
                } else {
                    for r in &regressions {
                        eprintln!("[check] REGRESSION: {r}");
                    }
                    std::process::exit(1);
                }
            }
            None => {
                eprintln!("[check] FAILED: no committed baseline to compare against");
                std::process::exit(1);
            }
        }
    }
}

fn maybe_json<T: serde::Serialize>(json: bool, name: &str, value: &T) {
    if json {
        match write_json(name, value) {
            Ok(path) => println!("[json -> {}]", path.display()),
            Err(e) => eprintln!("[json write failed: {e}]"),
        }
    }
}
