//! `jarvis-benchmark`: the repo benchmark.
//!
//! ```text
//! jarvis-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! jarvis-benchmark --quick | --bless | --manifest
//! jarvis-benchmark --aa <N> | --spread <N>  [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! A workload run prints an environment line and, as the last line of its
//! standard output, one JSON object `{correct, attempted, failed, metrics}`:
//! the end-to-end metrics untraced, the per-layer metrics with `--trace 1`.
//! See `README.md` for what every workload and metric means.

mod golden;
mod host;
mod json;
mod ladder;
mod metrics;
mod procfs;
mod reference;
mod selfcheck;
mod session;
mod stats;
mod trace;
mod workloads;

use std::process::ExitCode;

use jarvis_core::deploy::ExactnessDigest;

use json::Json;
use metrics::{Def, Values, END_TO_END, PER_LAYER};
use session::{SessionRun, SETUP_REPEATS};
use workloads::{Workload, DEFAULT_SEED, WARMUP_EPOCHS};

/// `--seconds` when the caller gives none; `BENCHMARK.json`'s `run_seconds`.
const DEFAULT_SECONDS: u64 = 10;

/// Where the traced run writes its spans.
const TRACE_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/out");

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    pub workload: Option<String>,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub mode: Mode,
}

#[derive(Debug, Clone, PartialEq)]
pub enum Mode {
    Run,
    Quick,
    Bless,
    Manifest,
    Aa(usize),
    Spread(usize),
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        mode: Mode::Run,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .ok_or_else(|| format!("{flag} needs {what}"))
                .map(String::as_str)
        };
        let number = |text: &str| {
            text.parse::<u64>()
                .map_err(|_| format!("{flag}: `{text}` is not a whole number"))
        };
        match flag.as_str() {
            "--workload" => out.workload = Some(value("a workload name")?.to_string()),
            "--seed" => out.seed = number(value("a seed")?)?,
            "--seconds" => out.seconds = number(value("a number of seconds")?)?.clamp(1, 60),
            "--trace" => out.trace = number(value("0 or 1")?)? != 0,
            "--quick" => out.mode = Mode::Quick,
            "--bless" => out.mode = Mode::Bless,
            "--manifest" => out.mode = Mode::Manifest,
            "--aa" => out.mode = Mode::Aa(number(value("a run count")?)?.max(5) as usize),
            "--spread" => out.mode = Mode::Spread(number(value("a seed count")?)?.max(2) as usize),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(out)
}

fn resolve(name: &str) -> Result<Workload, String> {
    workloads::by_name(name).ok_or_else(|| {
        let names: Vec<_> = workloads::ALL.iter().map(|w| w.name).collect();
        format!("unknown workload `{name}` (one of: {})", names.join(", "))
    })
}

/// The reference digest for a run: blessed if there is one, computed (after
/// the measured run, outside every timer) otherwise.
fn reference_digest(w: &Workload, seed: u64, epochs: u64) -> ExactnessDigest {
    golden::lookup(w.name, seed, epochs)
        .unwrap_or_else(|| reference::compute(w, seed, epochs, reference_threads()).digest)
}

/// Threads of the reference pass: both cores of the box, to keep a run
/// inside the driver's time cap.
fn reference_threads() -> usize {
    procfs::nproc().min(2)
}

/// The environment a number was measured in, so a 2-core result is never
/// compared with a 16-core one.
fn env_line(
    w: &Workload,
    args: &Args,
    measured: u64,
    run: &SessionRun,
    yardstick: (f64, f64),
) -> Json {
    Json::object(vec![(
        "env",
        Json::object(vec![
            ("workload", Json::str(w.name)),
            ("seed", Json::uint(args.seed)),
            ("seconds", Json::uint(args.seconds)),
            ("trace", Json::bool(args.trace)),
            ("warmup_epochs", Json::uint(WARMUP_EPOCHS)),
            ("measured_epochs", Json::uint(measured)),
            ("epoch_samples", Json::uint(run.epoch_ms.len() as u64)),
            ("nproc", Json::uint(procfs::nproc() as u64)),
            ("rt_workers", Json::uint(u64::from(run.rt_workers))),
            (
                "channel_capacity",
                Json::uint(u64::from(run.channel_capacity)),
            ),
            ("sources", Json::uint(u64::from(w.sources))),
            ("sp_shards", Json::uint(u64::from(w.sp_shards))),
            ("sp_nodes", Json::uint(u64::from(w.sp_nodes))),
            ("profile", Json::str("release")),
            ("git_rev", Json::str(&procfs::git_rev())),
            ("host.yardstick_ms", Json::num(yardstick.0)),
            ("host.yardstick_drift", Json::num(yardstick.1 / yardstick.0)),
            (
                "disturbed",
                Json::bool(host::disturbed(yardstick.0, yardstick.1)),
            ),
            ("result_rows", Json::uint(run.results.rows)),
            ("result_digest", Json::str(&run.results.digest)),
        ]),
    )])
}

/// The contract's result line.
fn result_line(defs: &[Def], values: &Values, correct: bool, attempted: u64, failed: u64) -> Json {
    let metrics = defs
        .iter()
        .map(|d| {
            let value = *values
                .get(d.name)
                .unwrap_or_else(|| panic!("metric {} was not measured", d.name));
            (
                d.name,
                Json::object(vec![
                    ("value", Json::num(value)),
                    ("unit", Json::str(d.unit)),
                ]),
            )
        })
        .collect();
    Json::object(vec![
        ("correct", Json::bool(correct)),
        ("attempted", Json::uint(attempted)),
        (
            "failed",
            Json::uint(if correct { failed } else { attempted }),
        ),
        ("metrics", Json::object(metrics)),
    ])
}

/// One workload run, traced or not.
fn run_workload(args: &Args) -> Result<ExitCode, String> {
    let name = args.workload.as_deref().ok_or("--workload is required")?;
    let w = resolve(name)?;
    let measured = w.measured_epochs(args.seconds);
    let total_epochs = WARMUP_EPOCHS + measured;
    let yardstick_before = host::yardstick_ms();

    let mut tracer = args.trace.then(trace::Tracer::new);
    let setups = if args.trace { 1 } else { SETUP_REPEATS };
    let run = session::run(&w, args.seed, measured, setups, tracer.as_mut())
        .map_err(|e| format!("{name}: session failed: {e}"))?;

    // Everything below is outside the session's timers.
    let (defs, values, expected, yardstick_after) = match &mut tracer {
        None => {
            let expected = reference_digest(&w, args.seed, total_epochs);
            let yardstick_after = host::yardstick_ms();
            (
                &END_TO_END[..],
                metrics::end_to_end(&run),
                expected,
                yardstick_after,
            )
        }
        Some(tracer) => {
            // A fresh spec: the session consumed its workload's generators.
            // Nothing listens on the placeholder endpoint.
            let spec = w
                .builder(args.seed, measured, Some("127.0.0.1:0"))
                .spec()
                .map_err(|e| format!("{name}: {e}"))?;
            let capacity = run.channel_capacity as usize;
            let counts = ladder::run(tracer, &w, &spec, &run.ladder_load_factors, capacity);
            let baseline = reference::compute(&w, args.seed, total_epochs, reference_threads());
            let yardstick_after = host::yardstick_ms();
            let values = metrics::per_layer(
                &w,
                &run,
                &metrics::Traced {
                    totals: &tracer.totals(),
                    spans: tracer.spans().len(),
                    counts: &counts,
                    chain_rows_per_s: baseline.input_rows as f64 / baseline.chain_s,
                    yardstick_before_ms: yardstick_before,
                    yardstick_after_ms: yardstick_after,
                },
            );
            let path = format!("{TRACE_DIR}/trace-{name}.json");
            std::fs::create_dir_all(TRACE_DIR)
                .and_then(|()| std::fs::write(&path, tracer.to_json()))
                .map_err(|e| format!("cannot write {path}: {e}"))?;
            eprintln!("{} spans written to {path}", tracer.spans().len());
            (&PER_LAYER[..], values, baseline.digest, yardstick_after)
        }
    };

    let correct = expected == run.results;
    let series: Vec<String> = run.epoch_ms.iter().map(|ms| format!("{ms:.1}")).collect();
    eprintln!("epoch_ms: {}", series.join(" "));
    eprintln!(
        "adaptation episodes of source 0 (trigger, stable): {:?}",
        run.episodes
    );
    for d in defs {
        eprintln!("{:>48} {:>18.4} {}", d.name, values[d.name], d.unit);
    }
    if args.trace {
        eprintln!(
            "tracing overhead: live.session.traced_rows_per_s above against rows_per_s of an \
             untraced run of the same workload and seed"
        );
    }
    if host::disturbed(yardstick_before, yardstick_after) {
        eprintln!(
            "disturbed: the host yardstick moved {yardstick_before:.2} -> {yardstick_after:.2} \
             ms during the run"
        );
    }
    if !correct {
        eprintln!(
            "INCORRECT: session results {:?} differ from the reference {expected:?}",
            run.results
        );
    }
    let yardstick = (yardstick_before, yardstick_after);
    println!(
        "{}",
        env_line(&w, args, measured, &run, yardstick).compact()
    );
    println!(
        "{}",
        result_line(defs, &values, correct, run.attempted, run.failed).compact()
    );
    Ok(if correct && run.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--quick`: every workload over 10 + 10 epochs, session digest against the
/// reference digest.
fn quick(seed: u64) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in workloads::ALL {
        let run = session::run(&w, seed, WARMUP_EPOCHS, 1, None)
            .map_err(|e| format!("{}: session failed: {e}", w.name))?;
        let expected = reference::compute(&w, seed, 2 * WARMUP_EPOCHS, 1).digest;
        let blessed = golden::lookup(w.name, seed, 2 * WARMUP_EPOCHS);
        let pass = run.results == expected
            && run.failed == 0
            && blessed.as_ref().is_none_or(|b| *b == expected);
        ok &= pass;
        println!(
            "{:<18} {} rows {:>8} digest {} (reference {}{})",
            w.name,
            if pass { "ok  " } else { "FAIL" },
            run.results.rows,
            run.results.digest,
            expected.digest,
            match blessed {
                Some(b) if b == expected => ", blessed",
                Some(_) => ", golden.json DISAGREES",
                None => "",
            },
        );
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--manifest`: `BENCHMARK.json` as the metric and workload tables define it.
fn manifest() -> Json {
    let metric = |d: &Def, bounded: bool| {
        let mut fields = vec![
            ("name", Json::str(d.name)),
            ("unit", Json::str(d.unit)),
            ("better", Json::str(d.better.label())),
        ];
        if bounded {
            fields.push(("bound", Json::num(d.bound)));
        }
        Json::object(fields)
    };
    Json::object(vec![
        (
            "command",
            Json::array(
                [
                    "cargo",
                    "run",
                    "--release",
                    "--offline",
                    "--quiet",
                    "--manifest-path",
                    "benchmark/Cargo.toml",
                    "--",
                ]
                .map(Json::str)
                .to_vec(),
            ),
        ),
        ("paths", Json::array(vec![Json::str("benchmark")])),
        ("run_seconds", Json::uint(DEFAULT_SECONDS)),
        (
            "workloads",
            Json::array(
                workloads::ALL
                    .iter()
                    .map(|w| {
                        Json::object(vec![("name", Json::str(w.name)), ("why", Json::str(w.why))])
                    })
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::array(END_TO_END.iter().map(|d| metric(d, true)).collect()),
        ),
        (
            "per_layer",
            Json::array(PER_LAYER.iter().map(|d| metric(d, false)).collect()),
        ),
    ])
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_args(&argv).and_then(|args| match args.mode {
        Mode::Run => run_workload(&args),
        Mode::Quick => quick(args.seed),
        Mode::Bless => golden::bless(args.seconds)
            .map(|()| ExitCode::SUCCESS)
            .map_err(|e| format!("cannot write golden.json: {e}")),
        Mode::Manifest => {
            println!("{}", manifest().pretty());
            Ok(ExitCode::SUCCESS)
        }
        Mode::Aa(n) => selfcheck::aa(&args, n),
        Mode::Spread(n) => selfcheck::spread(&args, n),
    });
    match outcome {
        Ok(code) => code,
        Err(message) => {
            eprintln!("jarvis-benchmark: {message}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<Args, String> {
        let argv: Vec<String> = line.split_whitespace().map(str::to_string).collect();
        parse_args(&argv)
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let args = parse("--workload t2t_allsp_fanin --seed 5 --seconds 10 --trace 1").unwrap();
        assert_eq!(args.workload.as_deref(), Some("t2t_allsp_fanin"));
        assert_eq!((args.seed, args.seconds, args.trace), (5, 10, true));
        assert_eq!(args.mode, Mode::Run);
        assert!(!parse("--workload x --trace 0").unwrap().trace);
        assert_eq!(parse("").unwrap().seed, DEFAULT_SEED);
    }

    #[test]
    fn bad_command_lines_are_refused() {
        assert!(parse("--seed").is_err());
        assert!(parse("--seed seventeen").is_err());
        assert!(parse("--frobnicate").is_err());
        assert!(resolve("nope").is_err());
        assert_eq!(parse("--aa 2").unwrap().mode, Mode::Aa(5));
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: Values = END_TO_END.iter().map(|d| (d.name, 1.5)).collect();
        let line = result_line(&END_TO_END, &values, true, 91, 0);
        let keys: Vec<String> = line.members().into_iter().map(|(k, _)| k).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let metrics = line.get("metrics").unwrap().members();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(metrics[0].1.get("unit").unwrap().as_str(), Some("rows/s"));
        // An incorrect run fails every operation.
        let bad = result_line(&END_TO_END, &values, false, 91, 0);
        assert_eq!(bad.get("failed").unwrap().as_u64(), Some(91));
        assert!(!line.compact().contains('\n'));
    }
}
