//! The benchmark's checks on itself: `--aa` (two interleaved sets of runs of
//! the same binary must agree) and `--spread` (runs over consecutive seeds
//! must be steady). Every run is a fresh child process of this binary, so
//! peak memory and allocator state start clean each time — exactly what the
//! driver's repeated invocations see.

use std::process::{Command, ExitCode};

use crate::json::Json;
use crate::metrics::{Agreement, Def, Values, END_TO_END};
use crate::stats::{iqr_share, median, quartiles};
use crate::workloads::{self, Workload};
use crate::{resolve, Args};

/// One child run's end-to-end metrics and whether its results were correct.
struct ChildRun {
    correct: bool,
    values: Values,
}

fn child_run(w: &Workload, seed: u64, seconds: u64) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own binary: {e}"))?;
    let output = Command::new(exe)
        .args(["--workload", w.name, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout.lines().last().ok_or_else(|| {
        format!(
            "{}: child printed no result (status {})",
            w.name, output.status
        )
    })?;
    let doc = Json::parse(line)?;
    let metrics = doc.get("metrics").ok_or("result line without metrics")?;
    let values = END_TO_END
        .iter()
        .map(|d| {
            metrics
                .get(d.name)
                .and_then(|m| m.get("value")?.as_f64())
                .map(|v| (d.name, v))
                .ok_or_else(|| format!("result line without {}", d.name))
        })
        .collect::<Result<Values, String>>()?;
    Ok(ChildRun {
        correct: doc.get("correct").and_then(|c| c.as_bool()) == Some(true),
        values,
    })
}

fn selected(args: &Args) -> Result<Vec<Workload>, String> {
    match &args.workload {
        Some(name) => Ok(vec![resolve(name)?]),
        None => Ok(workloads::ALL.to_vec()),
    }
}

fn column(runs: &[ChildRun], d: &Def) -> Vec<f64> {
    runs.iter().map(|r| r.values[d.name]).collect()
}

/// `--aa N`: two interleaved sets A B A B … of `n` untraced runs each, same
/// binary, same seed. Counts must be identical on every run; the set medians
/// of every other metric must agree within the metric's bound.
pub fn aa(args: &Args, n: usize) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in selected(args)? {
        let (mut a, mut b) = (Vec::new(), Vec::new());
        for i in 0..n {
            eprintln!("{}: A/A pair {}/{n}", w.name, i + 1);
            a.push(child_run(&w, args.seed, args.seconds)?);
            b.push(child_run(&w, args.seed, args.seconds)?);
        }
        let correct = a.iter().chain(&b).all(|r| r.correct);
        ok &= correct;
        println!(
            "{} seed {} seconds {}: 2 x {n} runs, results {}",
            w.name,
            args.seed,
            args.seconds,
            if correct { "correct" } else { "INCORRECT" }
        );
        println!(
            "  {:<24}{:>14}{:>14}{:>9}{:>8}  {:<30}verdict",
            "metric", "median A", "median B", "delta", "bound", "quartiles A"
        );
        for d in &END_TO_END {
            let (va, vb) = (column(&a, d), column(&b, d));
            let (ma, mb) = (median(&va), median(&vb));
            let delta = (ma - mb).abs() / ma.min(mb);
            let (q1, q3) = quartiles(&va);
            let (pass, bound) = match d.agreement {
                Agreement::Exact => (va.iter().chain(&vb).all(|v| *v == va[0]), "exact".into()),
                Agreement::Within => (delta <= d.bound, format!("{:.0}%", d.bound * 100.0)),
            };
            ok &= pass;
            println!(
                "  {:<24}{ma:>14.4}{mb:>14.4}{:>8.2}%{bound:>8}  {:<30}{}",
                d.name,
                delta * 100.0,
                format!("{q1:.4}..{q3:.4}"),
                if pass { "agree" } else { "DISAGREE" }
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}

/// `--spread N`: one untraced run per seed, `n` seeds from `--seed` up.
/// Results must be correct on each; the distance between the quartiles of
/// every metric, as a share of its median, must stay within the metric's
/// bound (`setup_s` is reported but, as in the driver, not held to it).
pub fn spread(args: &Args, n: usize) -> Result<ExitCode, String> {
    let mut ok = true;
    for w in selected(args)? {
        let mut runs = Vec::new();
        for seed in args.seed..args.seed + n as u64 {
            eprintln!("{}: seed {seed}", w.name);
            let run = child_run(&w, seed, args.seconds)?;
            if !run.correct {
                println!("{} seed {seed}: INCORRECT", w.name);
                ok = false;
            }
            runs.push(run);
        }
        println!(
            "{} seeds {}..{} seconds {}",
            w.name,
            args.seed,
            args.seed + n as u64 - 1,
            args.seconds
        );
        println!(
            "  {:<24}{:>14}{:>14}{:>14}{:>9}{:>8}  verdict",
            "metric", "q1", "median", "q3", "spread", "bound"
        );
        for d in &END_TO_END {
            let values = column(&runs, d);
            let (q1, q3) = quartiles(&values);
            let share = iqr_share(&values);
            let verdict = if share * 3.0 <= d.bound {
                "steady"
            } else if share <= d.bound || d.name == "setup_s" {
                "within bound, above a third of it"
            } else {
                ok = false;
                "NOISY"
            };
            println!(
                "  {:<24}{q1:>14.4}{:>14.4}{q3:>14.4}{:>8.2}%{:>7.0}%  {verdict}",
                d.name,
                median(&values),
                share * 100.0,
                d.bound * 100.0
            );
        }
    }
    Ok(if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    })
}
