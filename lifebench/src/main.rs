//! `lifebench`: one benchmark of the whole facet-index lifecycle.
//!
//! ```text
//! lifebench --workload <name> --seed <n> --seconds <s> --trace <0|1> [--shards <n>]
//! lifebench steady --workload <name> [--runs <n>] [--seconds <s>] [--first-seed <n>]
//! lifebench selftest
//! ```
//!
//! The first form runs one workload and prints, as its last line, one
//! JSON object with `correct`, `attempted`, `failed` and `metrics`: the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. `--shards` (default 1) exists for the shard sweep in
//! README.md. `steady` runs a workload N times with N seeds and
//! prints each end-to-end metric's median, quartiles and spread next to
//! its bound in `BENCHMARK.json`. `selftest` shows that the checker
//! rejects corrupted input. See README.md.

mod adapters;
mod check;
mod env;
mod host;
mod selftest;
mod stats;
mod workloads;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;
use workloads::Workload;

fn usage() -> ExitCode {
    eprintln!(
        "usage: lifebench --workload <{}> --seed <n> --seconds <s> --trace <0|1> [--shards <n>]\n       \
         lifebench steady --workload <name> [--runs <n>] [--seconds <s>] [--first-seed <n>]\n       \
         lifebench selftest",
        Workload::ALL.map(Workload::name).join("|")
    );
    ExitCode::from(2)
}

/// `--flag value` pairs after the mode word.
fn flags(args: &[String]) -> Option<Vec<(String, String)>> {
    if !args.len().is_multiple_of(2) {
        return None;
    }
    args.chunks(2)
        .map(|p| {
            p[0].strip_prefix("--")
                .map(|f| (f.to_string(), p[1].clone()))
        })
        .collect()
}

fn flag<T: std::str::FromStr>(flags: &[(String, String)], name: &str) -> Option<Option<T>> {
    match flags.iter().find(|(f, _)| f == name) {
        None => Some(None),
        Some((_, v)) => v.parse().ok().map(Some),
    }
}

fn manifest_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn json_line(correct: bool, attempted: u64, failed: u64, metrics: &[workloads::Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            assert!(value.is_finite(), "metric {name} is not a finite number");
            format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("selftest") => return selftest::run(),
        Some("steady") => return steady(&args[1..]),
        _ => {}
    }
    let Some(flags) = flags(&args) else {
        return usage();
    };
    let (Some(Some(name)), Some(Some(seed)), Some(Some(seconds)), Some(Some(trace))) = (
        flag::<String>(&flags, "workload"),
        flag::<u64>(&flags, "seed"),
        flag::<f64>(&flags, "seconds"),
        flag::<u8>(&flags, "trace"),
    ) else {
        return usage();
    };
    let Some(Some(shards)) =
        flag::<usize>(&flags, "shards").map(|s| s.or(Some(workloads::DEFAULT_SHARDS)))
    else {
        return usage();
    };
    let Some(workload) = Workload::parse(&name) else {
        return usage();
    };
    if trace > 1 || seconds.is_nan() || seconds <= 0.0 || shards == 0 {
        return usage();
    }
    let runs_dir = manifest_dir().join("runs");
    let data_dir = runs_dir.join(format!("{name}-{}", std::process::id()));
    let out = workloads::run(
        workload,
        seed,
        shards,
        seconds,
        trace == 1,
        process_start,
        &data_dir,
    );
    // Fails harmlessly while another run still uses the directory.
    std::fs::remove_dir(&runs_dir).ok();
    for e in &out.errors {
        eprintln!("lifebench: check failed: {e}");
    }
    println!(
        "{}",
        json_line(out.correct, out.attempted, out.failed, &out.metrics)
    );
    ExitCode::SUCCESS
}

/// Run one workload `runs` times with consecutive seeds, each in its own
/// process as an external check would, and report the spread of every
/// end-to-end metric against its bound.
fn steady(args: &[String]) -> ExitCode {
    use facet_hierarchies::jsonio::{parse_json, JsonValue};
    let Some(flags) = flags(args) else {
        return usage();
    };
    let (Some(Some(name)), Some(runs), Some(seconds), Some(first_seed)) = (
        flag::<String>(&flags, "workload"),
        flag::<usize>(&flags, "runs"),
        flag::<f64>(&flags, "seconds"),
        flag::<u64>(&flags, "first-seed"),
    ) else {
        return usage();
    };
    let bench_path = manifest_dir().join("../BENCHMARK.json");
    let bench = std::fs::read_to_string(&bench_path)
        .ok()
        .and_then(|text| parse_json(&text).ok());
    let Some(bench) = bench else {
        eprintln!("lifebench: cannot read {}", bench_path.display());
        return ExitCode::FAILURE;
    };
    let seconds = seconds
        .or_else(|| bench.get("run_seconds").and_then(JsonValue::as_f64))
        .unwrap_or(10.0);
    let bounds: Vec<(String, f64)> = bench
        .get("end_to_end")
        .and_then(JsonValue::as_array)
        .unwrap_or(&[])
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let runs = runs.unwrap_or(10).max(2);
    let first_seed = first_seed.unwrap_or(1);
    let exe = std::env::current_exe().expect("locate the running benchmark");
    let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
    let mut shares = Vec::new();
    for seed in first_seed..first_seed + runs as u64 {
        let output = std::process::Command::new(&exe)
            .args(["--workload", &name, "--seed", &seed.to_string()])
            .args(["--seconds", &seconds.to_string(), "--trace", "0"])
            .output()
            .expect("start a benchmark run");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let result = stdout.lines().last().and_then(|l| parse_json(l).ok());
        let Some(result) = result.filter(|_| output.status.success()) else {
            eprintln!(
                "lifebench: run with seed {seed} failed:\n{}",
                String::from_utf8_lossy(&output.stderr)
            );
            return ExitCode::FAILURE;
        };
        let num = |key: &str| result.get(key).and_then(JsonValue::as_f64).unwrap_or(0.0);
        shares.push(num("failed") / num("attempted").max(1.0));
        let correct = result.get("correct").and_then(JsonValue::as_bool) == Some(true);
        let mut line = format!("seed {seed}: correct={correct}");
        for ((metric, _), column) in bounds.iter().zip(&mut values) {
            let v = result
                .get("metrics")
                .and_then(|m| m.get(metric))
                .and_then(|m| m.get("value"))
                .and_then(JsonValue::as_f64)
                .unwrap_or(f64::NAN);
            column.push(v);
            line.push_str(&format!(" {metric}={v:.4}"));
        }
        eprintln!("{line}");
    }
    println!(
        "{name}: {runs} runs of {seconds} s, seeds {first_seed}..{}",
        first_seed + runs as u64 - 1
    );
    println!(
        "{:<22} {:>12} {:>12} {:>12} {:>8} {:>7}  verdict",
        "metric", "q1", "median", "q3", "spread", "bound"
    );
    for ((metric, bound), column) in bounds.iter().zip(&values) {
        let [q1, med, q3] = stats::quartiles(column);
        let spread = (q3 - q1) / med;
        let verdict = if spread < bound / 3.0 {
            "steady"
        } else if spread <= *bound {
            "within bound"
        } else {
            "TOO NOISY"
        };
        println!(
            "{metric:<22} {q1:>12.4} {med:>12.4} {q3:>12.4} {spread:>8.4} {bound:>7.3}  {verdict}"
        );
    }
    let same_share = shares.windows(2).all(|w| w[0] == w[1]);
    println!(
        "failed share: {:?} ({})",
        shares.first().copied().unwrap_or(0.0),
        if same_share {
            "identical in every run"
        } else {
            "DIFFERS between runs"
        }
    );
    ExitCode::SUCCESS
}
