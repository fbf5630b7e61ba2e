//! `convoy-e2e-bench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints its metrics, one per line, then the result
//! line: a JSON object with `correct`, `attempted`, `failed` and `metrics`.
//! Inputs are generated under `.bench_data/` in the working directory and
//! removed at exit; a traced run leaves its Chrome trace there.

use convoy_e2e_bench::workload::Workload;
use convoy_e2e_bench::{run, Options};
use std::path::PathBuf;
use std::process::ExitCode;

fn parse_args() -> Result<Options, String> {
    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    let usage = format!(
        "usage: convoy-e2e-bench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        names.join("|")
    );
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    for pair in args.chunks(2) {
        let [flag, value] = pair else {
            return Err(usage);
        };
        match flag.as_str() {
            "--workload" => workload = Workload::parse(value),
            "--seed" => seed = value.parse::<u64>().ok(),
            "--seconds" => seconds = value.parse::<f64>().ok().filter(|s| *s > 0.0),
            "--trace" => trace = matches!(value.as_str(), "0" | "1").then(|| value == "1"),
            _ => return Err(usage),
        }
    }
    let (Some(workload), Some(seed), Some(seconds), Some(trace)) = (workload, seed, seconds, trace)
    else {
        return Err(usage);
    };
    let out = PathBuf::from(".bench_data");
    Ok(Options {
        workload,
        seed,
        seconds,
        trace,
        scale: 1.0,
        data_dir: out.join(format!(
            "{}-seed{seed}-pid{}",
            workload.name(),
            std::process::id()
        )),
        trace_path: trace.then(|| out.join(format!("trace-{}-seed{seed}.json", workload.name()))),
    })
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(opts) => opts,
        Err(usage) => {
            eprintln!("{usage}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&opts);
    // The inputs are regenerated by every run; only the trace is kept.
    let _ = std::fs::remove_dir_all(&opts.data_dir);
    match outcome {
        Ok(report) => {
            for why in &report.failures {
                eprintln!("failed: {why}");
            }
            for line in &report.lines {
                println!("{line}");
            }
            for m in &report.metrics {
                println!("{} {} {}", m.name, m.value, m.unit);
            }
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
