//! The CHEHAB RL benchmark: one command, three workloads, end-to-end
//! metrics from untraced runs and per-layer metrics from traced ones.
//!
//! ```text
//! perfbench --workload <compile-suite|serve-mixed|serve-batched> --seed <n> --seconds <s> --trace <0|1>
//! perfbench compare <output-a> <output-b>
//! ```
//!
//! A run prints its human-readable tables, then one `conditions {...}` line,
//! then, as its last line, the JSON result. It exits non-zero when any
//! checked output differs from the plaintext reference.

mod common;
mod compile_suite;
mod loadgen;
mod probe;
mod report;
mod serve;
mod stats;

use report::{Conditions, CONDITIONS_PREFIX};
use std::process::ExitCode;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, 0, 10, false);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?.max(1),
            "--trace" => traced = number()? != 0,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        traced,
    })
}

fn main() -> ExitCode {
    let mut args = std::env::args().skip(1).peekable();
    if args.peek().map(String::as_str) == Some("compare") {
        let files: Vec<String> = args.skip(1).collect();
        let [a, b] = files.as_slice() else {
            eprintln!("usage: perfbench compare <output-a> <output-b>");
            return ExitCode::from(2);
        };
        let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
        return match read(a).and_then(|a| read(b).and_then(|b| report::compare(&a, &b))) {
            Ok(lines) => {
                lines.iter().for_each(|l| println!("{l}"));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("refusing to compare: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(args) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    let (outcome, params) = match args.workload.as_str() {
        "compile-suite" => (
            compile_suite::run(args.seed, args.seconds, args.traced),
            compile_suite::params(),
        ),
        "serve-mixed" | "serve-batched" => {
            let config = if args.workload == "serve-mixed" {
                serve::mixed()
            } else {
                serve::batched()
            };
            (
                serve::run(&config, args.seed, args.seconds, args.traced),
                config.params,
            )
        }
        other => {
            eprintln!("unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    let conditions = Conditions {
        workload: args.workload.clone(),
        simd: format!("{:?}", chehab_fhe::SimdPolicy::global()),
        payload_degree: params.payload_degree,
        limb_count: params.limb_count,
        nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
        traced: args.traced,
        commit: common::git_commit(),
        invalid: outcome.invalid.clone(),
    };
    println!(
        "attempted {} checked outputs, {} failed (error rate {:.4})",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{CONDITIONS_PREFIX}{}", conditions.to_json());
    println!("{}", report::result_line(&outcome, args.traced));
    if outcome.failed > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
