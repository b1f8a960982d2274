//! Helpers shared by the workloads: seeded inputs, the plaintext reference,
//! wall-clock timing, and process figures.

use crate::loadgen::SplitMix64;
use chehab_core::training::{train_agent, AgentTrainingOptions};
use chehab_ir::{evaluate, Env, Expr};
use chehab_rl::Agent;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Inputs for `program` drawn from `seed`: every variable gets a small value
/// in `0..=16`, as the suite's own `input_env` does.
pub fn seeded_inputs(program: &Expr, seed: u64) -> HashMap<String, i64> {
    let mut rng = SplitMix64::new(seed);
    let mut variables: Vec<String> = program.variables().iter().map(|v| v.to_string()).collect();
    // `variables()` order is not guaranteed stable across calls; sort so the
    // same seed always binds the same values.
    variables.sort();
    variables
        .into_iter()
        .map(|name| (name, rng.below(17) as i64))
        .collect()
}

/// The reference output of the *source* program under `inputs`, from the
/// IR interpreter (never from the compiler under test): the first
/// `output_slots` slots, reduced modulo `plain_modulus`.
pub fn reference_output(
    program: &Expr,
    inputs: &HashMap<String, i64>,
    output_slots: usize,
    plain_modulus: u64,
) -> Vec<u64> {
    let value = evaluate(program, &env_of(inputs, plain_modulus))
        .expect("suite programs evaluate under full bindings");
    value.slots().into_iter().take(output_slots).collect()
}

/// Whether a compiled circuit, interpreted in the clear, agrees with the
/// source program's reference on the live output slots.
pub fn circuit_matches(
    circuit: &Expr,
    inputs: &HashMap<String, i64>,
    expected: &[u64],
    plain_modulus: u64,
) -> bool {
    match evaluate(circuit, &env_of(inputs, plain_modulus)) {
        Ok(value) => {
            let slots = value.slots();
            slots.len() >= expected.len() && slots[..expected.len()] == *expected
        }
        Err(_) => false,
    }
}

fn env_of(inputs: &HashMap<String, i64>, plain_modulus: u64) -> Env {
    let mut env = Env::with_modulus(plain_modulus);
    for (name, value) in inputs {
        env.bind(name.clone(), *value);
    }
    env
}

/// Runs `f` once and returns its result with its wall time in milliseconds.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let started = Instant::now();
    let value = std::hint::black_box(f());
    (value, ms(started.elapsed()))
}

/// Milliseconds of a duration.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Repeats `f` until at least `min_reps` calls and `budget` of wall time
/// (at most `max_reps` calls) and returns every wall time in milliseconds
/// together with the last result: short calls are measured several times so
/// their figure is not a single timer reading.
pub fn repeat_timed<T>(
    min_reps: usize,
    max_reps: usize,
    budget: Duration,
    mut f: impl FnMut() -> T,
) -> (Vec<f64>, T) {
    let started = Instant::now();
    let mut walls = Vec::new();
    loop {
        let (value, wall) = timed(&mut f);
        walls.push(wall);
        if walls.len() >= max_reps || (walls.len() >= min_reps && started.elapsed() >= budget) {
            return (walls, value);
        }
    }
}

/// The tiny CHEHAB RL agent every workload trains at a fixed seed, and its
/// training wall in seconds.
pub fn train_tiny_agent() -> (Arc<Agent>, f64) {
    let started = Instant::now();
    let trained = train_agent(&AgentTrainingOptions::tiny());
    (trained.agent, started.elapsed().as_secs_f64())
}

/// Peak resident set size of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The git commit of the working directory, read from `.git` without
/// running git; `"unknown"` outside a git checkout.
pub fn git_commit() -> String {
    let read = |path: &str| std::fs::read_to_string(path).ok();
    let Some(head) = read(".git/HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(&format!(".git/{reference}")) {
        return hash.trim().to_string();
    }
    read(".git/packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chehab_benchsuite::by_id;
    use chehab_core::Compiler;

    #[test]
    fn seeded_inputs_repeat_per_seed() {
        let program = by_id("Dot Product 8").unwrap().program().clone();
        assert_eq!(seeded_inputs(&program, 5), seeded_inputs(&program, 5));
        assert_ne!(seeded_inputs(&program, 5), seeded_inputs(&program, 6));
        assert!(seeded_inputs(&program, 5)
            .values()
            .all(|v| (0..=16).contains(v)));
    }

    #[test]
    fn agent_training_repeats_at_one_seed() {
        let kernels = ["Dot Product 8", "Gx 3x3", "Poly. Reg. 8", "Tree 100-50-5"];
        let compile_all = || -> Vec<(String, f64)> {
            let rl = Compiler::with_rl_agent(train_tiny_agent().0);
            kernels
                .iter()
                .map(|id| {
                    let compiled = rl.compile(*id, by_id(id).unwrap().program());
                    (compiled.circuit().to_string(), compiled.stats().cost_after)
                })
                .collect()
        };
        assert_eq!(compile_all(), compile_all());
    }
}
