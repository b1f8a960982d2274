//! The `compile-suite` workload: every kernel of the paper's suite compiled
//! by the greedy and the RL compiler, and each greedy circuit executed warm
//! at `default_128()` with one limb.

use crate::common::{
    circuit_matches, peak_rss_mb, reference_output, repeat_timed, seeded_inputs, timed,
    train_tiny_agent,
};
use crate::loadgen::sub_seed;
use crate::probe::{probe_requests, record_request_layers, typical};
use crate::report::{Outcome, PHASE_SUM_TOLERANCE_PCT};
use crate::stats::{fastest, geomean, median, tail};
use chehab_benchsuite::{full_suite, Benchmark};
use chehab_core::{
    output_slots_of, select_rotation_keys, CompileStats, CompiledProgram, Compiler, ExecOptions,
};
use chehab_fhe::BfvParameters;
use chehab_ir::{cleanup, rotation_steps, summarize, CostModel};
use chehab_rl::Agent;
use chehab_trs::RewriteEngine;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Greedy rewrite-step budget of `Compiler::greedy()`.
const GREEDY_MAX_STEPS: usize = 200;
/// Galois-key budget of the default compiler options.
const ROTATION_KEY_BUDGET: usize = 28;
/// Agent trainings in set-up; `setup_s` is their median.
const SETUP_REPS: usize = 3;
/// Wall budget per kernel for repeating a short compile or run.
const REPEAT_BUDGET: Duration = Duration::from_millis(60);

/// The workload's parameters.
pub fn params() -> BfvParameters {
    BfvParameters::default_128()
}

/// One kernel's measurements, one entry per pass.
#[derive(Default, Clone)]
struct KernelTimes {
    greedy_ms: Vec<f64>,
    rl_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    to_result_ms: Vec<f64>,
    noise_bits: f64,
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();

    // Set-up: train the tiny agent SETUP_REPS times at its fixed seed.
    let mut trainings = Vec::new();
    let mut agent = None;
    for _ in 0..SETUP_REPS {
        let (trained, secs) = train_tiny_agent();
        trainings.push(secs);
        agent.get_or_insert(trained);
    }
    let agent = agent.expect("at least one training");
    let setup_s = median(&trainings).expect("set-up ran");
    println!("setup: {SETUP_REPS} trainings {trainings:?} s, median {setup_s:.3} s");
    outcome.set("setup_s", setup_s);
    outcome.set("rl.train_s", setup_s);

    let suite = full_suite();
    if traced {
        trace_pass(&suite, seed, &agent, &mut outcome);
    } else {
        timed_passes(&suite, seed, seconds, &agent, &mut outcome);
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome
}

/// The timed passes: whole passes over the suite until `seconds` have
/// elapsed (at least one). Each kernel's compile and run figures are the
/// fastest of its repeats; its time to first result is the median over
/// passes.
fn timed_passes(
    suite: &[Benchmark],
    seed: u64,
    seconds: u64,
    agent: &Arc<Agent>,
    outcome: &mut Outcome,
) {
    let params = params();
    let greedy = Compiler::greedy();
    let rl = Compiler::with_rl_agent(Arc::clone(agent));
    let mut kernels = vec![KernelTimes::default(); suite.len()];
    let started = Instant::now();
    let mut passes = 0;
    while passes == 0 || started.elapsed() < Duration::from_secs(seconds) {
        for (index, bench) in suite.iter().enumerate() {
            let k = &mut kernels[index];
            let program = bench.program();
            let inputs = seeded_inputs(program, sub_seed(seed, index as u64));
            let expected =
                reference_output(program, &inputs, bench.output_slots(), params.plain_modulus);

            let (walls, compiled) =
                repeat_timed(1, 9, REPEAT_BUDGET, || greedy.compile(bench.id(), program));
            k.greedy_ms.push(fastest(&walls).expect("one compile"));
            let first_compile_ms = walls[0];
            let (walls, rl_compiled) =
                repeat_timed(1, 9, REPEAT_BUDGET, || rl.compile(bench.id(), program));
            k.rl_ms.push(fastest(&walls).expect("one compile"));
            outcome.check(circuit_matches(
                rl_compiled.circuit(),
                &inputs,
                &expected,
                params.plain_modulus,
            ));

            let (session, session_ms) = timed(|| compiled.session(&params));
            let session = session.unwrap_or_else(|e| panic!("{}: session failed: {e}", bench.id()));
            let (first, first_ms) = timed(|| session.run(&inputs));
            let ok = |r: &Result<chehab_core::ExecutionReport, _>| {
                r.as_ref()
                    .is_ok_and(|r| r.decryption_ok && r.outputs == expected)
            };
            outcome.check(ok(&first));
            k.to_result_ms
                .push(first_compile_ms + session_ms + first_ms);
            let mut all_ok = true;
            let (walls, last) = repeat_timed(3, 15, REPEAT_BUDGET, || {
                let report = session.run(&inputs);
                all_ok &= ok(&report);
                report
            });
            outcome.check(all_ok);
            k.exec_ms.push(fastest(&walls).expect("warm runs"));
            k.noise_bits = last.map(|r| r.noise_budget_consumed).unwrap_or(0.0);
        }
        passes += 1;
    }

    let per_kernel =
        |f: fn(&KernelTimes) -> &Vec<f64>, summary: fn(&[f64]) -> Option<f64>| -> Vec<f64> {
            kernels
                .iter()
                .map(|k| summary(f(k)).expect("one pass"))
                .collect()
        };
    let greedy_ms = per_kernel(|k| &k.greedy_ms, fastest);
    let rl_ms = per_kernel(|k| &k.rl_ms, fastest);
    let exec_ms = per_kernel(|k| &k.exec_ms, fastest);
    let to_result = per_kernel(|k| &k.to_result_ms, median);
    let noise: Vec<f64> = kernels.iter().map(|k| k.noise_bits).collect();
    println!("kernel                          greedy_ms        rl_ms    exec_ms  to_result_ms  noise_bits");
    for (i, bench) in suite.iter().enumerate() {
        println!(
            "{:28} {:>12.3} {:>12.3} {:>10.3} {:>13.3} {:>11.2}",
            bench.id(),
            greedy_ms[i],
            rl_ms[i],
            exec_ms[i],
            to_result[i],
            noise[i]
        );
    }
    let tail = tail(&to_result).expect("the suite has more than ten kernels");
    println!(
        "passes {passes}; time-to-result p50 {:.3} ms, tail p{:.1} {:.3} ms ({} of {} kernels beyond)",
        median(&to_result).unwrap_or(0.0),
        tail.percentile,
        tail.value,
        tail.beyond,
        tail.samples
    );
    let g = |v: &[f64]| geomean(v).expect("positive per-kernel figures");
    outcome.set("compile_ms_geomean", g(&greedy_ms));
    outcome.set("rl_compile_ms_geomean", g(&rl_ms));
    outcome.set("exec_ms_geomean", g(&exec_ms));
    outcome.set("noise_bits_geomean", g(&noise));
    outcome.set("latency_p50_ms", median(&to_result).expect("kernels"));
    outcome.set("latency_tail_ms", tail.value);
}

/// The traced pass: each kernel's compile re-driven phase by phase through
/// the public calls `Compiler::compile` makes, next to one timed `compile`,
/// then its greedy circuit's requests traced.
fn trace_pass(suite: &[Benchmark], seed: u64, agent: &Arc<Agent>, outcome: &mut Outcome) {
    let params = params();
    let greedy = Compiler::greedy();
    let engine = RewriteEngine::new();
    let cost_model = CostModel::default();
    let options = ExecOptions::sequential();
    let mut layers: HashMap<&'static str, Vec<f64>> = HashMap::new();
    let mut push = |name: &'static str, v: f64| layers.entry(name).or_default().push(v);
    let (mut wall_total, mut phase_total) = (0.0, 0.0);
    let mut gaps = Vec::new();
    let mut probes = Vec::new();
    for (index, bench) in suite.iter().enumerate() {
        let program = bench.program();
        let inputs = seeded_inputs(program, sub_seed(seed, index as u64));
        let expected =
            reference_output(program, &inputs, bench.output_slots(), params.plain_modulus);
        let (compiled, wall) = timed(|| greedy.compile(bench.id(), program));

        let (original, clean1) = timed(|| cleanup(program));
        let ((optimized, steps), greedy_ms) =
            timed(|| engine.greedy_optimize(&original, &cost_model, GREEDY_MAX_STEPS));
        let (optimized, clean2) = timed(|| cleanup(&optimized));
        let ((before, after, cost_before, cost_after), summary_ms) = timed(|| {
            (
                summarize(&original),
                summarize(&optimized),
                cost_model.cost(&original),
                cost_model.cost(&optimized),
            )
        });
        let (plan, keyplan_ms) = timed(|| {
            let steps: Vec<i64> = rotation_steps(&optimized).keys().copied().collect();
            select_rotation_keys(&steps, ROTATION_KEY_BUDGET)
        });
        let stats = CompileStats {
            compile_time: Duration::ZERO,
            cost_before,
            cost_after,
            optimizer_steps: steps,
            summary_before: before,
            summary_after: after,
        };
        let (_, codegen_ms) = timed(|| {
            CompiledProgram::from_circuit(
                bench.id(),
                optimized.clone(),
                output_slots_of(&original),
                plan,
                true,
                stats,
            )
        });
        let phases = clean1 + greedy_ms + clean2 + summary_ms + keyplan_ms + codegen_ms;
        wall_total += wall;
        phase_total += phases;
        gaps.push(100.0 * (wall - phases).abs() / wall);
        push("ir.cleanup_ms", clean1 + clean2);
        push("trs.greedy_ms", greedy_ms);
        if steps > 0 {
            push("trs.ms_per_step", greedy_ms / steps as f64);
        }
        push("trs.greedy_steps", steps as f64);
        push("ir.nodes_after", after.nodes as f64);
        push("core.keyplan_ms", keyplan_ms);
        push("core.codegen_ms", codegen_ms);

        let (rl_outcome, rl_ms) = timed(|| agent.optimize(&original));
        push("rl.optimize_ms", rl_ms);
        let rl_cost = cost_model.cost(&cleanup(&rl_outcome.optimized));
        push(
            "rl.cost_ratio_geomean",
            rl_cost / cost_after.max(f64::MIN_POSITIVE),
        );

        let (session, session_ms) = timed(|| compiled.session(&params));
        let session = session.unwrap_or_else(|e| panic!("{}: session failed: {e}", bench.id()));
        push("core.session_ms", session_ms);
        push("fhe.galois_keys", session.stats().galois_key_count as f64);
        // Warm the session before probing.
        let warm = session.run_parallel(&inputs, &options);
        outcome.check(warm.is_ok_and(|r| r.outputs == expected));
        let (probe, attempted, failed) = probe_requests(&session, &inputs, &options, 3, |out| {
            out == expected.as_slice()
        });
        outcome.attempted += attempted;
        outcome.failed += failed;
        println!(
            "{:28} compile {wall:>10.3} ms phases {phases:>10.3} ms | bind {:.3} execute {:.3} decrypt {:.3} ms (traced wall {:.3}, untraced {:.3})",
            bench.id(),
            probe.bind_ms,
            probe.execute_ms,
            probe.decrypt_ms,
            probe.traced_wall_ms,
            probe.untraced_wall_ms
        );
        probes.push(probe);
    }
    for (name, values) in &layers {
        let value = match *name {
            "trs.greedy_steps" | "ir.nodes_after" | "fhe.galois_keys" => {
                crate::stats::mean(values).unwrap_or(0.0)
            }
            _ => typical(values),
        };
        outcome.set(name, value);
    }
    // The phases and the whole compile are timed one after the other, so a
    // host slowdown during one long compile (Hamm. Dist. 32 takes over
    // 10 s) can move a suite-wide sum by more than the tolerance; the
    // median kernel's gap shows a phase missing from every compile without
    // depending on one kernel.
    let gap = median(&gaps).expect("the suite has kernels");
    println!(
        "trace: compile phases {phase_total:.1} ms vs compile walls {wall_total:.1} ms over the suite; median gap per kernel {gap:.2}% (tolerance {PHASE_SUM_TOLERANCE_PCT}%)"
    );
    outcome.set("trace.compile_gap_pct", gap);
    if gap > PHASE_SUM_TOLERANCE_PCT {
        outcome
            .invalid
            .push(format!("compile phases miss the compile wall by {gap:.1}%"));
    }
    let invalid = record_request_layers(outcome, &probes);
    outcome.invalid.extend(invalid);
}
