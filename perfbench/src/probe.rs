//! Traced request probes shared by the workloads: one request driven through
//! `FheSession::trace_request`, decomposed into its session phases and
//! instruction spans, next to untraced runs of the same request.

use crate::common::timed;
use crate::report::Outcome;
use crate::stats::{geomean, mean, median};
use chehab_core::{ExecOptions, FheSession};
use std::collections::HashMap;

/// Per-layer figures of one program's traced requests (means per request).
#[derive(Debug, Default, Clone)]
pub struct RequestProbe {
    /// Request wall timed around `trace_request`, ms (median).
    pub traced_wall_ms: f64,
    /// Request wall timed around the untraced call, ms (median).
    pub untraced_wall_ms: f64,
    pub bind_ms: f64,
    pub execute_ms: f64,
    pub decrypt_ms: f64,
    /// Execute span minus the instruction spans it covers; meaningful at one
    /// worker only, where the spans do not overlap.
    pub dispatch_ms: f64,
    /// Dataflow workers the requests ran with.
    pub workers: usize,
    /// Sum of instruction span durations per label, µs, and their count.
    pub op_us: HashMap<&'static str, (f64, u64)>,
    /// Mean instruction queue wait, µs (dataflow spans carry one).
    pub queue_wait_us: Option<f64>,
    pub ntt: f64,
    pub arena_fresh: f64,
    pub ops: [f64; 4],
}

/// Traces `reps` requests of `session` (after the caller warmed it) and
/// times as many untraced ones with the same options.
pub fn probe_requests(
    session: &FheSession,
    inputs: &HashMap<String, i64>,
    options: &ExecOptions,
    reps: usize,
    mut check: impl FnMut(&[u64]) -> bool,
) -> (RequestProbe, u64, u64) {
    let (mut attempted, mut failed) = (0, 0);
    let mut untraced = Vec::new();
    for _ in 0..reps {
        let (report, wall) = timed(|| session.run_parallel(inputs, options));
        attempted += 1;
        if !report
            .as_ref()
            .is_ok_and(|r| r.decryption_ok && check(&r.outputs))
        {
            failed += 1;
        }
        untraced.push(wall);
    }
    let counter = |name: &str| session.metrics().counter(name, "").get() as f64;
    let ntt_before = counter("chehab_ntt_forward_transforms_total")
        + counter("chehab_ntt_inverse_transforms_total");
    let fresh_before = counter("chehab_arena_fresh_allocations_total");

    let mut probe = RequestProbe {
        workers: options.threads_per_request,
        ..RequestProbe::default()
    };
    let (mut traced, mut bind, mut execute, mut decrypt, mut dispatch, mut waits) = (
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
        Vec::new(),
    );
    for _ in 0..reps {
        let (result, wall) = timed(|| session.trace_request(inputs, options));
        attempted += 1;
        let Ok((report, trace)) = result else {
            failed += 1;
            continue;
        };
        if !(report.decryption_ok && check(&report.outputs)) {
            failed += 1;
        }
        traced.push(wall);
        let mut phase = HashMap::new();
        let mut instr_ns = 0u64;
        for event in trace.events() {
            match event.cat {
                "session" => *phase.entry(event.name).or_insert(0u64) += event.dur_ns,
                "instr" => {
                    instr_ns += event.dur_ns;
                    let entry = probe.op_us.entry(event.name).or_insert((0.0, 0));
                    entry.0 += event.dur_ns as f64 / 1e3;
                    entry.1 += 1;
                    if let Some(wait) = event.queue_wait_ns {
                        waits.push(wait as f64 / 1e3);
                    }
                }
                _ => {}
            }
        }
        let phase_ms = |name: &str| phase.get(name).copied().unwrap_or(0) as f64 / 1e6;
        bind.push(phase_ms("bind"));
        execute.push(phase_ms("execute"));
        decrypt.push(phase_ms("decrypt"));
        dispatch.push(phase_ms("execute") - instr_ns as f64 / 1e6);
        let s = report.operation_stats;
        probe.ops = [
            s.ct_ct_multiplications as f64,
            s.ct_pt_multiplications as f64,
            s.rotations as f64,
            s.additions as f64,
        ];
    }
    let n = reps.max(1) as f64;
    probe.ntt = (counter("chehab_ntt_forward_transforms_total")
        + counter("chehab_ntt_inverse_transforms_total")
        - ntt_before)
        / n;
    probe.arena_fresh = (counter("chehab_arena_fresh_allocations_total") - fresh_before) / n;
    let med = |v: &[f64]| median(v).unwrap_or(0.0);
    probe.traced_wall_ms = med(&traced);
    probe.untraced_wall_ms = med(&untraced);
    probe.bind_ms = med(&bind);
    probe.execute_ms = med(&execute);
    probe.decrypt_ms = med(&decrypt);
    probe.dispatch_ms = med(&dispatch);
    probe.queue_wait_us = mean(&waits);
    (probe, attempted, failed)
}

/// A typical value across programs: the geometric mean when every value is
/// positive (one vote per program), the arithmetic mean otherwise.
pub fn typical(values: &[f64]) -> f64 {
    geomean(values).or_else(|| mean(values)).unwrap_or(0.0)
}

/// Folds the probes of a workload's programs into its per-layer metrics and
/// checks that bind + execute + decrypt account for the request wall.
pub fn record_request_layers(outcome: &mut Outcome, probes: &[RequestProbe]) -> Vec<String> {
    let pick = |f: fn(&RequestProbe) -> f64| typical(&probes.iter().map(f).collect::<Vec<_>>());
    outcome.set("core.bind_ms", pick(|p| p.bind_ms));
    outcome.set("runtime.execute_ms", pick(|p| p.execute_ms));
    outcome.set("core.decrypt_ms", pick(|p| p.decrypt_ms));
    if probes.iter().all(|p| p.workers == 1) {
        outcome.set("runtime.dispatch_ms", pick(|p| p.dispatch_ms));
    }
    outcome.set(
        "core.bind_share_pct",
        pick(|p| 100.0 * p.bind_ms / p.traced_wall_ms),
    );
    outcome.set("fhe.ntt_per_request", pick(|p| p.ntt));
    outcome.set("fhe.arena_fresh_per_request", pick(|p| p.arena_fresh));
    for (metric, index) in [
        ("fhe.ops.ct_ct_mul", 0),
        ("fhe.ops.ct_pt_mul", 1),
        ("fhe.ops.rot", 2),
        ("fhe.ops.add", 3),
    ] {
        outcome.set(
            metric,
            mean(&probes.iter().map(|p| p.ops[index]).collect::<Vec<_>>()).unwrap_or(0.0),
        );
    }
    for (metric, label) in [
        ("fhe.op.mul_us", "mul"),
        ("fhe.op.rot_us", "rot"),
        ("fhe.op.add_us", "add"),
        ("fhe.op.pack_us", "pack"),
    ] {
        let (total, count) = probes
            .iter()
            .filter_map(|p| p.op_us.get(label))
            .fold((0.0, 0), |(t, c), (pt, pc)| (t + pt, c + pc));
        if count > 0 {
            outcome.set(metric, total / count as f64);
        }
    }
    let waits: Vec<f64> = probes.iter().filter_map(|p| p.queue_wait_us).collect();
    if !waits.is_empty() {
        outcome.set("runtime.instr_queue_wait_us", mean(&waits).unwrap_or(0.0));
    }
    let traced: f64 = probes.iter().map(|p| p.traced_wall_ms).sum();
    let untraced: f64 = probes.iter().map(|p| p.untraced_wall_ms).sum();
    outcome.set("trace.overhead_pct", 100.0 * (traced / untraced - 1.0));

    // Bind + execute + decrypt against the traced request wall, summed over
    // the programs.
    let phases: f64 = probes
        .iter()
        .map(|p| p.bind_ms + p.execute_ms + p.decrypt_ms)
        .sum();
    let gap = 100.0 * (traced - phases).abs() / traced;
    outcome.set("trace.request_gap_pct", gap);
    println!(
        "trace: request phases {phases:.3} ms vs traced wall {traced:.3} ms (gap {gap:.2}%, untraced {untraced:.3} ms)"
    );
    let mut invalid = Vec::new();
    if gap > crate::report::PHASE_SUM_TOLERANCE_PCT {
        invalid.push(format!("request phases miss the request wall by {gap:.1}%"));
    }
    invalid
}
