//! Allocation-regression test for the zero-allocation memory engine.
//!
//! A warm `FheSession` must serve steady-state requests with **zero fresh
//! buffer allocations**: every ciphertext slot vector, payload stripe,
//! *plaintext-encode slot vector*, and *plaintext payload splat* is drawn
//! from the session's `ArenaPool` and returned when its value dies
//! (last-use analysis frees registers mid-run — plaintext registers
//! included — and the output is recycled after decryption). Key-generation
//! scratch buffers round-trip through the `KeyGenerator`'s own pool, so a
//! session issuing dozens of Galois keys samples them all from a handful
//! of buffers. The process-global `PolyArena` counters record every pool
//! miss, so replaying a request against a warm session and asserting the
//! miss count stays zero pins the property across the whole benchsuite.
//!
//! With two dataflow workers per request, which worker frees a buffer and
//! which one next needs it vary from request to request. The pool must
//! still settle: a worker whose own arena runs dry is served from buffers
//! the other worker parked, so the pool's retained-buffer count stops
//! growing after warm-up and stays within twice the one-worker figure. The
//! interleaving makes a request's peak demand vary, so a rare request can
//! still set a new, slightly higher peak; "stops growing" is checked as
//! growth below half the one-worker figure over 200 more requests. A pool
//! that strands buffers in per-worker arenas grows by several times the
//! one-worker figure over the same requests.
//!
//! This file deliberately holds a **single test**: the counters are shared
//! by every thread of the process, so the assertion needs its own test
//! process (Cargo gives each integration-test file one).

use chehab::benchsuite::{self, Benchmark};
use chehab::compiler::{Compiler, ExecOptions, FheSession};
use chehab::fhe::{BfvParameters, PolyArena};
use std::collections::HashMap;

fn inputs_of(benchmark: &Benchmark, seed: u64) -> HashMap<String, i64> {
    let env = benchmark.input_env(seed);
    benchmark
        .program()
        .variables()
        .into_iter()
        .map(|v| (v.to_string(), env.get(v.as_str()).unwrap_or(0) as i64))
        .collect()
}

/// Buffers currently parked in a session's arena pool.
fn retained(session: &FheSession) -> f64 {
    session
        .metrics()
        .gauge("chehab_arena_retained_buffers", "")
        .get()
}

/// Requests served at two workers before the retained count is first read.
const WARM_UP: usize = 100;
/// Requests served at two workers after that, over which it must settle.
const MEASURED: usize = 200;

/// The two-worker pass: the retained-buffer count of a pool serving
/// requests at two dataflow workers stops growing after warm-up and stays
/// within twice what the same request stream retains at one worker.
fn two_worker_pool_settles(params: &BfvParameters) {
    let benchmark = benchsuite::by_id("Gx 5x5").expect("known benchmark id");
    let compiled = Compiler::greedy().compile(benchmark.id(), benchmark.program());
    let inputs = inputs_of(&benchmark, 29);

    let sequential = compiled.session(params).expect("session");
    for _ in 0..3 {
        sequential.run(&inputs).expect("one-worker run");
    }
    let one_worker = retained(&sequential);

    let session = compiled.session(params).expect("session");
    let options = ExecOptions::sequential().with_threads_per_request(2);
    let serve = |requests: usize| {
        for _ in 0..requests {
            session
                .run_parallel(&inputs, &options)
                .expect("two-worker run");
        }
    };
    serve(WARM_UP);
    let warm = retained(&session);
    serve(MEASURED);
    let settled = retained(&session);
    assert!(
        settled - warm <= one_worker / 2.0,
        "two-worker pool kept growing after warm-up: {warm} -> {settled} retained buffers \
         (one worker retains {one_worker})"
    );
    assert!(
        settled <= 2.0 * one_worker,
        "two-worker pool retains {settled} buffers, over twice the one-worker {one_worker}"
    );
}

#[test]
fn warm_kernel_sweep_performs_zero_fresh_buffer_allocations() {
    // Payload simulation on, small ring: the allocation behavior is
    // identical at every degree, only the buffer sizes change.
    let params = BfvParameters {
        payload_degree: 64,
        simulate_compute: true,
        ..BfvParameters::insecure_test()
    };
    for benchmark in benchsuite::full_suite() {
        let compiled = Compiler::without_optimizer().compile(benchmark.id(), benchmark.program());
        let session = compiled
            .session(&params)
            .unwrap_or_else(|e| panic!("{}: session construction failed: {e}", benchmark.id()));
        let inputs = inputs_of(&benchmark, 29);

        // Two passes fill the pool: the first allocates every buffer the
        // request shape needs, the second proves the pool round-trips.
        let cold = session
            .run(&inputs)
            .unwrap_or_else(|e| panic!("{}: cold run failed: {e}", benchmark.id()));
        let warm_up = session.run(&inputs).unwrap();
        assert_eq!(warm_up.outputs, cold.outputs, "{}", benchmark.id());

        PolyArena::reset_counters();
        let warm = session.run(&inputs).unwrap();
        let fresh = PolyArena::fresh_allocations();
        let reuses = PolyArena::reuses();
        assert_eq!(
            fresh,
            0,
            "{}: a warm request must serve every slot vector and payload \
             stripe from the arena ({reuses} reuses recorded)",
            benchmark.id()
        );
        assert!(
            reuses > 0,
            "{}: a served request must actually draw buffers from the arena",
            benchmark.id()
        );
        assert_eq!(
            warm.outputs,
            cold.outputs,
            "{}: buffer reuse must not change results",
            benchmark.id()
        );
    }

    // Direct round-trip pin for the plaintext-encode path: an encode drawn
    // from a warm arena must be a pool hit, and recycling must return the
    // slot vector so the next encode of the same width hits again.
    let ctx = chehab::fhe::FheContext::new(params.clone()).expect("context");
    let mut arena = PolyArena::new();
    let first = ctx.encode_in(&[1, 2, 3], &mut arena).expect("encode");
    first.recycle_into(&mut arena);
    PolyArena::reset_counters();
    let second = ctx.encode_in(&[4, 5, 6], &mut arena).expect("encode");
    assert_eq!(
        PolyArena::fresh_allocations(),
        0,
        "a recycled plaintext's slot vector must serve the next encode"
    );
    assert_eq!(PolyArena::reuses(), 1);
    assert_eq!(ctx.decode(&second, 3), vec![4, 5, 6]);

    two_worker_pool_settles(&params);
}
