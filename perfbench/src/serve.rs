//! The open-loop serving workloads: `serve-mixed` (two programs, each behind
//! its own `FheSession::serve` engine, at two RNS limbs) and `serve-batched`
//! (one program behind `FheSession::serve_batched`).

use crate::common::{
    circuit_matches, ms, peak_rss_mb, reference_output, repeat_timed, seeded_inputs, timed,
    train_tiny_agent,
};
use crate::loadgen::{poisson_schedule, sub_seed, Arrival, PhaseSpec};
use crate::probe::{probe_requests, record_request_layers, typical};
use crate::report::Outcome;
use crate::stats::{fastest, geomean, max_rate_at_slo, mean, median, tail, RateOutcome};
use chehab_benchsuite::{by_id, Benchmark};
use chehab_core::{
    BatchPolicy, Compiler, ExecOptions, ExecutionReport, FheSession, RequestCoalescer,
    TrySubmitError,
};
use chehab_fhe::{BfvParameters, FheError};
use chehab_runtime::{CoalescerStats, Histogram, RequestHandle, ServingStats};
use std::collections::HashMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::{Duration, Instant};

type Inputs = HashMap<String, i64>;
type Response = Result<ExecutionReport, FheError>;

/// Which front door a serving workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrontDoor {
    /// One `FheSession::serve` engine per program.
    Serve,
    /// One `FheSession::serve_batched` coalescer.
    Batched,
}

/// The fixed shape of a serving workload.
pub struct ServeConfig {
    pub door: FrontDoor,
    pub programs: &'static [&'static str],
    pub params: BfvParameters,
    pub exec: ExecOptions,
    /// Fixed offered rates, requests per second across all programs,
    /// ascending; the last lies above the front door's capacity.
    pub rates: &'static [f64],
    /// Rate multiplier of a closing burst phase (`None`: no burst).
    pub burst: Option<f64>,
    /// Deadline of the tight class.
    pub tight: Duration,
    /// Deadline of the loose class (also the engine deadline).
    pub loose: Duration,
    /// Share of requests in the tight class.
    pub tight_share: f64,
}

/// Dataflow workers the batched layers are traced at. The timed open loop
/// of `serve-batched` runs one worker per batch: at two, the session's
/// buffer pool keeps allocating in steady state and its peak memory grows
/// without bound from run to run.
const DATAFLOW_WORKERS: usize = 2;

/// Generator lateness beyond which a run is marked invalid.
const LATENESS_LIMIT_MS: f64 = 10.0;

/// `serve-mixed`: a bind-bound and an execute-bound program at two limbs.
///
/// On the 2-vCPU host the rates were chosen on, the Gx 5x5 engine is the
/// first to saturate: it sheds from about 96 req/s offered in total. The
/// top rate lies above that; the reference rate lies low enough that its
/// latencies hold steady from run to run.
pub fn mixed() -> ServeConfig {
    ServeConfig {
        door: FrontDoor::Serve,
        programs: &["Linear Reg. 32", "Gx 5x5"],
        params: BfvParameters::default_128().with_limb_count(2),
        exec: ExecOptions::sequential()
            .with_deadline(Duration::from_millis(400))
            .with_shed_infeasible(true),
        rates: &[8.0, 16.0, 48.0, 128.0],
        burst: Some(4.0),
        tight: Duration::from_millis(100),
        loose: Duration::from_millis(400),
        tight_share: 0.3,
    }
}

/// `serve-batched`: one unstructured program through the coalescer.
///
/// A batch of Tree 100-100-5 takes about 7 ms whatever its size, so batches
/// are capped at 4 users: the front door then saturates near 550 req/s, a
/// rate one load-generator thread can offer and exceed without falling
/// behind. The top rate lies above that; the reference rate lies low
/// enough that its tail holds steady from run to run.
pub fn batched() -> ServeConfig {
    ServeConfig {
        door: FrontDoor::Batched,
        programs: &["Tree 100-100-5"],
        params: BfvParameters::default_128(),
        exec: ExecOptions::sequential().with_batching(
            BatchPolicy::default()
                .with_max_batch(4)
                .with_max_linger(Duration::from_millis(20)),
        ),
        rates: &[50.0, 100.0, 400.0, 700.0],
        burst: None,
        tight: Duration::from_millis(100),
        loose: Duration::from_millis(100),
        tight_share: 0.0,
    }
}

/// Compiles per compiler and program in each measuring round.
const COMPILE_REPEATS: usize = 3;

/// Warm sequential runs per program in each measuring round.
const WARM_RUNS: usize = 4;

/// Index into `ServeConfig::rates` of the reference rate the latency
/// metrics use: the second lowest.
const REFERENCE: usize = 1;

/// Share of the run's seconds spent at the reference rate; the other rates
/// (and the burst, if any) share the rest.
const REFERENCE_SHARE: f64 = 0.6;

/// Users in the batch that warms the batched path in set-up.
const WARM_BATCH: u64 = 4;

/// One program's compile, session and run walls, gathered over the set-ups
/// and the measuring rounds.
#[derive(Default)]
struct ProgramFigures {
    greedy_ms: Vec<f64>,
    rl_ms: Vec<f64>,
    session_ms: Vec<f64>,
    exec_ms: Vec<f64>,
    noise_bits: f64,
    galois_keys: f64,
}

/// One program ready to serve, with the inputs and reference output its
/// set-up and measuring rounds run.
struct Served {
    bench: Benchmark,
    session: Arc<FheSession>,
    inputs: Inputs,
    expected: Vec<u64>,
}

/// What a collector keeps of one resolved request: only its outputs, so no
/// report is held and no check runs while the phase is under way.
enum Reply {
    Outputs(Vec<u64>),
    Expired,
    Error,
}

/// What happened to one scheduled request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Fate {
    /// Completed with the reference output after `latency` ms.
    Done { latency: f64 },
    /// Shed at the door or rejected by a full queue.
    Shed,
    /// Cancelled by its deadline.
    Expired,
    /// Wrong output, or an error other than shedding or a deadline.
    Failed,
}

struct PhaseResult {
    rate_rps: f64,
    arrivals: Vec<Arrival>,
    fates: Vec<Fate>,
    lateness_ms: Vec<f64>,
    serving: Vec<ServingStats>,
    coalescer: Option<CoalescerStats>,
}

enum Front {
    Serve(Vec<chehab_core::FheServingEngine>),
    Batched(RequestCoalescer<Inputs, Response>),
}

impl Front {
    fn try_submit(
        &self,
        program: usize,
        inputs: Inputs,
    ) -> Result<RequestHandle<Response>, TrySubmitError<Inputs>> {
        match self {
            Front::Serve(engines) => engines[program].try_submit(inputs),
            Front::Batched(coalescer) => coalescer.try_submit(inputs),
        }
    }

    fn lanes(&self) -> usize {
        match self {
            Front::Serve(engines) => engines.len(),
            Front::Batched(_) => 1,
        }
    }

    fn shutdown(self) -> (Vec<ServingStats>, Option<CoalescerStats>) {
        match self {
            Front::Serve(engines) => (engines.into_iter().map(|e| e.shutdown()).collect(), None),
            Front::Batched(coalescer) => (Vec::new(), Some(coalescer.shutdown())),
        }
    }
}

pub fn run(config: &ServeConfig, seed: u64, seconds: u64, traced: bool) -> Outcome {
    let mut outcome = Outcome::default();
    let benches: Vec<Benchmark> = config
        .programs
        .iter()
        .map(|id| by_id(id).unwrap_or_else(|| panic!("{id} is in the suite")))
        .collect();

    // The agent is trained once. Set-up proper (compile each program once
    // with each compiler, build its session, run it once) opens every
    // measuring round; its sessions replace the previous round's, which go
    // first so that memory holds one set of sessions, as a deployment would.
    let (agent, train_s) = train_tiny_agent();
    outcome.set("rl.train_s", train_s);
    let compilers = (Compiler::greedy(), Compiler::with_rl_agent(agent));
    let mut figures: Vec<ProgramFigures> =
        benches.iter().map(|_| ProgramFigures::default()).collect();
    let mut setup_walls = Vec::new();
    let mut set_up = |figures: &mut [ProgramFigures], outcome: &mut Outcome| {
        let started = Instant::now();
        let served = set_up_programs(config, &benches, &compilers, seed, figures, outcome);
        let wall = started.elapsed().as_secs_f64();
        println!(
            "setup {}: {wall:.3} s, peak RSS {:.1} MB",
            setup_walls.len(),
            peak_rss_mb()
        );
        setup_walls.push(wall);
        served
    };

    // The open loop: each fixed rate as its own phase (the reference rate
    // longest), then an optional burst; every phase drains before the next.
    // A measuring round (a set-up, then a fixed number of compiles and warm
    // runs) comes before the first phase and after each phase. So `setup_s`
    // (the median of all set-ups) and the compile and run figures sample the
    // whole run, not one stretch of the host's speed.
    let mut phases: Vec<PhaseSpec> = Vec::new();
    let total = seconds as f64;
    let burst_share = if config.burst.is_some() { 0.1 } else { 0.0 };
    let others = (config.rates.len() - 1).max(1) as f64;
    for (i, &rate) in config.rates.iter().enumerate() {
        let share = if i == REFERENCE {
            REFERENCE_SHARE
        } else {
            (1.0 - REFERENCE_SHARE - burst_share) / others
        };
        phases.push(PhaseSpec {
            rate_rps: rate,
            length: Duration::from_secs_f64(total * share),
            programs: benches.len(),
            tight_share: config.tight_share,
        });
    }
    if let Some(factor) = config.burst {
        phases.push(PhaseSpec {
            rate_rps: config.rates[REFERENCE] * factor,
            length: Duration::from_secs_f64(total * burst_share),
            programs: benches.len(),
            tight_share: config.tight_share,
        });
    }
    let mut results: Vec<PhaseResult> = Vec::new();
    let mut served = Vec::new();
    loop {
        served.clear();
        served = set_up(&mut figures, &mut outcome);
        measure_round(
            &served,
            &compilers,
            &config.params,
            &mut figures,
            &mut outcome,
        );
        let Some(spec) = phases.get(results.len()) else {
            break;
        };
        let phase_seed = sub_seed(seed, 10 + results.len() as u64);
        results.push(run_phase(config, &served, spec, phase_seed));
        println!(
            "after phase {}: peak RSS {:.1} MB",
            results.len() - 1,
            peak_rss_mb()
        );
    }
    outcome.set("setup_s", median(&setup_walls).expect("set-up ran"));

    // Each program's compile and run figures are the fastest of all its
    // walls, its session figure the median over set-ups; the workload's
    // figure is the geometric mean over programs.
    for (s, f) in served.iter().zip(&figures) {
        println!(
            "{}: greedy {:.3} ms, rl {:.3} ms (fastest of {}), session {:.3} ms, warm run {:.3} ms (fastest of {})",
            s.bench.id(),
            fastest(&f.greedy_ms).expect("compiled"),
            fastest(&f.rl_ms).expect("compiled"),
            f.rl_ms.len(),
            median(&f.session_ms).expect("set-up ran"),
            fastest(&f.exec_ms).expect("ran"),
            f.exec_ms.len()
        );
    }
    let across =
        |f: &dyn Fn(&ProgramFigures) -> f64| -> Vec<f64> { figures.iter().map(f).collect() };
    let g = |v: Vec<f64>| geomean(&v).unwrap_or(0.0);
    let first = |v: &[f64]| fastest(v).expect("measured");
    outcome.set("compile_ms_geomean", g(across(&|f| first(&f.greedy_ms))));
    outcome.set("rl_compile_ms_geomean", g(across(&|f| first(&f.rl_ms))));
    outcome.set("exec_ms_geomean", g(across(&|f| first(&f.exec_ms))));
    outcome.set("noise_bits_geomean", g(across(&|f| f.noise_bits)));
    outcome.set(
        "core.session_ms",
        typical(&across(&|f| median(&f.session_ms).expect("set-up ran"))),
    );
    outcome.set(
        "fhe.galois_keys",
        mean(&across(&|f| f.galois_keys)).unwrap_or(0.0),
    );

    let mut rate_table = Vec::new();
    for (i, result) in results.iter().enumerate() {
        let sent = result.fates.len();
        let mut met = 0;
        let (mut shed, mut expired, mut failed) = (0, 0, 0);
        for (arrival, fate) in result.arrivals.iter().zip(&result.fates) {
            outcome.check(*fate != Fate::Failed);
            match *fate {
                Fate::Done { latency } => {
                    let limit = if arrival.tight {
                        config.tight
                    } else {
                        config.loose
                    };
                    if latency <= ms(limit) {
                        met += 1;
                    }
                }
                Fate::Shed => shed += 1,
                Fate::Expired => expired += 1,
                Fate::Failed => failed += 1,
            }
        }
        let backlog_grew = backlog_grew(result, config.tight);
        let label = if i < config.rates.len() {
            "rate"
        } else {
            "burst"
        };
        println!(
            "{label} {:>6.1} req/s: sent {sent}, met SLO {met} ({:.1}%), shed {shed}, deadline {expired}, failed {failed}, backlog grew {backlog_grew}",
            result.rate_rps,
            100.0 * met as f64 / sent.max(1) as f64
        );
        if i < config.rates.len() {
            rate_table.push(RateOutcome {
                rate_rps: result.rate_rps,
                sent,
                met,
                backlog_grew,
            });
        }
    }
    outcome.set("serving.max_rate_at_slo_rps", max_rate_at_slo(&rate_table));

    // Latency at the reference rate: per program, then the geometric mean
    // across programs (one vote each). Shed and failed requests count as
    // missing the limit (an infinite latency).
    let reference = &results[REFERENCE];
    let (mut p50s, mut tails) = (Vec::new(), Vec::new());
    for (p, served) in served.iter().enumerate() {
        let latencies: Vec<f64> = reference
            .arrivals
            .iter()
            .zip(&reference.fates)
            .filter(|(a, _)| a.program == p)
            .map(|(_, fate)| match fate {
                Fate::Done { latency } => *latency,
                _ => f64::INFINITY,
            })
            .collect();
        let p50 = median(&latencies).unwrap_or(f64::INFINITY);
        let Some(t) = tail(&latencies) else {
            outcome.invalid.push(format!(
                "{}: too few requests for a tail",
                served.bench.id()
            ));
            continue;
        };
        println!(
            "{}: at {} req/s p50 {p50:.3} ms, tail p{:.1} {:.3} ms ({} of {} samples beyond)",
            served.bench.id(),
            reference.rate_rps,
            t.percentile,
            t.value,
            t.beyond,
            t.samples
        );
        p50s.push(p50);
        tails.push(t.value);
    }
    if p50s.iter().chain(&tails).any(|v| !v.is_finite()) {
        outcome
            .invalid
            .push("reference-rate latency percentile fell on a missed request".to_string());
    }
    let cap = |v: Vec<f64>| -> Vec<f64> {
        v.into_iter()
            .map(|x| x.min(ms(phases[REFERENCE].length)))
            .collect()
    };
    outcome.set("latency_p50_ms", geomean(&cap(p50s)).unwrap_or(0.0));
    outcome.set("latency_tail_ms", geomean(&cap(tails)).unwrap_or(0.0));

    let lateness: Vec<f64> = results
        .iter()
        .flat_map(|r| r.lateness_ms.iter().copied())
        .collect();
    let late = tail(&lateness).map_or(0.0, |t| t.value);
    println!(
        "generator lateness: tail {late:.3} ms over {} arrivals",
        lateness.len()
    );
    outcome.set("gen.lateness_ms_tail", late);
    if late > LATENESS_LIMIT_MS {
        outcome.invalid.push(format!(
            "load generator fell behind: lateness tail {late:.1} ms"
        ));
    }

    record_serving_layers(&mut outcome, &results, reference);
    if traced {
        trace_requests(config, &served, seed, &mut outcome, reference);
    }
    outcome.set("peak_rss_mb", peak_rss_mb());
    outcome
}

/// One set-up of the workload's programs: compile each once with each
/// compiler, build its session and run it once (and, batched, run one
/// batch), checking every output on the way.
fn set_up_programs(
    config: &ServeConfig,
    benches: &[Benchmark],
    compilers: &(Compiler, Compiler),
    seed: u64,
    figures: &mut [ProgramFigures],
    outcome: &mut Outcome,
) -> Vec<Served> {
    let plain = config.params.plain_modulus;
    let mut served = Vec::new();
    for (index, (bench, f)) in benches.iter().zip(figures.iter_mut()).enumerate() {
        let program = bench.program();
        let inputs = seeded_inputs(program, sub_seed(seed, 1000 + index as u64));
        let expected = reference_output(program, &inputs, bench.output_slots(), plain);
        let (compiled, greedy_ms) = timed(|| compilers.0.compile(bench.id(), program));
        let (rl_compiled, rl_ms) = timed(|| compilers.1.compile(bench.id(), program));
        outcome.check(circuit_matches(
            rl_compiled.circuit(),
            &inputs,
            &expected,
            plain,
        ));
        let (session, session_ms) = timed(|| compiled.session(&config.params));
        let session =
            Arc::new(session.unwrap_or_else(|e| panic!("{}: session failed: {e}", bench.id())));
        let report = session.run(&inputs);
        outcome.check(
            report
                .as_ref()
                .is_ok_and(|r| r.decryption_ok && r.outputs == expected),
        );
        if config.door == FrontDoor::Batched {
            let users: Vec<Inputs> = (0..WARM_BATCH)
                .map(|u| seeded_inputs(program, sub_seed(seed, 2000 + u)))
                .collect();
            let reports = session.run_batched(&users, &config.exec);
            outcome.check(reports.is_ok_and(|rs| {
                rs.iter().zip(&users).all(|(r, u)| {
                    r.outputs == reference_output(program, u, bench.output_slots(), plain)
                })
            }));
        }
        f.greedy_ms.push(greedy_ms);
        f.rl_ms.push(rl_ms);
        f.session_ms.push(session_ms);
        f.galois_keys = session.stats().galois_key_count as f64;
        served.push(Served {
            bench: bench.clone(),
            session,
            inputs,
            expected,
        });
    }
    served
}

/// The compiles and warm runs of one measuring round, outside the set-up
/// timer and between open-loop phases: a fixed number of compiles with each
/// compiler and of warm sequential runs per program, every output checked.
fn measure_round(
    served: &[Served],
    compilers: &(Compiler, Compiler),
    params: &BfvParameters,
    figures: &mut [ProgramFigures],
    outcome: &mut Outcome,
) {
    let plain = params.plain_modulus;
    for (s, f) in served.iter().zip(figures.iter_mut()) {
        let program = s.bench.program();
        for _ in 0..COMPILE_REPEATS {
            let (_, wall) = timed(|| compilers.0.compile(s.bench.id(), program));
            f.greedy_ms.push(wall);
            let (rl_compiled, wall) = timed(|| compilers.1.compile(s.bench.id(), program));
            f.rl_ms.push(wall);
            outcome.check(circuit_matches(
                rl_compiled.circuit(),
                &s.inputs,
                &s.expected,
                plain,
            ));
        }
        for _ in 0..WARM_RUNS {
            let (report, wall) = timed(|| s.session.run(&s.inputs));
            f.exec_ms.push(wall);
            outcome.check(
                report
                    .as_ref()
                    .is_ok_and(|r| r.decryption_ok && r.outputs == s.expected),
            );
            if let Ok(report) = report {
                f.noise_bits = report.noise_budget_consumed;
            }
        }
    }
}

/// Whether a phase's backlog kept growing: the median latency of its last
/// quarter of arrivals is more than twice that of its first quarter and
/// beyond the tight deadline.
fn backlog_grew(result: &PhaseResult, tight: Duration) -> bool {
    let n = result.fates.len();
    let quarter = |range: std::ops::Range<usize>| -> Option<f64> {
        let v: Vec<f64> = result.fates[range]
            .iter()
            .map(|f| match f {
                Fate::Done { latency } => *latency,
                _ => f64::INFINITY,
            })
            .collect();
        median(&v)
    };
    if n < 8 {
        return false;
    }
    match (quarter(0..n / 4), quarter(n - n / 4..n)) {
        (Some(first), Some(last)) => last > 2.0 * first && last > ms(tight),
        _ => false,
    }
}

fn run_phase(config: &ServeConfig, served: &[Served], spec: &PhaseSpec, seed: u64) -> PhaseResult {
    let plain = config.params.plain_modulus;
    let arrivals = poisson_schedule(seed, spec);
    let front = match config.door {
        FrontDoor::Serve => Front::Serve(
            served
                .iter()
                .map(|s| s.session.serve(&config.exec))
                .collect(),
        ),
        FrontDoor::Batched => Front::Batched(served[0].session.serve_batched(&config.exec)),
    };
    let mut fates = vec![Fate::Shed; arrivals.len()];
    let mut lateness_ms = Vec::with_capacity(arrivals.len());
    let start = Instant::now() + Duration::from_millis(5);
    let mut replies = Vec::with_capacity(arrivals.len());
    std::thread::scope(|scope| {
        // One collector per front door blocks on its handles in submission
        // order (each serves in FIFO order) and stamps when each resolves.
        // It keeps only the outputs; they are checked once the phase has
        // drained, so no check runs beside the program or delays a stamp.
        let mut senders = Vec::new();
        let mut collectors = Vec::new();
        for _ in 0..front.lanes() {
            let (tx, rx) = mpsc::channel::<(usize, RequestHandle<Response>)>();
            senders.push(tx);
            let arrivals = &arrivals;
            collectors.push(scope.spawn(move || {
                rx.into_iter()
                    .map(|(index, handle)| {
                        let result = handle.try_wait();
                        let latency =
                            ms(Instant::now()
                                .saturating_duration_since(start + arrivals[index].at));
                        let reply = match result {
                            Ok(Ok(report)) if report.decryption_ok => {
                                Reply::Outputs(report.outputs)
                            }
                            Ok(Err(FheError::DeadlineExceeded | FheError::Cancelled)) => {
                                Reply::Expired
                            }
                            _ => Reply::Error,
                        };
                        (index, latency, reply)
                    })
                    .collect::<Vec<_>>()
            }));
        }
        for (index, arrival) in arrivals.iter().enumerate() {
            // Inputs are drawn just before they are due, so only in-flight
            // requests hold memory.
            let inputs = seeded_inputs(served[arrival.program].bench.program(), arrival.input_seed);
            let due = start + arrival.at;
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            lateness_ms.push(ms(Instant::now().saturating_duration_since(due)));
            match front.try_submit(arrival.program, inputs) {
                Ok(handle) => {
                    let lane = match config.door {
                        FrontDoor::Serve => arrival.program,
                        FrontDoor::Batched => 0,
                    };
                    senders[lane]
                        .send((index, handle))
                        .expect("collector is alive");
                }
                Err(TrySubmitError::Shed(_) | TrySubmitError::QueueFull(_)) => {
                    fates[index] = Fate::Shed
                }
                Err(TrySubmitError::ShutDown(_)) => fates[index] = Fate::Failed,
            }
        }
        drop(senders);
        for collector in collectors {
            replies.extend(collector.join().expect("collector thread"));
        }
    });
    for (index, latency, reply) in replies {
        let arrival = &arrivals[index];
        let bench = &served[arrival.program].bench;
        fates[index] = match reply {
            Reply::Outputs(outputs) => {
                let inputs = seeded_inputs(bench.program(), arrival.input_seed);
                let expected =
                    reference_output(bench.program(), &inputs, bench.output_slots(), plain);
                if outputs == expected {
                    Fate::Done { latency }
                } else {
                    Fate::Failed
                }
            }
            Reply::Expired => Fate::Expired,
            Reply::Error => Fate::Failed,
        };
    }
    let (serving, coalescer) = front.shutdown();
    PhaseResult {
        rate_rps: spec.rate_rps,
        arrivals,
        fates,
        lateness_ms,
        serving,
        coalescer,
    }
}

/// Serving and batching layer figures: the reference phase's queue waits,
/// utilization and batch shape, and shed / deadline counts over every phase.
fn record_serving_layers(outcome: &mut Outcome, results: &[PhaseResult], reference: &PhaseResult) {
    let mut waits = Histogram::new();
    let (mut busy, mut capacity) = (0.0, 0.0);
    for stats in &reference.serving {
        waits.merge(&stats.latency.queue_wait);
        busy += stats.busy.as_secs_f64();
        capacity += stats.elapsed.as_secs_f64() * stats.workers as f64;
    }
    if !reference.serving.is_empty() {
        let n = waits.count() as f64;
        let tail_pct = if n > 10.0 {
            100.0 * (n - 10.0) / n
        } else {
            50.0
        };
        outcome.set("serving.queue_wait_ms_p50", waits.p50().map_or(0.0, ms));
        outcome.set(
            "serving.queue_wait_ms_tail",
            waits.percentile(tail_pct).map_or(0.0, ms),
        );
        outcome.set(
            "serving.utilization",
            busy / capacity.max(f64::MIN_POSITIVE),
        );
        let total = |f: fn(&ServingStats) -> u64| -> f64 {
            results.iter().flat_map(|r| &r.serving).map(f).sum::<u64>() as f64
        };
        outcome.set("serving.shed", total(|s| s.resilience.shed));
        outcome.set(
            "serving.deadline_missed",
            total(|s| s.resilience.deadline_missed),
        );
    }
    if let Some(stats) = &reference.coalescer {
        let batch = stats.mean_batch_size().unwrap_or(0.0);
        outcome.set("batching.mean_batch_size", batch);
        outcome.set(
            "batching.lane_occupancy_pct",
            stats
                .lane_occupancy
                .mean()
                .map_or(0.0, |d| d.as_nanos() as f64),
        );
        outcome.set("batching.linger_ms_p50", stats.linger.p50().map_or(0.0, ms));
    }
}

/// The traced part of a serving run: a sample of each program's requests
/// through `trace_request`, next to untraced ones, and (batched) the
/// `run_batched` wall at the observed mean batch size.
fn trace_requests(
    config: &ServeConfig,
    served: &[Served],
    seed: u64,
    outcome: &mut Outcome,
    reference: &PhaseResult,
) {
    let plain = config.params.plain_modulus;
    // Requests of the batched workload are traced at two dataflow workers,
    // the configuration its layers are specified at.
    let probe_exec = match config.door {
        FrontDoor::Serve => config.exec,
        FrontDoor::Batched => config.exec.with_threads_per_request(DATAFLOW_WORKERS),
    };
    let mut probes = Vec::new();
    for (index, s) in served.iter().enumerate() {
        let program = s.bench.program();
        let inputs = seeded_inputs(program, sub_seed(seed, 3000 + index as u64));
        let expected = reference_output(program, &inputs, s.bench.output_slots(), plain);
        let (probe, attempted, failed) =
            probe_requests(&s.session, &inputs, &probe_exec, 5, |out| {
                out == expected.as_slice()
            });
        outcome.attempted += attempted;
        outcome.failed += failed;
        println!(
            "{}: bind {:.3} ms ({:.1}% of wall), execute {:.3} ms, decrypt {:.3} ms, dispatch {:.3} ms; traced wall {:.3} ms, untraced {:.3} ms",
            s.bench.id(),
            probe.bind_ms,
            100.0 * probe.bind_ms / probe.traced_wall_ms,
            probe.execute_ms,
            probe.decrypt_ms,
            probe.dispatch_ms,
            probe.traced_wall_ms,
            probe.untraced_wall_ms
        );
        probes.push(probe);
    }
    let invalid = record_request_layers(outcome, &probes);
    outcome.invalid.extend(invalid);
    if let Some(stats) = &reference.coalescer {
        // `run_batched` at the observed mean batch size: its wall under the
        // served configuration, and the dataflow counters at two workers.
        let users = stats.mean_batch_size().unwrap_or(1.0).round().max(1.0) as usize;
        let program = served[0].bench.program();
        let inputs: Vec<Inputs> = (0..users)
            .map(|u| seeded_inputs(program, sub_seed(seed, 4000 + u as u64)))
            .collect();
        let expected: Vec<Vec<u64>> = inputs
            .iter()
            .map(|u| reference_output(program, u, served[0].bench.output_slots(), plain))
            .collect();
        let mut batched = |exec: &ExecOptions| {
            let (walls, reports) = repeat_timed(3, 3, Duration::ZERO, || {
                served[0].session.run_batched(&inputs, exec)
            });
            let reports = reports.unwrap_or_default();
            outcome.check(
                reports.len() == users
                    && reports.iter().zip(&expected).all(|(r, e)| r.outputs == *e),
            );
            (median(&walls).unwrap_or(0.0), reports)
        };
        let (wall, _) = batched(&config.exec);
        println!("run_batched at {users} users: {wall:.3} ms");
        let (wall2, reports) = batched(&config.exec.with_threads_per_request(DATAFLOW_WORKERS));
        println!(
            "run_batched at {users} users, {DATAFLOW_WORKERS} dataflow workers: {wall2:.3} ms"
        );
        outcome.set("batching.batch_wall_ms", wall);
        if let Some(report) = reports.first() {
            let timing = &report.timing;
            outcome.set(
                "runtime.steals_per_request",
                timing.steals as f64 / users as f64,
            );
            outcome.set(
                "runtime.intra_op_splits_per_request",
                timing.intra_op_splits as f64 / users as f64,
            );
            let waits: Vec<f64> = timing
                .queue_waits
                .iter()
                .map(|w| w.as_secs_f64() * 1e6)
                .collect();
            outcome.set("runtime.instr_queue_wait_us", mean(&waits).unwrap_or(0.0));
        }
    }
}
