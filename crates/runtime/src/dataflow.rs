//! The dataflow executor: dependency-counting, work-stealing, barrier-free
//! execution of instruction schedules — the one executor every request runs
//! through, from the one-worker sequential baseline to multi-worker runs.
//!
//! A level-synchronized executor would put a barrier between topological
//! levels, so every level would pay for its slowest instruction (a level
//! with one ct-ct multiplication and thirty additions idles most of the pool
//! for the multiplication's whole span). The [`DataflowExecutor`] has no
//! barriers: [`Schedule::lower`] emits each instruction's remaining-dependency
//! count and dependent list (the transpose of the operand graph), and an
//! instruction becomes runnable the instant its last operand is written.
//! [`TimingBreakdown::reclaimed_slack`] reports the slack a leveled run
//! would have paid, projected from measured instruction times.
//!
//! Scheduling follows the classic work-stealing shape:
//!
//! - each worker owns a **local deque**, kept sorted by critical-path
//!   priority: instructions a worker makes ready go to its own deque first
//!   (the operands are hot in its cache);
//! - a shared **injector** heap seeds the initially-ready instructions;
//! - an idle worker pops its own deque from the front (highest priority),
//!   then the injector, then **steals** from the back of the richest
//!   victim's deque (lowest-priority entry — the one the victim would run
//!   last), counting every steal;
//! - ready order is *critical-path-first*: priorities are the longest
//!   remaining dependency chain under a cost table
//!   ([`Schedule::critical_path_priorities`]), so the instructions that gate
//!   the most downstream work run first. Sessions recompute priorities from
//!   the accumulated [`CalibratedCostModel`] — the timer-augmented cost
//!   function of McDoniel & Bientinesi applied to ready-queue ordering.
//!
//! Intra-op parallelism composes dynamically: when fewer instructions are
//! ready than the pool has threads, the spare threads flow into the heavy
//! ready instructions' payload loops ([`dynamic_intra_op_grant`]), clamped
//! so outstanding grants plus the ready-queue width never oversubscribe the
//! pool.
//!
//! Results are bit-identical to sequential execution at every worker count
//! and steal order: every homomorphic operation is a pure function of its
//! operands, and a register is written exactly once before any dependent
//! reads it.

use crate::calibrate::CalibratedCostModel;
use crate::exec::{
    dispatch_instr, publish_and_reap, validate_operands, ExecOutcome, ExecResources, Register,
    RegisterFile, TimingBreakdown,
};
use crate::schedule::Schedule;
use crate::telemetry::TraceBuffer;
use chehab_fhe::{Evaluator, EvaluatorStats, FheError};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// The intra-op worker budget of one instruction popped from the ready
/// queue, clamped so the pool is never oversubscribed: `outstanding` threads
/// are already granted to in-flight instructions, and `ready` queued
/// instructions are each about to claim at least one thread, so this
/// instruction may use what is left (never less than one).
///
/// The clamp matters on small hosts: on the 1-CPU build machine an
/// oversubscribed pool shows up as a measured regression (context-switch
/// thrash inside payload loops), not as noise.
pub fn dynamic_intra_op_grant(pool: usize, outstanding: usize, ready: usize) -> usize {
    pool.max(1).saturating_sub(outstanding + ready).max(1)
}

/// A ready instruction travelling through the scheduler queues.
#[derive(Debug, Clone, Copy)]
struct Ready {
    /// Critical-path priority (longest remaining dependency chain).
    priority: f64,
    /// Index into [`Schedule::instrs`].
    index: usize,
    /// When the last dependency was satisfied (queue-wait epoch).
    since: Instant,
}

/// Run order: a greater `Ready` runs first — higher priority, then the
/// lower instruction index on ties, for determinism.
impl Ord for Ready {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.priority
            .total_cmp(&other.priority)
            .then(other.index.cmp(&self.index))
    }
}

impl PartialOrd for Ready {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Ready {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}

impl Eq for Ready {}

/// Scheduler state shared by every worker, behind one mutex: per-worker
/// local deques, the injector, dependency counters and the grant ledger.
/// FHE instructions cost tens of microseconds to milliseconds, so one
/// uncontended lock per pop/complete is noise; correctness (no lost
/// wakeups, exact grant accounting) is what matters here.
struct SchedState {
    /// Per-worker local deques, each sorted by descending priority (owners
    /// pop the front, thieves steal the back).
    locals: Vec<VecDeque<Ready>>,
    /// Initially-ready instructions, shared by everyone.
    injector: Vec<Ready>,
    /// Remaining-dependency count per instruction.
    pending: Vec<usize>,
    /// Instructions not yet completed (termination condition).
    remaining: usize,
    /// Ready instructions currently queued anywhere.
    ready_count: usize,
    /// Intra-op threads currently granted to in-flight instructions.
    granted: usize,
    /// Ready instructions taken from another worker's local deque.
    steals: u64,
    /// Set when a worker hit an error: everyone drains and exits.
    abort: bool,
    failure: Option<FheError>,
}

impl SchedState {
    /// Pops the next instruction for `worker`: own deque front, then the
    /// injector (highest priority), then a steal from the back of the
    /// richest victim's deque. The second element is the steal provenance:
    /// `Some(victim)` when the instruction was taken from another worker's
    /// deque, `None` for own/injector pops — recorded on trace spans.
    fn pop(&mut self, worker: usize) -> Option<(Ready, Option<usize>)> {
        if let Some(ready) = self.locals[worker].pop_front() {
            return Some((ready, None));
        }
        if !self.injector.is_empty() {
            // The injector is kept sorted ascending; the best is at the end.
            return self.injector.pop().map(|ready| (ready, None));
        }
        let victim = self
            .locals
            .iter()
            .enumerate()
            .filter(|(v, deque)| *v != worker && !deque.is_empty())
            .max_by(|(a_idx, a), (b_idx, b)| a.len().cmp(&b.len()).then(b_idx.cmp(a_idx)))
            .map(|(v, _)| v)?;
        self.steals += 1;
        self.locals[victim]
            .pop_back()
            .map(|ready| (ready, Some(victim)))
    }

    /// Inserts a newly-ready instruction into `worker`'s deque, keeping it
    /// sorted by descending priority (front = next to run).
    fn push_local(&mut self, worker: usize, ready: Ready) {
        let deque = &mut self.locals[worker];
        let pos = deque.iter().position(|r| *r < ready).unwrap_or(deque.len());
        deque.insert(pos, ready);
        self.ready_count += 1;
    }
}

/// Executes instruction schedules barrier-free on a pool of worker threads,
/// dependency counts deciding readiness and work stealing deciding
/// placement. Outputs are bit-identical at every worker count.
#[derive(Debug, Clone, Copy)]
pub struct DataflowExecutor {
    threads: usize,
}

impl DataflowExecutor {
    /// Creates an executor with the given worker-thread count (clamped to at
    /// least one).
    pub fn new(threads: usize) -> Self {
        DataflowExecutor {
            threads: threads.max(1),
        }
    }

    /// The configured worker-thread count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a schedule with critical-path priorities derived from the static
    /// cost estimates the schedule was lowered with. See
    /// [`DataflowExecutor::execute_with_priorities`] for the contract.
    ///
    /// # Errors
    ///
    /// Returns the first [`FheError`] any worker hit.
    pub fn execute(
        &self,
        schedule: &Schedule,
        initial: Vec<Option<Register>>,
        res: &ExecResources<'_>,
    ) -> Result<ExecOutcome, FheError> {
        self.execute_with_priorities(schedule, initial, res, &schedule.default_priorities())
    }

    /// Runs a schedule against a register file whose pre-bound slots are
    /// filled, popping ready instructions in descending `priorities` order
    /// (one entry per instruction, e.g. from
    /// [`Schedule::critical_path_priorities`] under a calibrated cost
    /// table).
    ///
    /// # Errors
    ///
    /// Returns the first [`FheError`] any worker hit; remaining work is
    /// abandoned (every in-flight instruction still completes).
    ///
    /// # Panics
    ///
    /// Panics if the schedule references a slot that is neither pre-bound
    /// nor produced by an earlier instruction, or if `priorities` is shorter
    /// than the instruction list. Both checks run up front on the calling
    /// thread.
    pub fn execute_with_priorities(
        &self,
        schedule: &Schedule,
        initial: Vec<Option<Register>>,
        res: &ExecResources<'_>,
        priorities: &[f64],
    ) -> Result<ExecOutcome, FheError> {
        assert_eq!(
            initial.len(),
            schedule.slot_count(),
            "register file size mismatch"
        );
        assert!(
            priorities.len() >= schedule.instrs().len(),
            "need one priority per instruction"
        );
        let mut rf = RegisterFile::new(initial, schedule);
        validate_operands(schedule, &rf);

        let n = schedule.instrs().len();
        // The ready set can span levels, so the useful worker bound is the
        // instruction count, not the widest level.
        let workers = self.threads.min(n.max(1));
        // Dynamic intra-op grants only pay off when payloads are large
        // enough for the evaluator to actually split them. The split axis is
        // the whole `limb_count · degree` component stripe: a multi-limb
        // session splits limb-first (each chunk is one limb's coefficient
        // range) even when a single limb would stay below the threshold.
        let splittable = self.threads > 1
            && res.ctx.params().payload_degree * res.ctx.params().limb_count
                >= Evaluator::INTRA_OP_MIN_DEGREE;
        let started = Instant::now();
        let result = if n == 0 {
            Ok((EvaluatorStats::default(), TimingBreakdown::empty(workers)))
        } else if workers == 1 {
            self.execute_single(schedule, &rf, res, priorities, splittable)
        } else {
            // Grants draw on the full *requested* pool, not the clamped
            // worker count: a 3-instruction schedule under 8 threads still
            // has 8 threads' worth of cores to chunk payloads across.
            execute_parallel(
                schedule,
                &rf,
                res,
                priorities,
                workers,
                self.threads,
                splittable,
            )
        };

        // On success, take the output before sweeping the file; on failure
        // (error, cancellation, injected fault) leave it in place so the
        // sweep reclaims it too. Either way every register still held by the
        // file goes back to the pool — an aborted request must not leak its
        // buffers.
        let output = result.as_ref().ok().map(|_| {
            rf.take_output()
                .expect("output register is pre-bound or produced by the schedule")
        });
        let mut arena = res.arenas.checkout();
        rf.recycle_remaining(&mut arena);
        res.arenas.restore(arena);
        let (stats, mut timing) = result?;
        timing.wall = started.elapsed();
        if n > 0 {
            timing.reclaimed_slack = schedule
                .makespan(&timing.instr_times, workers)
                .saturating_sub(schedule.dataflow_makespan(&timing.instr_times, workers));
        }
        Ok(ExecOutcome {
            output: output.expect("output taken on the success path"),
            stats,
            timing,
        })
    }

    /// One worker, no queues to contend on: a priority-ordered topological
    /// walk. The whole requested pool chunks *inside* each heavy op — with a
    /// single instruction stream there is never a competing ready
    /// instruction to reserve threads for.
    fn execute_single(
        &self,
        schedule: &Schedule,
        rf: &RegisterFile,
        res: &ExecResources<'_>,
        priorities: &[f64],
        splittable: bool,
    ) -> Result<(EvaluatorStats, TimingBreakdown), FheError> {
        let n = schedule.instrs().len();
        let mut evaluator = Evaluator::with_arena(res.ctx, res.arenas.checkout());
        let grant = if splittable { self.threads } else { 1 };
        if splittable {
            evaluator.set_intra_op_threads(self.threads);
        }
        let mut tracer = res
            .trace
            .map(|sink| TraceBuffer::new(sink, "dataflow worker 0"));
        let mut calibration = CalibratedCostModel::new();
        let mut instr_times = vec![Duration::ZERO; n];
        let mut queue_waits = vec![Duration::ZERO; n];
        let mut pending = schedule.dep_counts().to_vec();
        let mut ready: BinaryHeap<Ready> = (0..n)
            .filter(|&i| pending[i] == 0)
            .map(|index| Ready {
                priority: priorities[index],
                index,
                since: Instant::now(),
            })
            .collect();
        let mut completed = 0usize;
        let mut failure: Option<FheError> = None;
        while let Some(item) = ready.pop() {
            let si = &schedule.instrs()[item.index];
            let wait = item.since.elapsed();
            queue_waits[item.index] = wait;
            let instr_started = Instant::now();
            match dispatch_instr(si, rf, &mut evaluator, res, &mut calibration) {
                Ok(register) => {
                    let elapsed = instr_started.elapsed();
                    instr_times[item.index] = elapsed;
                    if let Some(tracer) = tracer.as_mut() {
                        tracer.record(
                            si.instr.label(),
                            "instr",
                            instr_started,
                            elapsed,
                            Some(item.index),
                            Some(wait),
                            Some(grant),
                            None,
                        );
                    }
                    publish_and_reap(rf, si, register, &mut evaluator);
                }
                Err(e) => {
                    failure = Some(e);
                    break;
                }
            }
            completed += 1;
            for &d in &schedule.dependents()[item.index] {
                pending[d] -= 1;
                if pending[d] == 0 {
                    ready.push(Ready {
                        priority: priorities[d],
                        index: d,
                        since: Instant::now(),
                    });
                }
            }
        }
        res.arenas.restore(evaluator.take_arena());
        if let Some(error) = failure {
            return Err(error);
        }
        assert_eq!(completed, n, "dataflow walk drained every instruction");
        let timing = TimingBreakdown {
            threads: 1,
            wall: Duration::ZERO, // stamped by the caller
            per_op: calibration,
            instr_times,
            queue_waits,
            steals: 0,
            reclaimed_slack: Duration::ZERO, // stamped by the caller
            intra_op_splits: evaluator.intra_op_splits(),
        };
        Ok((evaluator.stats(), timing))
    }
}

fn execute_parallel(
    schedule: &Schedule,
    rf: &RegisterFile,
    res: &ExecResources<'_>,
    priorities: &[f64],
    workers: usize,
    pool: usize,
    splittable: bool,
) -> Result<(EvaluatorStats, TimingBreakdown), FheError> {
    let n = schedule.instrs().len();
    let mut injector: Vec<Ready> = (0..n)
        .filter(|&i| schedule.dep_counts()[i] == 0)
        .map(|index| Ready {
            priority: priorities[index],
            index,
            since: Instant::now(),
        })
        .collect();
    // Ascending sort: `SchedState::pop` takes the best from the end.
    injector.sort_unstable();
    let ready_count = injector.len();
    let state = Mutex::new(SchedState {
        locals: (0..workers).map(|_| VecDeque::new()).collect(),
        injector,
        pending: schedule.dep_counts().to_vec(),
        remaining: n,
        ready_count,
        granted: 0,
        steals: 0,
        abort: false,
        failure: None,
    });
    let work_available = Condvar::new();
    type Merged = (EvaluatorStats, CalibratedCostModel, u64);
    let merged: Mutex<(Merged, Vec<Duration>, Vec<Duration>)> = Mutex::new((
        (EvaluatorStats::default(), CalibratedCostModel::new(), 0),
        vec![Duration::ZERO; n],
        vec![Duration::ZERO; n],
    ));

    std::thread::scope(|scope| {
        for worker in 0..workers {
            let state = &state;
            let work_available = &work_available;
            let merged = &merged;
            scope.spawn(move || {
                let mut evaluator = Evaluator::with_arena(res.ctx, res.arenas.checkout());
                let mut calibration = CalibratedCostModel::new();
                let mut tracer = res
                    .trace
                    .map(|sink| TraceBuffer::new(sink, format!("dataflow worker {worker}")));
                // (index, queue wait, run span) of every instruction this
                // worker executed.
                let mut timed: Vec<(usize, Duration, Duration)> = Vec::new();
                loop {
                    let popped = {
                        let mut st = state.lock().unwrap();
                        loop {
                            if st.abort || st.remaining == 0 {
                                break None;
                            }
                            if let Some((item, stolen_from)) = st.pop(worker) {
                                st.ready_count -= 1;
                                let grant = if splittable {
                                    dynamic_intra_op_grant(pool, st.granted, st.ready_count)
                                } else {
                                    1
                                };
                                st.granted += grant;
                                break Some((item, grant, stolen_from));
                            }
                            st = work_available.wait(st).unwrap();
                        }
                    };
                    let Some((item, grant, stolen_from)) = popped else {
                        break;
                    };

                    let si = &schedule.instrs()[item.index];
                    let wait = item.since.elapsed();
                    evaluator.set_intra_op_threads(grant);
                    let instr_started = Instant::now();
                    let result = dispatch_instr(si, rf, &mut evaluator, res, &mut calibration);
                    let span = instr_started.elapsed();

                    match result {
                        Ok(register) => {
                            if let Some(tracer) = tracer.as_mut() {
                                tracer.record(
                                    si.instr.label(),
                                    "instr",
                                    instr_started,
                                    span,
                                    Some(item.index),
                                    Some(wait),
                                    Some(grant),
                                    stolen_from,
                                );
                            }
                            publish_and_reap(rf, si, register, &mut evaluator);
                            timed.push((item.index, wait, span));
                            let mut st = state.lock().unwrap();
                            st.granted -= grant;
                            st.remaining -= 1;
                            for &d in &schedule.dependents()[item.index] {
                                st.pending[d] -= 1;
                                if st.pending[d] == 0 {
                                    st.push_local(
                                        worker,
                                        Ready {
                                            priority: priorities[d],
                                            index: d,
                                            since: Instant::now(),
                                        },
                                    );
                                }
                            }
                            // Every completion can end the run or expose
                            // stealable work; waking everyone is cheap at
                            // FHE-op granularity and can never lose a
                            // wakeup.
                            drop(st);
                            work_available.notify_all();
                        }
                        Err(e) => {
                            let mut st = state.lock().unwrap();
                            st.granted -= grant;
                            st.failure.get_or_insert(e);
                            st.abort = true;
                            drop(st);
                            work_available.notify_all();
                            break;
                        }
                    }
                }
                res.arenas.restore(evaluator.take_arena());
                let mut m = merged.lock().unwrap();
                m.0 .0.merge(&evaluator.stats());
                m.0 .1.merge(&calibration);
                m.0 .2 += evaluator.intra_op_splits();
                for (index, wait, span) in timed {
                    m.1[index] = span;
                    m.2[index] = wait;
                }
            });
        }
    });

    let state = state.into_inner().unwrap();
    if let Some(error) = state.failure {
        return Err(error);
    }
    assert_eq!(
        state.remaining, 0,
        "dataflow pool drained every instruction"
    );
    let ((stats, per_op, intra_op_splits), instr_times, queue_waits) = merged.into_inner().unwrap();
    Ok((
        stats,
        TimingBreakdown {
            threads: workers,
            wall: Duration::ZERO, // stamped by the caller
            per_op,
            instr_times,
            queue_waits,
            steals: state.steals,
            reclaimed_slack: Duration::ZERO, // stamped by the caller
            intra_op_splits,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grant_is_clamped_by_outstanding_and_ready_width() {
        // A lone worker with an empty queue gets the whole pool.
        assert_eq!(dynamic_intra_op_grant(8, 0, 0), 8);
        // Queued ready instructions reserve a thread each.
        assert_eq!(dynamic_intra_op_grant(8, 0, 3), 5);
        // Outstanding grants are subtracted before granting more.
        assert_eq!(dynamic_intra_op_grant(8, 8, 0), 1);
        assert_eq!(dynamic_intra_op_grant(8, 5, 2), 1);
        // Never below one, even on degenerate pools.
        assert_eq!(dynamic_intra_op_grant(0, 0, 0), 1);
        assert_eq!(dynamic_intra_op_grant(1, 4, 9), 1);
    }

    #[test]
    fn grants_never_oversubscribe_the_pool() {
        // Simulate a sequence of pops: the ledger (outstanding) plus the new
        // grant never exceeds the pool unless the 1-thread floor forces it.
        for pool in 1..=16usize {
            let mut outstanding = 0usize;
            let mut grants = Vec::new();
            for ready in (0..pool * 2).rev() {
                let grant = dynamic_intra_op_grant(pool, outstanding, ready);
                assert!(
                    outstanding + grant <= pool || grant == 1,
                    "pool {pool}: grant {grant} with {outstanding} outstanding"
                );
                outstanding += grant;
                grants.push(grant);
            }
            assert!(grants.iter().all(|&g| g >= 1));
        }
    }

    #[test]
    fn local_deques_stay_priority_sorted_and_steals_take_the_back() {
        let mut st = SchedState {
            locals: vec![VecDeque::new(), VecDeque::new()],
            injector: Vec::new(),
            pending: Vec::new(),
            remaining: 3,
            ready_count: 0,
            granted: 0,
            steals: 0,
            abort: false,
            failure: None,
        };
        let at = Instant::now();
        for (priority, index) in [(1.0, 0), (5.0, 1), (3.0, 2)] {
            st.push_local(
                0,
                Ready {
                    priority,
                    index,
                    since: at,
                },
            );
        }
        // Owner pops the highest priority (no steal provenance)...
        let (item, stolen_from) = st.pop(0).unwrap();
        assert_eq!((item.index, stolen_from), (1, None));
        // ...a thief steals the lowest-priority entry from the back, and the
        // pop reports which victim it came from.
        let (item, stolen_from) = st.pop(1).unwrap();
        assert_eq!((item.index, stolen_from), (0, Some(0)));
        assert_eq!(st.steals, 1);
        // The owner keeps the middle entry.
        let (item, stolen_from) = st.pop(0).unwrap();
        assert_eq!((item.index, stolen_from), (2, None));
        assert_eq!(st.steals, 1);
        assert!(st.pop(0).is_none());
    }
}
