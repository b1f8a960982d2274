//! Execution machinery shared by the [`DataflowExecutor`](crate::DataflowExecutor):
//! the register file, the borrowed execution resources, the timing
//! breakdown, and instruction dispatch.
//!
//! ## Arena-backed registers and last-use recycling
//!
//! Registers live in a [`RegisterFile`]: values are published once and read
//! as cheap `Arc` clones ([`Register`] wraps its payload in `Arc`, so a read
//! copies a pointer, not a ciphertext). The schedule's last-use analysis
//! ([`Schedule::consumer_counts`]) seeds a per-slot countdown; the worker
//! that completes a slot's final consumer takes the dead register out of the
//! file and recycles its buffers into its evaluator's [`PolyArena`]. Worker
//! arenas are checked out of the shared [`ExecResources::arenas`] pool at
//! request start and restored at the end, so a warm session executes whole
//! request streams with zero fresh buffer allocations.

use crate::calibrate::{CalibratedCostModel, OpKind};
use crate::schedule::{Instr, Schedule, ScheduledInstr, Slot};
use crate::telemetry::TraceSink;
use chehab_fhe::{
    ArenaPool, Ciphertext, Evaluator, EvaluatorStats, FheContext, FheError, GaloisKeys, Plaintext,
    PolyArena, RelinKeys,
};
use chehab_ir::BinOp;

/// Timing category of a binary op on two ciphertext operands.
fn ct_ct_kind(op: BinOp) -> OpKind {
    match op {
        BinOp::Add | BinOp::Sub => OpKind::Addition,
        BinOp::Mul => OpKind::MulCtCt,
    }
}

/// Timing category of a binary op with one plaintext operand.
fn ct_pt_kind(op: BinOp) -> OpKind {
    match op {
        BinOp::Add | BinOp::Sub => OpKind::Addition,
        BinOp::Mul => OpKind::MulCtPt,
    }
}
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A clear (client-side) value bound into the register file, with a
/// per-request cache of its encoded [`Plaintext`].
///
/// Every instruction that consumes the register shares one encoding (and,
/// through the plaintext's own splat cache, one payload NTT) instead of
/// re-encoding per use — safe across dataflow workers because the cache is
/// a [`OnceLock`] and encoding is deterministic.
#[derive(Debug, Clone, Default)]
pub struct PlainValue {
    values: Vec<i64>,
    encoded: OnceLock<Plaintext>,
}

impl PlainValue {
    /// Wraps clear slot values.
    pub fn new(values: Vec<i64>) -> Self {
        PlainValue {
            values,
            encoded: OnceLock::new(),
        }
    }

    /// The clear slot values.
    pub fn values(&self) -> &[i64] {
        &self.values
    }

    /// The encoded plaintext, computed on first use and shared afterwards.
    ///
    /// # Errors
    ///
    /// Propagates [`FheError`] from encoding (more values than slots).
    pub fn encoded(&self, ctx: &FheContext) -> Result<&Plaintext, FheError> {
        if let Some(plain) = self.encoded.get() {
            return Ok(plain);
        }
        let plain = ctx.encode(&self.values)?;
        Ok(self.encoded.get_or_init(|| plain))
    }

    /// [`PlainValue::encoded`] with the slot vector drawn from `arena` — the
    /// form the executor uses so a warm request's plaintext encodes are
    /// served by the pool and recycled when the register dies.
    ///
    /// # Errors
    ///
    /// Propagates [`FheError`] from encoding (more values than slots).
    pub fn encoded_in(
        &self,
        ctx: &FheContext,
        arena: &mut PolyArena,
    ) -> Result<&Plaintext, FheError> {
        if let Some(plain) = self.encoded.get() {
            return Ok(plain);
        }
        let plain = ctx.encode_in(&self.values, arena)?;
        // A concurrent worker may have encoded first; the loser's buffers
        // go straight back to the pool instead of the allocator.
        if let Err(lost) = self.encoded.set(plain) {
            lost.recycle_into(arena);
        }
        Ok(self.encoded.get().expect("cache was just filled"))
    }

    /// Returns the cached encoding's buffers to `arena`, if the value was
    /// ever encoded. Called when the register file retires a dead plaintext
    /// register.
    pub(crate) fn recycle_into(self, arena: &mut PolyArena) {
        if let Some(plain) = self.encoded.into_inner() {
            plain.recycle_into(arena);
        }
    }
}

impl From<Vec<i64>> for PlainValue {
    fn from(values: Vec<i64>) -> Self {
        PlainValue::new(values)
    }
}

/// A register of the flat execution machine: either a ciphertext computed on
/// the server or a clear value the client evaluated (plaintext subcircuits
/// never touch ciphertexts).
///
/// Both variants wrap their value in `Arc`, so cloning a register — which is
/// how the [`RegisterFile`] hands operands to workers — copies a pointer,
/// never a ciphertext or an encoded plaintext.
#[derive(Debug, Clone)]
pub enum Register {
    /// An encrypted value.
    Cipher(Arc<Ciphertext>),
    /// A clear (client-side) value, one entry per vector slot.
    Plain(Arc<PlainValue>),
}

impl Register {
    /// Wraps a ciphertext.
    pub fn cipher(ciphertext: Ciphertext) -> Register {
        Register::Cipher(Arc::new(ciphertext))
    }

    /// Wraps a clear value.
    pub fn plain(value: impl Into<PlainValue>) -> Register {
        Register::Plain(Arc::new(value.into()))
    }
}

/// The register file of one scheduled execution: write-once publish cells
/// plus the per-slot consumer countdown driving last-use buffer recycling.
///
/// Reads clone the register's `Arc` (cheap); the worker that retires a
/// slot's final consumer gets the dead register back for recycling. The
/// per-cell mutexes are uncontended except when two consumers of one slot
/// finish simultaneously, and each is held for a pointer copy — noise at
/// FHE-op granularity.
#[derive(Debug)]
pub struct RegisterFile {
    cells: Vec<Mutex<Option<Register>>>,
    /// Consumer instructions not yet completed, per slot (seeded from
    /// [`Schedule::consumer_counts`]).
    remaining_uses: Vec<AtomicUsize>,
    output: Slot,
}

impl RegisterFile {
    /// Builds the register file for one run: `initial[slot] = Some(..)` for
    /// every pre-bound (client-side) value.
    ///
    /// # Panics
    ///
    /// Panics if `initial` does not cover the schedule's slot count.
    pub fn new(initial: Vec<Option<Register>>, schedule: &Schedule) -> Self {
        assert_eq!(
            initial.len(),
            schedule.slot_count(),
            "register file size mismatch"
        );
        RegisterFile {
            cells: initial.into_iter().map(Mutex::new).collect(),
            remaining_uses: schedule
                .consumer_counts()
                .iter()
                .map(|&count| AtomicUsize::new(count))
                .collect(),
            output: schedule.output(),
        }
    }

    /// Reads a slot (a cheap `Arc` clone).
    ///
    /// # Panics
    ///
    /// Panics if the slot has no value — the schedulers guarantee operands
    /// are published before any consumer runs.
    pub fn read(&self, slot: Slot) -> Register {
        self.cells[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .clone()
            .expect("operands are published before their consumers run")
    }

    /// Whether the slot currently holds a value (used by up-front operand
    /// validation).
    pub(crate) fn is_bound(&self, slot: Slot) -> bool {
        self.cells[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .is_some()
    }

    /// Publishes an instruction's result into its destination slot.
    pub(crate) fn publish(&self, slot: Slot, register: Register) {
        *self.cells[slot]
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner) = Some(register);
    }

    /// Notes that one consumer of `slot` completed. The call that retires
    /// the final consumer gets the dead register back for buffer recycling
    /// (never for the output slot, which outlives the run).
    pub(crate) fn consume(&self, slot: Slot) -> Option<Register> {
        if self.remaining_uses[slot].fetch_sub(1, Ordering::AcqRel) == 1 && slot != self.output {
            self.cells[slot]
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take()
        } else {
            None
        }
    }

    /// Takes the output register after the run completed.
    pub(crate) fn take_output(&mut self) -> Option<Register> {
        self.cells[self.output]
            .get_mut()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
            .take()
    }

    /// Recycles every register still in the file into `arena` (pre-bound
    /// inputs the circuit never consumed, or everything left behind by an
    /// aborted run). Call after [`RegisterFile::take_output`].
    pub(crate) fn recycle_remaining(&mut self, arena: &mut PolyArena) {
        for cell in &mut self.cells {
            let register = cell
                .get_mut()
                .unwrap_or_else(std::sync::PoisonError::into_inner)
                .take();
            match register {
                Some(Register::Cipher(cipher)) => {
                    if let Ok(ciphertext) = Arc::try_unwrap(cipher) {
                        ciphertext.recycle_into(arena);
                    }
                }
                Some(Register::Plain(plain)) => {
                    if let Ok(value) = Arc::try_unwrap(plain) {
                        value.recycle_into(arena);
                    }
                }
                None => {}
            }
        }
    }
}

/// Publishes an instruction's result, then retires its operands: the worker
/// that completes a slot's final consumer recycles the dead register's
/// buffers into its own evaluator's arena.
pub(crate) fn publish_and_reap(
    rf: &RegisterFile,
    si: &ScheduledInstr,
    register: Register,
    evaluator: &mut Evaluator,
) {
    rf.publish(si.dst, register);
    let mut operands = si.instr.operands();
    operands.sort_unstable();
    operands.dedup();
    for slot in operands {
        match rf.consume(slot) {
            // The register file's reference was the last one (this
            // instruction's own read clone died when `run_instr` returned),
            // unless a still-live ciphertext shares the value (e.g. an
            // `add_plain` output sharing its operand's payload) — then the
            // unwrap fails and the buffers stay alive with their referent.
            Some(Register::Cipher(cipher)) => {
                if let Ok(ciphertext) = Arc::try_unwrap(cipher) {
                    evaluator.recycle(ciphertext);
                }
            }
            // Dead plaintext registers return their encoded slot vector
            // (and cached payload splat) the same way.
            Some(Register::Plain(plain)) => {
                if let Ok(value) = Arc::try_unwrap(plain) {
                    value.recycle_into(evaluator.arena_mut());
                }
            }
            None => {}
        }
    }
}

/// Shared immutable resources a scheduled execution borrows.
#[derive(Debug, Clone, Copy)]
pub struct ExecResources<'a> {
    /// The FHE context (parameters, NTT tables, encoding).
    pub ctx: &'a FheContext,
    /// Relinearization keys for ct-ct multiplications.
    pub relin_keys: &'a RelinKeys,
    /// Galois keys covering every realized rotation step.
    pub galois_keys: &'a GaloisKeys,
    /// A fresh encryption of zero, the packing fallback for degenerate
    /// vector nodes with no ciphertext element. Only needed — and only
    /// worth paying an encryption for — when the schedule contains
    /// [`Instr::Pack`] instructions.
    pub zero: Option<&'a Ciphertext>,
    /// The arena pool worker evaluators draw their buffers from: checked
    /// out per worker per run and restored afterwards, so warm buffers
    /// survive across requests (the zero-allocation steady state).
    pub arenas: &'a ArenaPool,
    /// Optional span sink: when set, every worker records instruction-level
    /// spans (operation label, instruction index, queue wait, intra-op
    /// grant, steal provenance) into per-worker
    /// [`TraceBuffer`](crate::TraceBuffer)s that flush here. `None` (the default) disables tracing at the cost of one null
    /// check per instruction — capture never perturbs results, only
    /// observes timings.
    pub trace: Option<&'a TraceSink>,
    /// Slot-lane layout of a cross-request batched execution (see
    /// [`crate::RequestCoalescer`]): `Some` when several users' inputs
    /// share the ciphertexts at the given stride. Only [`Instr::Pack`]'s
    /// plaintext-element path consults it (plaintext values must be
    /// replicated into every live lane); every other instruction is
    /// slot-wise or cyclic and lane-oblivious. `None` (the default) is the
    /// unbatched single-user layout.
    pub lanes: Option<crate::LaneGeometry>,
    /// Optional cancellation token checked at every instruction dispatch by
    /// the executor: once the token is cancelled (or its deadline passes)
    /// the request stops scheduling its remaining instructions mid-flight,
    /// recycles whatever registers it still holds, and returns
    /// [`FheError::Cancelled`] / [`FheError::DeadlineExceeded`]. `None` (the
    /// default) runs to completion.
    pub cancel: Option<&'a crate::CancellationToken>,
    /// Optional deterministic fault-injection plan (see
    /// [`FaultPlan`](crate::FaultPlan)): its dispatch hook runs before every
    /// instruction, counting dispatches and injecting planned panics,
    /// latency spikes and token cancellations. Injected (and genuine)
    /// instruction-level panics are isolated with `catch_unwind` and
    /// surface as [`FheError::WorkerPanic`]. `None` (the default) disables
    /// injection and the counter.
    pub faults: Option<&'a crate::FaultPlan>,
}

/// Per-operation-kind breakdown of one execution.
#[derive(Debug, Clone)]
pub struct TimingBreakdown {
    /// Worker threads used.
    pub threads: usize,
    /// Wall-clock of the whole scheduled execution.
    pub wall: Duration,
    /// Measured per-operation-kind latencies.
    pub per_op: CalibratedCostModel,
    /// Measured duration of every instruction, indexed like
    /// [`Schedule::instrs`] — the input of
    /// [`Schedule::makespan`](crate::Schedule::makespan) projections.
    pub instr_times: Vec<Duration>,
    /// Per-instruction queue wait (from the instant the instruction's last
    /// dependency was satisfied to the instant a worker started running
    /// it), indexed like [`Schedule::instrs`].
    pub queue_waits: Vec<Duration>,
    /// Ready instructions taken from another worker's local deque.
    pub steals: u64,
    /// The barrier slack reclaimed versus a level-synchronized execution —
    /// the leveled makespan projection minus the dataflow makespan
    /// projection at the same worker count, both computed from this run's
    /// measured [`TimingBreakdown::instr_times`].
    pub reclaimed_slack: Duration,
    /// Operations whose payload work actually split across more than one
    /// intra-op worker. The per-op latencies in
    /// [`TimingBreakdown::per_op`] are measured around the split, so the
    /// calibrated cost model sees the effect of intra-op parallelism
    /// directly.
    pub intra_op_splits: u64,
}

impl TimingBreakdown {
    /// A breakdown with no instructions (plaintext-only programs).
    pub fn empty(threads: usize) -> Self {
        TimingBreakdown {
            threads,
            wall: Duration::ZERO,
            per_op: CalibratedCostModel::new(),
            instr_times: Vec::new(),
            queue_waits: Vec::new(),
            steals: 0,
            reclaimed_slack: Duration::ZERO,
            intra_op_splits: 0,
        }
    }

    /// A queue-wait percentile (`0.0..=1.0`) across this run's instructions,
    /// `None` when no instruction ran.
    pub fn queue_wait_percentile(&self, pct: f64) -> Option<Duration> {
        percentile(&mut self.queue_waits.clone(), pct)
    }
}

/// The `pct`-percentile (`0.0..=1.0`) of an unsorted sample set, `None`
/// when empty. Sorts in place.
pub(crate) fn percentile(samples: &mut [Duration], pct: f64) -> Option<Duration> {
    if samples.is_empty() {
        return None;
    }
    samples.sort_unstable();
    let rank = ((samples.len() as f64 - 1.0) * pct.clamp(0.0, 1.0)).round() as usize;
    Some(samples[rank.min(samples.len() - 1)])
}

/// The result of one scheduled execution.
#[derive(Debug, Clone)]
pub struct ExecOutcome {
    /// The output register of the circuit.
    pub output: Register,
    /// Merged homomorphic-operation counters of all workers.
    pub stats: EvaluatorStats,
    /// Per-op timing breakdown.
    pub timing: TimingBreakdown,
}

/// Panics (on the calling thread, before any worker spawns) if an
/// instruction's operand is neither pre-bound nor the destination of an
/// earlier-level instruction.
pub(crate) fn validate_operands(schedule: &Schedule, rf: &RegisterFile) {
    let mut produced_level = vec![None; schedule.slot_count()];
    for si in schedule.instrs() {
        produced_level[si.dst] = Some(si.level);
    }
    for si in schedule.instrs() {
        for operand in si.instr.operands() {
            let available = match produced_level[operand] {
                Some(level) => level < si.level,
                None => rf.is_bound(operand),
            };
            assert!(
                available,
                "slot {operand} (operand of the level-{} instruction writing slot {}) is \
                 neither pre-bound nor produced at an earlier level",
                si.level, si.dst
            );
        }
    }
}

/// Renders a panic payload as text, best effort.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// The instruction-dispatch wrapper the executor calls instead of
/// [`run_instr`] directly: checks the cancellation token (so a cancelled or
/// deadline-expired request stops scheduling mid-flight), runs the fault
/// plan's dispatch hook, and isolates panics — injected or genuine — behind
/// `catch_unwind`, converting them into [`FheError::WorkerPanic`] so they
/// flow through the executor's ordinary error/abort machinery (which wakes
/// peer workers and restores arenas) instead of stranding scoped threads.
pub(crate) fn dispatch_instr(
    si: &ScheduledInstr,
    rf: &RegisterFile,
    evaluator: &mut Evaluator,
    res: &ExecResources<'_>,
    calibration: &mut CalibratedCostModel,
) -> Result<Register, FheError> {
    if let Some(token) = res.cancel {
        token.check()?;
    }
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        if let Some(plan) = res.faults {
            plan.before_instr();
        }
        run_instr(si, rf, evaluator, res, calibration)
    }));
    match outcome {
        Ok(result) => result,
        Err(payload) => Err(FheError::WorkerPanic {
            message: panic_message(payload),
        }),
    }
}

/// Executes one instruction against the register file (the executor
/// guarantees operands are written before an instruction runs).
fn run_instr(
    si: &ScheduledInstr,
    rf: &RegisterFile,
    evaluator: &mut Evaluator,
    res: &ExecResources<'_>,
    calibration: &mut CalibratedCostModel,
) -> Result<Register, FheError> {
    let result = match &si.instr {
        Instr::Bin { op, a, b } => match (rf.read(*a), rf.read(*b)) {
            (Register::Cipher(x), Register::Cipher(y)) => {
                let started = Instant::now();
                let out = match op {
                    BinOp::Add => evaluator.add(&x, &y),
                    BinOp::Sub => evaluator.sub(&x, &y),
                    BinOp::Mul => evaluator.multiply(&x, &y, res.relin_keys),
                };
                calibration.record(ct_ct_kind(*op), started.elapsed());
                Register::cipher(out)
            }
            (Register::Cipher(x), Register::Plain(p)) => {
                let plain = p.encoded_in(res.ctx, evaluator.arena_mut())?;
                let started = Instant::now();
                let out = match op {
                    BinOp::Add => evaluator.add_plain(&x, plain),
                    BinOp::Sub => evaluator.sub_plain(&x, plain),
                    BinOp::Mul => evaluator.multiply_plain(&x, plain),
                };
                calibration.record(ct_pt_kind(*op), started.elapsed());
                Register::cipher(out)
            }
            (Register::Plain(p), Register::Cipher(y)) => {
                let plain = p.encoded_in(res.ctx, evaluator.arena_mut())?;
                let started = Instant::now();
                let out = match op {
                    BinOp::Add => evaluator.add_plain(&y, plain),
                    BinOp::Sub => {
                        // p - y = -(y - p), negated in place.
                        let mut diff = evaluator.sub_plain(&y, plain);
                        evaluator.neg_assign(&mut diff);
                        diff
                    }
                    BinOp::Mul => evaluator.multiply_plain(&y, plain),
                };
                calibration.record(ct_pt_kind(*op), started.elapsed());
                Register::cipher(out)
            }
            (Register::Plain(_), Register::Plain(_)) => {
                unreachable!("plaintext-only nodes are evaluated on the client")
            }
        },
        Instr::Neg { a } => match rf.read(*a) {
            Register::Cipher(x) => {
                let started = Instant::now();
                let out = evaluator.negate(&x);
                calibration.record(OpKind::Negation, started.elapsed());
                Register::cipher(out)
            }
            Register::Plain(_) => unreachable!("plaintext-only nodes are evaluated on the client"),
        },
        Instr::Rot { a, parts } => match rf.read(*a) {
            Register::Cipher(x) => {
                // Steady-state rotation chain: each step's output feeds the
                // next and the superseded intermediate's buffers return to
                // the arena immediately.
                let mut current: Option<Ciphertext> = None;
                for &part in parts {
                    let source = current.as_ref().unwrap_or(&x);
                    let started = Instant::now();
                    let next = evaluator.rotate(source, part, res.galois_keys)?;
                    calibration.record(OpKind::Rotation, started.elapsed());
                    if let Some(old) = current.replace(next) {
                        evaluator.recycle(old);
                    }
                }
                let out = match current {
                    Some(rotated) => rotated,
                    // An empty realization is the identity rotation.
                    None => evaluator.clone_ciphertext(&x),
                };
                Register::cipher(out)
            }
            Register::Plain(_) => unreachable!("plaintext-only nodes are evaluated on the client"),
        },
        Instr::Pack { elems } => {
            let started = Instant::now();
            // Run-time packing: element i is moved to slot i with a
            // right-rotation and accumulated with in-place additions.
            let mut acc: Option<Ciphertext> = None;
            // Under a batched lane layout the plaintext accumulator spans
            // every live lane: each user's plaintext element is read at its
            // lane base and placed at its lane's copy of the slot.
            // (Ciphertext elements need no such care — the rotation below
            // shifts every lane's value uniformly.)
            let plain_width = match res.lanes {
                None => elems.len(),
                Some(geometry) => geometry.base(geometry.lanes.saturating_sub(1)) + elems.len(),
            };
            let mut plain_slots = vec![0i64; plain_width];
            for (slot, &elem) in elems.iter().enumerate() {
                match rf.read(elem) {
                    Register::Plain(values) => match res.lanes {
                        None => {
                            plain_slots[slot] = values.values().first().copied().unwrap_or(0);
                        }
                        Some(geometry) => {
                            for lane in 0..geometry.lanes {
                                let base = geometry.base(lane);
                                plain_slots[base + slot] =
                                    values.values().get(base).copied().unwrap_or(0);
                            }
                        }
                    },
                    Register::Cipher(ct) => {
                        let placed = if slot == 0 {
                            evaluator.clone_ciphertext(&ct)
                        } else {
                            evaluator.rotate(&ct, -(slot as i64), res.galois_keys)?
                        };
                        match &mut acc {
                            None => acc = Some(placed),
                            Some(prev) => {
                                evaluator.add_assign(prev, &placed);
                                evaluator.recycle(placed);
                            }
                        }
                    }
                }
            }
            // A ciphertext-kind vector always has at least one ciphertext
            // element, but keep a safe fallback.
            let mut packed = match acc {
                Some(ct) => ct,
                None => res
                    .zero
                    .expect("schedules with Pack instructions provide a zero ciphertext")
                    .clone(),
            };
            if plain_slots.iter().any(|&v| v != 0) {
                // The packing plaintext is transient — encoded from the
                // arena, added, and recycled within this one instruction.
                let plain = res.ctx.encode_in(&plain_slots, evaluator.arena_mut())?;
                let sum = evaluator.add_plain(&packed, &plain);
                evaluator.recycle(packed);
                evaluator.recycle_plain(plain);
                packed = sum;
            }
            calibration.record(OpKind::Pack, started.elapsed());
            Register::cipher(packed)
        }
    };
    Ok(result)
}
