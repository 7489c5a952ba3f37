//! Compile-once / execute-many: the [`CompiledKernel`] pipeline.
//!
//! The uniform trace makes the whole §III-C flow — trace, schedule,
//! register-allocate, assemble the control ROM — a *per-machine* cost
//! instead of a per-scalar one: the recorded program is identical for
//! every (base, scalar) pair, only the two base-point inputs and the
//! recoded digit stream change between executions. [`compile`] runs the
//! flow once and captures the result; [`CompiledKernel::execute`] replays
//! the fixed microcode through the physical register file with fresh
//! inputs; [`shared_kernel`] memoises kernels process-wide by
//! `(MachineConfig, effort)`.
//!
//! Every stage failure is a typed [`PipelineError`] — the compile path
//! has no panicking branches — and every compile ends with an end-to-end
//! audit executing two scalars against the software library.
//!
//! The same pipeline serves every curve the tracer knows: [`compile_curve`]
//! / [`shared_kernel_for`] build kernels for Fourℚ, X25519 and P-256 from
//! their uniform traces, and [`CompiledKernel::execute_x25519`] /
//! [`CompiledKernel::execute_p256`] replay them with fresh inputs. The
//! register-file words are [`Word`]s — `F_p²` pairs for Fourℚ,
//! Montgomery-form base-field residues for the short-Weierstrass and
//! Montgomery curves — but the control path (schedule, allocation, ROM,
//! verifier) is identical.

use crate::regalloc::{allocate, Allocation, ControlRom};
use crate::{simulate, SimError, SimStats};
use fourq_baselines::p256::{Affine, P256};
use fourq_baselines::x25519::X25519;
use fourq_curve::{AffinePoint, CurveId};
use fourq_fp::{Fp2, Scalar, U256};
use fourq_sched::{
    lower_bound, schedule, serial_schedule, stitched_exact_schedule, trace_to_problem,
    MachineConfig, Problem, Schedule, ScheduleError, SegmentReport, StitchOptions,
};
use fourq_trace::{
    eval_fe, eval_fp2, mont_field, DigitStream, OpKind, OpStats, Operand, Selector, Trace,
    TraceError, Word,
};
use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};

/// Default register-file capacity a kernel must fit.
///
/// The uniform always-compute-and-select program keeps the whole 8-entry
/// precomputed table (32 `F_p²` words) live across all 63 digit reads —
/// the price of one fixed ROM serving every scalar — so its register file
/// is larger than a per-scalar schedule would need (~93 words on the
/// paper machine vs. ~64 for the specialised flow).
pub const DEFAULT_REGISTER_BUDGET: usize = 128;

/// The representative scalar the kernel is compiled (and value-audited)
/// under. Any non-zero scalar works — the recorded program is the same
/// for all of them; this one exercises every limb.
const REP_SCALAR: [u8; 32] = [
    0x31, 0x22, 0x12, 0x02, 0x19, 0x08, 0x70, 0x6f, 0x5e, 0x4d, 0x3c, 0x2b, 0x1a, 0x09, 0xf8, 0xe7,
    0xd6, 0xc5, 0xb4, 0xa3, 0x92, 0x81, 0x70, 0x6f, 0x5e, 0x4d, 0x2c, 0x1a, 0x7b, 0x29, 0x3f, 0x1d,
];

/// A typed failure anywhere in the compile pipeline.
#[derive(Clone, Debug, PartialEq)]
pub enum PipelineError {
    /// The recorded trace failed structural validation.
    Trace(TraceError),
    /// The scheduler produced (or was handed) an invalid schedule.
    Schedule(ScheduleError),
    /// The cycle-accurate simulation rejected the program.
    Sim(SimError),
    /// Control-ROM assembly failed.
    Assemble(crate::AssembleError),
    /// Register allocation needs more registers than the budget allows.
    RegisterBudget {
        /// Registers the allocation requires.
        needed: usize,
        /// The configured budget.
        budget: usize,
    },
    /// The compiled kernel's output disagrees with the software library
    /// (or left the curve) — a pipeline bug, caught by the compile audit.
    Diverged,
    /// The static verifier ([`crate::check::verify`]) rejected the
    /// artifact. Carries the finding count and the first diagnostic.
    Verify {
        /// Total findings the verifier reported.
        findings: usize,
        /// The first finding, in pass order.
        first: Box<crate::check::KernelDiag>,
    },
    /// The lowered replay program needs more register-file or operand
    /// slots than its `u16` indices can address.
    ProgramTooLarge {
        /// Slots the program needs.
        slots: usize,
    },
    /// The kernel was asked to execute a curve other than the one it was
    /// compiled for.
    WrongCurve {
        /// Curve the kernel was compiled for.
        compiled: CurveId,
        /// Curve the call requested.
        requested: CurveId,
    },
}

impl core::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PipelineError::Trace(e) => write!(f, "trace validation failed: {e}"),
            PipelineError::Schedule(e) => write!(f, "schedule validation failed: {e}"),
            PipelineError::Sim(e) => write!(f, "simulation failed: {e}"),
            PipelineError::Assemble(e) => write!(f, "control-ROM assembly failed: {e}"),
            PipelineError::RegisterBudget { needed, budget } => {
                write!(f, "allocation needs {needed} registers, budget is {budget}")
            }
            PipelineError::Diverged => {
                write!(f, "kernel output diverged from the software library")
            }
            PipelineError::Verify { findings, first } => {
                write!(
                    f,
                    "static verification failed with {findings} finding(s); first: [{}] {first}",
                    first.rule()
                )
            }
            PipelineError::ProgramTooLarge { slots } => {
                write!(
                    f,
                    "replay program needs {slots} slots, u16 indices address 65536"
                )
            }
            PipelineError::WrongCurve {
                compiled,
                requested,
            } => {
                write!(
                    f,
                    "kernel compiled for {compiled}, asked to execute {requested}"
                )
            }
        }
    }
}
impl std::error::Error for PipelineError {}

impl From<TraceError> for PipelineError {
    fn from(e: TraceError) -> Self {
        PipelineError::Trace(e)
    }
}
impl From<ScheduleError> for PipelineError {
    fn from(e: ScheduleError) -> Self {
        PipelineError::Schedule(e)
    }
}
impl From<SimError> for PipelineError {
    fn from(e: SimError) -> Self {
        PipelineError::Sim(e)
    }
}
impl From<crate::AssembleError> for PipelineError {
    fn from(e: crate::AssembleError) -> Self {
        PipelineError::Assemble(e)
    }
}

/// Scalar-independent identity of a compiled kernel: every number here is
/// a constant of the (machine, effort) pair, not of any particular
/// execution — mux reads never forward, so even the register-file traffic
/// is digit-independent.
#[derive(Clone, Debug, PartialEq)]
pub struct KernelFingerprint {
    /// Cycles per scalar multiplication (the schedule makespan).
    pub cycles: u64,
    /// Makespan lower bound on this machine.
    pub lower_bound: u64,
    /// Cycles of the fully serial schedule.
    pub serial_cycles: u64,
    /// Microinstruction count (program-ROM words).
    pub rom_words: usize,
    /// Assembled ROM size in bits (0 when no single-sequencer ROM is
    /// encodable, i.e. multi-unit machines).
    pub rom_bits: usize,
    /// Operation counts by kind.
    pub op_counts: OpStats,
    /// Physical registers the allocation uses.
    pub registers: usize,
    /// Peak simultaneously-live values under the schedule.
    pub register_pressure: usize,
    /// Operand multiplexers in the uniform program.
    pub mux_count: usize,
}

/// One instruction of the lowered replay program.
///
/// `a` and `b` index the per-execute slot table (the registers, then the
/// resolved muxes); `dst` is the register-file index the result lands in,
/// an in-flight slot past the architectural registers that the commit
/// schedule later copies to the destination register. Unary ops read
/// `b == a` and ignore it.
#[derive(Clone, Copy, Debug)]
struct Insn {
    kind: OpKind,
    /// Commits to apply, in order, before this instruction reads.
    commits: u16,
    a: u16,
    b: u16,
    dst: u16,
}

/// The kernel lowered to what the controller plays: a dense instruction
/// list in issue order, a writeback schedule, the reset image of the
/// register file and the operand-select network, all with `u16` indices
/// fixed at lowering time.
///
/// The register file is `regs` architectural registers followed by
/// `depth` in-flight slots. An instruction writes its result to its own
/// in-flight slot; the commit schedule copies it to its register once the
/// unit latency has elapsed, in the order a cycle-by-cycle pending queue
/// would (results of the 2-cycle multiplier and the 1-cycle adder retire
/// out of issue order).
#[derive(Clone, Debug)]
struct Program {
    /// Instructions in issue order.
    insns: Vec<Insn>,
    /// `(in-flight slot, register)` copies, consumed in order: each
    /// instruction's `commits` first, the rest after the last one.
    commits: Vec<(u16, u16)>,
    /// Register file at reset: zeros, with every lifted constant in its
    /// register; `regs + depth` words.
    image: Vec<Word>,
    /// `(register, runtime slot)`: the registers loaded from the runtime
    /// inputs ([`Trace::runtime_ids`] order) on each execute.
    runtime: Vec<(u16, u16)>,
    /// Slot table template: slot `r < regs` is register `r`; slot
    /// `regs + m`, the register mux `m` selects, is filled per execute.
    slots: Vec<u16>,
    /// Per mux: its selector and the range of its candidates in `cands`.
    muxes: Vec<(Selector, u32, u32)>,
    /// Mux candidates as slot indices.
    cands: Vec<u16>,
    /// Register of each output, in [`Trace::outputs`] order.
    outputs: Vec<u16>,
}

impl Program {
    /// Resolves the operand-select network under one digit stream: the
    /// slot table with every mux's selected register filled in. Muxes
    /// only route through earlier muxes, so one pass in order suffices.
    fn resolve(&self, digits: &DigitStream) -> Vec<u16> {
        let mut slots = self.slots.clone();
        let base = slots.len() - self.muxes.len();
        for (m, &(sel, lo, hi)) in self.muxes.iter().enumerate() {
            let cands = &self.cands[lo as usize..hi as usize];
            slots[base + m] = slots[cands[sel.select(digits)] as usize];
        }
        slots
    }

    /// The one replay body, generic over the register word: `word`
    /// converts the reset image, `eval` is the typed datapath
    /// ([`eval_fp2`] or [`eval_fe`]). Returns the outputs in
    /// [`Trace::outputs`] order.
    #[inline]
    fn run<W: Copy>(
        &self,
        word: impl Fn(Word) -> W,
        runtime: &[W],
        digits: &DigitStream,
        eval: impl Fn(OpKind, W, W) -> W,
    ) -> Vec<W> {
        let mut rf: Vec<W> = self.image.iter().map(|&w| word(w)).collect();
        for &(reg, slot) in &self.runtime {
            rf[reg as usize] = runtime[slot as usize];
        }
        let slots = self.resolve(digits);
        let mut next = 0;
        for insn in &self.insns {
            let end = next + insn.commits as usize;
            for &(from, to) in &self.commits[next..end] {
                rf[to as usize] = rf[from as usize];
            }
            next = end;
            let a = rf[slots[insn.a as usize] as usize];
            let b = rf[slots[insn.b as usize] as usize];
            rf[insn.dst as usize] = eval(insn.kind, a, b);
        }
        for &(from, to) in &self.commits[next..] {
            rf[to as usize] = rf[from as usize];
        }
        self.outputs.iter().map(|&r| rf[r as usize]).collect()
    }
}

/// The compile-once artifact: uniform trace, validated schedule, register
/// allocation, control ROM and fingerprint for one machine shape.
///
/// Built by [`compile`]; executed any number of times by
/// [`CompiledKernel::execute`] / [`CompiledKernel::execute_batch`].
#[derive(Clone, Debug)]
pub struct CompiledKernel {
    /// The curve whose scalar multiplication this kernel computes.
    pub curve: CurveId,
    /// The machine this kernel is scheduled for.
    pub machine: MachineConfig,
    /// Scheduling effort (ILS iterations) the schedule was built with.
    pub effort: u32,
    /// The uniform microinstruction program.
    pub trace: Trace,
    /// The validated static schedule.
    pub schedule: Schedule,
    /// Virtual→physical register mapping.
    pub allocation: Allocation,
    /// The assembled program ROM (single-sequencer machines only).
    pub rom: Option<ControlRom>,
    /// Scalar-independent identity of this kernel.
    pub fingerprint: KernelFingerprint,
    /// Machine statistics from the compile-time cycle-accurate run
    /// (digit-independent — see [`KernelFingerprint`]).
    pub stats: SimStats,
    program: Program,
}

/// Compiles the Fourℚ scalar-multiplication kernel for a machine at the
/// given scheduling effort, with the [`DEFAULT_REGISTER_BUDGET`].
///
/// Shorthand for [`compile_curve`] with [`CurveId::FourQ`].
///
/// # Errors
///
/// Any stage failure as a [`PipelineError`]; [`PipelineError::Diverged`]
/// if the final audit against the software library fails.
pub fn compile(machine: &MachineConfig, effort: u32) -> Result<CompiledKernel, PipelineError> {
    compile_curve(CurveId::FourQ, machine, effort)
}

/// Compiles the scalar-multiplication kernel of any supported curve,
/// with the [`DEFAULT_REGISTER_BUDGET`].
///
/// Each curve's uniform trace goes through the identical flow — validate,
/// schedule, allocate, assemble, verify — and ends with the same
/// end-to-end audit: the kernel must reproduce that curve's software
/// baseline on two independent inputs before it is handed out.
///
/// # Errors
///
/// Any stage failure as a [`PipelineError`] (including
/// [`PipelineError::RegisterBudget`] when the allocation does not fit the
/// budget); [`PipelineError::Diverged`] if the final audit against the
/// software baseline fails.
pub fn compile_curve(
    curve: CurveId,
    machine: &MachineConfig,
    effort: u32,
) -> Result<CompiledKernel, PipelineError> {
    let kernel = compile_trace(
        record_curve_trace(curve),
        machine,
        effort,
        DEFAULT_REGISTER_BUDGET,
    )?;
    audit_kernel(&kernel)?;
    Ok(kernel)
}

/// Records the uniform trace of a curve's scalar multiplication under the
/// representative inputs. The program is the same for every (base, scalar)
/// pair — only the captured constants differ — so one recording serves
/// every compile of that curve.
fn record_curve_trace(curve: CurveId) -> Trace {
    match curve {
        CurveId::FourQ => {
            let rep = Scalar::from_le_bytes(&REP_SCALAR);
            fourq_trace::trace_scalar_mul(&rep).trace
        }
        CurveId::X25519 => {
            let mut base = [0u8; 32];
            base[0] = 9;
            fourq_trace::trace_x25519_ladder(&REP_SCALAR, &base).trace
        }
        CurveId::P256 => {
            let ctx = P256::new();
            let rep = U256::from_le_bytes(&REP_SCALAR);
            fourq_trace::trace_p256_scalar_mul(&rep, &ctx.generator_affine()).trace
        }
    }
}

/// End-to-end compile audit: the kernel must reproduce its curve's
/// software baseline on the representative inputs and on unrelated ones
/// before it is handed out, and on each of those inputs its lowered
/// program must give the same words as the trace-walking
/// [`crate::check::reference_replay`].
fn audit_kernel(kernel: &CompiledKernel) -> Result<(), PipelineError> {
    let agree = |runtime: &[Word], digits: &DigitStream| {
        if kernel.replay(runtime, digits) == crate::check::reference_replay(kernel, runtime, digits)
        {
            Ok(())
        } else {
            Err(PipelineError::Diverged)
        }
    };
    match kernel.curve {
        CurveId::FourQ => {
            let rep = Scalar::from_le_bytes(&REP_SCALAR);
            let g = AffinePoint::generator();
            for k in [rep, Scalar::from_u64(0x9e37_79b9_7f4a_7c15)] {
                agree(
                    &[Word::Fp2(g.x), Word::Fp2(g.y)],
                    &fourq_trace::digit_stream(&k),
                )?;
                let got = kernel.execute(&g, &k)?;
                let want = g.mul(&k);
                if (got.x, got.y) != (want.x, want.y) {
                    return Err(PipelineError::Diverged);
                }
            }
        }
        CurveId::X25519 => {
            let ctx = X25519::new();
            let mut scalar2 = REP_SCALAR;
            scalar2[7] ^= 0xa5;
            // Chain the audits: the second runs on the first's output, so
            // a non-trivial u-coordinate is exercised too.
            let mut u = [0u8; 32];
            u[0] = 9;
            for s in [REP_SCALAR, scalar2] {
                agree(
                    &[Word::Fe(CurveId::X25519, x25519_input(&u))],
                    &fourq_trace::x25519_digit_stream(&s),
                )?;
                let got = kernel.execute_x25519(&s, &u)?;
                if got != ctx.ladder(&s, &u) {
                    return Err(PipelineError::Diverged);
                }
                u = got;
            }
        }
        CurveId::P256 => {
            let ctx = p256_ctx();
            let rep = U256::from_le_bytes(&REP_SCALAR);
            let g = ctx.generator_affine();
            let base = encode_p256_point(&g);
            for k in [rep, U256::from_u64(0x9e37_79b9_7f4a_7c15)] {
                let runtime = p256_inputs(&base).map(|v| Word::Fe(CurveId::P256, v));
                agree(&runtime, &fourq_trace::p256_digit_stream(&k))?;
                let got = kernel.execute_p256(&k.to_le_bytes(), &base)?;
                let want = encode_p256_point(&ctx.scalar_mul_complete(&k, &g));
                if got != want {
                    return Err(PipelineError::Diverged);
                }
            }
        }
    }
    Ok(())
}

/// A kernel compiled through the window-decomposed stitched scheduler,
/// carrying the before/after cycle counts and the per-segment evidence.
///
/// The embedded kernel uses whichever schedule was better — the stitched
/// one or the whole-program ILS baseline at `effort` — so
/// `kernel.fingerprint.cycles == stitched_cycles.min(baseline_cycles)`.
/// Everything downstream (simulation, allocation, ROM, the verifier, the
/// execute paths) is identical to a [`compile_curve`] kernel.
#[derive(Clone, Debug)]
pub struct StitchedKernel {
    /// The compiled artifact, on the better of the two schedules.
    pub kernel: CompiledKernel,
    /// Whole-program ILS makespan at the requested effort.
    pub baseline_cycles: u64,
    /// Makespan of the window-decomposed stitched schedule.
    pub stitched_cycles: u64,
    /// Per-segment scheduling evidence (empty when the baseline won and
    /// the stitched schedule was discarded).
    pub segments: Vec<SegmentReport>,
}

/// Compiles a curve's kernel through [`stitched_exact_schedule`], keeping
/// whichever of (stitched, whole-program ILS at `effort`) schedule is
/// shorter. Uses the [`DEFAULT_REGISTER_BUDGET`].
///
/// This is the ROADMAP "window-decomposed exact scheduling" path: the job
/// list is split into `opts.segments` windows, each window is scheduled by
/// branch-and-bound (budget `opts.node_limit`) and a diversified
/// backward-pass search (`opts.window_trials` restarts), and the windows
/// are stitched back into one schedule that validates against the
/// original problem.
///
/// # Errors
///
/// Any stage failure as a [`PipelineError`], exactly as [`compile_curve`].
///
/// # Panics
///
/// If `machine` has more than one multiplier or add/sub unit (the exact
/// scheduler models single-instance units only; the paper machine and its
/// banked variant both qualify).
pub fn compile_curve_stitched(
    curve: CurveId,
    machine: &MachineConfig,
    effort: u32,
    opts: &StitchOptions,
) -> Result<StitchedKernel, PipelineError> {
    let trace = record_curve_trace(curve);
    trace.validate()?;
    let problem = trace_to_problem(&trace);
    let baseline = schedule(&problem, machine, effort);
    let stitched = stitched_exact_schedule(&problem, machine, opts);
    let baseline_cycles = baseline.makespan;
    let stitched_cycles = stitched.schedule.makespan;
    let (best, segments) = if stitched_cycles <= baseline_cycles {
        (stitched.schedule, stitched.segments)
    } else {
        (baseline, Vec::new())
    };
    let kernel = finish_compile(
        trace,
        problem,
        best,
        machine,
        effort,
        DEFAULT_REGISTER_BUDGET,
    )?;
    audit_kernel(&kernel)?;
    Ok(StitchedKernel {
        kernel,
        baseline_cycles,
        stitched_cycles,
        segments,
    })
}

/// 64-byte little-endian `x ‖ y` encoding of a P-256 affine point; the
/// all-zero string encodes the point at infinity (`(0, 0)` is not on the
/// curve, so the encoding is unambiguous).
fn encode_p256_point(pt: &Affine) -> [u8; 64] {
    let mut out = [0u8; 64];
    if let Affine::Point { x, y } = pt {
        out[..32].copy_from_slice(&x.to_le_bytes());
        out[32..].copy_from_slice(&y.to_le_bytes());
    }
    out
}

/// Process-wide P-256 context for the per-execution on-curve guard.
fn p256_ctx() -> &'static P256 {
    static CTX: OnceLock<P256> = OnceLock::new();
    CTX.get_or_init(P256::new)
}

/// Runs the flow on an already-recorded trace: validate → bridge →
/// schedule → the shared back half.
fn compile_trace(
    trace: Trace,
    machine: &MachineConfig,
    effort: u32,
    budget: usize,
) -> Result<CompiledKernel, PipelineError> {
    trace.validate()?;
    let problem = trace_to_problem(&trace);
    let sched = schedule(&problem, machine, effort);
    finish_compile(trace, problem, sched, machine, effort, budget)
}

/// Back half of the flow, taking the schedule as input so corrupted
/// schedules surface as [`PipelineError::Schedule`] instead of panics.
fn finish_compile(
    trace: Trace,
    problem: Problem,
    sched: Schedule,
    machine: &MachineConfig,
    effort: u32,
    budget: usize,
) -> Result<CompiledKernel, PipelineError> {
    sched.validate(&problem, machine)?;
    let sim = simulate(&trace, &sched, machine)?;
    let allocation = allocate(&trace, &sched, machine);
    if allocation.num_registers > budget {
        return Err(PipelineError::RegisterBudget {
            needed: allocation.num_registers,
            budget,
        });
    }
    let (rom, program) = lower(&trace, &sched, &allocation, machine)?;
    let fingerprint = KernelFingerprint {
        cycles: sched.makespan,
        lower_bound: lower_bound(&problem, machine),
        serial_cycles: serial_schedule(&problem, machine).makespan,
        rom_words: problem.len(),
        rom_bits: rom.as_ref().map(|r| r.size_bits()).unwrap_or(0),
        op_counts: trace.stats(),
        registers: allocation.num_registers,
        register_pressure: sim.stats.register_pressure,
        mux_count: trace.muxes.len(),
    };
    let kernel = CompiledKernel {
        curve: trace.curve,
        machine: *machine,
        effort,
        trace,
        schedule: sched,
        allocation,
        rom,
        fingerprint,
        stats: sim.stats,
        program,
    };
    // Static verification: always in debug builds (every test compile
    // gets the full pass), effort-gated in release so the hot low-effort
    // compile path stays cheap.
    if cfg!(debug_assertions) || effort >= crate::check::VERIFY_EFFORT {
        let report = crate::check::verify(&kernel, crate::check::CheckLevel::Full);
        if let Some(first) = report.findings.first() {
            return Err(PipelineError::Verify {
                findings: report.findings.len(),
                first: Box::new(first.clone()),
            });
        }
    }
    Ok(kernel)
}

/// Lowers a scheduled, register-allocated program to what the kernel
/// plays back: the packed control ROM and the flat replay [`Program`].
///
/// A single-sequencer ROM exists only for single-instance units; wider
/// machines keep the decoded schedule without a packed encoding. The
/// replay program copies the allocation and the lifted constants, and
/// builds its commit schedule by running the writeback queue once here:
/// walking the instructions in issue order, every pending result whose
/// latency has elapsed by the issue cycle retires (in the order it was
/// queued) before the instruction reads.
fn lower(
    trace: &Trace,
    sched: &Schedule,
    allocation: &Allocation,
    machine: &MachineConfig,
) -> Result<(Option<ControlRom>, Program), PipelineError> {
    let rom = if machine.mul_units == 1 && machine.addsub_units == 1 {
        Some(ControlRom::assemble(trace, sched, allocation)?)
    } else {
        None
    };
    let assignment = &allocation.assignment;
    // A hand-edited allocation may name registers past `num_registers`;
    // the file grows to hold them (the reference executor does the same).
    let regs = assignment
        .iter()
        .map(|&r| r as usize + 1)
        .fold(allocation.num_registers, usize::max);
    let slot = |op: Operand| -> u16 {
        match op {
            Operand::Val(id) => assignment[id],
            Operand::Mux(m) => (regs + m) as u16,
        }
    };
    let base = trace.first_op_id();
    let mut order: Vec<usize> = (0..trace.nodes.len()).collect();
    order.sort_by_key(|&i| (sched.start[i], i));
    let mut insns = Vec::with_capacity(order.len());
    let mut commits = Vec::new();
    // (finish cycle, in-flight slot, register), in queue order.
    let mut pending: Vec<(u64, u16, u16)> = Vec::new();
    let mut free = Vec::new();
    let mut depth = 0;
    for i in order {
        let node = &trace.nodes[i];
        let cycle = sched.start[i];
        let before = commits.len();
        pending.retain(|&(finish, flight, reg)| {
            let done = finish <= cycle;
            if done {
                commits.push((flight, reg));
                free.push(flight);
            }
            !done
        });
        let flight = free.pop().unwrap_or_else(|| {
            depth += 1;
            (regs + depth - 1) as u16
        });
        let a = slot(node.a);
        insns.push(Insn {
            kind: node.kind,
            commits: (commits.len() - before) as u16,
            a,
            b: node.b.map_or(a, slot),
            dst: flight,
        });
        let finish = cycle + machine.latency(node.kind.unit());
        pending.push((finish, flight, assignment[base + i]));
    }
    commits.extend(pending.iter().map(|&(_, flight, reg)| (flight, reg)));
    // Every index above was cast to u16; reject the program if one did
    // not fit.
    let slots = regs + depth.max(trace.muxes.len());
    if slots > 1 << 16 {
        return Err(PipelineError::ProgramTooLarge { slots });
    }

    let mut image = vec![trace.zero_word(); regs + depth];
    let mut runtime = vec![None; regs];
    for (id, (_, value)) in trace.inputs.iter().enumerate() {
        let reg = assignment[id] as usize;
        // Later ids overwrite earlier ones sharing a register, as a
        // sequential load would.
        runtime[reg] = trace.runtime_ids.iter().position(|&r| r == id);
        image[reg] = *value;
    }
    let mut muxes = Vec::with_capacity(trace.muxes.len());
    let mut cands = Vec::new();
    for mx in &trace.muxes {
        let lo = cands.len() as u32;
        cands.extend(mx.cands.iter().map(|&c| slot(c)));
        muxes.push((mx.sel, lo, cands.len() as u32));
    }
    let program = Program {
        insns,
        commits,
        image,
        runtime: (0..regs)
            .filter_map(|reg| runtime[reg].map(|s| (reg as u16, s as u16)))
            .collect(),
        slots: (0..regs + trace.muxes.len())
            .map(|r| r.min(regs) as u16)
            .collect(),
        muxes,
        cands,
        outputs: trace
            .outputs
            .iter()
            .map(|&(_, id)| assignment[id])
            .collect(),
    };
    Ok((rom, program))
}

impl CompiledKernel {
    /// Rebuilds this kernel around a replacement register allocation,
    /// re-deriving the ROM, the replay program and the
    /// allocation-dependent fingerprint fields — with **no verification
    /// and no audit**.
    ///
    /// The replay program is lowered from a private copy of the
    /// allocation (operand, destination and output registers alike) and
    /// of the trace's lifted constants, so mutating
    /// [`CompiledKernel::allocation`] or [`CompiledKernel::trace`] in
    /// place leaves execution on the old ones; rebuilding through this
    /// function (with the same or a new allocation) lowers them again. It
    /// exists for the fault-injection campaign (`fourq-testkit`), which
    /// needs to manufacture kernels the compile flow would refuse to
    /// produce.
    ///
    /// # Errors
    ///
    /// [`PipelineError::Assemble`] if the control ROM cannot be packed
    /// under the replacement allocation; [`PipelineError::ProgramTooLarge`]
    /// if the lowered program needs more slots than `u16` indices reach.
    pub fn with_allocation(&self, allocation: Allocation) -> Result<CompiledKernel, PipelineError> {
        let (rom, program) = lower(&self.trace, &self.schedule, &allocation, &self.machine)?;
        let mut fingerprint = self.fingerprint.clone();
        fingerprint.registers = allocation.num_registers;
        fingerprint.rom_bits = rom.as_ref().map(|r| r.size_bits()).unwrap_or(0);
        Ok(CompiledKernel {
            curve: self.curve,
            machine: self.machine,
            effort: self.effort,
            trace: self.trace.clone(),
            schedule: self.schedule.clone(),
            allocation,
            rom,
            fingerprint,
            stats: self.stats,
            program,
        })
    }

    /// Executes the fixed microcode for `[k]base` and returns the affine
    /// result.
    ///
    /// Only the two base-point registers and the mux select lines (the
    /// recoded digits of `k`) change between calls — the program, the
    /// schedule and the register allocation are the compile-time
    /// constants. Mirrors `AffinePoint::mul`'s degenerate handling: an
    /// identity base short-circuits; a zero scalar flows through the
    /// datapath (its decomposition is parity-corrected to an odd scalar
    /// whose final correction step cancels the result to the identity).
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongCurve`] if this is not a Fourℚ kernel;
    /// [`PipelineError::Diverged`] if the replayed outputs are not a
    /// curve point (the per-execution sanity guard).
    pub fn execute(&self, base: &AffinePoint, k: &Scalar) -> Result<AffinePoint, PipelineError> {
        self.expect_curve(CurveId::FourQ)?;
        if base.is_identity() {
            return Ok(AffinePoint::identity());
        }
        let digits = fourq_trace::digit_stream(k);
        let out = self
            .program
            .run(Word::as_fp2, &[base.x, base.y], &digits, eval_fp2);
        AffinePoint::new(out[0], out[1]).map_err(|_| PipelineError::Diverged)
    }

    /// Executes an X25519 kernel: `scalar` is the raw RFC 7748 secret
    /// (clamped here, exactly as the baseline does), `u` the little-endian
    /// input u-coordinate; returns the output u-coordinate.
    ///
    /// Only the u-coordinate register and the mux select lines (the
    /// running-swap recoding of the clamped scalar) change between calls.
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongCurve`] if this is not an X25519 kernel.
    pub fn execute_x25519(
        &self,
        scalar: &[u8; 32],
        u: &[u8; 32],
    ) -> Result<[u8; 32], PipelineError> {
        self.expect_curve(CurveId::X25519)?;
        let digits = fourq_trace::x25519_digit_stream(scalar);
        let out = self.run_fe(&[x25519_input(u)], &digits);
        // The program's Montgomery exit already returned `x` to a plain
        // little-endian integer.
        Ok(out[0].to_le_bytes())
    }

    /// Executes a P-256 kernel: `scalar` is little-endian, `point` the
    /// 64-byte little-endian `x ‖ y` affine encoding (all-zero = point at
    /// infinity); the result uses the same encoding.
    ///
    /// The caller is responsible for point validation (`fourq-curve`'s
    /// `MultiCurveEngine` rejects off-curve inputs before reaching this);
    /// the kernel still guards its own *output*: a non-infinity result
    /// that is not on the curve reports [`PipelineError::Diverged`].
    ///
    /// # Errors
    ///
    /// [`PipelineError::WrongCurve`] if this is not a P-256 kernel;
    /// [`PipelineError::Diverged`] on an off-curve output.
    pub fn execute_p256(
        &self,
        scalar: &[u8; 32],
        point: &[u8; 64],
    ) -> Result<[u8; 64], PipelineError> {
        self.expect_curve(CurveId::P256)?;
        let digits = fourq_trace::p256_digit_stream(&U256::from_le_bytes(scalar));
        let out = self.run_fe(&p256_inputs(point), &digits);
        let (x, y) = (out[0], out[1]);
        let result = if x == U256::ZERO && y == U256::ZERO {
            Affine::Infinity
        } else {
            Affine::Point { x, y }
        };
        if !p256_ctx().is_on_curve(&result) {
            return Err(PipelineError::Diverged);
        }
        Ok(encode_p256_point(&result))
    }

    fn expect_curve(&self, requested: CurveId) -> Result<(), PipelineError> {
        if self.curve == requested {
            Ok(())
        } else {
            Err(PipelineError::WrongCurve {
                compiled: self.curve,
                requested,
            })
        }
    }

    /// Executes a batch of scalars against one base, fanning the replay
    /// over the process-wide thread pool (`FOURQ_THREADS` respected).
    ///
    /// Results are bit-identical at every thread count: each replay is an
    /// independent pure function of `(base, scalar)` and the order of the
    /// returned vector matches `scalars`.
    ///
    /// # Errors
    ///
    /// The first [`PipelineError`] any replay produced.
    pub fn execute_batch(
        &self,
        base: &AffinePoint,
        scalars: &[Scalar],
    ) -> Result<Vec<AffinePoint>, PipelineError> {
        self.execute_batch_with(base, scalars, fourq_pool::resolved_threads())
    }

    /// As [`CompiledKernel::execute_batch`] with an explicit thread count.
    ///
    /// # Errors
    ///
    /// See [`CompiledKernel::execute_batch`].
    pub fn execute_batch_with(
        &self,
        base: &AffinePoint,
        scalars: &[Scalar],
        threads: usize,
    ) -> Result<Vec<AffinePoint>, PipelineError> {
        fourq_pool::map_items(scalars, 4, threads, |_, k| self.execute(base, k))
            .into_iter()
            .collect()
    }

    /// Runs the program on a base-field kernel, with the curve's
    /// [`MontField`](fourq_baselines::mont::MontField) looked up once.
    fn run_fe(&self, runtime: &[U256], digits: &DigitStream) -> Vec<U256> {
        let f = mont_field(self.curve);
        self.program
            .run(Word::as_fe, runtime, digits, |kind, a, b| {
                eval_fe(f, kind, a, b)
            })
    }

    /// Replays the lowered program through the physical register file
    /// under a fresh digit stream, on [`Word`]s.
    ///
    /// `runtime` binds by position to [`Trace::runtime_ids`] (the curve
    /// points); every other input keeps the constant captured at
    /// lowering time. Returns the outputs in [`Trace::outputs`] order.
    /// [`Self::execute`], [`Self::execute_x25519`] and
    /// [`Self::execute_p256`] run the same typed body without the `Word`
    /// wrapping; [`crate::check::reference_replay`] is the independent
    /// trace-walking executor this one must agree with bit for bit.
    ///
    /// # Panics
    ///
    /// If a runtime word is not of the kernel's curve, or `runtime` or
    /// `digits` is shorter than the trace needs.
    pub fn replay(&self, runtime: &[Word], digits: &DigitStream) -> Vec<Word> {
        match self.curve {
            CurveId::FourQ => {
                let rt: Vec<Fp2> = runtime.iter().map(|w| w.as_fp2()).collect();
                let out = self.program.run(Word::as_fp2, &rt, digits, eval_fp2);
                out.into_iter().map(Word::Fp2).collect()
            }
            curve => {
                let rt: Vec<U256> = runtime.iter().map(|w| w.as_fe()).collect();
                let out = self.run_fe(&rt, digits);
                out.into_iter().map(|v| Word::Fe(curve, v)).collect()
            }
        }
    }
}

/// The X25519 kernel's runtime input: the u-coordinate with its top bit
/// masked (RFC 7748, mirroring the trace recording), in Montgomery form.
fn x25519_input(u: &[u8; 32]) -> U256 {
    let mut ub = *u;
    ub[31] &= 0x7f;
    mont_field(CurveId::X25519).enter(U256::from_le_bytes(&ub))
}

/// The P-256 kernel's runtime inputs: projective `(X, Y, Z)` in
/// Montgomery form for the 64-byte `x ‖ y` encoding.
fn p256_inputs(point: &[u8; 64]) -> [U256; 3] {
    let f = mont_field(CurveId::P256);
    if point.iter().all(|&b| b == 0) {
        // Projective identity (0 : 1 : 0), as the trace records it.
        [U256::ZERO, f.enter(U256::ONE), U256::ZERO]
    } else {
        let x = U256::from_le_bytes(point[..32].try_into().expect("32 bytes"));
        let y = U256::from_le_bytes(point[32..].try_into().expect("32 bytes"));
        [f.enter(x), f.enter(y), f.enter(U256::ONE)]
    }
}

type KernelCache = Mutex<HashMap<(CurveId, MachineConfig, u32), &'static CompiledKernel>>;

/// Returns the process-wide compiled Fourℚ kernel for `(machine, effort)`,
/// compiling it on first use.
///
/// Shorthand for [`shared_kernel_for`] with [`CurveId::FourQ`].
///
/// # Errors
///
/// The [`PipelineError`] of the first compile attempt. Failures are not
/// cached: a later call retries.
pub fn shared_kernel(
    machine: &MachineConfig,
    effort: u32,
) -> Result<&'static CompiledKernel, PipelineError> {
    shared_kernel_for(CurveId::FourQ, machine, effort)
}

/// Returns the process-wide compiled kernel for
/// `(curve, machine, effort)`, compiling it on first use.
///
/// Kernels are leaked into `'static` storage (a handful per process — one
/// per distinct curve, machine shape and effort), so callers share one
/// immutable artifact across threads with no per-call locking beyond the
/// map probe.
///
/// # Errors
///
/// The [`PipelineError`] of the first compile attempt. Failures are not
/// cached: a later call retries.
pub fn shared_kernel_for(
    curve: CurveId,
    machine: &MachineConfig,
    effort: u32,
) -> Result<&'static CompiledKernel, PipelineError> {
    static CACHE: OnceLock<KernelCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (curve, *machine, effort);
    {
        let map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(k) = map.get(&key) {
            return Ok(k);
        }
    }
    // Compile outside the lock (it is the slow path); racing compiles are
    // benign — the first insert wins and later ones are dropped.
    let kernel = compile_curve(curve, machine, effort)?;
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    Ok(*map
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(kernel))))
}

type StitchedCache =
    Mutex<HashMap<(CurveId, MachineConfig, u32, StitchOptions), &'static StitchedKernel>>;

/// Returns the process-wide stitched kernel for
/// `(curve, machine, effort, opts)`, compiling it on first use.
///
/// The stitched compile is the most expensive path in the repo (a
/// branch-and-bound pass plus dozens of diversified restarts per window),
/// so the capacity planner and the benches share one artifact per
/// configuration, exactly as [`shared_kernel_for`] does for the plain
/// flow.
///
/// # Errors
///
/// The [`PipelineError`] of the first compile attempt. Failures are not
/// cached: a later call retries.
pub fn shared_stitched_kernel(
    curve: CurveId,
    machine: &MachineConfig,
    effort: u32,
    opts: &StitchOptions,
) -> Result<&'static StitchedKernel, PipelineError> {
    static CACHE: OnceLock<StitchedCache> = OnceLock::new();
    let cache = CACHE.get_or_init(|| Mutex::new(HashMap::new()));
    let key = (curve, *machine, effort, *opts);
    {
        let map = cache.lock().unwrap_or_else(|e| e.into_inner());
        if let Some(k) = map.get(&key) {
            return Ok(k);
        }
    }
    let kernel = compile_curve_stitched(curve, machine, effort, opts)?;
    let mut map = cache.lock().unwrap_or_else(|e| e.into_inner());
    Ok(*map
        .entry(key)
        .or_insert_with(|| Box::leak(Box::new(kernel))))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_fp::Fp2;
    use fourq_trace::Node;

    #[test]
    fn compiled_kernel_matches_software_for_fresh_inputs() {
        let m = MachineConfig::paper();
        let kernel = compile(&m, 0).expect("compiles");
        let base = AffinePoint::generator().mul(&Scalar::from_u64(5));
        for k in [
            Scalar::from_u64(1),
            Scalar::from_u64(2),
            Scalar::from_le_bytes(&[0x6b; 32]),
        ] {
            let got = kernel.execute(&base, &k).expect("executes");
            let want = base.mul(&k);
            assert_eq!((got.x, got.y), (want.x, want.y));
        }
    }

    #[test]
    fn degenerate_inputs_mirror_affine_mul() {
        let m = MachineConfig::paper();
        let kernel = shared_kernel(&m, 0).expect("compiles");
        // identity base short-circuits
        let id = AffinePoint::identity();
        let r = kernel.execute(&id, &Scalar::from_u64(42)).unwrap();
        assert!(r.is_identity());
        // zero scalar flows through the parity-corrected pipeline
        let g = AffinePoint::generator();
        let z = kernel.execute(&g, &Scalar::from_u64(0)).unwrap();
        let want = g.mul(&Scalar::from_u64(0));
        assert_eq!((z.x, z.y), (want.x, want.y));
        assert!(z.is_identity());
    }

    #[test]
    fn execute_batch_matches_execute() {
        let m = MachineConfig::paper();
        let kernel = shared_kernel(&m, 0).expect("compiles");
        let g = AffinePoint::generator();
        let scalars: Vec<Scalar> = (1..=6u64).map(|i| Scalar::from_u64(i * 977)).collect();
        let serial: Vec<AffinePoint> = scalars
            .iter()
            .map(|k| kernel.execute(&g, k).unwrap())
            .collect();
        for threads in [1, 3] {
            let batch = kernel.execute_batch_with(&g, &scalars, threads).unwrap();
            assert_eq!(batch.len(), serial.len());
            for (a, b) in batch.iter().zip(&serial) {
                assert_eq!((a.x, a.y), (b.x, b.y));
            }
        }
    }

    #[test]
    fn shared_kernel_is_cached() {
        let m = MachineConfig::paper();
        let a = shared_kernel(&m, 0).expect("compiles");
        let b = shared_kernel(&m, 0).expect("cached");
        assert!(std::ptr::eq(a, b), "same (machine, effort) → same kernel");
    }

    #[test]
    fn fingerprint_is_scalar_independent_and_plausible() {
        let m = MachineConfig::paper();
        let kernel = shared_kernel(&m, 0).expect("compiles");
        let fp = &kernel.fingerprint;
        assert!(fp.cycles >= fp.lower_bound);
        assert!(fp.cycles < fp.serial_cycles);
        assert_eq!(fp.rom_words, kernel.trace.nodes.len());
        assert!(fp.rom_bits > 0, "paper machine has a packed ROM");
        assert!(fp.mux_count > 400, "uniform program routes every digit");
        assert!(fp.registers <= DEFAULT_REGISTER_BUDGET);
        assert!(fp.register_pressure <= fp.registers);
    }

    #[test]
    fn over_budget_register_allocation_is_reported() {
        let m = MachineConfig::paper();
        match compile_trace(record_curve_trace(CurveId::FourQ), &m, 0, 8) {
            Err(PipelineError::RegisterBudget { needed, budget }) => {
                assert_eq!(budget, 8);
                assert!(needed > 8);
            }
            other => panic!("expected RegisterBudget, got {other:?}"),
        }
    }

    #[test]
    fn loop_body_replays_to_recorded_values() {
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let kernel = compile_trace(t, &m, 16, DEFAULT_REGISTER_BUDGET).expect("compiles");
        let t = &kernel.trace;
        // Every loop-body input is a runtime input: bind the recorded ones.
        let runtime: Vec<Word> = t.runtime_ids.iter().map(|&id| t.inputs[id].1).collect();
        let outs = kernel.replay(&runtime, &t.digits);
        assert_eq!(t.outputs.len(), outs.len());
        for ((name, id), v) in t.outputs.iter().zip(outs) {
            assert_eq!(v, t.values[*id], "output {name}");
        }
    }

    #[test]
    fn one_register_allocation_breaks_the_replay() {
        // Everything in one register clobbers live values: the physical
        // replay must produce wrong outputs.
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let kernel = compile_trace(t, &m, 4, DEFAULT_REGISTER_BUDGET).expect("compiles");
        let t = &kernel.trace;
        let bogus = kernel
            .with_allocation(Allocation {
                assignment: vec![0; t.first_op_id() + t.nodes.len()],
                num_registers: 1,
            })
            .expect("assembles");
        let runtime: Vec<Word> = t.runtime_ids.iter().map(|&id| t.inputs[id].1).collect();
        let outs = bogus.replay(&runtime, &t.digits);
        // Every write lands in register 0, so the outputs depend on the
        // exact retirement order: the lowered commit schedule must match
        // the reference's pending queue.
        assert_eq!(
            outs,
            crate::check::reference_replay(&bogus, &runtime, &t.digits)
        );
        let mismatch = t
            .outputs
            .iter()
            .zip(outs)
            .any(|((_, id), v)| v != t.values[*id]);
        assert!(mismatch, "one-register allocation cannot be correct");
    }

    #[test]
    fn same_cycle_retirements_keep_queue_order() {
        // A multiplier result issued at c−2 and an adder result issued at
        // c−1 retire in the same cycle. With both pointed at one register
        // the survivor is whichever retires last, so the lowered commit
        // schedule must order them as the reference's pending queue does.
        // (Cruder allocations cannot show this: the first `x − x` in a
        // shared register zeroes every later value.)
        let m = MachineConfig::paper();
        let kernel = shared_kernel(&m, 0).expect("compiles");
        let t = &kernel.trace;
        let start = &kernel.schedule.start;
        let mut order: Vec<usize> = (0..t.nodes.len()).collect();
        order.sort_by_key(|&i| (start[i], i));
        let mut first_at = HashMap::new();
        let mut pairs = Vec::new();
        for i in order {
            let finish = start[i] + m.latency(t.nodes[i].kind.unit());
            if let Some(&first) = first_at.get(&finish) {
                pairs.push((first, i));
            } else {
                first_at.insert(finish, i);
            }
        }
        assert!(pairs.len() > 100, "the paper machine overlaps its units");
        let base = t.first_op_id();
        let runtime: Vec<Word> = t.runtime_ids.iter().map(|&id| t.inputs[id].1).collect();
        for &(first, second) in [0, pairs.len() / 2, pairs.len() - 1].map(|p| &pairs[p]) {
            let mut alloc = kernel.allocation.clone();
            alloc.assignment[base + first] = alloc.assignment[base + second];
            let bad = kernel.with_allocation(alloc).expect("assembles");
            assert_eq!(
                bad.replay(&runtime, &t.digits),
                crate::check::reference_replay(&bad, &runtime, &t.digits),
                "ops {first} and {second} retire together"
            );
        }
    }

    #[test]
    fn runtime_inputs_and_outputs_bind_by_slot() {
        // The replay binds `runtime` to `runtime_ids` by position and reads
        // outputs in `outputs` order; pin both per curve.
        for (curve, inputs, outputs) in [
            (CurveId::FourQ, &["Px", "Py"][..], &["x", "y"][..]),
            (CurveId::X25519, &["U"][..], &["x"][..]),
            (CurveId::P256, &["Px", "Py", "Pz"][..], &["x", "y"][..]),
        ] {
            let t = record_curve_trace(curve);
            let names: Vec<&str> = t
                .runtime_ids
                .iter()
                .map(|&id| t.inputs[id].0.as_str())
                .collect();
            assert_eq!(names, inputs, "{curve} runtime inputs");
            let names: Vec<&str> = t.outputs.iter().map(|(n, _)| n.as_str()).collect();
            assert_eq!(names, outputs, "{curve} outputs");
        }
    }

    #[test]
    fn malformed_trace_is_reported() {
        // Hand-rolled trace with a value-table mismatch: typed error, no
        // panic.
        let bad = Trace {
            curve: CurveId::FourQ,
            inputs: vec![("a".to_string(), Word::Fp2(Fp2::ONE))],
            runtime_ids: vec![],
            nodes: vec![Node {
                kind: OpKind::Sqr,
                a: Operand::Val(0),
                b: None,
            }],
            muxes: vec![],
            outputs: vec![("o".to_string(), 1)],
            values: vec![Word::Fp2(Fp2::ONE)], // should be 2 entries
            digits: DigitStream::empty(),
        };
        let m = MachineConfig::paper();
        assert_eq!(
            compile_trace(bad, &m, 0, DEFAULT_REGISTER_BUDGET).err(),
            Some(PipelineError::Trace(TraceError::ValueCountMismatch))
        );
    }

    #[test]
    fn x25519_kernel_matches_baseline() {
        let m = MachineConfig::paper();
        let kernel = shared_kernel_for(CurveId::X25519, &m, 0).expect("compiles");
        assert_eq!(kernel.curve, CurveId::X25519);
        let ctx = X25519::new();
        let mut base = [0u8; 32];
        base[0] = 9;
        let mut u = base;
        for i in 0..3u8 {
            let mut s = [0x42u8 ^ i; 32];
            s[0] = i.wrapping_mul(97);
            let got = kernel.execute_x25519(&s, &u).expect("executes");
            assert_eq!(got, ctx.ladder(&s, &u));
            u = got;
        }
        // High-bit-set u is masked identically on both sides.
        let mut high = [0xffu8; 32];
        high[0] = 7;
        let s = [0x11u8; 32];
        assert_eq!(
            kernel.execute_x25519(&s, &high).expect("executes"),
            ctx.ladder(&s, &high)
        );
    }

    #[test]
    fn p256_kernel_matches_baseline_including_degenerates() {
        let m = MachineConfig::paper();
        let kernel = shared_kernel_for(CurveId::P256, &m, 0).expect("compiles");
        assert_eq!(kernel.curve, CurveId::P256);
        let ctx = P256::new();
        let g = ctx.generator_affine();
        let gb = encode_p256_point(&g);
        for k in [
            U256::from_u64(1),
            U256::from_u64(2),
            U256::from_le_bytes(&[0x6b; 32]),
        ] {
            let got = kernel
                .execute_p256(&k.to_le_bytes(), &gb)
                .expect("executes");
            assert_eq!(got, encode_p256_point(&ctx.scalar_mul_complete(&k, &g)));
        }
        // Zero scalar flows through the datapath and lands on infinity.
        let zero = kernel.execute_p256(&[0u8; 32], &gb).expect("executes");
        assert_eq!(zero, [0u8; 64]);
        // Infinity base stays at infinity, through the same fixed program.
        let inf = kernel
            .execute_p256(&U256::from_u64(5).to_le_bytes(), &[0u8; 64])
            .expect("executes");
        assert_eq!(inf, [0u8; 64]);
    }

    #[test]
    fn shared_kernel_for_caches_per_curve() {
        let m = MachineConfig::paper();
        let fq = shared_kernel_for(CurveId::FourQ, &m, 0).expect("compiles");
        let x = shared_kernel_for(CurveId::X25519, &m, 0).expect("compiles");
        assert!(std::ptr::eq(
            x,
            shared_kernel_for(CurveId::X25519, &m, 0).unwrap()
        ));
        assert!(!std::ptr::eq(fq, x), "distinct curves → distinct kernels");
        assert!(
            std::ptr::eq(fq, shared_kernel(&m, 0).unwrap()),
            "FourQ wrapper hits the same cache entry"
        );
    }

    #[test]
    fn wrong_curve_execution_is_reported() {
        let m = MachineConfig::paper();
        let kernel = shared_kernel_for(CurveId::X25519, &m, 0).expect("compiles");
        let err = kernel
            .execute(&AffinePoint::generator(), &Scalar::from_u64(3))
            .unwrap_err();
        assert_eq!(
            err,
            PipelineError::WrongCurve {
                compiled: CurveId::X25519,
                requested: CurveId::FourQ,
            }
        );
        let fq = shared_kernel(&m, 0).expect("compiles");
        assert!(matches!(
            fq.execute_p256(&[1u8; 32], &[0u8; 64]),
            Err(PipelineError::WrongCurve { .. })
        ));
    }

    #[test]
    fn stitched_kernel_verifies_and_executes() {
        let m = MachineConfig::paper();
        // Cheap options keep the debug-build runtime sane; the full-effort
        // stitched numbers are pinned by crates/sched/tests/stitched_sm.rs
        // and the fleet KAT.
        let opts = StitchOptions {
            segments: 8,
            node_limit: 500,
            window_trials: 4,
        };
        let st = shared_stitched_kernel(CurveId::FourQ, &m, 0, &opts).expect("compiles");
        // The embedded kernel carries the better of the two schedules.
        assert_eq!(
            st.kernel.fingerprint.cycles,
            st.stitched_cycles.min(st.baseline_cycles)
        );
        if st.stitched_cycles <= st.baseline_cycles {
            assert_eq!(st.segments.len(), opts.segments);
            assert_eq!(
                st.segments.iter().map(|s| s.jobs).sum::<usize>(),
                st.kernel.trace.nodes.len()
            );
        } else {
            assert!(st.segments.is_empty());
        }
        // Satellite check: the stitched artifact passes the full
        // K-FLOW/K-OBLIV/K-RES battery, same as a plain compile.
        let report = crate::check::verify(&st.kernel, crate::check::CheckLevel::Full);
        assert!(
            report.findings.is_empty(),
            "stitched kernel rejected: {:?}",
            report.findings.first()
        );
        // And it still computes scalar multiplication on fresh inputs.
        let base = AffinePoint::generator().mul(&Scalar::from_u64(7));
        let k = Scalar::from_le_bytes(&[0x35; 32]);
        let got = st.kernel.execute(&base, &k).expect("executes");
        let want = base.mul(&k);
        assert_eq!((got.x, got.y), (want.x, want.y));
    }

    #[test]
    fn shared_stitched_kernel_is_cached_per_options() {
        let m = MachineConfig::paper();
        let a = StitchOptions {
            segments: 8,
            node_limit: 500,
            window_trials: 4,
        };
        let x = shared_stitched_kernel(CurveId::FourQ, &m, 0, &a).expect("compiles");
        let y = shared_stitched_kernel(CurveId::FourQ, &m, 0, &a).expect("cached");
        assert!(std::ptr::eq(x, y), "same options → same artifact");
    }

    #[test]
    fn corrupted_schedule_is_reported() {
        let t = fourq_trace::trace_double_add_iteration();
        let m = MachineConfig::paper();
        let problem = trace_to_problem(&t);
        let mut sched = schedule(&problem, &m, 0);
        let last = sched.start.len() - 1;
        sched.start[last] = 0; // operands cannot be ready at cycle 0
        match finish_compile(t, problem, sched, &m, 0, DEFAULT_REGISTER_BUDGET) {
            Err(PipelineError::Schedule(_)) => {}
            other => panic!("expected Schedule error, got {other:?}"),
        }
    }
}
