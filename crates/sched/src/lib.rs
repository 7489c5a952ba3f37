//! Instruction scheduling for the FourQ ASIC datapath.
//!
//! §III-C of the DATE 2019 paper formulates microinstruction scheduling as
//! a job-shop problem — `n` `F_p²` operations on `m` machines (the
//! pipelined multiplier and the adder/subtractor), minimising makespan —
//! and solves it with a commercial CP solver. This crate is the
//! open-source substitution (`DESIGN.md` §3): a resource-constrained
//! list scheduler driven by critical-path priorities, refined by iterated
//! local search, with a provable [`lower_bound`] so the optimality gap is
//! always visible, and an independent [`Schedule::validate`] checker.
//!
//! The machine model captures the paper's Fig. 1(a):
//! a pipelined multiplier (initiation interval 1, configurable latency),
//! an adder/subtractor, a register file with limited read/write ports, and
//! forwarding paths that let a result be consumed the cycle it is produced
//! without occupying a read port.
//!
//! # Example
//!
//! ```
//! use fourq_sched::{Job, MachineConfig, Problem, Unit, schedule};
//!
//! // c = a*b; d = c + c
//! let problem = Problem::new(vec![
//!     Job { unit: Unit::Multiplier, deps: vec![], order_deps: vec![], input_operands: 2 },
//!     Job { unit: Unit::AddSub, deps: vec![0], order_deps: vec![], input_operands: 0 },
//! ]);
//! let machine = MachineConfig::paper();
//! let s = schedule(&problem, &machine, 8);
//! s.validate(&problem, &machine).unwrap();
//! assert_eq!(s.start[0], 0);
//! assert_eq!(s.start[1], machine.latency(Unit::Multiplier));
//! ```

#![forbid(unsafe_code)]
#![allow(clippy::needless_range_loop)] // limb/index arithmetic reads clearer with explicit indices
#![warn(missing_docs)]

use std::collections::HashMap;
use std::fmt;

/// The two arithmetic units of the datapath: the tracer's own unit, so
/// the recorded program and the machine model name units one way.
pub use fourq_trace::Unit;

/// One microinstruction to schedule.
#[derive(Clone, Debug)]
pub struct Job {
    /// Unit the operation issues on.
    pub unit: Unit,
    /// Indices of producer jobs whose results this job consumes
    /// *directly* (forwardable data edges).
    pub deps: Vec<usize>,
    /// Indices of producer jobs this job must wait for without consuming
    /// their result directly — e.g. every candidate behind an operand
    /// multiplexer: which one is read is decided at runtime, so the fixed
    /// schedule must order *all* of them before this job, and the value
    /// always arrives through the register file (never a forwarding
    /// path). Their read-port cost is carried by `input_operands`.
    pub order_deps: Vec<usize>,
    /// Number of operands that unconditionally consume a register-file
    /// read port: program inputs (no producer job) and mux-routed
    /// operands (one read each, regardless of candidate count).
    pub input_operands: usize,
}

impl Job {
    /// All producer indices this job must wait for (data + ordering).
    pub fn all_deps(&self) -> impl Iterator<Item = usize> + '_ {
        self.deps.iter().chain(self.order_deps.iter()).copied()
    }
}

/// A scheduling problem: a DAG of jobs.
#[derive(Clone, Debug)]
pub struct Problem {
    /// The jobs, in recorded order; `deps` refer to smaller indices.
    pub jobs: Vec<Job>,
}

impl Problem {
    /// Creates a problem, checking the DAG is well-formed (deps point to
    /// earlier jobs only).
    ///
    /// # Panics
    ///
    /// Panics if a dependency references an equal or later index.
    pub fn new(jobs: Vec<Job>) -> Problem {
        for (i, j) in jobs.iter().enumerate() {
            for d in j.all_deps() {
                assert!(d < i, "job {i} depends on non-earlier job {d}");
            }
        }
        Problem { jobs }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the problem has no jobs.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }
}

/// Datapath resource parameters.
///
/// `Hash`/`Eq` make the config usable as a compiled-kernel cache key
/// (see `fourq_cpu::shared_kernel`).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct MachineConfig {
    /// Multiplier pipeline latency in cycles (initiation interval is 1:
    /// the paper's "single `F_p²` multiplication per clock cycle").
    pub mul_latency: u32,
    /// Adder/subtractor latency in cycles.
    pub addsub_latency: u32,
    /// Number of multiplier unit instances.
    pub mul_units: usize,
    /// Number of adder/subtractor instances.
    pub addsub_units: usize,
    /// Register-file read ports (the paper's register file has 4).
    pub read_ports: u32,
    /// Register-file write ports (the paper's register file has 2).
    pub write_ports: u32,
    /// Whether forwarding paths exist (results consumable in the cycle
    /// they complete, without using a read port).
    pub forwarding: bool,
}

impl MachineConfig {
    /// The configuration of the fabricated processor (Fig. 1(a)): one
    /// pipelined multiplier (latency 2), one adder/subtractor (latency 1),
    /// 4 read and 2 write ports, forwarding enabled.
    pub fn paper() -> MachineConfig {
        MachineConfig {
            mul_latency: 2,
            addsub_latency: 1,
            mul_units: 1,
            addsub_units: 1,
            read_ports: 4,
            write_ports: 2,
            forwarding: true,
        }
    }

    /// The banked register-file ablation: the flat 4R/2W file is split
    /// into a table bank (holding the precomputed point table, read only
    /// through the digit multiplexers) and an accumulator bank. The table
    /// bank's two dedicated read ports free the main ports for datapath
    /// operands, which the scheduler sees as a 6-read-port machine;
    /// everything else matches [`MachineConfig::paper`]. The area side of
    /// the ablation lives in `fourq_tech::AreaModel::paper_banked`.
    pub fn paper_banked() -> MachineConfig {
        MachineConfig {
            read_ports: 6,
            ..MachineConfig::paper()
        }
    }

    /// Latency of a unit in cycles: the one latency rule of the machine
    /// model, shared by the scheduler, the simulator, the register
    /// allocator and the kernel replay.
    pub fn latency(&self, unit: Unit) -> u64 {
        match unit {
            Unit::Multiplier => self.mul_latency as u64,
            Unit::AddSub => self.addsub_latency as u64,
        }
    }

    /// Instance count of a unit.
    pub fn units(&self, unit: Unit) -> usize {
        match unit {
            Unit::Multiplier => self.mul_units,
            Unit::AddSub => self.addsub_units,
        }
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::paper()
    }
}

/// A computed schedule: issue cycle per job.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Schedule {
    /// Issue cycle of each job.
    pub start: Vec<u64>,
    /// Total cycles: `max(start + latency)`.
    pub makespan: u64,
}

/// Constraint violations found by [`Schedule::validate`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ScheduleError {
    /// A job starts before one of its dependencies finished.
    DependencyViolation {
        /// Consumer job.
        job: usize,
        /// Producer job.
        dep: usize,
    },
    /// More jobs issued on a unit in one cycle than instances exist.
    UnitOversubscribed {
        /// The saturated unit.
        unit: Unit,
        /// The cycle where it happened.
        cycle: u64,
    },
    /// Register-file read ports exceeded in a cycle.
    ReadPortsExceeded {
        /// The cycle where it happened.
        cycle: u64,
    },
    /// Register-file write ports exceeded in a cycle.
    WritePortsExceeded {
        /// The cycle where it happened.
        cycle: u64,
    },
    /// The schedule's makespan field is wrong.
    WrongMakespan,
    /// Schedule length differs from the problem size.
    WrongLength,
}

impl fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScheduleError::DependencyViolation { job, dep } => {
                write!(f, "job {job} starts before dependency {dep} finishes")
            }
            ScheduleError::UnitOversubscribed { unit, cycle } => {
                write!(f, "unit {unit:?} oversubscribed at cycle {cycle}")
            }
            ScheduleError::ReadPortsExceeded { cycle } => {
                write!(f, "read ports exceeded at cycle {cycle}")
            }
            ScheduleError::WritePortsExceeded { cycle } => {
                write!(f, "write ports exceeded at cycle {cycle}")
            }
            ScheduleError::WrongMakespan => write!(f, "stored makespan is inconsistent"),
            ScheduleError::WrongLength => write!(f, "schedule length mismatch"),
        }
    }
}
impl std::error::Error for ScheduleError {}

impl Schedule {
    /// Independently re-checks every constraint (dependencies, unit issue
    /// capacity, read/write ports, makespan).
    ///
    /// # Errors
    ///
    /// The first violation found.
    pub fn validate(
        &self,
        problem: &Problem,
        machine: &MachineConfig,
    ) -> Result<(), ScheduleError> {
        if self.start.len() != problem.len() {
            return Err(ScheduleError::WrongLength);
        }
        let mut issue: HashMap<(Unit, u64), usize> = HashMap::new();
        let mut reads: HashMap<u64, u32> = HashMap::new();
        let mut writes: HashMap<u64, u32> = HashMap::new();
        let mut makespan = 0u64;
        for (i, job) in problem.jobs.iter().enumerate() {
            let s = self.start[i];
            let lat = machine.latency(job.unit);
            makespan = makespan.max(s + lat);
            for d in job.all_deps() {
                let dep_finish = self.start[d] + machine.latency(problem.jobs[d].unit);
                if s < dep_finish {
                    return Err(ScheduleError::DependencyViolation { job: i, dep: d });
                }
            }
            *issue.entry((job.unit, s)).or_default() += 1;
            let mut rf_reads = job.input_operands as u32;
            for &d in &job.deps {
                let dep_finish = self.start[d] + machine.latency(problem.jobs[d].unit);
                let forwarded = machine.forwarding && dep_finish == s;
                if !forwarded {
                    rf_reads += 1;
                }
            }
            *reads.entry(s).or_default() += rf_reads;
            *writes.entry(s + lat).or_default() += 1;
        }
        for ((unit, cycle), n) in issue {
            if n > machine.units(unit) {
                return Err(ScheduleError::UnitOversubscribed { unit, cycle });
            }
        }
        for (cycle, n) in reads {
            if n > machine.read_ports {
                return Err(ScheduleError::ReadPortsExceeded { cycle });
            }
        }
        for (cycle, n) in writes {
            if n > machine.write_ports {
                return Err(ScheduleError::WritePortsExceeded { cycle });
            }
        }
        if makespan != self.makespan {
            return Err(ScheduleError::WrongMakespan);
        }
        Ok(())
    }
}

/// Critical-path-length priority of every job: the longest latency chain
/// from the job to any sink. Classic list-scheduling priority.
pub fn critical_path_priorities(problem: &Problem, machine: &MachineConfig) -> Vec<u64> {
    let n = problem.len();
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, j) in problem.jobs.iter().enumerate() {
        for d in j.all_deps() {
            succs[d].push(i);
        }
    }
    let mut prio = vec![0u64; n];
    for i in (0..n).rev() {
        let lat = machine.latency(problem.jobs[i].unit);
        let down = succs[i].iter().map(|&s| prio[s]).max().unwrap_or(0);
        prio[i] = lat + down;
    }
    prio
}

/// Priorities from a *backward* resource-constrained pass: the reversed
/// DAG is list-scheduled (unit capacity only), and each job's priority is
/// how late it sat in that reversed schedule. Feeding these into the
/// forward scheduler implements the classic forward/backward iterative
/// scheme, which often beats plain critical-path priorities on problems
/// with wide tails.
pub fn backward_priorities(problem: &Problem, machine: &MachineConfig) -> Vec<u64> {
    let n = problem.len();
    if n == 0 {
        return Vec::new();
    }
    // Reverse the DAG: job i in the reversed problem is original job
    // n-1-i, with edges flipped.
    let mut rev_jobs: Vec<Job> = Vec::with_capacity(n);
    let mut rev_deps: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, j) in problem.jobs.iter().enumerate() {
        for d in j.all_deps() {
            // original edge d -> i becomes (n-1-i) -> (n-1-d)
            rev_deps[n - 1 - d].push(n - 1 - i);
        }
    }
    for i in 0..n {
        let orig = n - 1 - i;
        let mut deps = rev_deps[i].clone();
        deps.sort_unstable();
        deps.dedup();
        rev_jobs.push(Job {
            unit: problem.jobs[orig].unit,
            deps,
            order_deps: vec![],
            input_operands: 0,
        });
    }
    // Relax the port constraints for the backward pass (it only produces
    // priorities; the forward pass re-enforces everything).
    let mut relaxed = *machine;
    relaxed.read_ports = u32::MAX;
    relaxed.write_ports = u32::MAX;
    let rev_problem = Problem::new(rev_jobs);
    let prio = critical_path_priorities(&rev_problem, &relaxed);
    let rev_sched = list_schedule(&rev_problem, &relaxed, &prio);
    // Original job i was reversed job n-1-i; a job finishing EARLY in the
    // reversed schedule should run LATE forward, so priority = its
    // reversed start time.
    (0..n).map(|i| rev_sched.start[n - 1 - i]).collect()
}

/// A makespan lower bound: the larger of the critical path and each unit's
/// issue-bandwidth bound (`⌈ops/units⌉ + latency − 1`).
pub fn lower_bound(problem: &Problem, machine: &MachineConfig) -> u64 {
    if problem.is_empty() {
        return 0;
    }
    let cp = critical_path_priorities(problem, machine)
        .into_iter()
        .max()
        .unwrap_or(0);
    let mut bound = cp;
    for unit in [Unit::Multiplier, Unit::AddSub] {
        let ops = problem.jobs.iter().filter(|j| j.unit == unit).count();
        if ops > 0 {
            let units = machine.units(unit).max(1);
            let b = ops.div_ceil(units) as u64 + machine.latency(unit) - 1;
            bound = bound.max(b);
        }
    }
    bound
}

/// Greedy resource-constrained list scheduling with the given priorities
/// (higher first; ties broken by original order).
pub fn list_schedule(problem: &Problem, machine: &MachineConfig, priority: &[u64]) -> Schedule {
    assert_eq!(priority.len(), problem.len(), "one priority per job");
    // Static feasibility: every job must be issuable on this machine at
    // all, otherwise the greedy loop below could never terminate. The
    // minimum register reads a job can need is all of its operands when
    // forwarding is off, or only the input operands when every producer
    // result could arrive through a forwarding path.
    for (i, j) in problem.jobs.iter().enumerate() {
        let min_reads = if machine.forwarding {
            j.input_operands as u32
        } else {
            (j.input_operands + j.deps.len()) as u32
        };
        assert!(
            min_reads <= machine.read_ports,
            "job {i} needs at least {min_reads} register reads but the machine has only {} read ports",
            machine.read_ports
        );
    }
    assert!(
        problem.is_empty() || machine.write_ports >= 1,
        "machine needs at least one write port"
    );
    let n = problem.len();
    let mut start = vec![u64::MAX; n];
    if n == 0 {
        return Schedule { start, makespan: 0 };
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut preds_left = vec![0usize; n];
    for (i, j) in problem.jobs.iter().enumerate() {
        preds_left[i] = j.deps.len() + j.order_deps.len();
        for d in j.all_deps() {
            succs[d].push(i);
        }
    }
    // earliest feasible cycle considering only dependencies
    let mut earliest = vec![0u64; n];
    // jobs whose deps are all scheduled, keyed by earliest cycle
    let mut ready: Vec<usize> = (0..n).filter(|&i| preds_left[i] == 0).collect();
    let mut scheduled = 0usize;
    let mut cycle = 0u64;
    let mut reads_used: HashMap<u64, u32> = HashMap::new();
    let mut writes_used: HashMap<u64, u32> = HashMap::new();
    let mut makespan = 0u64;

    // Livelock watchdog: once every in-flight result has retired
    // (max latency cycles), an idle machine state can never change, so a
    // longer drought means the remaining jobs are unschedulable (e.g. a
    // forwarding alignment that the port budget can never admit).
    let max_latency = machine.mul_latency.max(machine.addsub_latency) as u64;
    let mut last_issue_cycle = 0u64;

    while scheduled < n {
        assert!(
            cycle.saturating_sub(last_issue_cycle) <= max_latency + 1,
            "scheduling livelock: no job issuable since cycle {last_issue_cycle} \
             ({scheduled}/{n} scheduled) — machine cannot execute this program"
        );
        // candidates issueable this cycle, grouped per unit
        for unit in [Unit::Multiplier, Unit::AddSub] {
            let mut slots = machine.units(unit);
            while slots > 0 {
                // pick best candidate for this unit at this cycle
                let mut best: Option<usize> = None;
                for &i in &ready {
                    if start[i] != u64::MAX || problem.jobs[i].unit != unit || earliest[i] > cycle {
                        continue;
                    }
                    // port feasibility
                    let mut rf_reads = problem.jobs[i].input_operands as u32;
                    for &d in &problem.jobs[i].deps {
                        let dep_finish = start[d] + machine.latency(problem.jobs[d].unit);
                        if !(machine.forwarding && dep_finish == cycle) {
                            rf_reads += 1;
                        }
                    }
                    let lat = machine.latency(unit);
                    if reads_used.get(&cycle).copied().unwrap_or(0) + rf_reads > machine.read_ports
                    {
                        continue;
                    }
                    if writes_used.get(&(cycle + lat)).copied().unwrap_or(0) + 1
                        > machine.write_ports
                    {
                        continue;
                    }
                    match best {
                        None => best = Some(i),
                        Some(b) => {
                            if priority[i] > priority[b] || (priority[i] == priority[b] && i < b) {
                                best = Some(i);
                            }
                        }
                    }
                }
                let Some(i) = best else { break };
                // commit
                let lat = machine.latency(unit);
                start[i] = cycle;
                makespan = makespan.max(cycle + lat);
                let mut rf_reads = problem.jobs[i].input_operands as u32;
                for &d in &problem.jobs[i].deps {
                    let dep_finish = start[d] + machine.latency(problem.jobs[d].unit);
                    if !(machine.forwarding && dep_finish == cycle) {
                        rf_reads += 1;
                    }
                }
                *reads_used.entry(cycle).or_default() += rf_reads;
                *writes_used.entry(cycle + lat).or_default() += 1;
                scheduled += 1;
                last_issue_cycle = cycle;
                slots -= 1;
                for &s in &succs[i] {
                    preds_left[s] -= 1;
                    earliest[s] = earliest[s].max(cycle + lat);
                    if preds_left[s] == 0 {
                        ready.push(s);
                    }
                }
            }
        }
        ready.retain(|&i| start[i] == u64::MAX);
        cycle += 1;
    }
    Schedule { start, makespan }
}

/// Fully serial schedule (no instruction-level parallelism): each
/// operation starts when the previous one finishes. The "unscheduled
/// processor" baseline for the ablation study.
pub fn serial_schedule(problem: &Problem, machine: &MachineConfig) -> Schedule {
    let mut start = Vec::with_capacity(problem.len());
    let mut t = 0u64;
    for j in &problem.jobs {
        start.push(t);
        t += machine.latency(j.unit);
    }
    Schedule { start, makespan: t }
}

/// Iterated local search around critical-path list scheduling: restarts
/// with deterministically perturbed priorities, keeping the best schedule.
/// `iterations = 0` returns the plain critical-path schedule.
pub fn schedule(problem: &Problem, machine: &MachineConfig, iterations: u32) -> Schedule {
    let cp_prio = critical_path_priorities(problem, machine);
    let mut best = list_schedule(problem, machine, &cp_prio);
    let lb = lower_bound(problem, machine);
    if best.makespan == lb || problem.is_empty() {
        return best;
    }
    // Second seed: backward-pass priorities.
    let bw_prio = backward_priorities(problem, machine);
    let bw = list_schedule(problem, machine, &bw_prio);
    if bw.makespan < best.makespan {
        best = bw;
    }
    if best.makespan == lb {
        return best;
    }
    let mut rng = XorShift64::new(0x5eed_f04d_1234_5678);
    for it in 0..iterations {
        // Alternate perturbing the two seed priority vectors.
        let seed_prio = if it % 2 == 0 { &cp_prio } else { &bw_prio };
        let perturbed: Vec<u64> = seed_prio
            .iter()
            .map(|&p| {
                // multiply by 16 and add noise in [0, 16): preserves strong
                // orderings, shuffles ties and near-ties.
                p * 16 + (rng.next() % 16)
            })
            .collect();
        let cand = list_schedule(problem, machine, &perturbed);
        if cand.makespan < best.makespan {
            best = cand;
            if best.makespan == lb {
                break;
            }
        }
    }
    best
}

/// Small deterministic PRNG so scheduling needs no external dependency and
/// results are reproducible.
struct XorShift64(u64);

impl XorShift64 {
    fn new(seed: u64) -> Self {
        XorShift64(seed.max(1))
    }
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mul(deps: Vec<usize>, inputs: usize) -> Job {
        Job {
            unit: Unit::Multiplier,
            deps,
            order_deps: vec![],
            input_operands: inputs,
        }
    }
    fn add(deps: Vec<usize>, inputs: usize) -> Job {
        Job {
            unit: Unit::AddSub,
            deps,
            order_deps: vec![],
            input_operands: inputs,
        }
    }

    #[test]
    fn chain_respects_latency() {
        let p = Problem::new(vec![mul(vec![], 2), add(vec![0], 0), mul(vec![1], 1)]);
        let m = MachineConfig::paper();
        let s = schedule(&p, &m, 4);
        s.validate(&p, &m).unwrap();
        assert_eq!(s.start[0], 0);
        assert_eq!(s.start[1], 2); // mul latency
        assert_eq!(s.start[2], 3); // addsub latency 1
        assert_eq!(s.makespan, 5);
    }

    #[test]
    fn independent_muls_pipeline() {
        // 4 independent multiplications on one pipelined multiplier:
        // issue every cycle, finish at 2..=5 -> makespan 5.
        let p = Problem::new(vec![mul(vec![], 2); 4]);
        let m = MachineConfig::paper();
        let s = schedule(&p, &m, 0);
        s.validate(&p, &m).unwrap();
        assert_eq!(s.makespan, 5);
        assert_eq!(lower_bound(&p, &m), 5);
    }

    #[test]
    fn unit_capacity_respected() {
        let p = Problem::new(vec![add(vec![], 2), add(vec![], 2), add(vec![], 2)]);
        let m = MachineConfig::paper();
        let s = schedule(&p, &m, 0);
        s.validate(&p, &m).unwrap();
        // single addsub unit, II=1: issues at 0,1,2
        let mut starts = s.start.clone();
        starts.sort_unstable();
        assert_eq!(starts, vec![0, 1, 2]);
    }

    #[test]
    fn read_ports_limit_parallel_issue() {
        // mul (2 reads) + add (2 reads) fit in 4 ports; raise pressure by
        // shrinking ports to 3: they cannot co-issue at cycle 0.
        let p = Problem::new(vec![mul(vec![], 2), add(vec![], 2)]);
        let mut m = MachineConfig::paper();
        m.read_ports = 3;
        let s = schedule(&p, &m, 0);
        s.validate(&p, &m).unwrap();
        assert_ne!(s.start[0], s.start[1]);
    }

    #[test]
    fn forwarding_saves_read_ports() {
        // Consumer whose two operands both finish exactly when it issues:
        // with forwarding, zero RF reads needed.
        let p = Problem::new(vec![mul(vec![], 2), add(vec![], 2), add(vec![0, 1], 0)]);
        let mut m = MachineConfig::paper();
        m.read_ports = 4;
        let s = schedule(&p, &m, 0);
        s.validate(&p, &m).unwrap();
    }

    #[test]
    fn validator_catches_violations() {
        let p = Problem::new(vec![mul(vec![], 2), add(vec![0], 0)]);
        let m = MachineConfig::paper();
        let bad = Schedule {
            start: vec![0, 0],
            makespan: 2,
        };
        assert!(matches!(
            bad.validate(&p, &m),
            Err(ScheduleError::DependencyViolation { .. })
        ));
        let bad2 = Schedule {
            start: vec![0, 2],
            makespan: 99,
        };
        assert!(matches!(
            bad2.validate(&p, &m),
            Err(ScheduleError::WrongMakespan)
        ));
    }

    #[test]
    fn validator_catches_unit_oversubscription() {
        let p = Problem::new(vec![mul(vec![], 2), mul(vec![], 2)]);
        let mut m = MachineConfig::paper();
        m.mul_units = 1;
        // Two muls issued same cycle on one unit.
        let bad = Schedule {
            start: vec![0, 0],
            makespan: 2,
        };
        assert!(matches!(
            bad.validate(&p, &m),
            Err(ScheduleError::UnitOversubscribed { .. })
        ));
    }

    #[test]
    fn serial_is_upper_bound() {
        let p = Problem::new(vec![
            mul(vec![], 2),
            mul(vec![], 2),
            add(vec![0], 1),
            add(vec![1], 1),
            mul(vec![2, 3], 0),
        ]);
        let m = MachineConfig::paper();
        let serial = serial_schedule(&p, &m);
        serial.validate(&p, &m).unwrap();
        let smart = schedule(&p, &m, 16);
        smart.validate(&p, &m).unwrap();
        assert!(smart.makespan <= serial.makespan);
        assert!(smart.makespan >= lower_bound(&p, &m));
    }

    #[test]
    fn ils_never_worse_than_plain() {
        // random-ish layered DAG
        let mut jobs = Vec::new();
        for i in 0..40usize {
            let unit = if i % 3 == 0 {
                Unit::AddSub
            } else {
                Unit::Multiplier
            };
            let deps = if i < 4 { vec![] } else { vec![i - 4, i - 3] };
            let input_operands = if deps.is_empty() { 2 } else { 0 };
            jobs.push(Job {
                unit,
                deps,
                order_deps: vec![],
                input_operands,
            });
        }
        let p = Problem::new(jobs);
        let m = MachineConfig::paper();
        let plain = list_schedule(&p, &m, &critical_path_priorities(&p, &m));
        let improved = schedule(&p, &m, 50);
        improved.validate(&p, &m).unwrap();
        assert!(improved.makespan <= plain.makespan);
    }

    #[test]
    #[should_panic(expected = "non-earlier")]
    fn problem_rejects_forward_deps() {
        let _ = Problem::new(vec![mul(vec![1], 0), add(vec![], 2)]);
    }

    #[test]
    fn empty_problem() {
        let p = Problem::new(vec![]);
        let m = MachineConfig::paper();
        let s = schedule(&p, &m, 4);
        assert_eq!(s.makespan, 0);
        s.validate(&p, &m).unwrap();
    }

    #[test]
    fn order_deps_enforce_timing_without_forwarding() {
        // Consumer reads through a mux over jobs 0 and 1: it carries both
        // as order deps plus one always-RF read (input_operands = 1).
        let p = Problem::new(vec![
            mul(vec![], 2),
            mul(vec![], 2),
            Job {
                unit: Unit::AddSub,
                deps: vec![],
                order_deps: vec![0, 1],
                input_operands: 1,
            },
        ]);
        let m = MachineConfig::paper();
        let s = schedule(&p, &m, 4);
        s.validate(&p, &m).unwrap();
        // Both producers (latency 2, pipelined at 0 and 1) finish by 3.
        let fin = s.start[0].max(s.start[1]) + m.latency(Unit::Multiplier);
        assert!(s.start[2] >= fin, "mux consumer issued before candidates");

        // A schedule violating an order edge is rejected like a data edge.
        let bad = Schedule {
            start: vec![0, 1, 1],
            makespan: 3,
        };
        assert!(matches!(
            bad.validate(&p, &m),
            Err(ScheduleError::DependencyViolation { job: 2, .. })
        ));
    }

    #[test]
    #[should_panic(expected = "non-earlier")]
    fn problem_rejects_forward_order_deps() {
        let _ = Problem::new(vec![Job {
            unit: Unit::Multiplier,
            deps: vec![],
            order_deps: vec![0],
            input_operands: 1,
        }]);
    }
}

mod bridge;
mod exact;
mod windowed;
pub use bridge::trace_to_problem;
pub use exact::{exact_schedule, ExactResult};
pub use windowed::{
    diversified_schedule, stitched_exact_schedule, SegmentReport, StitchOptions, StitchedSchedule,
};
