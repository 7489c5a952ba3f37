//! Exact branch-and-bound scheduling for small blocks.
//!
//! The paper solves its job-shop formulation with IBM CP Optimizer — an
//! exact solver. For whole-program scheduling our heuristics (list
//! scheduling + ILS) are the practical substitute, but for *small blocks*
//! — like the 28-operation double-and-add loop body of Table I — an exact
//! search is affordable. This module implements chronological
//! branch-and-bound over active schedules with critical-path and
//! bandwidth lower bounds, returning a provably optimal makespan (or the
//! best found plus an `proved_optimal = false` flag if the node budget
//! runs out).

use crate::{
    critical_path_priorities, lower_bound, schedule, MachineConfig, Problem, Schedule, Unit,
};
use std::collections::HashMap;

/// Result of an exact search.
#[derive(Clone, Debug)]
pub struct ExactResult {
    /// Best schedule found.
    pub schedule: Schedule,
    /// Whether the search space was exhausted (result provably optimal).
    pub proved_optimal: bool,
    /// Search nodes expanded.
    pub nodes: u64,
}

struct Searcher<'a> {
    problem: &'a Problem,
    machine: &'a MachineConfig,
    succs: Vec<Vec<usize>>,
    cp_down: Vec<u64>, // critical path from op to sink (incl. own latency)
    best: Vec<u64>,
    best_makespan: u64,
    // Results already booked per retire cycle along the current DFS path
    // (committed on descent, rolled back on return). Mul and add
    // latencies differ, so different issue cycles alias onto one retire
    // cycle — write-port pressure is not a per-issue-cycle property.
    writes_used: HashMap<u64, u32>,
    nodes: u64,
    node_limit: u64,
    exhausted: bool,
}

impl<'a> Searcher<'a> {
    fn latency(&self, i: usize) -> u64 {
        self.machine.latency(self.problem.jobs[i].unit)
    }

    /// Chronological DFS. `start[i] == u64::MAX` means unscheduled;
    /// `earliest[i]` is the dependency-ready cycle; `cycle` is the next
    /// decision instant; `done` counts scheduled ops; `cur_makespan`
    /// tracks the partial schedule's last finish.
    #[allow(clippy::too_many_arguments)]
    fn dfs(
        &mut self,
        start: &mut Vec<u64>,
        earliest: &mut Vec<u64>,
        preds_left: &mut Vec<usize>,
        cycle: u64,
        done: usize,
        cur_makespan: u64,
    ) {
        if self.nodes >= self.node_limit {
            self.exhausted = false;
            return;
        }
        self.nodes += 1;
        let n = self.problem.len();
        if done == n {
            if cur_makespan < self.best_makespan {
                self.best_makespan = cur_makespan;
                self.best = start.clone();
            }
            return;
        }
        // ---- lower bounds ----
        // critical path of unscheduled work
        let mut lb = cur_makespan;
        let mut remaining = [0u64; 2]; // per unit
        for i in 0..n {
            if start[i] == u64::MAX {
                lb = lb.max(earliest[i].max(cycle) + self.cp_down[i]);
                match self.problem.jobs[i].unit {
                    Unit::Multiplier => remaining[0] += 1,
                    Unit::AddSub => remaining[1] += 1,
                }
            }
        }
        for (ui, unit) in [Unit::Multiplier, Unit::AddSub].into_iter().enumerate() {
            if remaining[ui] > 0 {
                let units = self.machine.units(unit).max(1) as u64;
                lb = lb.max(cycle + remaining[ui].div_ceil(units) + self.machine.latency(unit) - 1);
            }
        }
        if lb >= self.best_makespan {
            return;
        }

        // ---- candidates ready at `cycle`, per unit ----
        let mut mul_ready: Vec<usize> = Vec::new();
        let mut add_ready: Vec<usize> = Vec::new();
        for i in 0..n {
            if start[i] == u64::MAX && preds_left[i] == 0 && earliest[i] <= cycle {
                match self.problem.jobs[i].unit {
                    Unit::Multiplier => mul_ready.push(i),
                    Unit::AddSub => add_ready.push(i),
                }
            }
        }
        // Single-instance units only (the paper's machine); wider configs
        // use the heuristics. Branch order matters enormously for an
        // anytime search: try real candidates first (best critical path
        // first) and leave the idle branch for last, so the first
        // descents are dense schedules rather than idle-padded ones.
        mul_ready.sort_by(|&a, &b| self.cp_down[b].cmp(&self.cp_down[a]).then(a.cmp(&b)));
        add_ready.sort_by(|&a, &b| self.cp_down[b].cmp(&self.cp_down[a]).then(a.cmp(&b)));
        let mul_opts: Vec<Option<usize>> = mul_ready
            .iter()
            .copied()
            .map(Some)
            .chain(std::iter::once(None))
            .collect();
        let add_opts: Vec<Option<usize>> = add_ready
            .iter()
            .copied()
            .map(Some)
            .chain(std::iter::once(None))
            .collect();

        // next decision instant if we idle: earliest future ready time
        let mut next_cycle = u64::MAX;
        for i in 0..n {
            if start[i] == u64::MAX && preds_left[i] == 0 && earliest[i] > cycle {
                next_cycle = next_cycle.min(earliest[i]);
            }
        }

        for &m in &mul_opts {
            for &a in &add_opts {
                if m.is_none() && a.is_none() {
                    // idle step: only meaningful if something becomes
                    // ready later (otherwise this branch deadlocks)
                    if next_cycle != u64::MAX {
                        self.dfs(start, earliest, preds_left, next_cycle, done, cur_makespan);
                    }
                    continue;
                }
                // port feasibility (mirrors the list scheduler)
                let mut reads = 0u32;
                let mut feasible = true;
                for &op in [m, a].iter().flatten() {
                    let job = &self.problem.jobs[op];
                    let mut rf = job.input_operands as u32;
                    for &d in &job.deps {
                        let dep_fin = start[d] + self.latency(d);
                        if !(self.machine.forwarding && dep_fin == cycle) {
                            rf += 1;
                        }
                    }
                    reads += rf;
                }
                if reads > self.machine.read_ports {
                    feasible = false;
                }
                // write ports: this cycle's results compete at their
                // retire cycle with writes already booked by earlier
                // issues (and with each other when the latencies match).
                for &op in [m, a].iter().flatten() {
                    let fin = cycle + self.latency(op);
                    let issuing_here = [m, a]
                        .iter()
                        .flatten()
                        .filter(|&&o| cycle + self.latency(o) == fin)
                        .count() as u32;
                    if self.writes_used.get(&fin).copied().unwrap_or(0) + issuing_here
                        > self.machine.write_ports
                    {
                        feasible = false;
                    }
                }
                if !feasible {
                    continue;
                }

                // commit
                let mut touched: Vec<usize> = Vec::new();
                let mut new_makespan = cur_makespan;
                for &op in [m, a].iter().flatten() {
                    start[op] = cycle;
                    let fin = cycle + self.latency(op);
                    new_makespan = new_makespan.max(fin);
                    *self.writes_used.entry(fin).or_default() += 1;
                    for &s in &self.succs[op] {
                        preds_left[s] -= 1;
                        if earliest[s] < fin {
                            touched.push(s);
                        }
                    }
                }
                // recompute earliest for successors (store-restore)
                let saved: Vec<(usize, u64)> = touched.iter().map(|&s| (s, earliest[s])).collect();
                for &op in [m, a].iter().flatten() {
                    let fin = cycle + self.latency(op);
                    for &s in &self.succs[op] {
                        earliest[s] = earliest[s].max(fin);
                    }
                }
                let issued = m.is_some() as usize + a.is_some() as usize;
                self.dfs(
                    start,
                    earliest,
                    preds_left,
                    cycle + 1,
                    done + issued,
                    new_makespan,
                );
                // rollback
                for (s, e) in saved {
                    earliest[s] = e;
                }
                for &op in [m, a].iter().flatten() {
                    start[op] = u64::MAX;
                    *self
                        .writes_used
                        .get_mut(&(cycle + self.latency(op)))
                        .expect("write booked on commit") -= 1;
                    for &s in &self.succs[op] {
                        preds_left[s] += 1;
                    }
                }
            }
        }
    }
}

/// Exact scheduling by branch-and-bound for machines with one multiplier
/// and one adder/subtractor (the paper's configuration).
///
/// Seeds the incumbent with the heuristic schedule, then searches active
/// schedules chronologically. Stops after `node_limit` nodes; the result
/// then carries `proved_optimal = false` and the best schedule found.
///
/// # Panics
///
/// Panics if the machine has more than one instance of either unit (use
/// the heuristics for wider configurations).
pub fn exact_schedule(problem: &Problem, machine: &MachineConfig, node_limit: u64) -> ExactResult {
    assert!(
        machine.mul_units == 1 && machine.addsub_units == 1,
        "exact search supports the single-multiplier configuration"
    );
    let n = problem.len();
    let seed = schedule(problem, machine, 32);
    if n == 0 {
        return ExactResult {
            schedule: seed,
            proved_optimal: true,
            nodes: 0,
        };
    }
    let lb = lower_bound(problem, machine);
    if seed.makespan == lb {
        return ExactResult {
            schedule: seed,
            proved_optimal: true,
            nodes: 0,
        };
    }
    let mut succs: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (i, j) in problem.jobs.iter().enumerate() {
        for d in j.all_deps() {
            succs[d].push(i);
        }
    }
    let cp_down = critical_path_priorities(problem, machine);
    let mut searcher = Searcher {
        problem,
        machine,
        succs,
        cp_down,
        best: seed.start.clone(),
        best_makespan: seed.makespan,
        writes_used: HashMap::new(),
        nodes: 0,
        node_limit,
        exhausted: true,
    };
    let mut start = vec![u64::MAX; n];
    let mut earliest = vec![0u64; n];
    let mut preds_left: Vec<usize> = problem
        .jobs
        .iter()
        .map(|j| j.deps.len() + j.order_deps.len())
        .collect();
    searcher.dfs(&mut start, &mut earliest, &mut preds_left, 0, 0, 0);

    let schedule = Schedule {
        start: searcher.best.clone(),
        makespan: searcher.best_makespan,
    };
    debug_assert!(schedule.validate(problem, machine).is_ok());
    ExactResult {
        schedule,
        proved_optimal: searcher.exhausted,
        nodes: searcher.nodes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Job;

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
    fn exact_matches_heuristic_on_chain() {
        let p = Problem::new(vec![mul(vec![], 2), add(vec![0], 0), mul(vec![1], 1)]);
        let m = MachineConfig::paper();
        let r = exact_schedule(&p, &m, 100_000);
        assert!(r.proved_optimal);
        assert_eq!(r.schedule.makespan, 5);
        r.schedule.validate(&p, &m).unwrap();
    }

    #[test]
    fn exact_never_worse_than_heuristic() {
        // layered random-ish DAG
        let mut jobs = Vec::new();
        for i in 0..14usize {
            let deps = if i < 2 { vec![] } else { vec![i - 2] };
            let inputs = if deps.is_empty() { 2 } else { 1 };
            jobs.push(if i % 3 == 0 {
                add(deps, inputs)
            } else {
                mul(deps, inputs)
            });
        }
        let p = Problem::new(jobs);
        let m = MachineConfig::paper();
        let heuristic = schedule(&p, &m, 16);
        let r = exact_schedule(&p, &m, 2_000_000);
        r.schedule.validate(&p, &m).unwrap();
        assert!(r.schedule.makespan <= heuristic.makespan);
        assert!(r.schedule.makespan >= lower_bound(&p, &m));
    }

    #[test]
    fn node_limit_degrades_gracefully() {
        let jobs: Vec<Job> = (0..20)
            .map(|i| {
                if i < 2 {
                    mul(vec![], 2)
                } else {
                    mul(vec![i - 2, i - 1], 0)
                }
            })
            .collect();
        let p = Problem::new(jobs);
        let m = MachineConfig::paper();
        let r = exact_schedule(&p, &m, 10);
        // still a valid schedule even with a tiny budget
        r.schedule.validate(&p, &m).unwrap();
    }

    #[test]
    fn node_limit_exhaustion_reports_not_proved() {
        // Regression: an exhausted node budget must surface as
        // `proved_optimal = false` while still returning a schedule no
        // worse than the heuristic incumbent. Read-port pressure keeps
        // the seed above the lower bound so the search actually runs
        // (a seed at the bound short-circuits with `proved_optimal =
        // true` and zero nodes).
        let mut jobs = Vec::new();
        for _ in 0..12 {
            jobs.push(mul(vec![], 2));
            jobs.push(add(vec![], 2));
        }
        let p = Problem::new(jobs);
        let mut m = MachineConfig::paper();
        m.read_ports = 3; // mul (2 reads) and add (2 reads) cannot co-issue
        let seed = schedule(&p, &m, 32);
        assert!(
            seed.makespan > lower_bound(&p, &m),
            "test premise: the heuristic must leave a gap to search"
        );
        let r = exact_schedule(&p, &m, 5);
        assert!(
            !r.proved_optimal,
            "budget exhaustion must not claim optimality"
        );
        assert_eq!(r.nodes, 5, "search stops exactly at the node budget");
        r.schedule.validate(&p, &m).unwrap();
        assert!(
            r.schedule.makespan <= seed.makespan,
            "the incumbent seed is never lost"
        );
    }

    #[test]
    fn write_ports_bind_across_issue_cycles() {
        // A mul issued at c and an add issued at c+1 retire together at
        // c+2, so one write port must stagger them — pressure the old
        // search never modeled (it punted on write ports entirely).
        let mut jobs = Vec::new();
        for _ in 0..4 {
            jobs.push(mul(vec![], 1));
            jobs.push(add(vec![], 1));
        }
        let p = Problem::new(jobs);
        let mut m = MachineConfig::paper();
        m.write_ports = 1;
        let r = exact_schedule(&p, &m, 200_000);
        r.schedule.validate(&p, &m).unwrap();
        assert!(r.schedule.makespan >= lower_bound(&p, &m));
    }

    #[test]
    #[should_panic(expected = "single-multiplier")]
    fn wide_machines_rejected() {
        let p = Problem::new(vec![mul(vec![], 2)]);
        let mut m = MachineConfig::paper();
        m.mul_units = 2;
        let _ = exact_schedule(&p, &m, 10);
    }
}
