//! Regenerates the paper's Table I: the instruction-scheduling result of
//! the double-and-add loop body (15 `F_p²` multiplications + 13
//! additions/subtractions on one pipelined multiplier and one
//! adder/subtractor).

use fourq_sched::{
    exact_schedule, lower_bound, schedule, serial_schedule, trace_to_problem, MachineConfig, Unit,
};
use fourq_trace::{trace_double_add_iteration, Operand};

fn main() {
    println!("== Table I: scheduled double-and-add loop (Q <- [2]Q; Q <- Q + s*T[v]) ==\n");
    // FOURQ_BENCH_FAST shrinks the ILS/exact-search budgets for CI smoke
    // runs; the schedule itself is already optimal at the small budget,
    // only the optimality proof gets weaker.
    let fast = std::env::var("FOURQ_BENCH_FAST").is_ok();
    let ils_iterations = if fast { 32 } else { 512 };
    let exact_nodes = if fast { 100_000 } else { 50_000_000 };
    let trace = trace_double_add_iteration();
    let problem = trace_to_problem(&trace);
    let machine = MachineConfig::paper();
    let sched = schedule(&problem, &machine, ils_iterations);
    sched.validate(&problem, &machine).expect("valid schedule");

    let base = trace.first_op_id();
    let name = |op: Operand| -> String {
        match op {
            Operand::Val(id) if id < base => trace.inputs[id].0.clone(),
            Operand::Val(id) => format!("t{}", id - base),
            Operand::Mux(m) => format!("mux{m}"),
        }
    };

    println!("cycle | multiplier issue        | add/sub issue           | write-back");
    println!("------+-------------------------+-------------------------+------------------");
    for cycle in 0..sched.makespan {
        let mut mul_col = String::new();
        let mut add_col = String::new();
        let mut wb_col = String::new();
        for (i, node) in trace.nodes.iter().enumerate() {
            let lat = machine.latency(node.kind.unit());
            if sched.start[i] == cycle {
                let operands = match node.b {
                    Some(b) => format!("{}, {}", name(node.a), name(b)),
                    None => name(node.a),
                };
                let s = format!("t{i} = {} {}", node.kind.mnemonic(), operands);
                match node.kind.unit() {
                    Unit::Multiplier => mul_col = s,
                    Unit::AddSub => add_col = s,
                }
            }
            if sched.start[i] + lat == cycle + 1 {
                if !wb_col.is_empty() {
                    wb_col.push_str(", ");
                }
                wb_col.push_str(&format!("t{i}"));
            }
        }
        println!("{cycle:>5} | {mul_col:<23} | {add_col:<23} | {wb_col}");
    }

    let muls = problem
        .jobs
        .iter()
        .filter(|j| j.unit == Unit::Multiplier)
        .count();
    let adds = problem.len() - muls;
    let lb = lower_bound(&problem, &machine);
    let serial = serial_schedule(&problem, &machine).makespan;
    // The block is small enough for an exact search — the open-source
    // counterpart of the paper's CP Optimizer run.
    let exact = exact_schedule(&problem, &machine, exact_nodes);
    println!("\noperations       : {muls} multiplier + {adds} add/sub (paper: 15 + 13)");
    println!("makespan         : {} cycles", sched.makespan);
    println!(
        "exact optimum    : {} cycles ({}, {} search nodes)",
        exact.schedule.makespan,
        if exact.proved_optimal {
            "proved by branch-and-bound"
        } else {
            "node budget exhausted"
        },
        exact.nodes
    );
    println!("lower bound      : {lb} cycles (issue bandwidth; unattainable here)");
    println!("serial execution : {serial} cycles");
    println!("paper's Table I  : 25 cycles for the same loop body");
    println!(
        "speedup vs serial: {:.2}x",
        serial as f64 / sched.makespan as f64
    );
}
