//! Property-based tests: on random DAGs and random machine shapes, every
//! produced schedule must pass the independent validator, respect the
//! lower bound, and never exceed the serial schedule.
//!
//! Runs on the hermetic `fourq-testkit` property runner; every failure
//! prints a `FOURQ_PROP_SEED` recipe that replays the exact case.

use fourq_sched::{
    critical_path_priorities, list_schedule, lower_bound, schedule, serial_schedule, Job,
    MachineConfig, Problem, Unit,
};
use fourq_testkit::{prop_check, TestRng};

/// Random DAG: each job depends on up to 2 earlier jobs (datapath
/// operations are at most binary — more operands than read ports would
/// make the machine unable to execute the program at all).
fn arb_problem(rng: &mut TestRng) -> Problem {
    let n = rng.range_usize(1, 120);
    let seed = rng.next_u64();
    let mut s = seed | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let jobs = (0..n)
        .map(|i| {
            let unit = if next() % 5 < 3 {
                Unit::Multiplier
            } else {
                Unit::AddSub
            };
            let mut deps = Vec::new();
            if i > 0 {
                for _ in 0..(next() % 3) {
                    deps.push((next() % i as u64) as usize);
                }
                deps.sort_unstable();
                deps.dedup();
                deps.truncate(2); // ops are at most binary
            }
            // Occasionally one operand slot reads through a mux: ordering
            // edges to up to 3 earlier jobs, still one register read (the
            // read is counted in input_operands like a program input).
            let mut order_deps = Vec::new();
            if i > 0 && deps.len() < 2 && next() % 4 == 0 {
                for _ in 0..(1 + next() % 3) {
                    order_deps.push((next() % i as u64) as usize);
                }
                order_deps.sort_unstable();
                order_deps.dedup();
                order_deps.retain(|d| !deps.contains(d));
            }
            let input_operands = 2usize.saturating_sub(deps.len());
            Job {
                unit,
                deps,
                order_deps,
                input_operands,
            }
        })
        .collect();
    Problem::new(jobs)
}

fn arb_machine(rng: &mut TestRng) -> MachineConfig {
    MachineConfig {
        mul_latency: rng.range_u64(1, 5) as u32,
        addsub_latency: rng.range_u64(1, 3) as u32,
        mul_units: rng.range_usize(1, 3),
        addsub_units: rng.range_usize(1, 3),
        read_ports: 4,
        write_ports: 2,
        forwarding: rng.next_bool(),
    }
}

#[test]
fn schedules_always_validate() {
    prop_check!(cases = 128, |rng| {
        let p = arb_problem(rng);
        let m = arb_machine(rng);
        let s = schedule(&p, &m, 4);
        assert!(s.validate(&p, &m).is_ok(), "{:?}", s.validate(&p, &m));
        assert!(s.makespan >= lower_bound(&p, &m));
    });
}

#[test]
fn serial_validates_and_bounds() {
    prop_check!(cases = 128, |rng| {
        let p = arb_problem(rng);
        let m = arb_machine(rng);
        let serial = serial_schedule(&p, &m);
        assert!(serial.validate(&p, &m).is_ok());
        let smart = schedule(&p, &m, 2);
        assert!(smart.makespan <= serial.makespan);
    });
}

#[test]
fn ils_never_worse_than_critical_path() {
    prop_check!(cases = 128, |rng| {
        let p = arb_problem(rng);
        let m = arb_machine(rng);
        let cp = list_schedule(&p, &m, &critical_path_priorities(&p, &m));
        let ils = schedule(&p, &m, 12);
        assert!(ils.makespan <= cp.makespan);
    });
}

#[test]
fn priorities_any_permutation_is_feasible() {
    prop_check!(cases = 128, |rng; seed: u64| {
        let p = arb_problem(rng);
        let m = arb_machine(rng);
        // arbitrary (even adversarial) priorities still yield valid schedules
        let n = p.len();
        let prio: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(seed | 1)).collect();
        let s = list_schedule(&p, &m, &prio);
        assert!(s.validate(&p, &m).is_ok());
    });
}

#[test]
fn tight_ports_still_schedule() {
    prop_check!(cases = 128, |rng| {
        let p = arb_problem(rng);
        // the minimum-resource machine must still produce valid schedules
        let m = MachineConfig {
            mul_latency: 2,
            addsub_latency: 1,
            mul_units: 1,
            addsub_units: 1,
            read_ports: 2,
            write_ports: 1,
            forwarding: false,
        };
        let s = schedule(&p, &m, 2);
        assert!(s.validate(&p, &m).is_ok());
    });
}
