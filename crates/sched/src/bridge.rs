//! Bridge from a recorded `fourq-trace` program to a scheduling
//! [`Problem`].
//!
//! It is a pure trace→scheduling translation with no simulator
//! involvement, so it sits beside the scheduler. Each job keeps the
//! trace's own [`Unit`](crate::Unit).

use crate::{Job, Problem};
use fourq_trace::{Operand, Trace};

/// Converts a trace into a scheduling [`Problem`].
///
/// Edge model:
///
/// * a direct [`Operand::Val`] operand produced by an operation becomes a
///   forwardable data edge (`deps`);
/// * a direct `Val` operand that is a program input counts one
///   always-taken register read (`input_operands`);
/// * a mux-routed operand ([`Operand::Mux`]) becomes *ordering* edges to
///   every operation reachable through the mux's candidate network
///   (`order_deps`) plus one always-taken register read — the schedule
///   is fixed before the digits are known, so it must be valid whichever
///   candidate the select lines pick, and the winner always arrives
///   through the register file (a forwarding path would only exist for
///   one specific digit value).
pub fn trace_to_problem(trace: &Trace) -> Problem {
    let base = trace.first_op_id();
    let reach = trace.mux_reach();
    let jobs = trace
        .nodes
        .iter()
        .map(|n| {
            let mut deps = Vec::with_capacity(2);
            let mut order_deps = Vec::new();
            let mut input_operands = 0usize;
            for op in core::iter::once(n.a).chain(n.b) {
                match op {
                    Operand::Val(id) if id >= base => deps.push(id - base),
                    Operand::Val(_) => input_operands += 1,
                    Operand::Mux(m) => {
                        input_operands += 1;
                        order_deps.extend(
                            reach[m]
                                .iter()
                                .filter(|&&id| id >= base)
                                .map(|&id| id - base),
                        );
                    }
                }
            }
            deps.sort_unstable();
            deps.dedup();
            order_deps.sort_unstable();
            order_deps.dedup();
            order_deps.retain(|d| !deps.contains(d));
            Job {
                unit: n.kind.unit(),
                deps,
                order_deps,
                input_operands,
            }
        })
        .collect();
    Problem::new(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_fp::{Fp2, Fp2Like, Scalar};
    use fourq_trace::{DigitStream, Selector, Tracer};

    #[test]
    fn direct_operands_become_data_edges() {
        let t = Tracer::new();
        let a = t.input("a", Fp2::from(2u64));
        let b = t.input("b", Fp2::from(3u64));
        let c = a.mul(&b); // job 0: two input reads
        let _ = c.add(&a); // job 1: dep on 0 + one input read
        let p = trace_to_problem(&t.finish());
        assert_eq!(p.jobs[0].deps, Vec::<usize>::new());
        assert_eq!(p.jobs[0].input_operands, 2);
        assert_eq!(p.jobs[1].deps, vec![0]);
        assert!(p.jobs[1].order_deps.is_empty());
        assert_eq!(p.jobs[1].input_operands, 1);
    }

    #[test]
    fn mux_operands_become_order_edges() {
        let t = Tracer::with_digits(DigitStream {
            indices: vec![],
            neg: vec![false],
            corrected: false,
        });
        let a = t.input("a", Fp2::from(2u64));
        let x = a.sqr(); // job 0
        let y = a.neg(); // job 1
        let m = t.mux(Selector::SignNeg(0), &[&x, &y]);
        let _ = m.add(&a); // job 2: reads through the mux + input a
        let p = trace_to_problem(&t.finish());
        assert!(p.jobs[2].deps.is_empty());
        assert_eq!(p.jobs[2].order_deps, vec![0, 1]);
        // one mux read + one program-input read
        assert_eq!(p.jobs[2].input_operands, 2);
    }

    #[test]
    fn scalar_mul_problem_is_scalar_invariant() {
        let p1 = trace_to_problem(&fourq_trace::trace_scalar_mul(&Scalar::from_u64(5)).trace);
        let p2 = trace_to_problem(
            &fourq_trace::trace_scalar_mul(&Scalar::from_le_bytes(&[0xd7; 32])).trace,
        );
        assert_eq!(p1.len(), p2.len());
        for (a, b) in p1.jobs.iter().zip(&p2.jobs) {
            assert_eq!(a.unit, b.unit);
            assert_eq!(a.deps, b.deps);
            assert_eq!(a.order_deps, b.order_deps);
            assert_eq!(a.input_operands, b.input_operands);
        }
    }
}
