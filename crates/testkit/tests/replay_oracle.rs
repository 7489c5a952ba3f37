//! Differential suite for the compiled-kernel executors: the lowered
//! program behind `CompiledKernel::replay` / `execute*` against the
//! trace-walking `fourq_cpu::check::reference_replay`, on all three
//! curves, with replayable `FOURQ_PROP_SEED` recipes.
//!
//! Two properties per curve:
//!
//! * on random (base, scalar) pairs the two executors give bit-identical
//!   words, and the typed `execute*` result is what those words decode to;
//! * on kernels rebuilt with one value moved to another register (a
//!   corrupted allocation the static verifier would refuse), the two
//!   still agree word for word, so both give the same wrong result or
//!   both report `Diverged`.
//!
//! The suite lives here rather than in `fourq-cpu` because `fourq-testkit`
//! already depends on `fourq-cpu`.

use fourq_baselines::p256::{Affine, P256};
use fourq_cpu::{check::reference_replay, Allocation, CompiledKernel, PipelineError};
use fourq_curve::{AffinePoint, CurveId};
use fourq_fp::{Scalar, U256};
use fourq_sched::MachineConfig;
use fourq_testkit::{prop_check, Arbitrary, TestRng};
use fourq_trace::{mont_field, DigitStream, Word};

fn kernel(curve: CurveId) -> &'static CompiledKernel {
    fourq_cpu::shared_kernel_for(curve, &MachineConfig::paper(), 0).expect("compiles")
}

/// One execution input, in the encoding its `execute*` entry point takes.
enum Input {
    FourQ(AffinePoint, Scalar),
    X25519([u8; 32], [u8; 32]),
    P256([u8; 32], [u8; 64]),
}

fn p256_bytes(pt: &Affine) -> [u8; 64] {
    let mut out = [0u8; 64];
    if let Affine::Point { x, y } = pt {
        out[..32].copy_from_slice(&x.to_le_bytes());
        out[32..].copy_from_slice(&y.to_le_bytes());
    }
    out
}

impl Input {
    fn draw(curve: CurveId, rng: &mut TestRng) -> Input {
        match curve {
            CurveId::FourQ => Input::FourQ(AffinePoint::arbitrary(rng), Scalar::arbitrary(rng)),
            CurveId::X25519 => {
                Input::X25519(<[u8; 32]>::arbitrary(rng), <[u8; 32]>::arbitrary(rng))
            }
            CurveId::P256 => {
                let ctx = P256::new();
                // One case in eight starts from the point at infinity.
                let base = if rng.below(8) == 0 {
                    Affine::Infinity
                } else {
                    let k = U256::from_u64(rng.range_u64(1, 1 << 20));
                    ctx.scalar_mul_complete(&k, &ctx.generator_affine())
                };
                Input::P256(<[u8; 32]>::arbitrary(rng), p256_bytes(&base))
            }
        }
    }

    /// The runtime words and digit stream the kernel replays this input
    /// under (the same encoding `execute*` builds).
    fn words(&self) -> (Vec<Word>, DigitStream) {
        match self {
            Input::FourQ(base, k) => (
                vec![Word::Fp2(base.x), Word::Fp2(base.y)],
                fourq_trace::digit_stream(k),
            ),
            Input::X25519(s, u) => {
                let mut ub = *u;
                ub[31] &= 0x7f;
                let f = mont_field(CurveId::X25519);
                (
                    vec![Word::Fe(CurveId::X25519, f.enter(U256::from_le_bytes(&ub)))],
                    fourq_trace::x25519_digit_stream(s),
                )
            }
            Input::P256(s, point) => {
                let f = mont_field(CurveId::P256);
                let coords = if point.iter().all(|&b| b == 0) {
                    [U256::ZERO, f.enter(U256::ONE), U256::ZERO]
                } else {
                    let x = U256::from_le_bytes(point[..32].try_into().unwrap());
                    let y = U256::from_le_bytes(point[32..].try_into().unwrap());
                    [f.enter(x), f.enter(y), f.enter(U256::ONE)]
                };
                (
                    coords.iter().map(|&v| Word::Fe(CurveId::P256, v)).collect(),
                    fourq_trace::p256_digit_stream(&U256::from_le_bytes(s)),
                )
            }
        }
    }

    /// The typed execute path, as output bytes.
    fn execute(&self, kernel: &CompiledKernel) -> Result<Vec<u8>, PipelineError> {
        match self {
            Input::FourQ(base, k) => kernel.execute(base, k).map(|p| p.encode().to_vec()),
            Input::X25519(s, u) => kernel.execute_x25519(s, u).map(|o| o.to_vec()),
            Input::P256(s, point) => kernel.execute_p256(s, point).map(|o| o.to_vec()),
        }
    }

    /// What `execute*` must return for replayed output words, on-curve
    /// guards included.
    fn decode(&self, out: &[Word]) -> Result<Vec<u8>, PipelineError> {
        match self {
            Input::FourQ(..) => AffinePoint::new(out[0].as_fp2(), out[1].as_fp2())
                .map(|p| p.encode().to_vec())
                .map_err(|_| PipelineError::Diverged),
            Input::X25519(..) => Ok(out[0].as_fe().to_le_bytes().to_vec()),
            Input::P256(..) => {
                let (x, y) = (out[0].as_fe(), out[1].as_fe());
                let pt = if x == U256::ZERO && y == U256::ZERO {
                    Affine::Infinity
                } else {
                    Affine::Point { x, y }
                };
                if P256::new().is_on_curve(&pt) {
                    Ok(p256_bytes(&pt).to_vec())
                } else {
                    Err(PipelineError::Diverged)
                }
            }
        }
    }
}

/// Both executors on one input: identical words, and `execute*` agrees
/// with what the reference words decode to.
fn assert_executors_agree(kernel: &CompiledKernel, input: &Input) {
    let (runtime, digits) = input.words();
    let flat = kernel.replay(&runtime, &digits);
    let reference = reference_replay(kernel, &runtime, &digits);
    assert_eq!(
        flat, reference,
        "{} lowered program left the reference",
        kernel.curve
    );
    assert_eq!(
        input.execute(kernel),
        input.decode(&reference),
        "{} execute disagrees with the reference words",
        kernel.curve
    );
}

fn random_inputs(curve: CurveId, rng: &mut TestRng) {
    let k = kernel(curve);
    let input = Input::draw(curve, rng);
    assert_executors_agree(k, &input);
}

/// Moves one value (input or operation result) to a different register
/// in range, then rebuilds the kernel around that allocation.
fn moved_register(kernel: &CompiledKernel, rng: &mut TestRng) -> CompiledKernel {
    let mut alloc: Allocation = kernel.allocation.clone();
    let regs = alloc.num_registers as u64;
    let v = rng.below(alloc.assignment.len() as u64) as usize;
    let shift = rng.range_u64(1, regs) as u16;
    alloc.assignment[v] = (alloc.assignment[v] + shift) % regs as u16;
    kernel.with_allocation(alloc).expect("rebuilds")
}

fn moved_register_case(curve: CurveId, rng: &mut TestRng) {
    let bad = moved_register(kernel(curve), rng);
    let input = Input::draw(curve, rng);
    assert_executors_agree(&bad, &input);
}

#[test]
fn fourq_flat_replay_matches_reference() {
    prop_check!(cases = 24, |rng| {
        random_inputs(CurveId::FourQ, rng);
    });
}

#[test]
fn x25519_flat_replay_matches_reference() {
    prop_check!(cases = 16, |rng| {
        random_inputs(CurveId::X25519, rng);
    });
}

#[test]
fn p256_flat_replay_matches_reference() {
    prop_check!(cases = 8, |rng| {
        random_inputs(CurveId::P256, rng);
    });
}

#[test]
fn fourq_moved_register_fails_alike() {
    prop_check!(cases = 24, |rng| {
        moved_register_case(CurveId::FourQ, rng);
    });
}

#[test]
fn x25519_moved_register_fails_alike() {
    prop_check!(cases = 16, |rng| {
        moved_register_case(CurveId::X25519, rng);
    });
}

#[test]
fn p256_moved_register_fails_alike() {
    prop_check!(cases = 8, |rng| {
        moved_register_case(CurveId::P256, rng);
    });
}
