//! Dudect-style timing smoke tests for the constant-time hot path.
//!
//! `#[ignore]`-gated: wall-clock statistics are too noisy for shared CI
//! runners to gate a merge on, and the tests take seconds on purpose
//! (large sample counts). Run them explicitly on quiet hardware:
//!
//! ```text
//! cargo test --release -p fourq-testkit --test timing_smoke -- --ignored
//! ```
//!
//! The threshold is deliberately loose (|t| < 25 instead of dudect's 4.5)
//! — the goal is to catch gross leaks (a secret-indexed table walk or an
//! early exit costs far more than 25 sigma at these sample counts), not
//! to certify microarchitectural silence.

use fourq_curve::{AffinePoint, CurveId, MultiCurveEngine};
use fourq_fp::{Fp, Scalar, U256};
use fourq_testkit::timing::compare;
use fourq_testkit::{Arbitrary, TestRng};
use std::cell::{Cell, RefCell};

const T_THRESHOLD: f64 = 25.0;

#[test]
#[ignore = "statistical timing test; run on quiet hardware with --ignored"]
fn fp_inv_timing_is_input_independent() {
    let rng = RefCell::new(TestRng::from_seed(0xC0FF_EE00));
    let fixed = Fp::from_u128(0x1234_5678_9abc_def0_1111_2222_3333_4444);
    let acc = Cell::new(Fp::ONE);
    let report = compare(
        || acc.set(acc.get() + fixed.inv()),
        || {
            let x = Fp::arbitrary(&mut rng.borrow_mut());
            let x = if x.is_zero() { Fp::ONE } else { x };
            acc.set(acc.get() + x.inv());
        },
        2000,
        8,
    );
    // keep `acc` observable so the inversions cannot be optimised out
    assert!(acc.get() != Fp::from_u128(0) || acc.get() == Fp::from_u128(0));
    assert!(
        report.t.abs() < T_THRESHOLD,
        "Fp::inv timing leak suspected: {report:?}"
    );
}

#[test]
#[ignore = "statistical timing test; run on quiet hardware with --ignored"]
fn scalar_mul_timing_is_scalar_independent() {
    let rng = RefCell::new(TestRng::from_seed(0xDEAD_BEEF));
    let g = AffinePoint::generator();
    let fixed_k = Scalar::from_u256(
        U256::from_hex("123456789ABCDEF00FEDCBA9876543211111111122222222").unwrap(),
    );
    let sink = Cell::new(0u8);
    let report = compare(
        || sink.set(sink.get() ^ g.mul(&fixed_k).encode()[0]),
        || {
            let k = Scalar::arbitrary(&mut rng.borrow_mut());
            sink.set(sink.get() ^ g.mul(&k).encode()[0]);
        },
        400,
        1,
    );
    assert!(sink.get() != 0 || sink.get() == 0); // keep the sink live
    assert!(
        report.t.abs() < T_THRESHOLD,
        "scalar-mul timing leak suspected: {report:?}"
    );
}

#[test]
#[ignore = "statistical timing test; run on quiet hardware with --ignored"]
fn p256_curve_mul_timing_is_scalar_independent() {
    let rng = RefCell::new(TestRng::from_seed(0x9256_CAFE));
    let eng = MultiCurveEngine::shared();
    let g = eng.generator_encoded(CurveId::P256);
    let fixed_k = [0x11u8; 32];
    let sink = Cell::new(0u8);
    let mul = |k: &[u8; 32]| {
        let out = eng.curve_mul(CurveId::P256, k, &g).expect("valid point");
        sink.set(sink.get() ^ out[0]);
    };
    let report = compare(
        || mul(&fixed_k),
        || mul(&<[u8; 32]>::arbitrary(&mut rng.borrow_mut())),
        400,
        1,
    );
    assert!(sink.get() != 0 || sink.get() == 0); // keep the sink live
    assert!(
        report.t.abs() < T_THRESHOLD,
        "P-256 curve_mul timing leak suspected: {report:?}"
    );
}
