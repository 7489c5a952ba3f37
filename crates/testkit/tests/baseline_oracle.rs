//! Oracle suite for the comparison curves' served arithmetic.
//!
//! * The branch-free [`MontField`] against the division-based
//!   `U256::rem_wide` reference, on P-256's prime (the constant-modulus
//!   multiplier), on `2^255 − 19` and on a small prime (the runtime-modulus
//!   multiplier), with the edge operands 0, 1 and `p − 1` and full-range
//!   `enter` inputs.
//! * `P256::scalar_mul_window`, the served P-256 path, against
//!   `P256::scalar_mul_complete`, the ladder the compiled kernel mirrors,
//!   on random scalars and on the edge scalars 0, 1, `n − 1`, `n`, `n + 1`
//!   and `2^256 − 1`, from the generator and from infinity.

use fourq_baselines::mont::MontField;
use fourq_baselines::p256::{Affine, P256};
use fourq_fp::U256;
use fourq_testkit::{prop_check, TestRng};

fn moduli() -> [U256; 3] {
    [
        U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").unwrap(),
        U256::from_hex("7fffffffffffffffffffffffffffffffffffffffffffffffffffffffffffffed").unwrap(),
        U256::from_u64(0xffff_ffff_ffff_ffc5), // the largest 64-bit prime
    ]
}

/// `(a + b) mod p` by long division over a 512-bit value.
fn add_ref(a: U256, b: U256, p: &U256) -> U256 {
    let (s, carry) = a.overflowing_add(&b);
    let mut wide = [0u64; 8];
    wide[..4].copy_from_slice(&s.0);
    wide[4] = u64::from(carry);
    U256::rem_wide(&wide, p)
}

/// `a · 2^256 mod p`: the Montgomery form of any `a < 2^256`.
fn enter_ref(a: U256, p: &U256) -> U256 {
    let mut wide = [0u64; 8];
    wide[4..].copy_from_slice(&a.0);
    U256::rem_wide(&wide, p)
}

/// A canonical element: one of 0, 1, `p − 1`, or uniform below `p`.
fn element(rng: &mut TestRng, p: &U256) -> U256 {
    let pm1 = p.overflowing_sub(&U256::ONE).0;
    match rng.below(6) {
        0 => U256::ZERO,
        1 => U256::ONE,
        2 => pm1,
        _ => {
            let mut limbs = [0u64; 4];
            rng.fill_u64(&mut limbs);
            U256(limbs).rem(p)
        }
    }
}

fn check_field(f: &MontField, a: U256, b: U256) {
    let p = &f.p;
    let (am, bm) = (f.enter(a), f.enter(b));
    assert_eq!(am, enter_ref(a, p), "enter({a:?}) mod {p:?}");
    assert_eq!(f.leave(am), a, "leave(enter({a:?})) mod {p:?}");
    let prod = U256::rem_wide(&a.widening_mul(&b), p);
    assert_eq!(f.leave(f.mul(am, bm)), prod, "{a:?} * {b:?} mod {p:?}");
    let sq = U256::rem_wide(&a.widening_mul(&a), p);
    assert_eq!(f.leave(f.sqr(am)), sq, "{a:?}^2 mod {p:?}");
    // add/sub/neg are linear, so they act on plain residues directly.
    let neg_b = if b.is_zero() {
        U256::ZERO
    } else {
        p.overflowing_sub(&b).0
    };
    assert_eq!(f.add(a, b), add_ref(a, b, p), "{a:?} + {b:?} mod {p:?}");
    assert_eq!(f.neg(b), neg_b, "-{b:?} mod {p:?}");
    assert_eq!(f.sub(a, b), add_ref(a, neg_b, p), "{a:?} - {b:?} mod {p:?}");
    assert_eq!(f.dbl(a), add_ref(a, a, p), "2 * {a:?} mod {p:?}");
}

#[test]
fn mont_field_edge_operands_match_division_reference() {
    for p in moduli() {
        let f = MontField::new(p);
        let pm1 = p.overflowing_sub(&U256::ONE).0;
        let edges = [U256::ZERO, U256::ONE, U256::from_u64(2), pm1];
        for a in edges {
            for b in edges {
                check_field(&f, a, b);
            }
        }
        // `enter` takes any 256-bit input, reduced or not.
        let max = U256([u64::MAX; 4]);
        for a in [p, p.overflowing_add(&U256::ONE).0, max] {
            assert_eq!(f.enter(a), enter_ref(a, &p), "enter({a:?}) mod {p:?}");
            assert_eq!(f.leave(f.enter(a)), a.rem(&p));
        }
    }
}

#[test]
fn mont_field_matches_division_reference() {
    let fields = moduli().map(MontField::new);
    prop_check!(cases = 128, |rng| {
        for f in &fields {
            let a = element(rng, &f.p);
            let b = element(rng, &f.p);
            check_field(f, a, b);
            let mut limbs = [0u64; 4];
            rng.fill_u64(&mut limbs);
            let wide = U256(limbs);
            assert_eq!(f.enter(wide), enter_ref(wide, &f.p), "enter({wide:?})");
        }
    });
}

fn p256() -> &'static P256 {
    static CTX: std::sync::OnceLock<P256> = std::sync::OnceLock::new();
    CTX.get_or_init(P256::new)
}

#[test]
fn p256_window_matches_complete_ladder() {
    let c = p256();
    let g = c.generator_affine();
    prop_check!(cases = 12, |rng| {
        let mut limbs = [0u64; 4];
        rng.fill_u64(&mut limbs);
        let k = U256(limbs);
        // One case in four multiplies a non-generator base.
        let base = if rng.below(4) == 0 {
            c.scalar_mul_complete(&U256::from_u64(rng.range_u64(2, 1 << 20)), &g)
        } else {
            g
        };
        assert_eq!(
            c.scalar_mul_window(&k, &base),
            c.scalar_mul_complete(&k, &base),
            "k = {k:?}, base = {base:?}"
        );
    });
}

#[test]
fn p256_window_edge_scalars() {
    let c = p256();
    let n = c.order;
    let scalars = [
        U256::ZERO,
        U256::ONE,
        n.overflowing_sub(&U256::ONE).0,
        n,
        n.overflowing_add(&U256::ONE).0,
        U256([u64::MAX; 4]),
    ];
    let g = c.generator_affine();
    for k in scalars {
        for base in [g, Affine::Infinity] {
            assert_eq!(
                c.scalar_mul_window(&k, &base),
                c.scalar_mul_complete(&k, &base),
                "k = {k:?}, base = {base:?}"
            );
        }
    }
    assert_eq!(c.scalar_mul_window(&n, &g), Affine::Infinity);
    assert_eq!(c.scalar_mul_window(&U256::ONE, &g), g);
}
