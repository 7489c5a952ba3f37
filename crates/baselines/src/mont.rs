//! Generic 256-bit Montgomery-representation prime field.
//!
//! The CIOS (coarsely integrated operand scanning) Montgomery multiplier —
//! the same algorithm the Montgomery-multiplier ECDSA processors of the
//! paper's Table II rows \[17\]/\[18\] implement in hardware.
//!
//! Every operation is branch-free in its operands: the final conditional
//! subtractions of `add`, `sub`, `neg` and the CIOS product are mask
//! selections, so the field is safe under secret data. One CIOS body
//! serves every modulus; for NIST P-256's prime it is instantiated with
//! the modulus and `n0 = 1` as compile-time constants, the software
//! analogue of a multiplier hard-wired to one prime.
#![allow(clippy::needless_range_loop)] // limb loops are clearer indexed

use fourq_fp::{Choice, CtEq, CtSelect, U256};

/// NIST P-256's prime `2^256 − 2^224 + 2^192 + 2^96 − 1`, little-endian
/// limbs.
const P256_P: [u64; 4] = [
    0xffff_ffff_ffff_ffff,
    0x0000_0000_ffff_ffff,
    0,
    0xffff_ffff_0000_0001,
];

/// `−p⁻¹ mod 2^64` for [`P256_P`]: its low limb is `2^64 − 1`, so `p ≡ −1`
/// and the Montgomery quotient digit is the running low word itself.
const P256_N0: u64 = 1;

/// A prime-field context with modulus `p < 2^256`, `p` odd.
///
/// Elements are kept in Montgomery form (`aR mod p`, `R = 2^256`).
///
/// ```
/// use fourq_baselines::mont::MontField;
/// use fourq_fp::U256;
/// let f = MontField::new(U256::from_u64(101));
/// let a = f.enter(U256::from_u64(57));
/// let inv = f.inv(a);
/// assert_eq!(f.leave(f.mul(a, inv)), U256::from_u64(1));
/// ```
#[derive(Clone, Copy, Debug)]
pub struct MontField {
    /// The modulus.
    pub p: U256,
    /// `-p^{-1} mod 2^64`.
    n0: u64,
    /// `R² mod p` for conversions into Montgomery form.
    r2: U256,
    /// Whether `p` is P-256's prime, whose products take the
    /// constant-modulus CIOS instance.
    p256: bool,
}

impl MontField {
    /// Creates a field context.
    ///
    /// # Panics
    ///
    /// Panics if `p` is even or zero.
    pub fn new(p: U256) -> MontField {
        assert!(p.is_odd(), "Montgomery arithmetic requires an odd modulus");
        // n0 = -p^{-1} mod 2^64 via Newton iteration.
        let p0 = p.0[0];
        let mut inv = 1u64;
        for _ in 0..6 {
            inv = inv.wrapping_mul(2u64.wrapping_sub(p0.wrapping_mul(inv)));
        }
        let n0 = inv.wrapping_neg();
        // r2 = 2^512 mod p via the division-based reference (done once):
        // rem_wide takes at most 2^512 − 1, so reduce that and add one.
        let r2m1 = U256::rem_wide(&[u64::MAX; 8], &p);
        let mut f = MontField {
            p,
            n0,
            r2: U256::ZERO,
            p256: p.0 == P256_P,
        };
        f.r2 = f.add(r2m1, U256::ONE);
        f
    }

    /// Converts into Montgomery form. Exact for every `a < 2^256`: one
    /// product with `R² mod p < p` keeps the CIOS result below `2p`.
    #[inline]
    pub fn enter(&self, a: U256) -> U256 {
        self.mul(a, self.r2)
    }

    /// Converts out of Montgomery form.
    #[inline]
    pub fn leave(&self, a: U256) -> U256 {
        self.mul(a, U256::ONE)
    }

    /// Field multiplication (both operands in Montgomery form): the
    /// Montgomery product `a·b·R⁻¹ mod p`.
    #[inline]
    pub fn mul(&self, a: U256, b: U256) -> U256 {
        if self.p256 {
            mul_p256(&a, &b)
        } else {
            mul_runtime(&a, &b, &self.p.0, self.n0)
        }
    }

    /// Field squaring.
    #[inline]
    pub fn sqr(&self, a: U256) -> U256 {
        self.mul(a, a)
    }

    /// Field addition.
    #[inline]
    pub fn add(&self, a: U256, b: U256) -> U256 {
        let (s, carry) = add4(&a.0, &b.0);
        let (d, borrow) = sub4(&s, &self.p.0);
        // Keep s − p when the sum carried out of 256 bits or is ≥ p.
        U256::ct_select(&U256(s), &U256(d), Choice::from_bit(carry | (borrow ^ 1)))
    }

    /// Field subtraction.
    #[inline]
    pub fn sub(&self, a: U256, b: U256) -> U256 {
        let (d, borrow) = sub4(&a.0, &b.0);
        // Add p back exactly when the subtraction borrowed.
        let m = borrow.wrapping_neg();
        let p = &self.p.0;
        U256(add4(&d, &[p[0] & m, p[1] & m, p[2] & m, p[3] & m]).0)
    }

    /// Field negation.
    #[inline]
    pub fn neg(&self, a: U256) -> U256 {
        let (d, _) = sub4(&self.p.0, &a.0);
        U256::ct_select(&U256(d), &U256::ZERO, a.ct_eq(&U256::ZERO))
    }

    /// Doubling.
    #[inline]
    pub fn dbl(&self, a: U256) -> U256 {
        self.add(a, a)
    }

    /// Exponentiation by a plain (non-Montgomery) exponent.
    pub fn pow(&self, a: U256, e: &U256) -> U256 {
        let mut acc = self.enter(U256::ONE);
        let bits = e.bits();
        for i in (0..bits as usize).rev() {
            acc = self.sqr(acc);
            if e.bit(i) {
                acc = self.mul(acc, a);
            }
        }
        acc
    }

    /// Inversion via Fermat (`p` must be prime).
    ///
    /// # Panics
    ///
    /// Panics on zero input.
    pub fn inv(&self, a: U256) -> U256 {
        assert!(!a.is_zero(), "inverse of zero");
        let e = self.p.checked_sub(&U256::from_u64(2)).expect("p > 2");
        self.pow(a, &e)
    }
}

/// A field-element *handle*: the minimal operation set the shared curve
/// formulas ([`crate::x25519::ladder_step`], [`crate::p256::add_complete`],
/// [`crate::p256::double_complete`]) need.
///
/// Two implementations exist: [`MontFe`] executes on host integers, and
/// `fourq-trace`'s `TracedFe` records the identical operation stream into a
/// microinstruction trace. Writing the formulas once against this trait is
/// what guarantees the compiled kernels and the baseline references compute
/// the same function — they *are* the same code.
pub trait FeLike: Clone {
    /// Field addition.
    fn add(&self, other: &Self) -> Self;
    /// Field subtraction.
    fn sub(&self, other: &Self) -> Self;
    /// Field multiplication.
    fn mul(&self, other: &Self) -> Self;
    /// Field squaring.
    fn sqr(&self) -> Self;
}

/// Host-side [`FeLike`]: a Montgomery-form element bound to its field.
#[derive(Clone, Copy, Debug)]
pub struct MontFe<'f> {
    /// The field this element lives in.
    pub field: &'f MontField,
    /// The element (Montgomery form).
    pub value: U256,
}

impl<'f> MontFe<'f> {
    /// Wraps a Montgomery-form value.
    pub fn new(field: &'f MontField, value: U256) -> MontFe<'f> {
        MontFe { field, value }
    }
}

impl FeLike for MontFe<'_> {
    fn add(&self, other: &Self) -> Self {
        MontFe::new(self.field, self.field.add(self.value, other.value))
    }
    fn sub(&self, other: &Self) -> Self {
        MontFe::new(self.field, self.field.sub(self.value, other.value))
    }
    fn mul(&self, other: &Self) -> Self {
        MontFe::new(self.field, self.field.mul(self.value, other.value))
    }
    fn sqr(&self) -> Self {
        MontFe::new(self.field, self.field.sqr(self.value))
    }
}

/// The Montgomery product on P-256's prime: the CIOS body with the modulus
/// and `n0` folded in as constants.
///
/// This and [`mul_runtime`] stay out of line, so an inlined
/// [`MontField::mul`] is a dispatch rather than two copies of the body at
/// every call site; inlining both measured slower on the X25519 ladder.
#[inline(never)]
fn mul_p256(a: &U256, b: &U256) -> U256 {
    cios(a, b, &P256_P, P256_N0)
}

/// The Montgomery product on any other modulus, read at run time.
#[inline(never)]
fn mul_runtime(a: &U256, b: &U256, p: &[u64; 4], n0: u64) -> U256 {
    cios(a, b, p, n0)
}

/// Montgomery product `a·b·R⁻¹ mod p` (CIOS) for `a < 2^256`, `b < p`.
///
/// The one multiplier body: [`MontField::mul`] calls it with P-256's
/// constants or with a field's runtime modulus.
#[inline(always)]
fn cios(a: &U256, b: &U256, p: &[u64; 4], n0: u64) -> U256 {
    let b = &b.0;
    // t = t[0..4] + 2^256·t4, kept below 2p between rows.
    let mut t = [0u64; 4];
    let mut t4 = 0u64;
    for &ai in &a.0 {
        // t += ai·b
        let (s0, c) = mac(t[0], ai, b[0], 0);
        let (s1, c) = mac(t[1], ai, b[1], c);
        let (s2, c) = mac(t[2], ai, b[2], c);
        let (s3, c) = mac(t[3], ai, b[3], c);
        let (s4, s5) = adc(t4, c, 0);
        // t = (t + m·p) / 2^64 with m chosen to clear the low word
        let m = s0.wrapping_mul(n0);
        let (_, c) = mac(s0, m, p[0], 0);
        let (u0, c) = mac(s1, m, p[1], c);
        let (u1, c) = mac(s2, m, p[2], c);
        let (u2, c) = mac(s3, m, p[3], c);
        let (u3, c) = adc(s4, c, 0);
        t = [u0, u1, u2, u3];
        t4 = s5 + c;
    }
    debug_assert!(t4 <= 1);
    // t < 2p: subtract p once when t overflowed 256 bits or is ≥ p.
    let (d, borrow) = sub4(&t, p);
    U256::ct_select(&U256(t), &U256(d), Choice::from_bit(t4 | (borrow ^ 1)))
}

/// `a + b·c + carry` as (low word, high word).
#[inline(always)]
fn mac(a: u64, b: u64, c: u64, carry: u64) -> (u64, u64) {
    let r = a as u128 + b as u128 * c as u128 + carry as u128;
    (r as u64, (r >> 64) as u64)
}

/// `a + b + carry` as (sum word, carry word).
#[inline(always)]
fn adc(a: u64, b: u64, carry: u64) -> (u64, u64) {
    let r = a as u128 + b as u128 + carry as u128;
    (r as u64, (r >> 64) as u64)
}

/// `a + b` over four limbs, with the carry out (0 or 1).
#[inline(always)]
fn add4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut carry = 0u64;
    for i in 0..4 {
        (out[i], carry) = adc(a[i], b[i], carry);
    }
    (out, carry)
}

/// `a − b` over four limbs, with the borrow out (0 or 1).
#[inline(always)]
fn sub4(a: &[u64; 4], b: &[u64; 4]) -> ([u64; 4], u64) {
    let mut out = [0u64; 4];
    let mut borrow = 0u64;
    for i in 0..4 {
        let (d1, b1) = a[i].overflowing_sub(b[i]);
        let (d2, b2) = d1.overflowing_sub(borrow);
        out[i] = d2;
        borrow = (b1 | b2) as u64;
    }
    (out, borrow)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p256_modulus() -> U256 {
        U256::from_hex("ffffffff00000001000000000000000000000000ffffffffffffffffffffffff").unwrap()
    }

    #[test]
    fn roundtrip_and_identities() {
        let f = MontField::new(p256_modulus());
        let a = f.enter(U256::from_u64(123456789));
        assert_eq!(f.leave(a), U256::from_u64(123456789));
        let one = f.enter(U256::ONE);
        assert_eq!(f.mul(a, one), a);
    }

    #[test]
    fn matches_division_reference() {
        let p = p256_modulus();
        let f = MontField::new(p);
        let mut x = 0x9e3779b97f4a7c15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        for _ in 0..50 {
            let a = U256([next(), next(), next(), next()]).rem(&p);
            let b = U256([next(), next(), next(), next()]).rem(&p);
            let expect = U256::rem_wide(&a.widening_mul(&b), &p);
            let got = f.leave(f.mul(f.enter(a), f.enter(b)));
            assert_eq!(got, expect);
        }
    }

    #[test]
    fn inversion() {
        let f = MontField::new(p256_modulus());
        let a = f.enter(U256::from_u64(0xdeadbeef));
        let ai = f.inv(a);
        assert_eq!(f.leave(f.mul(a, ai)), U256::ONE);
    }

    #[test]
    fn sub_and_neg() {
        let f = MontField::new(p256_modulus());
        let a = f.enter(U256::from_u64(5));
        let b = f.enter(U256::from_u64(9));
        let d = f.sub(a, b); // -4
        assert_eq!(f.add(d, b), a);
        assert_eq!(f.add(f.neg(a), a), U256::ZERO);
    }

    #[test]
    #[should_panic(expected = "odd modulus")]
    fn even_modulus_rejected() {
        let _ = MontField::new(U256::from_u64(100));
    }
}
