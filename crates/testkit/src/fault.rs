//! Single-bit fault-injection campaign against compiled kernels.
//!
//! The static verifier (`fourq_cpu::check`) claims every *structural*
//! corruption of a [`CompiledKernel`] — control-ROM words, route-table
//! entries, the register allocation — is caught before execution, and
//! that the remaining *pure-data* faults (register-file constants) are
//! caught at runtime by the on-curve / software-reference checks. This
//! module measures that claim: it flips one bit (or one field) at a
//! time, reruns detection, and reports per-class coverage.
//!
//! Fault classes:
//!
//! * [`FaultClass::RomWord`] — one control-word field in the program ROM
//!   (issue enables, opcodes, destination-register bits, source fields).
//! * [`FaultClass::RouteTable`] — one route-table candidate or arity
//!   (the digit-select network).
//! * [`FaultClass::Allocation`] — one bit of one virtual→physical
//!   register assignment, rebuilt consistently through
//!   [`CompiledKernel::with_allocation`] so runtime execution would
//!   genuinely use the corrupted mapping if the verifier missed it.
//! * [`FaultClass::Constant`] — one bit of a lifted constant in the
//!   register-file image, lowered again through
//!   [`CompiledKernel::with_allocation`] so execution reads the flipped
//!   value. Structurally invisible by design: detection must come from
//!   the runtime audit.

use fourq_baselines::p256::{Affine, P256};
use fourq_baselines::x25519::X25519;
use fourq_cpu::{verify, CheckLevel, CompiledKernel};
use fourq_curve::{AffinePoint, CurveId};
use fourq_fp::{Fp, Fp2, Scalar, U256};
use fourq_trace::{mont_field, Word};

use crate::TestRng;

/// Where a fault was injected.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultClass {
    /// A control-word field in the program ROM.
    RomWord,
    /// A route-table candidate or arity.
    RouteTable,
    /// A register-allocation assignment bit.
    Allocation,
    /// A register-file constant bit (pure-data fault).
    Constant,
}

impl FaultClass {
    /// Short stable tag for reports.
    pub fn tag(self) -> &'static str {
        match self {
            FaultClass::RomWord => "rom_word",
            FaultClass::RouteTable => "route_table",
            FaultClass::Allocation => "allocation",
            FaultClass::Constant => "constant",
        }
    }
}

/// How (or whether) an injected fault was caught.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Detection {
    /// The static verifier rejected the corrupted artifact; carries the
    /// rule code of the first finding.
    Static {
        /// Rule code of the first finding (e.g. `K-FLOW-ROM`).
        rule: &'static str,
    },
    /// Statics passed but runtime execution diverged from the software
    /// reference (or left the curve).
    Runtime,
    /// The fault escaped both nets — a campaign failure.
    Undetected,
}

/// One injected fault and its verdict.
#[derive(Clone, Debug)]
pub struct FaultOutcome {
    /// The fault class.
    pub class: FaultClass,
    /// Human-readable injection site (`word 83 mul_dst bit 4`, …).
    pub site: String,
    /// The verdict.
    pub detection: Detection,
}

/// Aggregated campaign result.
#[derive(Clone, Debug, Default)]
pub struct CampaignReport {
    /// Every injected fault with its verdict, in injection order.
    pub outcomes: Vec<FaultOutcome>,
}

impl CampaignReport {
    /// Faults caught by the static verifier.
    pub fn static_detections(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| matches!(o.detection, Detection::Static { .. }))
            .count()
    }

    /// Faults caught only by the runtime audit.
    pub fn runtime_detections(&self) -> usize {
        self.outcomes
            .iter()
            .filter(|o| o.detection == Detection::Runtime)
            .count()
    }

    /// Faults that escaped (must be zero for the campaign to pass).
    pub fn undetected(&self) -> Vec<&FaultOutcome> {
        self.outcomes
            .iter()
            .filter(|o| o.detection == Detection::Undetected)
            .collect()
    }

    /// Whether every injected fault was detected.
    pub fn all_detected(&self) -> bool {
        self.undetected().is_empty()
    }
}

/// Detection scalars for the runtime net: a handful of fixed values that
/// together exercise all digit positions and table entries many times
/// over, so a surviving data fault has no digit pattern to hide behind.
/// Raw little-endian bytes, interpreted per curve by [`detect`].
fn audit_scalars(rng: &mut TestRng) -> Vec<[u8; 32]> {
    let mut one = [0u8; 32];
    one[0] = 1;
    let mut golden = [0u8; 32];
    golden[..8].copy_from_slice(&0x9e37_79b9_7f4a_7c15u64.to_le_bytes());
    let mut v = vec![one, golden];
    for _ in 0..4 {
        let mut bytes = [0u8; 32];
        rng.fill_bytes(&mut bytes);
        v.push(bytes);
    }
    v
}

/// 64-byte little-endian `x ‖ y` encoding of a P-256 affine point
/// (all-zero = infinity) — the `execute_p256` wire encoding.
fn p256_bytes(pt: &Affine) -> [u8; 64] {
    let mut out = [0u8; 64];
    if let Affine::Point { x, y } = pt {
        out[..32].copy_from_slice(&x.to_le_bytes());
        out[32..].copy_from_slice(&y.to_le_bytes());
    }
    out
}

/// Runs the detection pipeline on a corrupted kernel: full static
/// verification first, then the runtime audit against the curve's
/// software baseline — the kernel's own curve decides which.
fn detect(kernel: &CompiledKernel, scalars: &[[u8; 32]]) -> Detection {
    let report = verify(kernel, CheckLevel::Full);
    if let Some(first) = report.findings.first() {
        return Detection::Static { rule: first.rule() };
    }
    for kb in scalars {
        // ct: allow(R1) reason="audit scalars are fixed public test vectors, not live key material"
        let diverged = match kernel.curve {
            CurveId::FourQ => {
                let g = AffinePoint::generator();
                let k = Scalar::from_le_bytes(kb);
                match kernel.execute(&g, &k) {
                    Err(_) => true,
                    Ok(got) => {
                        let want = g.mul(&k);
                        // ct: allow(R1) reason="correctness audit over public test vectors"
                        // ct: allow(R4) reason="correctness audit over public test vectors"
                        (got.x, got.y) != (want.x, want.y)
                    }
                }
            }
            CurveId::X25519 => {
                let ctx = X25519::new();
                let mut base = [0u8; 32];
                base[0] = 9;
                match kernel.execute_x25519(kb, &base) {
                    Err(_) => true,
                    // ct: allow(R4) reason="correctness audit over public test vectors"
                    Ok(got) => got != ctx.ladder(kb, &base),
                }
            }
            CurveId::P256 => {
                let ctx = P256::new();
                let g = ctx.generator_affine();
                let k = U256::from_le_bytes(kb);
                match kernel.execute_p256(kb, &p256_bytes(&g)) {
                    Err(_) => true,
                    // ct: allow(R4) reason="correctness audit over public test vectors"
                    Ok(got) => got != p256_bytes(&ctx.scalar_mul_complete(&k, &g)),
                }
            }
        };
        if diverged {
            // ct: allow(R6) reason="early exit reports a detected fault, a public outcome"
            return Detection::Runtime;
        }
    }
    Detection::Undetected
}

fn flip_fp2_bit(v: Fp2, bit: u32) -> Fp2 {
    // 254 usable bit positions: the low 127 of each component
    // (P = 2^127 − 1, so bit 127 is never set in a reduced element and
    // flipping it on would alias; stay below it).
    let b = bit % 254;
    let mut out = v;
    if b < 127 {
        out.re = Fp::from_u128(v.re.to_u128() ^ (1u128 << b));
    } else {
        out.im = Fp::from_u128(v.im.to_u128() ^ (1u128 << (b - 127)));
    }
    out
}

/// Single-bit corruption of a register-file word, in whatever field the
/// word lives. Base-field flips stay strictly below the modulus' top bit
/// and reduce once afterwards, so the corrupted residue is guaranteed to
/// differ from the original mod p (`v ^ 2^b ≢ v` because `2^b < p`).
fn flip_word_bit(w: Word, bit: u32) -> Word {
    match w {
        Word::Fp2(v) => Word::Fp2(flip_fp2_bit(v, bit)),
        Word::Fe(c, v) => {
            let p = mont_field(c).p;
            let b = bit % (p.bits() - 1);
            let mut limbs = v.0;
            limbs[(b / 64) as usize] ^= 1 << (b % 64);
            let mut flipped = U256(limbs);
            if let Some(reduced) = flipped.checked_sub(&p) {
                flipped = reduced;
            }
            Word::Fe(c, flipped)
        }
    }
}

fn inject_rom_word(kernel: &CompiledKernel, rng: &mut TestRng) -> (CompiledKernel, String) {
    let mut k = kernel.clone();
    let rom = k.rom.as_mut().expect("campaign kernels carry a packed ROM");
    let cycle = rng.below(rom.words.len() as u64) as usize;
    let w = &mut rom.words[cycle];
    // Every variant is a real single-bit change of the stored word, even
    // on "don't-care" fields (e.g. mul_sqr on an idle multiplier): the
    // canonical re-assembly diff compares whole words, so semantic
    // irrelevance is no place to hide.
    let site = match rng.below(8) {
        0 => {
            w.mul_valid = !w.mul_valid;
            format!("word {cycle} mul_valid")
        }
        1 => {
            w.mul_sqr = !w.mul_sqr;
            format!("word {cycle} mul_sqr")
        }
        2 => {
            let b = rng.below(8) as u16;
            w.mul_dst ^= 1 << b;
            format!("word {cycle} mul_dst bit {b}")
        }
        3 => {
            w.add_valid = !w.add_valid;
            format!("word {cycle} add_valid")
        }
        4 => {
            let b = rng.below(2) as u8;
            w.add_op ^= 1 << b;
            format!("word {cycle} add_op bit {b}")
        }
        5 => {
            let b = rng.below(8) as u16;
            w.add_dst ^= 1 << b;
            format!("word {cycle} add_dst bit {b}")
        }
        6 => {
            let b = rng.below(8) as u16;
            w.mul_a = flip_src(w.mul_a, b);
            format!("word {cycle} mul_a bit {b}")
        }
        _ => {
            let b = rng.below(8) as u16;
            w.add_a = flip_src(w.add_a, b);
            format!("word {cycle} add_a bit {b}")
        }
    };
    (k, site)
}

fn flip_src(s: fourq_cpu::Src, bit: u16) -> fourq_cpu::Src {
    match s {
        fourq_cpu::Src::Reg(r) => fourq_cpu::Src::Reg(r ^ (1 << bit)),
        fourq_cpu::Src::Route(r) => fourq_cpu::Src::Route(r ^ (1 << bit)),
    }
}

fn inject_route(kernel: &CompiledKernel, rng: &mut TestRng) -> (CompiledKernel, String) {
    let mut k = kernel.clone();
    let rom = k.rom.as_mut().expect("campaign kernels carry a packed ROM");
    let ri = rng.below(rom.routes.len() as u64) as usize;
    let route = &mut rom.routes[ri];
    let site = match rng.below(4) {
        0 => {
            // Drop the last candidate: arity fault.
            route.cands.pop();
            format!("route {ri} arity")
        }
        _ => {
            let ci = rng.below(route.cands.len() as u64) as usize;
            let b = rng.below(8) as u16;
            route.cands[ci] = flip_src(route.cands[ci], b);
            format!("route {ri} cand {ci} bit {b}")
        }
    };
    (k, site)
}

fn inject_allocation(kernel: &CompiledKernel, rng: &mut TestRng) -> (CompiledKernel, String) {
    let mut alloc = kernel.allocation.clone();
    let v = rng.below(alloc.assignment.len() as u64) as usize;
    let b = rng.below(8) as u16;
    alloc.assignment[v] ^= 1 << b;
    let site = format!("assignment[{v}] bit {b}");
    let k = kernel
        .with_allocation(alloc)
        .expect("rebuild never fails for single-unit machines");
    (k, site)
}

fn inject_constant(kernel: &CompiledKernel, rng: &mut TestRng) -> (CompiledKernel, String) {
    let mut k = kernel.clone();
    // Only the lifted constants: the runtime inputs (Px/Py) are rebound
    // on every execute, so a flip there would be silently repaired.
    // P-256's `Ry0` is also off the surface: it is the Y of the
    // accumulator's homogeneous identity (0 : 1 : 0), and the complete
    // formulas are homogeneous, so flipping it to any nonzero value is a
    // global projective scaling the final Z^(p−2) normalisation quotients
    // out — no scalar and no point can ever surface the fault in an
    // output, leaving nothing for a detector to detect.
    let constants: Vec<usize> = (0..k.trace.inputs.len())
        .filter(|id| !k.trace.runtime_ids.contains(id))
        .filter(|&id| k.trace.inputs[id].0 != "Ry0")
        .collect();
    let id = constants[rng.below(constants.len() as u64) as usize];
    let bit = rng.below(254) as u32;
    k.trace.inputs[id].1 = flip_word_bit(k.trace.inputs[id].1, bit);
    let site = format!("input {id} ({}) bit {bit}", k.trace.inputs[id].0);
    // The replay program holds a copy of the constants taken when it was
    // lowered; lower it again so the flip reaches execution.
    let k = k
        .with_allocation(k.allocation.clone())
        .expect("rebuild never fails for single-unit machines");
    (k, site)
}

/// Runs a `cases`-fault campaign against `kernel`, spreading the budget
/// evenly over the four [`FaultClass`]es (remainder to the earlier
/// classes). Deterministic in `seed`.
///
/// # Panics
///
/// If `kernel` has no packed ROM (multi-unit machines have no word/route
/// fault surface).
pub fn run_campaign(kernel: &CompiledKernel, cases: usize, seed: u64) -> CampaignReport {
    assert!(
        kernel.rom.is_some(),
        "fault campaign needs a single-sequencer kernel with a packed ROM"
    );
    let mut rng = TestRng::from_seed(seed);
    let scalars = audit_scalars(&mut rng);
    let classes = [
        FaultClass::RomWord,
        FaultClass::RouteTable,
        FaultClass::Allocation,
        FaultClass::Constant,
    ];
    let mut report = CampaignReport::default();
    for (ci, class) in classes.iter().enumerate() {
        let quota = cases / classes.len() + usize::from(ci < cases % classes.len());
        for _ in 0..quota {
            let (corrupted, site) = match class {
                FaultClass::RomWord => inject_rom_word(kernel, &mut rng),
                FaultClass::RouteTable => inject_route(kernel, &mut rng),
                FaultClass::Allocation => inject_allocation(kernel, &mut rng),
                FaultClass::Constant => inject_constant(kernel, &mut rng),
            };
            let detection = detect(&corrupted, &scalars);
            report.outcomes.push(FaultOutcome {
                class: *class,
                site,
                detection,
            });
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use fourq_sched::MachineConfig;

    #[test]
    fn small_campaign_detects_everything() {
        let kernel = fourq_cpu::shared_kernel(&MachineConfig::paper(), 0).expect("compiles");
        let report = run_campaign(kernel, 12, 0xfa017);
        assert_eq!(report.outcomes.len(), 12);
        if let Some(o) = report.undetected().first() {
            panic!("undetected fault: {:?} at {}", o.class, o.site);
        }
        // Structural classes must be caught statically, never by runtime.
        for o in &report.outcomes {
            if o.class != FaultClass::Constant {
                assert!(
                    matches!(o.detection, Detection::Static { .. }),
                    "{:?} at {} fell through to {:?}",
                    o.class,
                    o.site,
                    o.detection
                );
            }
        }
    }

    #[test]
    fn x25519_campaign_detects_everything() {
        let kernel = fourq_cpu::shared_kernel_for(CurveId::X25519, &MachineConfig::paper(), 0)
            .expect("compiles");
        let report = run_campaign(kernel, 8, 0x25519);
        assert_eq!(report.outcomes.len(), 8);
        if let Some(o) = report.undetected().first() {
            panic!("undetected fault: {:?} at {}", o.class, o.site);
        }
    }

    #[test]
    fn p256_campaign_smoke() {
        let kernel = fourq_cpu::shared_kernel_for(CurveId::P256, &MachineConfig::paper(), 0)
            .expect("compiles");
        let report = run_campaign(kernel, 4, 0x256);
        assert_eq!(report.outcomes.len(), 4);
        if let Some(o) = report.undetected().first() {
            panic!("undetected fault: {:?} at {}", o.class, o.site);
        }
    }

    #[test]
    fn p256_identity_y_is_off_the_constant_surface() {
        // Seed 5 used to draw `Ry0` — the projective-scaling-only
        // constant whose faults are output-invariant by homogeneity —
        // and report it undetected. It must no longer be injectable.
        let kernel = fourq_cpu::shared_kernel_for(CurveId::P256, &MachineConfig::paper(), 0)
            .expect("compiles");
        let report = run_campaign(kernel, 8, 5);
        assert!(!report.outcomes.iter().any(|o| o.site.contains("Ry0")));
        if let Some(o) = report.undetected().first() {
            panic!("undetected fault: {:?} at {}", o.class, o.site);
        }
    }

    #[test]
    fn campaign_is_deterministic_in_seed() {
        let kernel = fourq_cpu::shared_kernel(&MachineConfig::paper(), 0).expect("compiles");
        let a = run_campaign(kernel, 8, 7);
        let b = run_campaign(kernel, 8, 7);
        let sites_a: Vec<&str> = a.outcomes.iter().map(|o| o.site.as_str()).collect();
        let sites_b: Vec<&str> = b.outcomes.iter().map(|o| o.site.as_str()).collect();
        assert_eq!(sites_a, sites_b);
    }
}
