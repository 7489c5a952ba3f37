//! The micro-benchmark suite: every group the old Criterion benches
//! covered, re-expressed on the hermetic [`crate::harness`].
//!
//! | group | paper hook |
//! |-------|------------|
//! | `fp2_mul` | Algorithm 2 — Karatsuba + lazy reduction vs schoolbook |
//! | `scalar_mul` | Algorithm 1 — decomposed kernel vs double-and-add, plus fixed-base |
//! | `signatures` | §I ITS motivation — Schnorr/ECDSA sign + verify throughput |
//! | `curve_compare` | Table II shape — FourQ vs P-256 vs Curve25519 in software |
//! | `scheduling` | §III-C turn-around — scheduling must be fast per design iteration |
//! | `scalar_ops` | mod-N arithmetic ablation — Montgomery vs `rem_wide`, windowed vs binary inversion |
//! | `batch_ops` | batch-first curve pipeline — amortized normalisation, fixed-base, MSM |
//! | `batch_sig` | batch-first signature pipeline — RLC batch verify, batch signing |
//! | `multi_curve` | Table II on one machine — per-curve compiled kernels through the shared cache |
//! | `fleet_ops` | multi-core fleet model + capacity planner (`--gate-fleet` scaling tripwire) |

use crate::harness::{run, run_anchored, run_pair, BenchOptions, BenchRecord, BenchReport};
use fourq_baselines::{p256::P256, x25519::X25519};
use fourq_curve::{decompose, recode, AffinePoint, CurveId, FourQEngine, MultiCurveEngine};
use fourq_fp::{Fp, Fp2, Scalar, U256};
use fourq_sig::{ecdsa, schnorr};
use fourq_testkit::TestRng;
use std::hint::black_box;

/// Fixed seed for bench operand generation: results must be comparable
/// run-over-run, so operands are deterministic.
const BENCH_SEED: u64 = 0xBE0C_4007_DA7E_0001;

fn bench_scalar(rng: &mut TestRng) -> Scalar {
    let mut limbs = [0u64; 4];
    rng.fill_u64(&mut limbs);
    Scalar::from_u256(U256(limbs))
}

/// The host-speed anchor of the groups `microbench --compare` gates
/// (`scalar_ops`, `parallel_ops`, `asic_pipeline`): one native Fourℚ
/// variable-base scalar multiplication, the work of
/// `asic_pipeline/native_variable_base`. Each gated record is timed in
/// alternation with it ([`run_anchored`]).
fn anchor() -> impl FnMut() -> AffinePoint {
    let g = AffinePoint::generator();
    let k = bench_scalar(&mut TestRng::from_seed(BENCH_SEED ^ 0xA));
    move || g.mul(black_box(&k))
}

/// Batch size for the `batch_*` groups — the ISSUE acceptance size.
const BATCH_N: usize = 64;

/// Rescales a record measured over an `n`-item batch call to per-item
/// cost, so `batch_*` numbers compare directly against their one-shot
/// counterparts in `BENCH_fourq.json`.
fn per_item(mut rec: BenchRecord, n: usize) -> BenchRecord {
    rec.ns_per_op /= n as f64;
    rec.ops_per_sec *= n as f64;
    rec
}

/// `F_p²` multiplication ablation (the paper's multiplier design choice).
pub fn fp2_mul(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED);
    let a = Fp2::new(
        Fp::from_u128(rng.next_u128()),
        Fp::from_u128(rng.next_u128()),
    );
    let b = Fp2::new(
        Fp::from_u128(rng.next_u128()),
        Fp::from_u128(rng.next_u128()),
    );
    report.push(run("fp2_mul", "karatsuba_lazy", opts, || {
        black_box(a).mul_karatsuba(black_box(&b))
    }));
    report.push(run("fp2_mul", "schoolbook", opts, || {
        black_box(a).mul_schoolbook(black_box(&b))
    }));
    report.push(run("fp2_mul", "square", opts, || black_box(a).square()));
    report.push(run("fp2_mul", "add", opts, || black_box(a) + black_box(b)));
    report.push(run("fp2_mul", "invert", opts, || black_box(a).inv()));
}

/// Variable-base (decomposed vs generic), fixed-base, and the
/// decompose+recode front-end in isolation.
pub fn scalar_mul(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 1);
    let g = AffinePoint::generator();
    let k = bench_scalar(&mut rng);
    let table = fourq_curve::generator_table();
    report.push(run("scalar_mul", "variable_base_decomposed", opts, || {
        g.mul(black_box(&k))
    }));
    report.push(run("scalar_mul", "double_and_add_reference", opts, || {
        g.mul_generic(black_box(&k))
    }));
    report.push(run("scalar_mul", "fixed_base_table", opts, || {
        table.mul(black_box(&k))
    }));
    report.push(run("scalar_mul", "decompose_recode_only", opts, || {
        recode(&decompose(black_box(&k)))
    }));
}

/// The ITS workload: signature generation and verification.
pub fn signatures(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 2);
    let msg = b"CAM: vehicle 42, lane 3, 48 km/h, intersection 12 in 80 m";
    let mut seed = [0u8; 32];
    rng.fill_bytes(&mut seed);
    let skp = schnorr::KeyPair::from_seed(&seed);
    let ssig = skp.sign(msg);
    let ekp = ecdsa::KeyPair::from_secret(bench_scalar(&mut rng)).expect("nonzero secret");
    let esig = ekp.sign(msg).expect("signable");
    report.push(run("signatures", "schnorr_sign", opts, || {
        skp.sign(black_box(msg))
    }));
    report.push(run("signatures", "schnorr_verify", opts, || {
        schnorr::verify(&skp.public, black_box(msg), &ssig)
    }));
    report.push(run("signatures", "ecdsa_sign", opts, || {
        ekp.sign(black_box(msg))
    }));
    report.push(run("signatures", "ecdsa_verify", opts, || {
        ecdsa::verify(&ekp.public, black_box(msg), &esig)
    }));
}

/// Cross-curve software comparison backing the Table II shape.
pub fn curve_compare(report: &mut BenchReport, opts: &BenchOptions) {
    let fourq_g = AffinePoint::generator();
    let k = Scalar::from_u256(
        U256::from_hex("0123456789abcdef0123456789abcdef0123456789abcdef0123456789abcdef")
            .expect("valid hex"),
    );
    report.push(run("curve_compare", "fourq_scalar_mul", opts, || {
        fourq_g.mul(black_box(&k))
    }));

    let p256 = P256::new();
    let kp = U256::from_hex("7fffffff11112222333344445555666677778888aaaabbbbccccddddeeee0001")
        .expect("valid hex");
    report.push(run("curve_compare", "p256_scalar_mul", opts, || {
        let r = p256.scalar_mul(black_box(&kp), &p256.generator());
        p256.to_affine(&r)
    }));

    let x = X25519::new();
    let secret = [0x5au8; 32];
    report.push(run("curve_compare", "x25519_ladder", opts, || {
        x.public_key(black_box(&secret))
    }));

    // The paths `fourq-serve` answers `CurveMul` from: point decoding and
    // validation, the constant-time multiplication and the encoding.
    let eng = MultiCurveEngine::shared();
    for curve in [CurveId::P256, CurveId::X25519] {
        let point = eng.generator_encoded(curve);
        let name = format!("{}_curve_mul", curve.name());
        report.push(run("curve_compare", &name, opts, || {
            eng.curve_mul(curve, black_box(&secret), &point)
                .expect("generator is a valid point")
        }));
    }
}

/// The scheduling flow itself (trace → problem → schedule).
pub fn scheduling(report: &mut BenchReport, opts: &BenchOptions) {
    use fourq_sched::{schedule, trace_to_problem, MachineConfig};
    use fourq_trace::{trace_double_add_iteration, trace_scalar_mul};

    let machine = MachineConfig::paper();
    let loop_problem = trace_to_problem(&trace_double_add_iteration());
    report.push(run("scheduling", "loop_body_ils64", opts, || {
        schedule(&loop_problem, &machine, 64)
    }));

    let sm = trace_scalar_mul(&Scalar::from_u64(0xfeef_dead_beef_cafe));
    let sm_problem = trace_to_problem(&sm.trace);
    report.push(run("scheduling", "full_sm_critical_path", opts, || {
        schedule(&sm_problem, &machine, 0)
    }));
    report.push(run("scheduling", "trace_full_sm", opts, || {
        trace_scalar_mul(&Scalar::from_u64(0x1234_5678))
    }));
}

/// Mod-N scalar arithmetic ablation: the Montgomery/CIOS multiplier and
/// windowed Fermat ladder against the original shift-subtract
/// (`rem_wide`) paths they replaced, plus the batch inversion.
pub fn scalar_ops(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 3);
    let a = bench_scalar(&mut rng);
    let b = bench_scalar(&mut rng);
    let xs: Vec<Scalar> = (0..BATCH_N).map(|_| bench_scalar(&mut rng)).collect();
    report.push(run_anchored(
        "scalar_ops",
        "mul_montgomery",
        opts,
        || black_box(a) * black_box(b),
        anchor(),
    ));
    report.push(run_anchored(
        "scalar_ops",
        "mul_rem_wide",
        opts,
        || black_box(a).mul_rem_wide(black_box(&b)),
        anchor(),
    ));
    report.push(run_anchored(
        "scalar_ops",
        "inv_windowed",
        opts,
        || black_box(a).inv(),
        anchor(),
    ));
    report.push(run_anchored(
        "scalar_ops",
        "inv_binary_rem_wide",
        opts,
        || black_box(a).inv_binary_rem_wide(),
        anchor(),
    ));
    report.push(per_item(
        run_anchored(
            "scalar_ops",
            "batch_invert_n64_per_item",
            opts,
            || Scalar::batch_invert(black_box(&xs)),
            anchor(),
        ),
        BATCH_N,
    ));
}

/// The batch-first curve pipeline: amortized normalisation, batched
/// fixed-base multiplication, and both MSM algorithms at the acceptance
/// batch size.
pub fn batch_ops(report: &mut BenchReport, opts: &BenchOptions) {
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 4);
    let eng = FourQEngine::shared();
    let g = AffinePoint::generator();
    let ext: Vec<_> = (0..BATCH_N)
        .map(|_| g.mul_extended(&bench_scalar(&mut rng)))
        .collect();
    let ks: Vec<Scalar> = (0..BATCH_N).map(|_| bench_scalar(&mut rng)).collect();
    let pairs: Vec<(Scalar, AffinePoint)> = (0..BATCH_N)
        .map(|i| {
            (
                bench_scalar(&mut rng),
                g.mul(&Scalar::from_u64(2 * i as u64 + 3)),
            )
        })
        .collect();
    report.push(run("batch_ops", "to_affine_single", opts, || {
        eng.to_affine(black_box(&ext[0]))
    }));
    let mut rec = per_item(
        run("batch_ops", "batch_to_affine_n64_per_point", opts, || {
            eng.batch_to_affine(black_box(&ext))
        }),
        BATCH_N,
    );
    rec.threads = eng.threads() as u32;
    report.push(rec);
    report.push(run("batch_ops", "fixed_base_single", opts, || {
        eng.fixed_base_mul(black_box(&ks[0]))
    }));
    let mut rec = per_item(
        run("batch_ops", "batch_fixed_base_n64_per_point", opts, || {
            eng.batch_fixed_base_mul(black_box(&ks))
        }),
        BATCH_N,
    );
    rec.threads = eng.threads() as u32;
    report.push(rec);
    report.push(per_item(
        run("batch_ops", "msm_pippenger_n64_per_point", opts, || {
            fourq_curve::msm_pippenger(black_box(&pairs))
        }),
        BATCH_N,
    ));
    report.push(per_item(
        run("batch_ops", "msm_straus_n64_per_point", opts, || {
            fourq_curve::msm_straus(black_box(&pairs))
        }),
        BATCH_N,
    ));
}

/// The batch-first signature pipeline at the acceptance batch size:
/// RLC batch verification (single MSM) and batch signing for both
/// schemes, next to their one-shot counterparts for the ratio.
pub fn batch_sig(report: &mut BenchReport, opts: &BenchOptions) {
    let kps: Vec<schnorr::KeyPair> = (0..BATCH_N as u8)
        .map(|i| schnorr::KeyPair::from_seed(&[i ^ 0xA5; 32]))
        .collect();
    let msgs: Vec<Vec<u8>> = (0..BATCH_N)
        .map(|i| format!("CAM: vehicle {i}, lane 3, 48 km/h").into_bytes())
        .collect();
    let sigs: Vec<schnorr::Signature> = kps.iter().zip(&msgs).map(|(kp, m)| kp.sign(m)).collect();
    let items: Vec<(&schnorr::PublicKey, &[u8], &schnorr::Signature)> = kps
        .iter()
        .zip(&msgs)
        .zip(&sigs)
        .map(|((kp, m), s)| (&kp.public, m.as_slice(), s))
        .collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|m| m.as_slice()).collect();
    let ekp = ecdsa::KeyPair::from_secret(Scalar::from_u64(0xBA7C_51D5)).expect("nonzero secret");

    report.push(run("batch_sig", "schnorr_verify_single", opts, || {
        schnorr::verify(&kps[0].public, black_box(&msgs[0]), &sigs[0])
    }));
    // These routes go through the shared engine internally, so they run
    // at its resolved thread budget — record it honestly.
    let shared_threads = FourQEngine::shared().threads() as u32;
    let mut rec = per_item(
        run(
            "batch_sig",
            "schnorr_batch_verify_n64_per_sig",
            opts,
            || schnorr::verify_batch(black_box(&items)),
        ),
        BATCH_N,
    );
    rec.threads = shared_threads;
    report.push(rec);
    let mut rec = per_item(
        run("batch_sig", "schnorr_sign_batch_n64_per_sig", opts, || {
            kps[0].sign_batch(black_box(&refs))
        }),
        BATCH_N,
    );
    rec.threads = shared_threads;
    report.push(rec);
    let mut rec = per_item(
        run("batch_sig", "ecdsa_sign_batch_n64_per_sig", opts, || {
            ekp.sign_batch(black_box(&refs))
        }),
        BATCH_N,
    );
    rec.threads = shared_threads;
    report.push(rec);
}

/// The parallel batch engine at its acceptance size: `batch_scalar_mul`
/// over 256 pairs, pinned to 1 and 4 worker threads via
/// [`FourQEngine::with_threads`]. The two records differ only in their
/// `threads` field, so the speedup ratio is directly computable from
/// `BENCH_fourq.json` (and is what `--gate-parallel` checks).
pub fn parallel_ops(report: &mut BenchReport, opts: &BenchOptions) {
    const PAR_N: usize = 256;
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 5);
    let g = AffinePoint::generator();
    let pairs: Vec<(Scalar, AffinePoint)> = (0..PAR_N)
        .map(|i| {
            (
                bench_scalar(&mut rng),
                g.mul(&Scalar::from_u64(3 * i as u64 + 7)),
            )
        })
        .collect();
    for threads in [1usize, 4] {
        let eng = FourQEngine::shared().with_threads(threads);
        let name = format!("batch_scalar_mul_n256_t{threads}_per_point");
        let mut rec = per_item(
            run_anchored(
                "parallel_ops",
                &name,
                opts,
                || eng.batch_scalar_mul(black_box(&pairs)),
                anchor(),
            ),
            PAR_N,
        );
        rec.threads = threads as u32;
        report.push(rec);
    }
}

/// The compile-once/execute-many ASIC kernel pipeline: cold compile cost
/// (the full trace→schedule→allocate→assemble flow plus the audit), the
/// warm per-scalar replay through the cached kernel (timed alternately
/// with the native engine, `native_variable_base`), the full
/// static-verifier pass (`kernel_verify`), and the batched replay at 1
/// and 4 threads. `compile_cold / execute_warm` is the cache-amortisation
/// ratio `--gate-kernel-cache` checks.
pub fn asic_pipeline(report: &mut BenchReport, opts: &BenchOptions) {
    use fourq_sched::MachineConfig;

    const KERNEL_EFFORT: u32 = 2;
    const KERNEL_BATCH: usize = 16;
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 6);
    let machine = MachineConfig::paper();
    let g = AffinePoint::generator();
    let k = bench_scalar(&mut rng);
    let ks: Vec<Scalar> = (0..KERNEL_BATCH).map(|_| bench_scalar(&mut rng)).collect();

    report.push(run_anchored(
        "asic_pipeline",
        "compile_cold",
        opts,
        || fourq_cpu::compile(&machine, KERNEL_EFFORT).expect("kernel compiles"),
        anchor(),
    ));
    let kernel = fourq_cpu::shared_kernel(&machine, KERNEL_EFFORT).expect("kernel compiles");
    // The warm replay and the native engine on the same scalar, in
    // alternating samples: `--gate-replay` divides one by the other. The
    // native engine is the anchor's own work, so it anchors both records
    // (and so reads 1.0 against itself under `--compare`).
    let [mut warm, mut native] = run_pair(
        "asic_pipeline",
        ("execute_warm", || {
            kernel.execute(&g, black_box(&k)).expect("kernel executes")
        }),
        ("native_variable_base", || g.mul(black_box(&k))),
        opts,
    );
    warm.anchor_ns = native.ns_per_op;
    native.anchor_ns = native.ns_per_op;
    report.push(warm);
    report.push(native);
    report.push(run_anchored(
        "asic_pipeline",
        "kernel_verify",
        opts,
        || {
            let r = fourq_cpu::verify(black_box(kernel), fourq_cpu::CheckLevel::Full);
            assert!(r.is_clean(), "shipped kernel must verify clean");
            r
        },
        anchor(),
    ));
    for threads in [1usize, 4] {
        let name = format!("execute_batch_n{KERNEL_BATCH}_t{threads}_per_sm");
        let mut rec = per_item(
            run_anchored(
                "asic_pipeline",
                &name,
                opts,
                || {
                    kernel
                        .execute_batch_with(&g, black_box(&ks), threads)
                        .expect("kernel executes")
                },
                anchor(),
            ),
            KERNEL_BATCH,
        );
        rec.threads = threads as u32;
        report.push(rec);
    }
}

/// The multi-curve compiled-kernel pipeline on the paper machine: cold
/// compile and warm cached execute for each curve the tracer knows, all
/// through the per-`(curve, machine, effort)` shared kernel cache. The
/// per-curve `compile_cold / execute_warm` pairs are what
/// `--gate-kernel-cache` checks for cache amortisation beyond Fourℚ.
pub fn multi_curve(report: &mut BenchReport, opts: &BenchOptions) {
    use fourq_sched::MachineConfig;

    const KERNEL_EFFORT: u32 = 2;
    let machine = MachineConfig::paper();
    let eng = MultiCurveEngine::shared();
    let mut rng = TestRng::from_seed(BENCH_SEED ^ 7);
    for curve in CurveId::ALL {
        let name = curve.name();
        report.push(run(
            "multi_curve",
            &format!("{name}_compile_cold"),
            opts,
            || fourq_cpu::compile_curve(curve, &machine, KERNEL_EFFORT).expect("kernel compiles"),
        ));
        let kernel =
            fourq_cpu::shared_kernel_for(curve, &machine, KERNEL_EFFORT).expect("kernel compiles");
        let mut scalar = [0u8; 32];
        rng.fill_bytes(&mut scalar);
        let point = eng.generator_encoded(curve);
        let warm = format!("{name}_execute_warm");
        match curve {
            CurveId::FourQ => {
                let g = AffinePoint::generator();
                let k = Scalar::from_le_bytes(&scalar);
                report.push(run("multi_curve", &warm, opts, || {
                    kernel.execute(&g, black_box(&k)).expect("kernel executes")
                }));
            }
            CurveId::X25519 => {
                let mut u = [0u8; 32];
                u.copy_from_slice(&point);
                report.push(run("multi_curve", &warm, opts, || {
                    kernel
                        .execute_x25519(black_box(&scalar), &u)
                        .expect("kernel executes")
                }));
            }
            CurveId::P256 => {
                let mut p = [0u8; 64];
                p.copy_from_slice(&point);
                report.push(run("multi_curve", &warm, opts, || {
                    kernel
                        .execute_p256(black_box(&scalar), &p)
                        .expect("kernel executes")
                }));
            }
        }
    }
}

/// The multi-core fleet model and capacity planner: cycle-accurate
/// fleet simulation cost at 1 and 4 cores (homogeneous Fourℚ cores on
/// a 2-port table ROM — the configuration `--gate-fleet` checks the
/// modeled scaling of), the largest-remainder core assigner, and a
/// small planner sweep end-to-end (kernels cached, so this times the
/// fleet + technology arithmetic, not compilation).
pub fn fleet_ops(report: &mut BenchReport, opts: &BenchOptions) {
    use crate::capacity::{plan_with_threads, PlanConfig, Workload};
    use fourq_sched::MachineConfig;
    use fourq_tech::fleet::{assign_cores, simulate_fleet, CoreSpec, FleetConfig};

    const KERNEL_EFFORT: u32 = 2;
    let machine = MachineConfig::paper();
    let fp = &fourq_cpu::shared_kernel_for(fourq_curve::CurveId::FourQ, &machine, KERNEL_EFFORT)
        .expect("kernel compiles")
        .fingerprint;
    let core = || CoreSpec {
        name: "fourq".to_string(),
        cycles_per_op: fp.cycles,
        rom_reads_per_op: fp.mux_count as u64,
    };
    let horizon = 8 * fp.cycles;
    for cores in [1usize, 4] {
        let cfg = FleetConfig {
            rom_ports: 2,
            cores: (0..cores).map(|_| core()).collect(),
        };
        let name = format!("sim_fourq_{cores}core_2port");
        report.push(run("fleet_ops", &name, opts, || {
            simulate_fleet(black_box(&cfg), horizon)
        }));
    }

    let demands: Vec<(String, f64)> = [
        ("fourq", 0.5 * 3223.0),
        ("x25519", 0.3 * 4075.0),
        ("p256", 0.2 * 13054.0),
    ]
    .iter()
    .map(|&(n, d)| (n.to_string(), d))
    .collect();
    report.push(run("fleet_ops", "assign_cores_reference_16", opts, || {
        assign_cores(black_box(&demands), 16)
    }));

    let plan_cfg = PlanConfig {
        effort: KERNEL_EFFORT,
        rom_ports: 2,
        core_counts: vec![1, 4],
        vdds: vec![0.32, 1.20],
        workload: Workload::reference(),
        stitch: None,
        banked: false,
    };
    // Prime the shared kernel cache outside the timed region.
    let _ = plan_with_threads(&plan_cfg, 1);
    report.push(run("fleet_ops", "plan_sweep_2x2_warm", opts, || {
        plan_with_threads(black_box(&plan_cfg), 1)
    }));
}

/// A benchmark group: fills a report under the given options.
type GroupFn = fn(&mut BenchReport, &BenchOptions);

/// Runs every group whose name passes `filter` (empty filter = all).
///
/// The filter is a comma-separated list of substrings, OR'd together:
/// `"scalar_ops,parallel_ops,asic_pipeline"` runs exactly the three
/// groups the CI regression tripwire compares.
pub fn run_suite(opts: &BenchOptions, filter: &str) -> BenchReport {
    let groups: [(&str, GroupFn); 12] = [
        ("fp2_mul", fp2_mul),
        ("scalar_mul", scalar_mul),
        ("scalar_ops", scalar_ops),
        ("signatures", signatures),
        ("batch_ops", batch_ops),
        ("batch_sig", batch_sig),
        ("parallel_ops", parallel_ops),
        ("curve_compare", curve_compare),
        ("scheduling", scheduling),
        ("asic_pipeline", asic_pipeline),
        ("multi_curve", multi_curve),
        ("fleet_ops", fleet_ops),
    ];
    let wanted: Vec<&str> = filter
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .collect();
    let mut report = BenchReport::default();
    for (name, group) in groups {
        if wanted.is_empty() || wanted.iter().any(|w| name.contains(w)) {
            eprintln!("group {name}:");
            group(&mut report, opts);
        }
    }
    report
}
