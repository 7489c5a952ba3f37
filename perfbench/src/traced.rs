//! The traced run: per-layer metrics, measured from outside by timing
//! calls into each crate's public functions.
//!
//! Every workload runs the same four sections on its own seeded inputs:
//!
//! 1. **compile** — the kernel flow split into its public stages
//!    (`fourq_trace` → `trace_to_problem` → `schedule` /
//!    `stitched_exact_schedule` → `allocate` → `verify`) beside the
//!    one-call `compile_curve`, plus the exact simulated statistics;
//! 2. **replay** — `CompiledKernel` replay per curve against the native
//!    one-shot, and the open-loop replay service with a span per stage;
//! 3. **ledger** — calibrated loops over `fourq-fp`, `fourq-curve` and
//!    `fourq-sig` batch entry points;
//! 4. **serve** — the workload's request stream over TCP, then driven
//!    in-process through `proto::decode_request`, `Coalescer` and
//!    `exec::execute_flush`, untraced and traced; each recorded flush is
//!    re-run through the engine and signature batch calls to attribute
//!    its time.
//!
//! Spans (name, start, end, parent, request id) stay in memory and are
//! written to `perfbench/out/` when the run ends.

use crate::inputs::{self, Pool, Replay, ReplayPool, Seen};
use crate::load::{self, Kernels, NEVER};
use crate::timed::{audit_replays, ms_at, phase_json, sim_block};
use crate::util::{mean, ns, pct, time_per_call, Rng, Spans, J};
use crate::{m, rates, Metric, Outcome};
use fourq_cpu::{CheckLevel, CompiledKernel, VERIFY_EFFORT};
use fourq_curve::{AffinePoint, CurveId, FourQEngine, MultiCurveEngine};
use fourq_fp::{Fp2, Scalar, U256};
use fourq_sched::{MachineConfig, StitchOptions};
use fourq_serve::exec::{execute_flush, Pending};
use fourq_serve::proto::{decode_request, decode_response, encode_request, encode_response};
use fourq_serve::proto::{Request, Response, Status};
use fourq_serve::{Coalescer, Enqueue, ServerConfig, TenantDirectory};
use fourq_sig::schnorr;
use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Untraced/traced slice pairs of each in-process phase. Each
/// reconciliation compares the two slices of a pair, which run back to
/// back, and reports the median over the pairs, so a drift of the host's
/// speed between slices far apart in time does not count as remainder.
const SLICES: usize = 6;

/// Reconciliation tolerance: the p50s of the traced layer parts must
/// add up to the untraced end-to-end p50 they explain to within this
/// share, or the traced run fails.
const TOLERANCE: f64 = 0.25;

/// A reconciliation over slice pairs of `(untraced end-to-end p50, sum
/// of the traced parts' p50s)`, in µs.
struct Reconciled {
    pairs: Vec<(f64, f64)>,
    /// Median untraced end-to-end p50 over the pairs.
    e2e: f64,
    /// Median remainder over the pairs.
    remainder: f64,
    /// The run's own noise: the range of the untraced p50s over the
    /// pairs, which measure the same thing.
    noise: f64,
}

impl Reconciled {
    fn of(pairs: Vec<(f64, f64)>) -> Reconciled {
        let e2e: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let rem: Vec<f64> = pairs.iter().map(|p| p.0 - p.1).collect();
        let (lo, hi) = e2e.iter().fold((f64::INFINITY, 0.0f64), |(lo, hi), &x| {
            (lo.min(x), hi.max(x))
        });
        Reconciled {
            e2e: crate::util::median(&e2e),
            remainder: crate::util::median(&rem),
            noise: hi - lo,
            pairs,
        }
    }

    fn within_tolerance(&self) -> bool {
        self.remainder.abs() <= TOLERANCE * self.e2e
    }

    /// `within` if the remainder is within [`TOLERANCE`]; `beyond` if it
    /// is outside it and larger than the run's noise, which fails the
    /// run; `unresolved` if it is outside the tolerance but no larger than
    /// the noise, so the run could not tell it from a drift of the host.
    fn verdict(&self) -> &'static str {
        if self.within_tolerance() {
            "within"
        } else if self.remainder.abs() > self.noise {
            "beyond"
        } else {
            "unresolved"
        }
    }

    /// `Some` with what failed if the verdict is `beyond`; warns on
    /// standard error if it is `unresolved`.
    fn check(&self, section: &str) -> Option<String> {
        let what = format!(
            "{section} reconciliation: remainder {:.1} us of {:.1} us exceeds {}%",
            self.remainder,
            self.e2e,
            100.0 * TOLERANCE
        );
        match self.verdict() {
            "beyond" => Some(format!(
                "{what} and the run's noise of {:.1} us",
                self.noise
            )),
            "unresolved" => {
                eprintln!(
                    "warning: {what}, but not the run's noise of {:.1} us: unresolved",
                    self.noise
                );
                None
            }
            _ => None,
        }
    }

    /// The record's fields.
    fn fields(&self) -> Vec<(&'static str, J)> {
        vec![
            ("pair_e2e_p50_us_median", J::n(self.e2e)),
            (
                "pair_remainders_us",
                J::Arr(self.pairs.iter().map(|p| J::n(p.0 - p.1)).collect()),
            ),
            ("remainder_us", J::n(self.remainder)),
            ("noise_us", J::n(self.noise)),
            ("tolerance", J::n(TOLERANCE)),
            ("within_tolerance", J::Bool(self.within_tolerance())),
            ("verdict", J::s(self.verdict())),
        ]
    }
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn us_p(sorted: &[u64], q: f64) -> f64 {
    match pct(sorted, q) {
        NEVER => f64::INFINITY,
        v => v as f64 / 1e3,
    }
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

/// Section 1: the compile flow stage by stage, beside the one-call
/// compiles the timed run uses.
fn compile_section(r: &mut Report) -> Kernels {
    use fourq_sched::{schedule, stitched_exact_schedule, trace_to_problem};
    let machine = MachineConfig::paper();
    let mut stage: BTreeMap<&'static str, f64> = BTreeMap::new();
    let mut rows = Vec::new();
    let mut kernels: Vec<CompiledKernel> = Vec::new();
    let mut stitched = None;
    for (ci, curve) in [CurveId::FourQ, CurveId::X25519, CurveId::P256]
        .into_iter()
        .enumerate()
    {
        let req = ci as u64;
        let t = Instant::now();
        let kernel = fourq_cpu::compile_curve(curve, &machine, VERIFY_EFFORT).expect("compile");
        let whole = t.elapsed();
        r.spans
            .push("cpu.compile_curve", t, Instant::now(), None, req);

        let root_start = Instant::now();
        let root = r
            .spans
            .push("compile.staged", root_start, root_start, None, req);
        let mut stages_ms = 0.0;
        let mut timed = |name: &'static str, spans: &mut Spans, f: &mut dyn FnMut()| {
            let a = Instant::now();
            f();
            let b = Instant::now();
            spans.push(name, a, b, Some(root), req);
            *stage.entry(name).or_insert(0.0) += ms(b - a);
            ms(b - a)
        };
        let mut trace = None;
        stages_ms += timed("trace.record", &mut r.spans, &mut || {
            trace = Some(match curve {
                CurveId::FourQ => {
                    fourq_trace::trace_scalar_mul(&Scalar::from_u64(0x1234_5678_9abc)).trace
                }
                CurveId::X25519 => {
                    let mut u = [0u8; 32];
                    u[0] = 9;
                    fourq_trace::trace_x25519_ladder(&[0x5a; 32], &u).trace
                }
                CurveId::P256 => {
                    let ctx = MultiCurveEngine::shared().p256();
                    fourq_trace::trace_p256_scalar_mul(
                        &U256::from_u64(0x1234_5678),
                        &ctx.generator_affine(),
                    )
                    .trace
                }
            });
        });
        let trace = trace.expect("recorded");
        let mut problem = None;
        stages_ms += timed("sched.bridge", &mut r.spans, &mut || {
            trace.validate().expect("valid trace");
            problem = Some(trace_to_problem(&trace));
        });
        let problem = problem.expect("bridged");
        let mut sched = None;
        stages_ms += timed("sched.schedule", &mut r.spans, &mut || {
            sched = Some(schedule(&problem, &machine, VERIFY_EFFORT));
        });
        let sched = sched.expect("scheduled");
        if curve == CurveId::FourQ {
            timed("sched.stitch", &mut r.spans, &mut || {
                black_box(stitched_exact_schedule(
                    &problem,
                    &machine,
                    &StitchOptions::default(),
                ));
            });
        }
        stages_ms += timed("cpu.regalloc", &mut r.spans, &mut || {
            black_box(fourq_cpu::allocate(&trace, &sched, &machine));
        });
        let mut clean = false;
        stages_ms += timed("cpu.verify", &mut r.spans, &mut || {
            clean = fourq_cpu::verify(&kernel, CheckLevel::Full).is_clean();
        });
        r.spans.close(root, Instant::now());
        let other = ms(whole) - stages_ms;
        *stage.entry("cpu.compile_other").or_insert(0.0) += other;
        rows.push((
            curve.name(),
            J::obj(vec![
                ("compile_curve_ms", J::n(ms(whole))),
                ("stages_ms", J::n(stages_ms)),
                ("other_ms", J::n(other)),
                ("verify_clean", J::Bool(clean)),
            ]),
        ));
        if curve == CurveId::FourQ {
            let t = Instant::now();
            let sk = fourq_cpu::compile_curve_stitched(
                curve,
                &machine,
                VERIFY_EFFORT,
                &StitchOptions::default(),
            )
            .expect("compile stitched");
            r.spans
                .push("cpu.compile_curve_stitched", t, Instant::now(), None, req);
            stitched = Some(sk);
        }
        kernels.push(kernel);
    }
    let stitched = stitched.expect("stitched fourq");
    let p256 = kernels.pop().expect("p256");
    let x25519 = kernels.pop().expect("x25519");
    let k = Kernels {
        fourq: stitched.kernel.clone(),
        x25519,
        p256,
    };
    let fp = &k.fourq.fingerprint;
    for (name, metric) in [
        ("trace.record", "trace.record_ms"),
        ("sched.schedule", "sched.schedule_ms"),
        ("sched.stitch", "sched.stitch_ms"),
        ("cpu.regalloc", "cpu.regalloc_ms"),
        ("cpu.verify", "cpu.verify_ms"),
    ] {
        r.metric(metric, stage[name], "ms");
    }
    r.metric(
        "sched.gap_cycles",
        (fp.cycles - fp.lower_bound) as f64,
        "cycles",
    );
    r.metric("sim.cycles.fourq", fp.cycles as f64, "cycles");
    r.metric(
        "sim.cycles.x25519",
        k.x25519.fingerprint.cycles as f64,
        "cycles",
    );
    r.metric(
        "sim.cycles.p256",
        k.p256.fingerprint.cycles as f64,
        "cycles",
    );
    r.details.push(("compile", J::obj(rows)));
    r.details.push((
        "compile_stage_ms",
        J::obj(stage.iter().map(|(k, v)| (*k, J::n(*v))).collect()),
    ));
    r.details.push(("sim_stats", sim_block(&k, &stitched)));
    k
}

/// What the sections report: spans, per-layer metrics and the record's
/// detail blocks.
struct Report {
    spans: Spans,
    metrics: Vec<Metric>,
    details: Vec<(&'static str, J)>,
}

impl Report {
    fn metric(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(m(name, value, unit));
    }
}

/// What a section attempted, and how many of its answers failed or were
/// wrong.
struct Tally {
    wrong: u64,
    failed: u64,
    attempted: u64,
    checks_failed: Option<String>,
}

/// Section 2: replay per curve, the native one-shot, and the open-loop
/// replay service traced stage by stage.
fn replay_section(
    k: &Kernels,
    pool: &ReplayPool,
    seed: u64,
    phase_s: f64,
    micro: Duration,
    r: &mut Report,
) -> Tally {
    let of =
        |c: CurveId| -> Vec<&Replay> { pool.items.iter().filter(|r| r.curve() == c).collect() };
    let mut per = BTreeMap::new();
    for c in [CurveId::FourQ, CurveId::X25519, CurveId::P256] {
        let items = of(c);
        let us = time_per_call(micro, |i| {
            black_box(k.run(items[i % items.len()]));
        }) / 1e3;
        per.insert(c.name(), us);
    }
    let fourq = of(CurveId::FourQ);
    let eng = FourQEngine::shared();
    let native_us = time_per_call(micro, |i| {
        if let Replay::FourQ { base, k } = fourq[i % fourq.len()] {
            black_box(eng.scalar_mul(base, k));
        }
    }) / 1e3;
    r.metric("cpu.replay_us.fourq", per["fourq"], "us");
    r.metric("cpu.replay_us.x25519", per["x25519"], "us");
    r.metric("cpu.replay_us.p256", per["p256"], "us");
    r.metric(
        "cpu.replay_ns_per_insn",
        per["fourq"] * 1e3 / k.fourq.fingerprint.rom_words as f64,
        "ns",
    );
    r.metric("curve.scalar_mul_us", native_us, "us");
    r.metric("cpu.replay_over_native", per["fourq"] / native_us, "ratio");

    // The open-loop replay service: untraced and traced slices in
    // alternation. The reconciliation is over the Fourℚ replays, the
    // end-to-end metric's operation: the three curves' replay times are
    // far apart, and p50s of such a mixture do not add.
    let rate = rates("kernel_replay").low;
    let mut rng = Rng::new(seed, 30);
    let n = (rate * phase_s / SLICES as f64).ceil() as usize;
    let mut seen = Seen::new();
    let mut failed = 0u64;
    let (mut plain_lat, mut traced_lat) = (Vec::new(), Vec::new());
    let (mut late, mut queue, mut run) = (Vec::new(), Vec::new(), Vec::new());
    let mut parts = [Vec::new(), Vec::new(), Vec::new()];
    let (mut pairs, mut plain_p50) = (Vec::new(), 0.0);
    for slice in 0..2 * SLICES {
        let idx: Vec<u32> = (0..n).map(|_| rng.below(pool.items.len()) as u32).collect();
        let (mut p, times) = load::replay_phase(k, &pool.items, &idx, rate);
        failed += inputs::collect(&mut seen, &idx, &mut p.answers) as u64;
        let fourq = |i: &usize| pool.items[idx[*i] as usize].curve() == CurveId::FourQ;
        let fourq_lat: Vec<u64> = (0..n).filter(fourq).map(|i| p.lat_ns[i]).collect();
        if slice % 2 == 0 {
            plain_p50 = us_p(&sorted(fourq_lat.clone()), 0.5);
            plain_lat.extend(fourq_lat);
            continue;
        }
        traced_lat.extend(fourq_lat);
        let mut part = [Vec::new(), Vec::new(), Vec::new()];
        for i in (0..n).filter(fourq) {
            part[0].push(ns(times.sent[i] - times.due[i]));
            part[1].push(ns(times.start[i].saturating_duration_since(times.sent[i])));
            part[2].push(ns(times.end[i] - times.start[i]));
        }
        for (all, v) in parts.iter_mut().zip(&part) {
            all.extend(v);
        }
        let explained = part.map(|v| us_p(&sorted(v), 0.5)).iter().sum::<f64>();
        pairs.push((plain_p50, explained));
        for i in 0..n {
            let req = (slice * n + i) as u64;
            let root = r
                .spans
                .push("replay.request", times.due[i], times.end[i], None, req);
            r.spans
                .push("loadgen.late", times.due[i], times.sent[i], Some(root), req);
            r.spans.push(
                "replay.queue",
                times.sent[i],
                times.start[i],
                Some(root),
                req,
            );
            r.spans
                .push("cpu.replay", times.start[i], times.end[i], Some(root), req);
            late.push(ns(times.sent[i] - times.due[i]));
            queue.push(ns(times.start[i].saturating_duration_since(times.sent[i])));
            run.push(ns(times.end[i] - times.start[i]));
        }
    }
    let mean_us = |v: &[u64]| mean(&v.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>());
    r.metric("self_us.replay.loadgen", mean_us(&late), "us");
    r.metric("self_us.replay.queue", mean_us(&queue), "us");
    r.metric("self_us.cpu.replay", mean_us(&run), "us");
    let [late, queue, run] = parts.map(sorted);
    let plain_lat_n = plain_lat.len();
    let plain_all = us_p(&sorted(plain_lat), 0.5);
    let traced_p50 = us_p(&sorted(traced_lat), 0.5);
    let rec = Reconciled::of(pairs);
    // Magnitudes, so that lower is better; the signs are in the record.
    r.metric(
        "reconcile.replay_remainder_pct",
        (100.0 * rec.remainder / rec.e2e).abs(),
        "%",
    );
    r.metric(
        "trace.overhead_pct.replay",
        (100.0 * (traced_p50 / plain_all - 1.0)).abs(),
        "%",
    );
    let mut fields = vec![
        ("rate_rps", J::n(rate)),
        ("samples_per_mode", J::u((SLICES * n) as u64)),
        ("reconciled_over", J::s("fourq replays")),
        ("fourq_samples_untraced", J::u(plain_lat_n as u64)),
        ("e2e_p50_us_untraced", J::n(plain_all)),
        ("e2e_p50_us_traced", J::n(traced_p50)),
        ("late_p50_us", J::n(us_p(&late, 0.5))),
        ("queue_p50_us", J::n(us_p(&queue, 0.5))),
        ("replay_p50_us", J::n(us_p(&run, 0.5))),
        (
            "trace_overhead_pct",
            J::n(100.0 * (traced_p50 / plain_all - 1.0)),
        ),
    ];
    fields.extend(rec.fields());
    r.details.push(("reconcile_replay", J::obj(fields)));
    Tally {
        wrong: audit_replays(&pool.items, &seen),
        failed,
        attempted: (2 * SLICES * n) as u64,
        checks_failed: rec.check("replay"),
    }
}

/// Section 3: calibrated loops over the field, curve and signature
/// layers on seeded operands.
fn ledger_section(k: &Kernels, seed: u64, micro: Duration, r: &mut Report) {
    let mut rng = Rng::new(seed, 40);
    let ops: Vec<Fp2> = (0..64).map(|_| Fp2::from_bytes(&rng.bytes32())).collect();
    let mul_ns = time_per_call(micro, |i| {
        black_box(black_box(ops[i % 64]) * black_box(ops[(i + 7) % 64]));
    });
    let sqr_ns = time_per_call(micro, |i| {
        black_box(black_box(ops[i % 64]).square());
    });
    let oc = &k.fourq.fingerprint.op_counts;
    r.metric("fp.fp2_mul_ns", mul_ns, "ns");
    r.metric("fp.fp2_sqr_ns", sqr_ns, "ns");
    r.metric("fp.fp2_mul_per_sm", oc.mul as f64, "count");
    r.metric("fp.fp2_sqr_per_sm", oc.sqr as f64, "count");
    let predicted_us = (oc.mul as f64 * mul_ns + oc.sqr as f64 * sqr_ns) / 1e3;
    r.metric("fp.predicted_field_us_per_sm", predicted_us, "us");

    let eng = FourQEngine::shared();
    let g = AffinePoint::generator();
    let pairs: Vec<(Scalar, AffinePoint)> = (0..64)
        .map(|_| {
            let p = g.mul(&Scalar::from_le_bytes(&rng.bytes32()));
            (Scalar::from_le_bytes(&rng.bytes32()), p)
        })
        .collect();
    let big: Vec<(Scalar, AffinePoint)> = (0..4).flat_map(|_| pairs.iter().copied()).collect();
    let ks: Vec<Scalar> = pairs.iter().map(|(k, _)| *k).collect();
    let per_pt = |n: usize, f: &mut dyn FnMut()| time_per_call(micro, |_| f()) / 1e3 / n as f64;
    r.metric(
        "curve.batch_scalar_mul_us_per_pt",
        per_pt(64, &mut || {
            black_box(eng.batch_scalar_mul(black_box(&pairs)));
        }),
        "us",
    );
    r.metric(
        "curve.batch_fixed_base_us_per_pt",
        per_pt(64, &mut || {
            black_box(eng.batch_fixed_base_mul(black_box(&ks)));
        }),
        "us",
    );
    r.metric(
        "curve.msm_us_per_pt",
        per_pt(big.len(), &mut || {
            black_box(eng.msm(black_box(&big)));
        }),
        "us",
    );
    let mc = MultiCurveEngine::shared();
    for (curve, name) in [
        (CurveId::X25519, "curve.curve_mul_us.x25519"),
        (CurveId::P256, "curve.curve_mul_us.p256"),
    ] {
        let base = mc.generator_encoded(curve);
        let scalars: Vec<[u8; 32]> = (0..16).map(|_| rng.bytes32()).collect();
        let us = time_per_call(micro, |i| {
            black_box(
                mc.curve_mul(curve, &scalars[i % 16], &base)
                    .expect("valid point"),
            );
        }) / 1e3;
        r.metric(name, us, "us");
    }

    let msgs: Vec<Vec<u8>> = (0..64).map(|_| rng.bytes(40)).collect();
    let refs: Vec<&[u8]> = msgs.iter().map(|v| v.as_slice()).collect();
    let signers: Vec<schnorr::KeyPair> = (0..64)
        .map(|_| schnorr::KeyPair::from_seed(&rng.bytes32()))
        .collect();
    let sigs: Vec<schnorr::Signature> = signers
        .iter()
        .zip(&refs)
        .map(|(kp, m)| kp.sign(m))
        .collect();
    let items: Vec<(&schnorr::PublicKey, &[u8], &schnorr::Signature)> = signers
        .iter()
        .zip(&refs)
        .zip(&sigs)
        .map(|((kp, m), s)| (&kp.public, *m, s))
        .collect();
    r.metric(
        "sig.verify_batch_us_per_sig",
        per_pt(64, &mut || {
            assert!(schnorr::verify_batch_with(eng, black_box(&items)));
        }),
        "us",
    );
    let keys =
        fourq_serve::TenantKeys::derive(ServerConfig::default().tenant_root, rng.below(64) as u64);
    r.metric(
        "sig.sign_batch_us_per_sig.schnorr",
        per_pt(64, &mut || {
            black_box(keys.schnorr.sign_batch_with(eng, black_box(&refs)));
        }),
        "us",
    );
    r.metric(
        "sig.sign_batch_us_per_sig.ecdsa",
        per_pt(64, &mut || {
            black_box(
                keys.ecdsa
                    .sign_batch_with(eng, black_box(&refs))
                    .expect("ecdsa sign"),
            );
        }),
        "us",
    );
}

/// One flush the in-process executor ran.
struct Flush {
    start: Instant,
    end: Instant,
    batch: Vec<Pending>,
    out: Vec<(u64, Vec<u8>)>,
}

/// Per-request timestamps of the in-process pipeline (traced mode fills
/// the decode and enqueue stamps; untraced mode leaves them at `due`).
struct Inproc {
    due: Vec<Instant>,
    dec0: Vec<Instant>,
    dec1: Vec<Instant>,
    enq: Vec<Instant>,
    busy: Vec<bool>,
    flushes: Vec<Flush>,
    /// Flush index of each request.
    flush_of: Vec<usize>,
}

impl Inproc {
    /// Due → answered per request, or [`NEVER`].
    fn lat(&self) -> Vec<u64> {
        (0..self.due.len())
            .map(|i| match self.flush_of[i] {
                usize::MAX => NEVER,
                f => ns(self.flushes[f].end.saturating_duration_since(self.due[i])),
            })
            .collect()
    }

    /// Appends a later slice, renumbering its flushes.
    fn append(&mut self, other: Inproc) {
        let off = self.flushes.len();
        self.due.extend(other.due);
        self.dec0.extend(other.dec0);
        self.dec1.extend(other.dec1);
        self.enq.extend(other.enq);
        self.busy.extend(other.busy);
        self.flush_of.extend(other.flush_of.into_iter().map(|f| {
            if f == usize::MAX {
                f
            } else {
                f + off
            }
        }));
        self.flushes.extend(other.flushes);
    }
}

/// The workload's request stream at `rate`, through `decode_request`,
/// `Coalescer::enqueue` / `next_flush` and `execute_flush`, on this thread
/// (generator) and one executor thread — the server's pipeline without
/// the reactor and its sockets.
fn inproc_phase(
    pool: &Pool,
    idx: &[u32],
    rate: f64,
    eng: &MultiCurveEngine,
    tenants: &TenantDirectory,
    cfg: &ServerConfig,
    traced: bool,
) -> Inproc {
    let n = idx.len();
    let frames: Vec<Vec<u8>> = idx
        .iter()
        .enumerate()
        .map(|(id, &i)| encode_request(id as u64, &pool.items[i as usize].req))
        .collect();
    let co: Coalescer<Pending> = Coalescer::new(cfg.window_us, cfg.max_batch, cfg.queue_cap);
    let t0 = Instant::now() + Duration::from_millis(2);
    let due: Vec<Instant> = (0..n).map(|i| load::due(t0, rate, i)).collect();
    let (mut dec0, mut dec1, mut enq) = (due.clone(), due.clone(), due.clone());
    let mut busy = vec![false; n];
    let flushes = std::thread::scope(|s| {
        let exec = s.spawn(|| {
            let mut flushes = Vec::new();
            while let Some(batch) = co.next_flush() {
                let start = Instant::now();
                let out = execute_flush(eng, tenants, &batch);
                let end = Instant::now();
                flushes.push(Flush {
                    start,
                    end,
                    batch,
                    out,
                });
            }
            flushes
        });
        load::pace(t0, rate, n, |lo, hi| {
            for i in lo..hi {
                let a = traced.then(Instant::now);
                let (id, req) = decode_request(&frames[i][4..]).expect("well-formed frame");
                let b = traced.then(Instant::now);
                busy[i] = co.enqueue(Pending { conn: 0, id, req }) != Enqueue::Accepted;
                if let (Some(a), Some(b)) = (a, b) {
                    dec0[i] = a;
                    dec1[i] = b;
                    enq[i] = Instant::now();
                }
            }
        });
        co.close();
        exec.join().expect("executor thread")
    });
    let mut flush_of = vec![usize::MAX; n];
    for (f, fl) in flushes.iter().enumerate() {
        for p in &fl.batch {
            flush_of[p.id as usize] = f;
        }
    }
    Inproc {
        due,
        dec0,
        dec1,
        enq,
        busy,
        flushes,
        flush_of,
    }
}

/// Sum of the p50s of a traced slice's per-request parts, in µs:
/// generator lateness, decode, coalescer wait and flush.
fn explained_p50_us(run: &Inproc) -> f64 {
    let mut parts = [Vec::new(), Vec::new(), Vec::new(), Vec::new()];
    for (i, &f) in run.flush_of.iter().enumerate() {
        if f == usize::MAX {
            continue;
        }
        let fl = &run.flushes[f];
        parts[0].push(ns(run.dec0[i] - run.due[i]));
        parts[1].push(ns(run.dec1[i] - run.dec0[i]));
        parts[2].push(ns(fl.start.saturating_duration_since(run.dec1[i])));
        parts[3].push(ns(fl.end - fl.start));
    }
    parts.map(|v| us_p(&sorted(v), 0.5)).iter().sum()
}

/// Time of one flush's groups through the public batch calls.
#[derive(Default)]
struct GroupTimes {
    /// Time inside the engine and signature batch calls.
    engine_ns: u64,
    groups: usize,
    verify_items: usize,
    fallback_items: usize,
}

/// Re-runs one recorded flush's groups through the engine and signature
/// batch calls, recording a span per group under `root`.
fn rerun_groups(
    batch: &[Pending],
    eng: &MultiCurveEngine,
    tenants: &TenantDirectory,
    spans: &mut Spans,
    root: usize,
    req: u64,
) -> GroupTimes {
    let fq = eng.fourq();
    let mut by: BTreeMap<(u8, u64), Vec<&Request>> = BTreeMap::new();
    for p in batch {
        let key = match &p.req {
            Request::SchnorrSign { tenant, .. } | Request::EcdsaSign { tenant, .. } => *tenant,
            Request::CurveMul { curve, .. } => curve.byte() as u64,
            _ => 0,
        };
        by.entry((p.req.kind().as_u8(), key))
            .or_default()
            .push(&p.req);
    }
    let mut gt = GroupTimes {
        groups: by.len(),
        ..GroupTimes::default()
    };
    for ((_, key), reqs) in &by {
        let t = Instant::now();
        let name: &'static str = match reqs[0] {
            Request::ScalarMul { .. } => {
                let pairs: Vec<(Scalar, AffinePoint)> = reqs
                    .iter()
                    .filter_map(|r| match r {
                        Request::ScalarMul { scalar, point } => {
                            AffinePoint::decode(point).ok().map(|p| (*scalar, p))
                        }
                        _ => None,
                    })
                    .collect();
                black_box(fq.batch_scalar_mul(&pairs));
                "curve.batch_scalar_mul"
            }
            Request::FixedBaseMul { .. } => {
                let ks: Vec<Scalar> = reqs
                    .iter()
                    .filter_map(|r| match r {
                        Request::FixedBaseMul { scalar } => Some(*scalar),
                        _ => None,
                    })
                    .collect();
                black_box(fq.batch_fixed_base_mul(&ks));
                "curve.batch_fixed_base_mul"
            }
            Request::CurveMul { curve, .. } => {
                let items: Vec<([u8; 32], Vec<u8>)> = reqs
                    .iter()
                    .filter_map(|r| match r {
                        Request::CurveMul { scalar, point, .. } => Some((*scalar, point.clone())),
                        _ => None,
                    })
                    .collect();
                black_box(eng.batch_curve_mul(*curve, &items));
                "curve.batch_curve_mul"
            }
            Request::SchnorrSign { .. } | Request::EcdsaSign { .. } => {
                let keys = tenants.resolve(*key);
                let msgs: Vec<&[u8]> = reqs
                    .iter()
                    .filter_map(|r| match r {
                        Request::SchnorrSign { msg, .. } | Request::EcdsaSign { msg, .. } => {
                            Some(msg.as_slice())
                        }
                        _ => None,
                    })
                    .collect();
                if matches!(reqs[0], Request::SchnorrSign { .. }) {
                    black_box(keys.schnorr.sign_batch_with(fq, &msgs));
                    "sig.schnorr_sign_batch"
                } else {
                    black_box(keys.ecdsa.sign_batch_with(fq, &msgs).ok());
                    "sig.ecdsa_sign_batch"
                }
            }
            Request::Ecdh { .. } => {
                black_box(fourq_pool::map_items(
                    reqs,
                    4,
                    fq.threads(),
                    |_, r| match r {
                        Request::Ecdh { tenant, peer } => {
                            tenants.resolve(*tenant).dh.agree(peer).ok()
                        }
                        _ => None,
                    },
                ));
                "sig.dh_agree"
            }
            Request::SchnorrVerify { .. } => {
                let triples: Vec<(schnorr::PublicKey, &[u8], schnorr::Signature)> = reqs
                    .iter()
                    .filter_map(|r| match r {
                        Request::SchnorrVerify {
                            public,
                            sig_r,
                            sig_s,
                            msg,
                        } => AffinePoint::decode(public).ok().map(|point| {
                            (
                                schnorr::PublicKey {
                                    point,
                                    encoded: *public,
                                },
                                msg.as_slice(),
                                schnorr::Signature {
                                    r: *sig_r,
                                    s: *sig_s,
                                },
                            )
                        }),
                        _ => None,
                    })
                    .collect();
                let items: Vec<_> = triples.iter().map(|(pk, m, s)| (pk, *m, s)).collect();
                gt.verify_items += items.len();
                let ok = schnorr::verify_batch_with(fq, &items);
                let mid = Instant::now();
                spans.push("sig.verify_batch", t, mid, Some(root), req);
                gt.engine_ns += ns(mid - t);
                if !ok {
                    gt.fallback_items += items.len();
                    for (pk, m, s) in &items {
                        black_box(schnorr::verify(pk, m, s));
                    }
                    let end = Instant::now();
                    spans.push("sig.verify_fallback", mid, end, Some(root), req);
                    gt.engine_ns += ns(end - mid);
                }
                continue;
            }
            Request::Stats => continue,
        };
        let end = Instant::now();
        spans.push(name, t, end, Some(root), req);
        gt.engine_ns += ns(end - t);
    }
    gt
}

#[allow(clippy::too_many_arguments)]
fn serve_section(
    workload: &str,
    pool: &Pool,
    seed: u64,
    phase_s: f64,
    micro: Duration,
    r: &mut Report,
) -> Tally {
    let cfg = crate::timed::serve_config();
    let rate = rates(workload).low;
    let n = (rate * phase_s).ceil() as usize;
    let mut rng = Rng::new(seed, 50);

    // Over the wire first, untraced: the reference p50 and the server's
    // own counters.
    let server = fourq_serve::spawn(cfg).expect("spawn fourq-serve");
    let warm = pool.draw(&mut rng, cfg.max_batch);
    let warm_out = load::tcp_phase(server.addr(), pool, &warm, 50_000.0);
    let idx_tcp = pool.draw(&mut rng, n);
    let tcp = load::tcp_phase(server.addr(), pool, &idx_tcp, rate);
    let stats = load::wire_stats(server.addr());
    server.shutdown();

    // The same pipeline in-process, with the server's engine and tenants.
    let threads = cfg.threads;
    let eng = MultiCurveEngine::shared().with_threads(threads);
    let tenants = TenantDirectory::new(cfg.tenant_root);
    let mut seen = Seen::new();
    let mut failed = 0u64;
    let slice_n = n.div_ceil(SLICES);
    let mut plain_lat = Vec::new();
    let (mut pairs, mut pair_p50) = (Vec::new(), 0.0);
    let mut traced: Option<Inproc> = None;
    for slice in 0..2 * SLICES {
        let idx = pool.draw(&mut rng, slice_n);
        let run = inproc_phase(pool, &idx, rate, &eng, &tenants, &cfg, slice % 2 == 1);
        failed += run.busy.iter().filter(|&&b| b).count() as u64;
        failed += run.flush_of.iter().filter(|&&f| f == usize::MAX).count() as u64;
        for fl in &run.flushes {
            for (_, frame) in &fl.out {
                let r = decode_response(&frame[4..]).expect("well-formed response");
                match r.status {
                    Status::Ok => *seen.entry((idx[r.id as usize], r.payload)).or_insert(0) += 1,
                    _ => failed += 1,
                }
            }
        }
        if slice % 2 == 0 {
            let lat = run.lat();
            pair_p50 = us_p(&sorted(lat.clone()), 0.5);
            plain_lat.extend(lat);
        } else {
            pairs.push((pair_p50, explained_p50_us(&run)));
            match &mut traced {
                Some(t) => t.append(run),
                None => traced = Some(run),
            }
        }
    }
    let traced = traced.expect("traced slices ran");
    let n = traced.due.len();

    // Child attribution: re-run each recorded flush, whole and by group.
    let mut frac = Vec::with_capacity(traced.flushes.len());
    let (mut groups, mut verify_items, mut fallback_items) = (0usize, 0usize, 0usize);
    for (f, fl) in traced.flushes.iter().enumerate() {
        let a = Instant::now();
        black_box(execute_flush(&eng, &tenants, &fl.batch));
        let b = Instant::now();
        r.spans.push("serve.exec.rerun", a, b, None, f as u64);
        let root_start = Instant::now();
        let root = r
            .spans
            .push("serve.exec.groups", root_start, root_start, None, f as u64);
        let gt = rerun_groups(&fl.batch, &eng, &tenants, &mut r.spans, root, f as u64);
        r.spans.close(root, Instant::now());
        let whole = ns(b - a).max(1) as f64;
        frac.push((gt.engine_ns as f64 / whole).min(1.0));
        groups += gt.groups;
        verify_items += gt.verify_items;
        fallback_items += gt.fallback_items;
    }

    // Thread scaling of the same flushes (bounded re-run).
    let budget = micro * 4;
    let speed = |threads: usize| {
        let e = MultiCurveEngine::shared().with_threads(threads);
        let t = Instant::now();
        let mut k = 0;
        while k < traced.flushes.len() && (k < 8 || t.elapsed() < budget) {
            black_box(execute_flush(&e, &tenants, &traced.flushes[k].batch));
            k += 1;
        }
        (t.elapsed(), k)
    };
    let (t2, k2) = speed(2);
    let e1 = MultiCurveEngine::shared().with_threads(1);
    let t = Instant::now();
    for fl in &traced.flushes[..k2] {
        black_box(execute_flush(&e1, &tenants, &fl.batch));
    }
    let t1 = t.elapsed();

    // Spans and per-request parts of the traced phase.
    let (mut late, mut dec, mut coal, mut flush) = (vec![], vec![], vec![], vec![]);
    let (mut exec_self, mut engine_self) = (vec![], vec![]);
    for i in 0..n {
        let f = traced.flush_of[i];
        if f == usize::MAX {
            continue;
        }
        let fl = &traced.flushes[f];
        let root = r
            .spans
            .push("serve.request", traced.due[i], fl.end, None, i as u64);
        r.spans.push(
            "loadgen.late",
            traced.due[i],
            traced.dec0[i],
            Some(root),
            i as u64,
        );
        r.spans.push(
            "serve.proto.decode",
            traced.dec0[i],
            traced.dec1[i],
            Some(root),
            i as u64,
        );
        r.spans.push(
            "serve.coalescer",
            traced.dec1[i],
            fl.start,
            Some(root),
            i as u64,
        );
        r.spans
            .push("serve.exec.flush", fl.start, fl.end, Some(root), i as u64);
        late.push(ns(traced.dec0[i] - traced.due[i]));
        dec.push(ns(traced.dec1[i] - traced.dec0[i]));
        coal.push(ns(fl.start.saturating_duration_since(traced.dec1[i])));
        let d = ns(fl.end - fl.start);
        flush.push(d);
        engine_self.push(d as f64 * frac[f] / 1e3);
        exec_self.push(d as f64 * (1.0 - frac[f]) / 1e3);
    }
    let mean_us = |v: &[u64]| mean(&v.iter().map(|&x| x as f64 / 1e3).collect::<Vec<_>>());
    r.metric("self_us.loadgen", mean_us(&late), "us");
    r.metric("self_us.serve.proto", mean_us(&dec), "us");
    r.metric("self_us.serve.coalescer", mean_us(&coal), "us");
    r.metric("self_us.serve.exec", mean(&exec_self), "us");
    r.metric("self_us.engine", mean(&engine_self), "us");

    let (late, dec, coal, flush) = (sorted(late), sorted(dec), sorted(coal), sorted(flush));
    let tcp_p50 = us_p(&tcp.sorted_lat(), 0.5);
    let plain_p50 = us_p(&sorted(plain_lat), 0.5);
    let traced_p50 = us_p(&sorted(traced.lat()), 0.5);
    // The traced parts explain the untraced in-process p50, slice pair
    // by slice pair; what TCP adds on top of that is the reactor residual.
    let residual = tcp_p50 - plain_p50;
    let rec = Reconciled::of(pairs);

    // Wire encode/decode cost on this stream.
    let frames: Vec<Vec<u8>> = idx_tcp
        .iter()
        .enumerate()
        .map(|(id, &i)| encode_request(id as u64, &pool.items[i as usize].req))
        .collect();
    let decode_ns = time_per_call(micro, |i| {
        black_box(decode_request(black_box(&frames[i % frames.len()][4..])).ok());
    });
    let responses: Vec<Response> = traced
        .flushes
        .iter()
        .flat_map(|f| f.out.iter())
        .filter_map(|(_, frame)| decode_response(&frame[4..]).ok())
        .collect();
    let encode_ns = time_per_call(micro, |i| {
        black_box(encode_response(black_box(&responses[i % responses.len()])));
    });

    let mut wait: Vec<u64> = (0..n)
        .filter(|&i| traced.flush_of[i] != usize::MAX)
        .map(|i| {
            ns(traced.flushes[traced.flush_of[i]]
                .start
                .saturating_duration_since(traced.enq[i]))
        })
        .collect();
    wait.sort_unstable();
    let flushes_traced = traced.flushes.len().max(1) as f64;
    r.metric("serve.proto.decode_ns", decode_ns, "ns");
    r.metric("serve.proto.encode_ns", encode_ns, "ns");
    r.metric("serve.coalescer.wait_us_p50", us_p(&wait, 0.5), "us");
    r.metric("serve.coalescer.wait_us_p99", us_p(&wait, 0.99), "us");
    let flush_dur = sorted(traced.flushes.iter().map(|f| ns(f.end - f.start)).collect());
    r.metric("serve.exec.flush_us_p50", us_p(&flush_dur, 0.5), "us");
    r.metric("serve.exec.flush_us_p99", us_p(&flush_dur, 0.99), "us");
    r.metric(
        "serve.exec.groups_per_flush",
        groups as f64 / flushes_traced,
        "count",
    );
    r.metric("serve.coalescer.flush_mean", stats.mean_flush(), "count");
    r.metric("serve.coalescer.flush_max", stats.max_flush as f64, "count");
    r.metric(
        "serve.coalescer.busy_rejects",
        stats.busy_rejects as f64,
        "count",
    );
    r.metric("serve.reactor_residual_us", residual, "us");
    let mut late_all: Vec<u64> = tcp.late_ns.clone();
    late_all.sort_unstable();
    r.metric("loadgen.late_ms_p99", ms_at(&late_all, 0.99), "ms");
    r.metric(
        "sig.verify_fallback_ratio",
        fallback_items as f64 / verify_items.max(1) as f64,
        "ratio",
    );
    r.metric(
        "pool.speedup_t2",
        t1.as_secs_f64() / t2.as_secs_f64(),
        "ratio",
    );
    r.metric(
        "reconcile.serve_remainder_pct",
        (100.0 * rec.remainder / rec.e2e).abs(),
        "%",
    );
    r.metric(
        "trace.overhead_pct.serve",
        (100.0 * (traced_p50 / plain_p50 - 1.0)).abs(),
        "%",
    );
    let mut fields = vec![
        ("rate_rps", J::n(rate)),
        ("e2e_p50_us_tcp", J::n(tcp_p50)),
        ("inproc_p50_us_untraced", J::n(plain_p50)),
        ("inproc_p50_us_traced", J::n(traced_p50)),
        ("loadgen_late_p50_us", J::n(us_p(&late, 0.5))),
        ("proto_decode_p50_us", J::n(us_p(&dec, 0.5))),
        ("coalescer_p50_us", J::n(us_p(&coal, 0.5))),
        ("exec_flush_p50_us", J::n(us_p(&flush, 0.5))),
        ("reactor_residual_us", J::n(residual)),
        (
            "trace_overhead_pct",
            J::n(100.0 * (traced_p50 / plain_p50 - 1.0)),
        ),
        ("tcp", phase_json(&tcp)),
        ("flushes_traced", J::u(traced.flushes.len() as u64)),
        ("speedup_flushes", J::u(k2 as u64)),
        ("exec_threads", J::u(threads as u64)),
    ];
    fields.extend(rec.fields());
    r.details.push(("reconcile_serve", J::obj(fields)));

    // Audit: the TCP answers join the in-process ones.
    for (mut p, idx) in [(warm_out, &warm), (tcp, &idx_tcp)] {
        failed += inputs::collect(&mut seen, idx, &mut p.answers) as u64;
    }
    Tally {
        wrong: inputs::audit(pool, &cfg, &seen) as u64,
        failed,
        attempted: (warm.len() + idx_tcp.len() + 2 * SLICES * slice_n) as u64,
        checks_failed: rec.check("serve"),
    }
}

pub fn run(workload: &str, seed: u64, secs: f64) -> Outcome {
    let phase_s = 0.12 * secs;
    let micro = Duration::from_secs_f64((0.01 * secs).max(0.05));
    let replay_pool = ReplayPool::new(seed);
    let serve_pool = match workload {
        "serve_verify" => inputs::verify_pool(seed),
        "serve_mixed" => inputs::mixed_pool(seed),
        _ => replay_pool.serve_pool(),
    };
    let mut r = Report {
        spans: Spans::new(Instant::now()),
        metrics: Vec::new(),
        details: Vec::new(),
    };
    let kernels = compile_section(&mut r);
    let rs = replay_section(&kernels, &replay_pool, seed, phase_s, micro, &mut r);
    ledger_section(&kernels, seed, micro, &mut r);
    let ss = serve_section(workload, &serve_pool, seed, phase_s, micro, &mut r);

    // Self time per span name, over every span recorded.
    let selfs = r.spans.self_times();
    let mut by_name: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for (s, t) in r.spans.rows.iter().zip(&selfs) {
        let e = by_name.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += t;
    }
    r.details.push((
        "span_self_time",
        J::obj(
            by_name
                .iter()
                .map(|(k, (n, t))| {
                    (
                        *k,
                        J::obj(vec![
                            ("spans", J::u(*n)),
                            ("self_ms", J::n(*t as f64 / 1e6)),
                        ]),
                    )
                })
                .collect(),
        ),
    ));
    r.details
        .push(("spans_recorded", J::u(r.spans.rows.len() as u64)));
    let dir = std::path::Path::new(crate::OUT_DIR);
    let path = dir.join(format!("spans-{workload}-seed{seed}.jsonl"));
    if std::fs::create_dir_all(dir)
        .and_then(|_| r.spans.write_jsonl(&path))
        .is_err()
    {
        eprintln!("could not write {}", path.display());
    }
    Outcome {
        metrics: r.metrics,
        ungated: Vec::new(),
        attempted: rs.attempted + ss.attempted,
        failed: rs.failed + ss.failed + rs.wrong + ss.wrong,
        wrong: rs.wrong + ss.wrong,
        checks_failed: rs
            .checks_failed
            .into_iter()
            .chain(ss.checks_failed)
            .collect(),
        details: r.details,
    }
}
