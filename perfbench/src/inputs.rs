//! Seeded inputs for every workload, and the independent answers each
//! response or replay is audited against.

use crate::util::Rng;
use fourq_curve::{AffinePoint, CurveId, FourQEngine, MultiCurveEngine};
use fourq_fp::{Scalar, U256};
use fourq_hash::Sha512;
use fourq_serve::proto::{encode_request, Request, Status};
use fourq_serve::{ServerConfig, TenantKeys};
use fourq_sig::{ecdsa, schnorr};
use std::collections::HashMap;

/// Distinct requests per serve pool; each phase draws from it.
const SERVE_POOL: usize = 8192;
/// Distinct (base, scalar) pairs in the replay pool.
const REPLAY_POOL: usize = 2048;
/// Seed-generated points per curve, of which the first `HOT` are hot.
const POINTS: usize = 256;
const HOT: usize = 4;

/// One pool entry of a serve workload.
#[derive(Clone)]
pub struct Item {
    pub req: Request,
    /// Known verdict of a `SchnorrVerify` (false for forgeries).
    pub verdict: bool,
    /// Secret scalar behind an `Ecdh` peer point, for the audit.
    pub peer_secret: Option<Scalar>,
    /// Whether the request names one of the hot points.
    pub hot: bool,
}

/// A seeded request pool plus what it shares.
pub struct Pool {
    pub items: Vec<Item>,
    pub tenants: u64,
    pub forged: usize,
}

impl Pool {
    /// Share of pool entries that name a hot point.
    pub fn hot_share(&self) -> f64 {
        self.items.iter().filter(|i| i.hot).count() as f64 / self.items.len() as f64
    }

    /// Seeded draw of `n` pool indices for one phase.
    pub fn draw(&self, rng: &mut Rng, n: usize) -> Vec<u32> {
        (0..n).map(|_| rng.below(self.items.len()) as u32).collect()
    }

    /// Encodes the drawn requests as one contiguous byte stream with ids
    /// `0..n`; returns the bytes and the end offset of each frame.
    pub fn encode(&self, idx: &[u32]) -> (Vec<u8>, Vec<usize>) {
        let mut bytes = Vec::with_capacity(idx.len() * 96);
        let mut ends = Vec::with_capacity(idx.len());
        for (id, &i) in idx.iter().enumerate() {
            bytes.extend_from_slice(&encode_request(id as u64, &self.items[i as usize].req));
            ends.push(bytes.len());
        }
        (bytes, ends)
    }
}

fn scalar(rng: &mut Rng) -> Scalar {
    Scalar::from_le_bytes(&rng.bytes32())
}

/// A Fourℚ point `[k]G` with its secret, X25519 and P-256 points in wire
/// form.
pub struct Points {
    pub fourq: Vec<(Scalar, [u8; 32])>,
    pub x25519: Vec<Vec<u8>>,
    pub p256: Vec<Vec<u8>>,
}

impl Points {
    pub fn new(rng: &mut Rng) -> Points {
        let mc = MultiCurveEngine::shared();
        let ks: Vec<[u8; 32]> = (0..3 * POINTS).map(|_| rng.bytes32()).collect();
        let g = AffinePoint::generator();
        let fourq = fourq_pool::map_items(&ks[..POINTS], 8, 2, |_, k| {
            let k = Scalar::from_le_bytes(k);
            (k, g.mul(&k).encode())
        });
        let on = |curve: CurveId, ks: &[[u8; 32]]| {
            let base = mc.generator_encoded(curve);
            fourq_pool::map_items(ks, 8, 2, |_, k| {
                mc.curve_mul(curve, k, &base).expect("generator multiple")
            })
        };
        Points {
            fourq,
            x25519: on(CurveId::X25519, &ks[POINTS..2 * POINTS]),
            p256: on(CurveId::P256, &ks[2 * POINTS..]),
        }
    }

    /// Half the picks land on the `HOT` hot points.
    pub fn pick(rng: &mut Rng) -> (usize, bool) {
        if rng.chance(0.5) {
            (rng.below(HOT), true)
        } else {
            let i = rng.below(POINTS);
            (i, i < HOT)
        }
    }
}

/// A signed verify tuple from a fresh seed-generated signer; `forge`
/// breaks it so the known verdict is false.
fn verify_item(seed: &[u8; 32], msg: &[u8], forge: Option<bool>) -> Item {
    let kp = schnorr::KeyPair::from_seed(seed);
    let sig = kp.sign(msg);
    let (mut msg, mut sig_r) = (msg.to_vec(), sig.r);
    match forge {
        Some(true) => msg[0] ^= 1,
        Some(false) => sig_r[5] ^= 0x40,
        None => {}
    }
    Item {
        req: Request::SchnorrVerify {
            public: kp.public.encoded,
            sig_r,
            sig_s: sig.s,
            msg,
        },
        verdict: forge.is_none(),
        peer_secret: None,
        hot: false,
    }
}

fn item(req: Request, hot: bool) -> Item {
    Item {
        req,
        verdict: true,
        peer_secret: None,
        hot,
    }
}

/// A pool entry drawn from the seed: ready, or a verify tuple whose
/// signer is still to be derived (that part runs on two threads).
enum Spec {
    Ready(Item),
    Verify {
        seed: [u8; 32],
        msg: Vec<u8>,
        forge: Option<bool>,
    },
}

fn build(specs: &[Spec]) -> Vec<Item> {
    fourq_pool::map_items(specs, 32, 2, |_, s| match s {
        Spec::Ready(item) => item.clone(),
        Spec::Verify { seed, msg, forge } => verify_item(seed, msg, *forge),
    })
}

/// `serve_verify`: ~80 % verifies over distinct signers with ~0.5 %
/// forgeries, ~20 % Schnorr signs across 64 tenants.
pub fn verify_pool(seed: u64) -> Pool {
    let mut rng = Rng::new(seed, 1);
    let specs: Vec<Spec> = (0..SERVE_POOL)
        .map(|_| {
            if rng.chance(0.8) {
                let forge = rng.chance(0.005).then(|| rng.chance(0.5));
                let len = 24 + rng.below(40);
                Spec::Verify {
                    seed: rng.bytes32(),
                    msg: rng.bytes(len),
                    forge,
                }
            } else {
                let len = 16 + rng.below(48);
                Spec::Ready(item(
                    Request::SchnorrSign {
                        tenant: rng.below(64) as u64,
                        msg: rng.bytes(len),
                    },
                    false,
                ))
            }
        })
        .collect();
    let items = build(&specs);
    let forged = items
        .iter()
        .filter(|i| matches!(i.req, Request::SchnorrVerify { .. }) && !i.verdict)
        .count();
    Pool {
        items,
        tenants: 64,
        forged,
    }
}

/// `serve_mixed`: all seven op kinds, weighted toward variable base, over
/// a 256-point pool per curve with half the picks on 4 hot points.
pub fn mixed_pool(seed: u64) -> Pool {
    let mut rng = Rng::new(seed, 2);
    let pts = Points::new(&mut rng);
    let mut specs = Vec::with_capacity(SERVE_POOL);
    for _ in 0..SERVE_POOL {
        let roll = rng.below(100);
        let tenant = rng.below(8) as u64;
        let len = 16 + rng.below(48);
        let (pi, hot) = Points::pick(&mut rng);
        let spec = match roll {
            0..=24 => Spec::Ready(item(
                Request::ScalarMul {
                    scalar: scalar(&mut rng),
                    point: pts.fourq[pi].1,
                },
                hot,
            )),
            25..=44 => Spec::Ready(Item {
                peer_secret: Some(pts.fourq[pi].0),
                ..item(
                    Request::Ecdh {
                        tenant,
                        peer: pts.fourq[pi].1,
                    },
                    hot,
                )
            }),
            45..=59 => Spec::Ready(item(
                Request::FixedBaseMul {
                    scalar: scalar(&mut rng),
                },
                false,
            )),
            60..=74 => {
                let (curve, point) = if rng.chance(0.5) {
                    (CurveId::X25519, pts.x25519[pi].clone())
                } else {
                    (CurveId::P256, pts.p256[pi].clone())
                };
                let scalar = rng.bytes32();
                Spec::Ready(item(
                    Request::CurveMul {
                        curve,
                        scalar,
                        point,
                    },
                    hot,
                ))
            }
            75..=84 => Spec::Ready(item(
                Request::EcdsaSign {
                    tenant,
                    msg: rng.bytes(len),
                },
                false,
            )),
            85..=94 => Spec::Ready(item(
                Request::SchnorrSign {
                    tenant,
                    msg: rng.bytes(len),
                },
                false,
            )),
            _ => Spec::Verify {
                seed: rng.bytes32(),
                msg: rng.bytes(len),
                forge: None,
            },
        };
        specs.push(spec);
    }
    Pool {
        items: build(&specs),
        tenants: 8,
        forged: 0,
    }
}

/// One compiled-kernel replay input.
#[derive(Clone)]
pub enum Replay {
    FourQ { base: AffinePoint, k: Scalar },
    X25519 { k: [u8; 32], u: [u8; 32] },
    P256 { k: [u8; 32], point: [u8; 64] },
}

impl Replay {
    pub fn curve(&self) -> CurveId {
        match self {
            Replay::FourQ { .. } => CurveId::FourQ,
            Replay::X25519 { .. } => CurveId::X25519,
            Replay::P256 { .. } => CurveId::P256,
        }
    }

    /// The same multiplication as a `fourq-serve` request.
    pub fn request(&self) -> Request {
        match self {
            Replay::FourQ { base, k } => Request::ScalarMul {
                scalar: *k,
                point: base.encode(),
            },
            Replay::X25519 { k, u } => Request::CurveMul {
                curve: CurveId::X25519,
                scalar: *k,
                point: u.to_vec(),
            },
            Replay::P256 { k, point } => Request::CurveMul {
                curve: CurveId::P256,
                scalar: *k,
                point: point.to_vec(),
            },
        }
    }

    /// The native answer, in the replay's output encoding.
    pub fn native(&self) -> Vec<u8> {
        let mc = MultiCurveEngine::shared();
        match self {
            Replay::FourQ { base, k } => base.mul(k).encode().to_vec(),
            Replay::X25519 { k, u } => mc.x25519().ladder(k, u).to_vec(),
            Replay::P256 { k, point } => mc
                .curve_mul(CurveId::P256, k, point)
                .expect("pool point is on the curve"),
        }
    }
}

/// The replay pool in the capacity planner's 50/30/20 Fourℚ/X25519/P-256
/// mix, plus a serve pool carrying the same multiplications as requests.
pub struct ReplayPool {
    pub items: Vec<Replay>,
    pub hot: Vec<bool>,
}

impl ReplayPool {
    pub fn new(seed: u64) -> ReplayPool {
        let mut rng = Rng::new(seed, 3);
        let pts = Points::new(&mut rng);
        let mut items = Vec::with_capacity(REPLAY_POOL);
        let mut hot = Vec::with_capacity(REPLAY_POOL);
        for _ in 0..REPLAY_POOL {
            let (pi, h) = Points::pick(&mut rng);
            let roll = rng.below(10);
            let item = match roll {
                0..=4 => Replay::FourQ {
                    base: AffinePoint::decode(&pts.fourq[pi].1).expect("pool point"),
                    k: scalar(&mut rng),
                },
                5..=7 => Replay::X25519 {
                    k: rng.bytes32(),
                    u: pts.x25519[pi].clone().try_into().expect("32-byte u"),
                },
                _ => Replay::P256 {
                    k: U256::from_le_bytes(&rng.bytes32()).to_le_bytes(),
                    point: pts.p256[pi].clone().try_into().expect("64-byte point"),
                },
            };
            items.push(item);
            hot.push(h);
        }
        ReplayPool { items, hot }
    }

    pub fn hot_share(&self) -> f64 {
        self.hot.iter().filter(|&&h| h).count() as f64 / self.hot.len() as f64
    }

    pub fn serve_pool(&self) -> Pool {
        Pool {
            items: self
                .items
                .iter()
                .zip(&self.hot)
                .map(|(r, &hot)| item(r.request(), hot))
                .collect(),
            tenants: 0,
            forged: 0,
        }
    }
}

/// Tenant public keys, derived once per audited tenant.
struct Tenants {
    root: u64,
    keys: HashMap<u64, TenantKeys>,
}

impl Tenants {
    fn get(&mut self, t: u64) -> &TenantKeys {
        let root = self.root;
        self.keys
            .entry(t)
            .or_insert_with(|| TenantKeys::derive(root, t))
    }
}

/// Independent check of one `Ok` response payload.
fn check(item: &Item, payload: &[u8], keys: &TenantKeys) -> bool {
    let eng = FourQEngine::shared();
    match &item.req {
        Request::ScalarMul { scalar, point } => AffinePoint::decode(point)
            .is_ok_and(|p| eng.scalar_mul(&p, scalar).encode()[..] == *payload),
        Request::FixedBaseMul { scalar } => {
            eng.scalar_mul(&AffinePoint::generator(), scalar).encode()[..] == *payload
        }
        Request::SchnorrSign { msg, .. } => {
            if payload.len() != 64 {
                return false;
            }
            let sig = schnorr::Signature {
                r: payload[..32].try_into().expect("32 bytes"),
                s: Scalar::from_le_bytes(payload[32..].try_into().expect("32 bytes")),
            };
            schnorr::verify(&keys.schnorr.public, msg, &sig)
        }
        Request::EcdsaSign { msg, .. } => {
            if payload.len() != 64 {
                return false;
            }
            let sig = ecdsa::Signature {
                r: Scalar::from_le_bytes(payload[..32].try_into().expect("32 bytes")),
                s: Scalar::from_le_bytes(payload[32..].try_into().expect("32 bytes")),
            };
            ecdsa::verify(&keys.ecdsa.public, msg, &sig)
        }
        Request::SchnorrVerify { .. } => payload == [item.verdict as u8],
        Request::Ecdh { .. } => {
            // Agreement from the other side: [392·k]·T with the peer's
            // secret k and the tenant's public point T.
            let k = item.peer_secret.expect("ecdh items carry the peer secret");
            let tenant_pub = AffinePoint::decode(&keys.dh.public).expect("tenant public key");
            let shared = tenant_pub.mul(&k).mul_u256_generic(&U256::from_u64(392));
            Sha512::digest(&shared.encode())[..] == *payload
        }
        Request::CurveMul {
            curve,
            scalar,
            point,
        } => MultiCurveEngine::shared()
            .curve_mul(*curve, scalar, point)
            .is_ok_and(|want| want == payload),
        Request::Stats => false,
    }
}

fn tenant_of(req: &Request) -> u64 {
    match req {
        Request::SchnorrSign { tenant, .. }
        | Request::EcdsaSign { tenant, .. }
        | Request::Ecdh { tenant, .. } => *tenant,
        _ => 0,
    }
}

/// Distinct `Ok` answers seen, `(pool index, payload)` → count.
pub type Seen = HashMap<(u32, Vec<u8>), usize>;

/// Moves the `Ok` payloads of one phase into `seen` (keeping the
/// statuses); returns how many requests had no `Ok` answer.
pub fn collect(seen: &mut Seen, idx: &[u32], answers: &mut [Option<(Status, Vec<u8>)>]) -> usize {
    let mut not_ok = 0;
    for (a, &i) in answers.iter_mut().zip(idx) {
        match a {
            Some((Status::Ok, payload)) => {
                *seen.entry((i, std::mem::take(payload))).or_insert(0) += 1;
            }
            _ => not_ok += 1,
        }
    }
    not_ok
}

/// Audits every distinct `Ok` answer against the independent path;
/// returns how many answers were wrong.
pub fn audit(pool: &Pool, cfg: &ServerConfig, seen: &Seen) -> usize {
    let pairs: Vec<(&(u32, Vec<u8>), &usize)> = seen.iter().collect();
    let mut tenants = Tenants {
        root: cfg.tenant_root,
        keys: HashMap::new(),
    };
    for ((i, _), _) in &pairs {
        tenants.get(tenant_of(&pool.items[*i as usize].req));
    }
    let tenants = &tenants.keys;
    let verdicts = fourq_pool::map_items(&pairs, 16, 2, |_, ((i, p), _)| {
        let item = &pool.items[*i as usize];
        check(item, p, &tenants[&tenant_of(&item.req)])
    });
    pairs
        .iter()
        .zip(verdicts)
        .filter(|(_, ok)| !ok)
        .map(|((_, n), _)| **n)
        .sum()
}
