//! The data-path workloads: one PON tree's TDMA cycle at a time, from
//! grant to delivery at the edge.
//!
//! Per cycle (closed loop, one caller, the next cycle starts only after the
//! previous one is delivered):
//!
//! 1. `tdma::compute_grants_into` turns the tree's per-ONU demand into
//!    grants; each grant is filled with whole frames of the workload's
//!    payload size, cut from a seeded payload pool;
//! 2. `GemCrypto::encrypt_downstream_burst` seals the burst under the
//!    per-port GEM keys and the far side's `GemCrypto::decrypt_many` opens
//!    it (with GEM attacks spliced in on `dp-hostile`);
//! 3. the OLT uplink's `MacsecPeer::protect_many` protects what came
//!    through and the edge's `MacsecPeer::validate_many` validates it (with
//!    MACsec attacks spliced in on `dp-hostile`);
//! 4. after the cycle's clock stops, the oracle compares every delivered
//!    payload with the one offered at step 1.

use std::time::Instant;

use genio_crypto::gcm::AesGcm;
use genio_netsec::macsec::{MacsecConfig, MacsecFrame, MacsecPeer};
use genio_pon::frame::{DownstreamFrame, GemPort};
use genio_pon::security::GemCrypto;
use genio_pon::tdma::{
    compute_grants_into, BandwidthRequest, BatchGrants, DbaConfig, ServiceClass,
};
use genio_pon::topology::OnuId;
use genio_telemetry::{Telemetry, TraceContext};

use crate::budget::{ratio, Tracer};
use crate::inputs::{derive, mix64, Digest, SplitMix};
use crate::oracle::{self, check_delivery, classify_netsec, classify_pon, Class, Expect, Tally};
use crate::stats::{median, quantile, rss_peak_mb, secs, Blocks, HostSpeed};
use crate::{out_dir, Args, Outcome, ROOT_SPAN};

/// ONUs per tree (one GEM port each).
const ONUS: u32 = 64;
/// Distinct cycle inputs per tree; cycle `k` of a tree uses slot `k % SCHEDULE`.
const SCHEDULE: usize = 256;
const POOL_BYTES: usize = 1 << 20;
/// Distance between consecutive frames' payloads in the pool.
const FRAME_STRIDE: usize = 4099;
const WARMUP_SECONDS: f64 = 0.3;

// dp-hostile schedule.
const REKEY_EVERY: u64 = 16;
const REKEY_PORTS: usize = 8;
const SAK_FRAMES: u64 = 4096;
const GEM_REPLAY_ONE_IN: u64 = 8;
const GEM_FLIP_ONE_IN: u64 = 64;
const MAC_REPLAY_ONE_IN: u64 = 32;
const MAC_FLIP_ONE_IN: u64 = 64;
const REPLAY_WINDOW: u64 = 64;

const UPLINK_SCI: u64 = 0x0a1e;
const EDGE_SCI: u64 = 0xed9e;

// Child span slots under a cycle root.
const SLOT_REKEY: u64 = 0;
const SLOT_ROTATE: u64 = 1;
const SLOT_GRANT: u64 = 2;
const SLOT_SEAL: u64 = 3;
const SLOT_OPEN: u64 = 4;
const SLOT_PROTECT: u64 = 5;
const SLOT_VALIDATE: u64 = 6;

const STAGE_GEM: u64 = 1;
const STAGE_MAC: u64 = 2;

/// The DBA every tree runs: XGS-PON cycle and upstream rate.
const DBA: DbaConfig = DbaConfig {
    cycle_ns: 125_000,
    bytes_per_ns: 1.25,
    max_share: 0.5,
};

#[derive(Debug, Clone, Copy)]
struct Shape {
    trees: usize,
    payload: usize,
    hostile: bool,
}

fn shape(workload: &str) -> Shape {
    match workload {
        "dp-large" => Shape {
            trees: 8,
            payload: 1500,
            hostile: false,
        },
        "dp-hostile" => Shape {
            trees: 1,
            payload: 64,
            hostile: true,
        },
        _ => Shape {
            trees: 1,
            payload: 64,
            hostile: false,
        },
    }
}

fn port_of(onu: OnuId) -> GemPort {
    1024 + onu as GemPort
}

/// Traffic model: a frozen copy of the fleet engine's own model
/// (`genio_pon::engine::demand_bytes` and `service_class` as of this
/// benchmark), drawn from the benchmark's streams instead of calling them.
/// Demand is `DEMAND_MIN + U(DEMAND_SPAN)` bytes per ONU per cycle; the
/// service class is fixed per ONU, Fixed : Assured : BestEffort = 1 : 1 : 2.
/// The fleet's greedy ONUs are an attack knob of its configuration and are
/// not part of this traffic.
const DEMAND_MIN: u64 = 1_000;
const DEMAND_SPAN: u64 = 8_000;

fn class_of(draw: u64) -> ServiceClass {
    match draw {
        0 => ServiceClass::Fixed,
        1 => ServiceClass::Assured,
        _ => ServiceClass::BestEffort,
    }
}

/// One tree's inputs for one cycle slot.
struct CycleInput {
    requests: Vec<BandwidthRequest>,
    /// Pool offset of the cycle's first payload.
    base: usize,
    /// ONUs whose GEM port re-keys at the start of the cycle (`dp-hostile`).
    rekey: Vec<OnuId>,
}

struct Inputs {
    shape: Shape,
    pool: Vec<u8>,
    /// Tree-major: tree `t`, slot `s` at `t * SCHEDULE + s`.
    cycles: Vec<CycleInput>,
    masters: Vec<[u8; 16]>,
    cak_seed: u64,
    attack_seed: u64,
    trace_seed: u64,
    digest: u64,
}

impl Inputs {
    fn generate(workload: &str, seed: u64) -> Inputs {
        let shape = shape(workload);
        let mut pool = vec![0u8; POOL_BYTES];
        SplitMix::new(derive(seed, "pool", 0)).fill(&mut pool);
        let mut cycles = Vec::with_capacity(shape.trees * SCHEDULE);
        for t in 0..shape.trees as u64 {
            let mut rng = SplitMix::new(derive(seed, "classes", t));
            let classes: Vec<ServiceClass> = (0..ONUS).map(|_| class_of(rng.below(4))).collect();
            let mut rng = SplitMix::new(derive(seed, "cycles", t));
            for _ in 0..SCHEDULE {
                let requests = (0..ONUS)
                    .map(|onu| BandwidthRequest {
                        onu,
                        queued_bytes: DEMAND_MIN + rng.below(DEMAND_SPAN),
                        class: classes[onu as usize],
                    })
                    .collect();
                let base = rng.below(POOL_BYTES as u64) as usize;
                let mut onus: Vec<OnuId> = (0..ONUS).collect();
                for i in 0..REKEY_PORTS {
                    let j = i + rng.below((onus.len() - i) as u64) as usize;
                    onus.swap(i, j);
                }
                onus.truncate(if shape.hostile { REKEY_PORTS } else { 0 });
                cycles.push(CycleInput {
                    requests,
                    base,
                    rekey: onus,
                });
            }
        }
        let masters = (0..shape.trees as u64)
            .map(|t| {
                let mut key = [0u8; 16];
                SplitMix::new(derive(seed, "gem-master", t)).fill(&mut key);
                key
            })
            .collect();
        let mut inputs = Inputs {
            shape,
            pool,
            cycles,
            masters,
            cak_seed: derive(seed, "cak", 0),
            attack_seed: derive(seed, "attacks", 0),
            trace_seed: derive(seed, "trace", 0),
            digest: 0,
        };
        inputs.digest = inputs.digest(workload);
        inputs
    }

    /// FNV-1a over everything the program receives, in a fixed order.
    fn digest(&self, workload: &str) -> u64 {
        let mut d = Digest::new();
        d.bytes(workload.as_bytes());
        for v in [
            self.shape.trees,
            self.shape.payload,
            usize::from(self.shape.hostile),
        ] {
            d.u64(v as u64);
        }
        d.bytes(&self.pool);
        for c in &self.cycles {
            for r in &c.requests {
                d.u64(u64::from(r.onu));
                d.u64(r.queued_bytes);
                d.u64(r.class as u64);
            }
            d.u64(c.base as u64);
            c.rekey.iter().for_each(|&o| d.u64(u64::from(o)));
        }
        self.masters.iter().for_each(|m| d.bytes(m));
        for epoch in 0..16 {
            d.bytes(&self.cak(epoch));
        }
        if self.shape.hostile {
            let max_frames =
                (DBA.cycle_ns as f64 * DBA.bytes_per_ns) as u64 / self.shape.payload as u64 + 1;
            for t in 0..self.shape.trees as u64 {
                for slot in 0..SCHEDULE as u64 {
                    for i in 0..max_frames {
                        for stage in [STAGE_GEM, STAGE_MAC] {
                            d.u64(self.attack_word(stage, t, slot, i).unwrap_or(0));
                        }
                    }
                }
            }
        }
        d.finish()
    }

    /// The CAK of connectivity association `epoch` on the uplink.
    fn cak(&self, epoch: u64) -> [u8; 16] {
        let mut cak = [0u8; 16];
        SplitMix::new(mix64(self.cak_seed ^ epoch)).fill(&mut cak);
        cak
    }

    /// Attack decisions for frame `i` of a stage's burst on `dp-hostile`
    /// (none elsewhere): the low bits pick a replay, the next a bit flip,
    /// the high half the flipped bit.
    fn attack_word(&self, stage: u64, tree: u64, slot: u64, i: u64) -> Option<u64> {
        self.shape
            .hostile
            .then(|| mix64(self.attack_seed ^ (stage << 62) ^ (tree << 48) ^ (slot << 32) ^ i))
    }
}

fn flip_bit(data: &mut [u8], word: u64) {
    let bit = (word >> 32) as usize % (data.len() * 8);
    data[bit / 8] ^= 1 << (bit % 8);
}

struct Tree {
    tx: GemCrypto,
    rx: GemCrypto,
    grants: BatchGrants,
    cycles: u64,
}

/// The MACsec hop from the OLT uplink to the edge.
struct Link {
    uplink: MacsecPeer,
    edge: MacsecPeer,
    epoch: u64,
    /// Frames protected under the current SAK.
    on_sak: u64,
    /// Rejection counters of edge peers retired with their association.
    retired: (u64, u64),
}

impl Link {
    fn new(cak: &[u8]) -> Result<Link, String> {
        let cfg = MacsecConfig::default();
        Ok(Link {
            uplink: MacsecPeer::new(UPLINK_SCI, &cfg, cak)
                .map_err(|e| format!("macsec peer: {e}"))?,
            edge: MacsecPeer::new(EDGE_SCI, &cfg, cak).map_err(|e| format!("macsec peer: {e}"))?,
            epoch: 0,
            on_sak: 0,
            retired: (0, 0),
        })
    }

    /// Edge rejections so far: (replay, integrity), from the peers' public
    /// counters.
    fn rejected(&self) -> (u64, u64) {
        (
            self.retired.0 + self.edge.rejected_replay,
            self.retired.1 + self.edge.rejected_integrity,
        )
    }

    /// Installs the next SAK. A CAK yields one SAK per association number
    /// (four), so once AN 3 is in use the link starts a new connectivity
    /// association with the next CAK instead of reusing AN 0's key.
    fn rotate(&mut self, inputs: &Inputs) -> Result<(), String> {
        if self.uplink.current_an() == 3 {
            let rejected = self.rejected();
            let epoch = self.epoch + 1;
            *self = Link::new(&inputs.cak(epoch))?;
            self.epoch = epoch;
            self.retired = rejected;
        } else {
            self.uplink
                .rotate_sak()
                .map_err(|e| format!("rotate_sak: {e}"))?;
            self.on_sak = 0;
        }
        Ok(())
    }
}

struct State {
    trees: Vec<Tree>,
    link: Link,
}

/// The program-side set-up `setup_s` times: every GEM port keyed on both
/// sides of every tree, plus the MACsec peers.
fn setup(inputs: &Inputs) -> Result<State, String> {
    let trees = inputs
        .masters
        .iter()
        .map(|master| {
            let mut tx = GemCrypto::new(master);
            let mut rx = GemCrypto::new(master);
            for onu in 0..ONUS {
                tx.establish_key(port_of(onu), onu);
                rx.establish_key(port_of(onu), onu);
            }
            Tree {
                tx,
                rx,
                grants: BatchGrants::new(),
                cycles: 0,
            }
        })
        .collect();
    Ok(State {
        trees,
        link: Link::new(&inputs.cak(0))?,
    })
}

/// Work counts of one or more cycles, for the per-layer ratios.
#[derive(Debug, Default, Clone, Copy)]
struct Counts {
    cycles: u64,
    granted: u64,
    carried: u64,
    frames: u64,
    port_runs: u64,
    gem_opened: u64,
    mac_protected: u64,
    mac_validated: u64,
    rekeyed_ports: u64,
    rotations: u64,
    delivered_bytes: u64,
    cycle_ns: u64,
}

impl Counts {
    fn add(&mut self, o: &Counts) {
        self.cycles += o.cycles;
        self.granted += o.granted;
        self.carried += o.carried;
        self.frames += o.frames;
        self.port_runs += o.port_runs;
        self.gem_opened += o.gem_opened;
        self.mac_protected += o.mac_protected;
        self.mac_validated += o.mac_validated;
        self.rekeyed_ports += o.rekeyed_ports;
        self.rotations += o.rotations;
        self.delivered_bytes += o.delivered_bytes;
        self.cycle_ns += o.cycle_ns;
    }
}

type Item<'a> = (GemPort, OnuId, &'a [u8]);

struct Cycle<'a> {
    items: Vec<Item<'a>>,
    tally: Tally,
    counts: Counts,
}

/// Runs of consecutive items with the same (port, target). This is a
/// property of the offered burst, not a count of the program's AEAD calls;
/// it shapes the bare GEM calls in [`Bare`].
fn runs<'s, 'a>(items: &'s [Item<'a>]) -> impl Iterator<Item = &'s [Item<'a>]> {
    items.chunk_by(|a, b| a.0 == b.0 && a.1 == b.1)
}

impl State {
    /// Carries global cycle `k` (tree `k % trees`) from grant to delivery.
    fn cycle<'a>(
        &mut self,
        inputs: &'a Inputs,
        k: u64,
        tele: &Telemetry,
    ) -> Result<Cycle<'a>, String> {
        let State { trees, link } = self;
        let t = (k % trees.len() as u64) as usize;
        let tree = &mut trees[t];
        let kt = tree.cycles;
        tree.cycles += 1;
        let slot = kt % SCHEDULE as u64;
        let input = &inputs.cycles[t * SCHEDULE + slot as usize];
        let hostile = inputs.shape.hostile;
        let payload = inputs.shape.payload;
        let mut tally = Tally::default();
        let mut c = Counts {
            cycles: 1,
            ..Counts::default()
        };
        let root = if tele.is_enabled() {
            TraceContext::root(mix64(inputs.trace_seed ^ k))
        } else {
            TraceContext::default()
        };

        let start = Instant::now();
        let root_span = tele.span_at(ROOT_SPAN, root);
        if hostile && kt > 0 && kt % REKEY_EVERY == 0 {
            let _span = tele.span_at("pon.security.rekey", root.child(SLOT_REKEY));
            for &onu in &input.rekey {
                tree.tx.establish_key(port_of(onu), onu);
                tree.rx.establish_key(port_of(onu), onu);
            }
            c.rekeyed_ports = input.rekey.len() as u64;
        }
        if hostile && link.on_sak >= SAK_FRAMES {
            let _span = tele.span_at("netsec.macsec.rotate", root.child(SLOT_ROTATE));
            link.rotate(inputs)?;
            c.rotations = 1;
        }
        {
            let _span = tele.span_at("pon.tdma.grant", root.child(SLOT_GRANT));
            compute_grants_into(&DBA, &input.requests, &mut tree.grants);
        }

        // Fill every grant with whole frames.
        let mut items: Vec<Item<'a>> = Vec::with_capacity(input.requests.len() * 8);
        for (onu, bytes, _, _) in tree.grants.iter() {
            c.granted += bytes;
            for _ in 0..bytes / payload as u64 {
                let off = (input.base + items.len() * FRAME_STRIDE) % (POOL_BYTES - payload);
                items.push((port_of(onu), onu, &inputs.pool[off..off + payload]));
            }
        }
        c.frames = items.len() as u64;
        c.carried = c.frames * payload as u64;
        c.port_runs = runs(&items).count() as u64;
        tally.attempted += c.frames;

        let sealed = {
            let _span = tele.span_at("pon.security.seal", root.child(SLOT_SEAL));
            tree.tx.encrypt_downstream_burst(&items)
        };

        // The burst the far side receives: genuine frames, plus on
        // dp-hostile a forged copy before some and a replay after others.
        let mut burst: Vec<DownstreamFrame> = Vec::with_capacity(sealed.len() * 9 / 8 + 1);
        let mut expect = Vec::with_capacity(burst.capacity());
        for (i, result) in sealed.into_iter().enumerate() {
            let Ok(frame) = result else {
                tally.failed += 1;
                continue;
            };
            let word = inputs.attack_word(STAGE_GEM, t as u64, slot, i as u64);
            if let Some(w) = word.filter(|w| (w >> 8) % GEM_FLIP_ONE_IN == 0) {
                let mut forged = frame.clone();
                flip_bit(&mut forged.payload, w);
                burst.push(forged);
                expect.push(Expect::Reject(Class::GemAuth));
            }
            let replay = word.is_some_and(|w| w % GEM_REPLAY_ONE_IN == 0);
            let copy = replay.then(|| frame.clone());
            burst.push(frame);
            expect.push(Expect::Deliver(i));
            if let Some(copy) = copy {
                burst.push(copy);
                expect.push(Expect::Reject(Class::GemReplay));
            }
        }
        tally.attempted += attacks(&expect) as u64;
        c.gem_opened = burst.len() as u64;
        let opened = {
            let _span = tele.span_at("pon.security.open", root.child(SLOT_OPEN));
            tree.rx.decrypt_many(&burst)
        };
        let forwarded = oracle::judge(&expect, opened, classify_pon, &mut tally);

        let plaintexts: Vec<&[u8]> = forwarded.iter().map(|(_, p)| p.as_slice()).collect();
        c.mac_protected = plaintexts.len() as u64;
        link.on_sak += c.mac_protected;
        let protected = {
            let _span = tele.span_at("netsec.macsec.protect", root.child(SLOT_PROTECT));
            link.uplink.protect_many(&plaintexts)
        };
        let delivered = match protected {
            Err(_) => {
                tally.failed += forwarded.len() as u64;
                Vec::new()
            }
            Ok(frames) => {
                let mut mburst: Vec<MacsecFrame> = Vec::with_capacity(frames.len() * 17 / 16 + 1);
                let mut mexpect = Vec::with_capacity(mburst.capacity());
                let mut genuine_at = Vec::with_capacity(frames.len());
                for (j, frame) in frames.into_iter().enumerate() {
                    let word = inputs.attack_word(STAGE_MAC, t as u64, slot, j as u64);
                    if let Some(w) = word.filter(|w| (w >> 8) % MAC_FLIP_ONE_IN == 0) {
                        let mut forged = frame.clone();
                        flip_bit(&mut forged.secure_data, w);
                        mburst.push(forged);
                        mexpect.push(Expect::Reject(Class::MacIntegrity));
                    }
                    genuine_at.push(mburst.len());
                    mburst.push(frame);
                    mexpect.push(Expect::Deliver(forwarded[j].0));
                    if let Some(w) = word.filter(|w| w % MAC_REPLAY_ONE_IN == 0) {
                        // A copy of a frame already accepted, at most 63 PNs back.
                        let back = ((w >> 16) % REPLAY_WINDOW).min(j as u64) as usize;
                        let copy = mburst[genuine_at[j - back]].clone();
                        mburst.push(copy);
                        mexpect.push(Expect::Reject(Class::MacReplay));
                    }
                }
                tally.attempted += attacks(&mexpect) as u64;
                c.mac_validated = mburst.len() as u64;
                let validated = {
                    let _span = tele.span_at("netsec.macsec.validate", root.child(SLOT_VALIDATE));
                    link.edge.validate_many(&mburst)
                };
                oracle::judge(&mexpect, validated, classify_netsec, &mut tally)
            }
        };
        drop(root_span);
        c.cycle_ns = start.elapsed().as_nanos() as u64;

        let offered: Vec<&[u8]> = items.iter().map(|item| item.2).collect();
        c.delivered_bytes = check_delivery(&delivered, &offered, &mut tally);
        Ok(Cycle {
            items,
            tally,
            counts: c,
        })
    }
}

fn attacks(expect: &[Expect]) -> usize {
    expect
        .iter()
        .filter(|e| matches!(e, Expect::Reject(_)))
        .count()
}

/// Bare AEAD calls (`seal_many`/`open_many` under one benchmark key) on
/// the cycle's own burst shapes: the GEM shape is one call per
/// same-port run, the MACsec shape one call for the whole burst.
struct Bare {
    key: AesGcm,
    counter: u64,
    bytes: u64,
    gem_seal_ns: u64,
    gem_open_ns: u64,
    mac_seal_ns: u64,
    mac_open_ns: u64,
}

impl Bare {
    fn new() -> Result<Bare, String> {
        Ok(Bare {
            key: AesGcm::new(&[0x5a; 16]).map_err(|e| format!("bare key: {e}"))?,
            counter: 0,
            bytes: 0,
            gem_seal_ns: 0,
            gem_open_ns: 0,
            mac_seal_ns: 0,
            mac_open_ns: 0,
        })
    }

    /// Seals then opens `payloads` in one batch; returns (seal, open) ns.
    fn batch(&mut self, payloads: &[&[u8]], aad_len: usize) -> Result<(u64, u64), String> {
        let nonces: Vec<[u8; 12]> = (0..payloads.len())
            .map(|_| {
                self.counter += 1;
                let mut nonce = [0u8; 12];
                nonce[4..].copy_from_slice(&self.counter.to_be_bytes());
                nonce
            })
            .collect();
        let aad = vec![0xa5u8; aad_len];
        let aads: Vec<&[u8]> = payloads.iter().map(|_| aad.as_slice()).collect();
        let t0 = Instant::now();
        let sealed = self
            .key
            .seal_many(&nonces, payloads, &aads)
            .map_err(|e| format!("bare seal: {e}"))?;
        let seal_ns = t0.elapsed().as_nanos() as u64;
        let sealed_refs: Vec<&[u8]> = sealed.iter().map(Vec::as_slice).collect();
        let t1 = Instant::now();
        let opened = self
            .key
            .open_many(&nonces, &sealed_refs, &aads)
            .map_err(|e| format!("bare open: {e}"))?;
        let open_ns = t1.elapsed().as_nanos() as u64;
        if opened
            .iter()
            .zip(payloads)
            .any(|(o, p)| o.as_deref() != Ok(*p))
        {
            return Err("bare AEAD round trip differs from its input".into());
        }
        Ok((seal_ns, open_ns))
    }

    fn calibrate(&mut self, items: &[Item<'_>]) -> Result<(), String> {
        for run in runs(items) {
            let payloads: Vec<&[u8]> = run.iter().map(|item| item.2).collect();
            let (seal, open) = self.batch(&payloads, 6)?;
            self.gem_seal_ns += seal;
            self.gem_open_ns += open;
        }
        let payloads: Vec<&[u8]> = items.iter().map(|item| item.2).collect();
        let (seal, open) = self.batch(&payloads, 17)?;
        self.mac_seal_ns += seal;
        self.mac_open_ns += open;
        self.bytes += payloads.iter().map(|p| p.len() as u64).sum::<u64>();
        Ok(())
    }
}

/// Drops `old`, then times a fresh [`setup`] in its place; returns the
/// time at the reference host's speed and the new state. The per-tree
/// cycle counters (which drive the input and re-key schedules) and the
/// edge's rejection counts carry over, so the run goes on where it was.
fn timed_setup(
    inputs: &Inputs,
    old: Option<State>,
    speed: &HostSpeed,
) -> Result<(f64, State), String> {
    let carried = old.map(|s| {
        let cycles: Vec<u64> = s.trees.iter().map(|t| t.cycles).collect();
        (cycles, s.link.rejected())
    });
    let factor = speed.factor();
    let t0 = Instant::now();
    let mut state = setup(inputs)?;
    let took = secs(t0.elapsed()) * factor;
    if let Some((cycles, rejected)) = carried {
        for (tree, n) in state.trees.iter_mut().zip(cycles) {
            tree.cycles = n;
        }
        state.link.retired = rejected;
    }
    Ok((took, state))
}

pub fn run(args: &Args, print_meta: fn(&Args, u64)) -> Result<Outcome, String> {
    let inputs = Inputs::generate(&args.workload, args.seed);
    print_meta(args, inputs.digest);

    // Set-up is timed once before the warm-up and once between every two
    // measuring blocks, so its median sees the same host phases as the
    // cycles do. Every end-to-end time is scaled to the reference host's
    // speed by a probe taken right before it, and the cycles' times to the
    // share of their block that the host did not take away.
    let speed = HostSpeed::new(1);
    let (took, mut state) = timed_setup(&inputs, None, &speed)?;
    let mut setups = vec![took];

    let disabled = Telemetry::disabled();
    let mut tally = Tally::default();
    let mut k = 0u64;
    let warm = Instant::now();
    while k < 4 * inputs.shape.trees as u64 || secs(warm.elapsed()) < WARMUP_SECONDS {
        tally.add(&state.cycle(&inputs, k, &disabled)?.tally);
        k += 1;
    }

    let mut tracer = args.trace.then(Tracer::new);
    let mut bare = Bare::new()?;
    let (mut untraced_gp, mut traced_gp, mut cycle_us) = (Vec::new(), Vec::new(), Vec::new());
    let (mut reference_gp, mut reference_us) = (Vec::new(), Vec::new());
    let (mut traced, mut measured) = (Counts::default(), Counts::default());
    let mut blocks = Blocks::new(args.seconds);
    for b in 0..blocks.count() {
        if b > 0 {
            let (took, fresh) = timed_setup(&inputs, Some(state), &speed)?;
            setups.push(took);
            state = fresh;
        }
        blocks.start();
        let tele = match &tracer {
            Some(tr) if b % 2 == 1 => tr.telemetry().clone(),
            _ => disabled.clone(),
        };
        let mut block = Counts::default();
        let mut block_reference_ns = 0.0;
        let first = reference_us.len();
        loop {
            let factor = if tele.is_enabled() {
                1.0
            } else {
                speed.factor()
            };
            let cycle = state.cycle(&inputs, k, &tele)?;
            k += 1;
            tally.add(&cycle.tally);
            block.add(&cycle.counts);
            if tele.is_enabled() {
                bare.calibrate(&cycle.items)?;
            } else {
                let ns = cycle.counts.cycle_ns as f64;
                cycle_us.push(ns / 1e3);
                reference_us.push(ns * factor / 1e3);
                block_reference_ns += ns * factor;
            }
            if blocks.block_done() {
                break;
            }
        }
        let busy = blocks.busy_share();
        reference_us[first..].iter_mut().for_each(|us| *us *= busy);
        block_reference_ns *= busy;
        measured.add(&block);
        let goodput = ratio(block.delivered_bytes as f64 * 1e3, block.cycle_ns as f64);
        if tele.is_enabled() {
            traced.add(&block);
            traced_gp.push(goodput);
        } else {
            untraced_gp.push(goodput);
            reference_gp.push(ratio(
                block.delivered_bytes as f64 * 1e3,
                block_reference_ns,
            ));
        }
        if let Some(tr) = tracer.as_mut() {
            tr.collect()?;
        }
    }
    println!(
        "# {} measured cycle(s) after {} warm-up, {} timed set-up(s); per cycle {:.1} frames, \
         {:.0} payload bytes of {:.0} granted, {:.1} frames per same-port run",
        measured.cycles,
        k - measured.cycles,
        setups.len(),
        ratio(measured.frames as f64, measured.cycles as f64),
        ratio(measured.carried as f64, measured.cycles as f64),
        ratio(measured.granted as f64, measured.cycles as f64),
        ratio(measured.frames as f64, measured.port_runs as f64),
    );

    println!(
        "# wall clock: goodput {:.3} MB/s, cycle p50 {:.1} us; scaled / wall p50 {:.3}",
        median(&untraced_gp),
        median(&cycle_us),
        ratio(median(&reference_us), median(&cycle_us)),
    );

    let (rej_replay, rej_integrity) = state.link.rejected();
    let mut metrics = std::collections::BTreeMap::new();
    match tracer {
        None => metrics.extend([
            ("setup_s", median(&setups)),
            ("rss_peak_MB", rss_peak_mb()?),
            ("goodput_MBps", median(&reference_gp)),
            ("cycle_p50_us", median(&reference_us)),
        ]),
        Some(tr) => {
            let path = out_dir().join(format!("{}-seed{}.trace.json", args.workload, args.seed));
            let budget = tr.finish(ROOT_SPAN, &path)?;
            budget.print();
            let per = |span: &str, n: u64| ratio(budget.span_ns(span) as f64, n as f64);
            let overhead = |bare_ns: u64, spans: [&str; 2]| {
                1.0 - ratio(
                    bare_ns as f64,
                    spans.map(|s| budget.span_ns(s)).iter().sum::<u64>() as f64,
                )
            };
            let bare_bytes = 2.0 * bare.bytes as f64;
            metrics.extend([
                (
                    "pon.tdma.grant_ns",
                    per("pon.tdma.grant", budget.span_calls("pon.tdma.grant")),
                ),
                (
                    "pon.tdma.grant_fill",
                    ratio(traced.carried as f64, traced.granted as f64),
                ),
                ("pon.tdma.self_share", budget.layer_share("pon.tdma")),
                (
                    "pon.security.seal_ns_per_frame",
                    per("pon.security.seal", traced.frames),
                ),
                (
                    "pon.security.open_ns_per_frame",
                    per("pon.security.open", traced.gem_opened),
                ),
                (
                    "pon.security.rekey_us",
                    per("pon.security.rekey", traced.rekeyed_ports) / 1e3,
                ),
                (
                    "pon.security.rejected_replay",
                    tally.rejected(Class::GemReplay) as f64,
                ),
                (
                    "pon.security.rejected_auth",
                    tally.rejected(Class::GemAuth) as f64,
                ),
                (
                    "pon.security.overhead_share",
                    overhead(
                        bare.gem_seal_ns + bare.gem_open_ns,
                        ["pon.security.seal", "pon.security.open"],
                    ),
                ),
                (
                    "pon.security.self_share",
                    budget.layer_share("pon.security"),
                ),
                (
                    "netsec.macsec.protect_ns_per_frame",
                    per("netsec.macsec.protect", traced.mac_protected),
                ),
                (
                    "netsec.macsec.validate_ns_per_frame",
                    per("netsec.macsec.validate", traced.mac_validated),
                ),
                (
                    "netsec.macsec.rotate_us",
                    per("netsec.macsec.rotate", traced.rotations) / 1e3,
                ),
                ("netsec.macsec.rejected_replay", rej_replay as f64),
                ("netsec.macsec.rejected_integrity", rej_integrity as f64),
                (
                    "netsec.macsec.overhead_share",
                    overhead(
                        bare.mac_seal_ns + bare.mac_open_ns,
                        ["netsec.macsec.protect", "netsec.macsec.validate"],
                    ),
                ),
                (
                    "netsec.macsec.self_share",
                    budget.layer_share("netsec.macsec"),
                ),
                (
                    "crypto.gcm.seal_ns_per_byte",
                    ratio((bare.gem_seal_ns + bare.mac_seal_ns) as f64, bare_bytes),
                ),
                (
                    "crypto.gcm.open_ns_per_byte",
                    ratio((bare.gem_open_ns + bare.mac_open_ns) as f64, bare_bytes),
                ),
                ("path.cycle_p99_us", quantile(&cycle_us, 0.99)),
                ("path.unattributed_share", budget.unattributed_share()),
                (
                    "trace.overhead_ratio",
                    ratio(median(&untraced_gp), median(&traced_gp)),
                ),
            ]);
        }
    }
    // The edge peer's own counters must agree with the oracle's tally.
    let oracle_counts = (
        tally.rejected(Class::MacReplay),
        tally.rejected(Class::MacIntegrity),
    );
    tally.attempted += 1;
    if (rej_replay, rej_integrity) != oracle_counts {
        tally.failed += 1;
        println!("# edge counters (replay {rej_replay}, integrity {rej_integrity}) disagree with the oracle {oracle_counts:?}");
    }
    Ok(Outcome { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_cycle(workload: &str, tamper: impl FnOnce(&mut State)) -> (Tally, Counts) {
        let inputs = Inputs::generate(workload, 11);
        let mut state = setup(&inputs).unwrap();
        tamper(&mut state);
        let cycle = state.cycle(&inputs, 0, &Telemetry::disabled()).unwrap();
        (cycle.tally, cycle.counts)
    }

    #[test]
    fn honest_and_hostile_cycles_pass_the_oracle() {
        for workload in ["dp-small", "dp-large", "dp-hostile"] {
            let (tally, counts) = one_cycle(workload, |_| {});
            assert_eq!(tally.failed, 0, "{workload}");
            assert!(
                counts.frames > 0 && counts.delivered_bytes == counts.carried,
                "{workload}"
            );
        }
        let (tally, _) = one_cycle("dp-hostile", |_| {});
        assert!(
            Class::ALL.iter().all(|&c| tally.rejected(c) > 0),
            "{:?}",
            tally.rejected
        );
    }

    #[test]
    fn a_wrong_gem_key_fails_every_frame() {
        let (tally, counts) = one_cycle("dp-small", |s| {
            s.trees[0].rx = GemCrypto::new(b"not the tree's master seed");
            (0..ONUS).for_each(|onu| s.trees[0].rx.establish_key(port_of(onu), onu));
        });
        assert_eq!(tally.failed, counts.frames);
        assert_eq!(counts.delivered_bytes, 0);
    }

    #[test]
    fn a_wrong_macsec_key_fails_every_frame() {
        let (tally, counts) = one_cycle("dp-small", |s| {
            s.link.edge =
                MacsecPeer::new(EDGE_SCI, &MacsecConfig::default(), b"another cak").unwrap();
        });
        assert_eq!(tally.failed, counts.frames);
    }

    #[test]
    fn inputs_and_digest_repeat_per_seed() {
        let a = Inputs::generate("dp-hostile", 5);
        assert_eq!(a.digest, Inputs::generate("dp-hostile", 5).digest);
        assert_ne!(a.digest, Inputs::generate("dp-hostile", 6).digest);
        assert_ne!(a.digest, Inputs::generate("dp-small", 5).digest);
    }
}
