//! The `fleet` workload: `genio_pon::engine` on a fleet slice, two workers.
//!
//! One iteration is one fleet run through `engine::run_with`; traced runs
//! are timed as its two public phases, `engine::run_shards` (parallel) then
//! `engine::merge_shards` (serial). The engine takes only a configuration,
//! so the benchmark owns the seed and the shape; every run's verdicts and
//! counters are checked, and every run's event-log digest must equal the
//! first run's of the same configuration.
//!
//! The engine has no separate set-up call. Its set-up (shard state, worker
//! threads, the activation window) happens inside every run, so `setup_s`
//! is the time of a run of the same fleet for one cycle only, which that
//! set-up dominates.

use std::collections::BTreeMap;
use std::time::Instant;

use genio_pon::engine::{self, EngineOptions, FleetRunResult, FleetSimConfig};
use genio_telemetry::{Telemetry, TraceContext};

use crate::budget::{ratio, Tracer};
use crate::inputs::{derive, mix64, Digest};
use crate::oracle::Tally;
use crate::stats::{median, quantile, rss_peak_mb, Blocks, HostSpeed};
use crate::{out_dir, Args, Outcome, ROOT_SPAN};

const TREES: u32 = 1024;
const ONUS_PER_TREE: u32 = 64;
const CYCLES: u32 = 8;
const WORKERS: usize = 2;
const WARMUP_RUNS: usize = 3;

fn config(seed: u64, cycles: u32) -> FleetSimConfig {
    FleetSimConfig {
        trees: TREES,
        onus_per_tree: ONUS_PER_TREE,
        cycles,
        seed: derive(seed, "fleet", 0),
        encrypt: true,
        certificate_admission: true,
        replay_every: 4,
        rogue_per_tree: true,
        greedy_every: 8,
    }
}

fn digest(cfg: &FleetSimConfig) -> u64 {
    let mut d = Digest::new();
    d.bytes(b"fleet");
    for v in [
        cfg.trees,
        cfg.onus_per_tree,
        cfg.cycles,
        cfg.replay_every,
        cfg.greedy_every,
    ] {
        d.u64(u64::from(v));
    }
    d.u64(cfg.seed);
    for flag in [cfg.encrypt, cfg.certificate_admission, cfg.rogue_per_tree] {
        d.u64(u64::from(flag));
    }
    d.u64(WORKERS as u64);
    d.finish()
}

/// Whether a run's verdicts and counts are right: every attack blocked,
/// every subscriber activated, and the event log equal to the reference.
fn run_is_correct(cfg: &FleetSimConfig, result: &FleetRunResult, reference: u64) -> bool {
    let s = &result.stats;
    let v = s.verdicts();
    let onus = u64::from(cfg.trees) * u64::from(cfg.onus_per_tree);
    !v.eavesdropping_succeeded
        && !v.replay_succeeded
        && !v.impersonation_succeeded
        && s.onus == onus
        && s.activated == onus
        && s.rogues_attempted == u64::from(cfg.trees)
        && s.replays_attempted > 0
        && s.frames_delivered > 0
        && result.log.digest() == reference
}

/// One untraced fleet run through `engine::run_with`; returns it with its
/// wall time in ns.
fn run_with(cfg: &FleetSimConfig, workers: usize) -> (FleetRunResult, u64) {
    let start = Instant::now();
    let result = engine::run_with(cfg, &EngineOptions { workers }, &Telemetry::disabled());
    (result, start.elapsed().as_nanos() as u64)
}

/// One traced fleet run, split into the engine's two public phases:
/// `run_shards` (parallel) and `merge_shards` (serial). Returns the run
/// and the phase times in ns.
fn run_phases(
    cfg: &FleetSimConfig,
    tele: &Telemetry,
    root: TraceContext,
) -> (FleetRunResult, u64, u64) {
    let options = EngineOptions { workers: WORKERS };
    let start = Instant::now();
    let root_span = tele.span_at(ROOT_SPAN, root);
    let shards = {
        let _span = tele.span_at("pon.engine.run_shards", root.child(0));
        engine::run_shards(cfg, &options, &Telemetry::disabled())
    };
    let mid = Instant::now();
    let result = {
        let _span = tele.span_at("pon.engine.merge_shards", root.child(1));
        engine::merge_shards(shards)
    };
    drop(root_span);
    let merge_ns = mid.elapsed().as_nanos() as u64;
    (result, (mid - start).as_nanos() as u64, merge_ns)
}

/// A check run of `cfg`: its event-log digest becomes the reference the
/// later runs of `cfg` must repeat.
fn reference_run(cfg: &FleetSimConfig, tally: &mut Tally) -> (FleetRunResult, u64) {
    let (result, _) = run_with(cfg, WORKERS);
    let reference = result.log.digest();
    tally.check(run_is_correct(cfg, &result, reference));
    (result, reference)
}

pub fn run(args: &Args, print_meta: fn(&Args, u64)) -> Result<Outcome, String> {
    let cfg = config(args.seed, CYCLES);
    let setup_cfg = config(args.seed, 1);
    let mut d = Digest::new();
    d.u64(digest(&cfg));
    d.u64(digest(&setup_cfg));
    print_meta(args, d.finish());
    // Every end-to-end time is scaled to the reference host's speed by a
    // probe on both workers' worth of threads, taken right before it, and
    // the runs' times to the share of their block that the host did not
    // take away.
    let speed = HostSpeed::new(WORKERS);
    let disabled = Telemetry::disabled();
    let mut tally = Tally::default();

    let (first, reference) = reference_run(&cfg, &mut tally);
    let stats = first.stats;
    drop(first);
    for _ in 1..WARMUP_RUNS {
        let (result, _) = run_with(&cfg, WORKERS);
        tally.check(run_is_correct(&cfg, &result, reference));
    }
    let setup_reference = reference_run(&setup_cfg, &mut tally).1;
    // One timed set-up before the first block and one between every two
    // blocks, so its median sees the same host phases as the runs do.
    let mut setups = Vec::new();
    let mut time_setup = |tally: &mut Tally| {
        let factor = speed.factor();
        let (result, ns) = run_with(&setup_cfg, WORKERS);
        tally.check(run_is_correct(&setup_cfg, &result, setup_reference));
        setups.push(ns as f64 * factor / 1e9);
    };
    let onu_cycles = u64::from(cfg.trees) * u64::from(cfg.onus_per_tree) * u64::from(cfg.cycles);
    println!(
        "# fleet run: {} events, {} frames sent, {} granted bytes, {onu_cycles} ONU-cycles",
        stats.events, stats.frames_sent, stats.granted_bytes
    );

    let mut tracer = args.trace.then(Tracer::new);
    let (mut untraced_us, mut traced_us, mut one_worker_us) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference_us = Vec::new();
    let (mut shards_ms, mut merge_ms) = (Vec::new(), Vec::new());
    let mut runs = 0u64;
    let mut blocks = Blocks::new(args.seconds);
    for _ in 0..blocks.count() {
        time_setup(&mut tally);
        let first = reference_us.len();
        blocks.start();
        loop {
            // Traced runs cycle through: untraced, traced, one worker.
            let phase = if tracer.is_some() { runs % 3 } else { 0 };
            let (tele, workers) = match (&tracer, phase) {
                (Some(tr), 1) => (tr.telemetry().clone(), WORKERS),
                (_, 2) => (disabled.clone(), 1),
                _ => (disabled.clone(), WORKERS),
            };
            let factor = if phase == 0 { speed.factor() } else { 1.0 };
            let (result, ns) = if tele.is_enabled() {
                let root = TraceContext::root(mix64(args.seed ^ runs));
                let (result, shards_ns, merge_ns) = run_phases(&cfg, &tele, root);
                shards_ms.push(shards_ns as f64 / 1e6);
                merge_ms.push(merge_ns as f64 / 1e6);
                (result, shards_ns + merge_ns)
            } else {
                run_with(&cfg, workers)
            };
            runs += 1;
            tally.check(run_is_correct(&cfg, &result, reference));
            let us = ns as f64 / 1e3;
            match phase {
                1 => traced_us.push(us),
                2 => one_worker_us.push(us),
                _ => {
                    untraced_us.push(us);
                    reference_us.push(us * factor);
                }
            }
            if blocks.block_done() {
                break;
            }
        }
        let busy = blocks.busy_share();
        reference_us[first..].iter_mut().for_each(|us| *us *= busy);
        if let Some(tr) = tracer.as_mut() {
            tr.collect()?;
        }
    }
    println!(
        "# {runs} measured run(s), {} timed 1-cycle set-up run(s)",
        setups.len()
    );

    println!(
        "# wall clock: run p50 {:.1} us; scaled / wall p50 {:.3}",
        median(&untraced_us),
        ratio(median(&reference_us), median(&untraced_us)),
    );

    let run_s = median(&untraced_us) / 1e6;
    let mut metrics = BTreeMap::new();
    match tracer {
        None => metrics.extend([
            ("setup_s", median(&setups)),
            ("rss_peak_MB", rss_peak_mb()?),
            (
                "goodput_MBps",
                ratio(
                    stats.granted_bytes as f64 / 1e6,
                    median(&reference_us) / 1e6,
                ),
            ),
            ("cycle_p50_us", median(&reference_us)),
        ]),
        Some(tr) => {
            let path = out_dir().join(format!("{}-seed{}.trace.json", args.workload, args.seed));
            let budget = tr.finish(ROOT_SPAN, &path)?;
            budget.print();
            metrics.extend([
                ("pon.engine.run_shards_ms", median(&shards_ms)),
                ("pon.engine.merge_shards_ms", median(&merge_ms)),
                ("pon.engine.events_per_s", ratio(stats.events as f64, run_s)),
                (
                    "pon.engine.onu_cycles_per_s",
                    ratio(onu_cycles as f64, run_s),
                ),
                (
                    "pon.engine.scaling_2v1",
                    ratio(median(&one_worker_us), median(&untraced_us)),
                ),
                ("pon.engine.self_share", budget.layer_share("pon.engine")),
                ("path.cycle_p99_us", quantile(&untraced_us, 0.99)),
                ("path.unattributed_share", budget.unattributed_share()),
                (
                    "trace.overhead_ratio",
                    ratio(median(&traced_us), median(&untraced_us)),
                ),
            ]);
        }
    }
    Ok(Outcome { tally, metrics })
}
