//! The `analyzer` workload: `genio_analyzer::workspace::scan_with` on a
//! frozen corpus, cold and cache-warm, with two threads.
//!
//! The corpus is a committed copy of the analyzer's `miniws` fixture
//! workspace (`corpus/miniws`), so this workload's input does not change
//! when the repository's own sources do. One iteration is an uncached cold
//! scan, a one-file edit that changes no finding and no line count, and a
//! cache-warm rescan. The cold scan's finding identities must equal
//! `corpus/miniws-expected.txt`, and the warm report must be byte-identical
//! to the cold one.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use genio_analyzer::baseline::Report;
use genio_analyzer::workspace::{scan_with, ScanOptions, ScanStats};
use genio_telemetry::{Telemetry, TraceContext};

use crate::budget::{ratio, Tracer};
use crate::inputs::{derive, mix64, Digest};
use crate::oracle::Tally;
use crate::stats::{median, quantile, rss_peak_mb, Blocks, HostSpeed};
use crate::{out_dir, Args, Outcome, ROOT_SPAN};

const THREADS: usize = 2;
const STAGES: [(&str, &str); 6] = [
    ("analyzer.stage_files_ms", "analyzer.files_ns"),
    ("analyzer.stage_dataflow_ms", "analyzer.dataflow_ns"),
    ("analyzer.stage_sidechannel_ms", "analyzer.sidechannel_ns"),
    ("analyzer.stage_concurrency_ms", "analyzer.concurrency_ns"),
    ("analyzer.stage_panicfree_ms", "analyzer.panicfree_ns"),
    ("analyzer.stage_lifecycle_ms", "analyzer.lifecycle_ns"),
];

fn corpus_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("corpus")
}

/// Every corpus file as (path relative to the corpus root, contents),
/// sorted by path.
fn read_corpus(root: &Path) -> Result<Vec<(PathBuf, String)>, String> {
    fn walk(root: &Path, dir: &Path, out: &mut Vec<(PathBuf, String)>) -> Result<(), String> {
        let entries = std::fs::read_dir(dir).map_err(|e| format!("read {}: {e}", dir.display()))?;
        for entry in entries {
            let path = entry
                .map_err(|e| format!("read {}: {e}", dir.display()))?
                .path();
            if path.is_dir() {
                walk(root, &path, out)?;
            } else {
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                let rel = path
                    .strip_prefix(root)
                    .map_err(|e| e.to_string())?
                    .to_path_buf();
                out.push((rel, text));
            }
        }
        Ok(())
    }
    let mut files = Vec::new();
    walk(root, root, &mut files)?;
    files.sort();
    if files.is_empty() {
        return Err(format!("empty corpus at {}", root.display()));
    }
    Ok(files)
}

fn expected() -> Result<Vec<String>, String> {
    let path = corpus_dir().join("miniws-expected.txt");
    let text =
        std::fs::read_to_string(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let mut lines: Vec<String> = text
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .map(String::from)
        .collect();
    lines.sort();
    Ok(lines)
}

fn identities(report: &Report) -> Vec<String> {
    let mut ids: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{}|{}|{}|{}", f.rule.id(), f.file, f.function, f.detail))
        .collect();
    ids.sort();
    ids
}

/// `text` with a comment appended to its last line: a new content hash,
/// the same lines and the same findings.
fn edited(text: &str, n: u64) -> String {
    let body = text.trim_end_matches('\n');
    format!("{body} // perfbench edit {n}{}", &text[body.len()..])
}

/// The scratch copy of the corpus that the scans read and the edits
/// write; removed when dropped.
struct WorkDir {
    dir: PathBuf,
}

impl WorkDir {
    fn create(files: &[(PathBuf, String)]) -> Result<WorkDir, String> {
        let dir = out_dir().join(format!("analyzer-work-{}", std::process::id()));
        let work = WorkDir { dir };
        let _ = std::fs::remove_dir_all(&work.dir);
        for (rel, text) in files {
            work.write(rel, text)?;
        }
        Ok(work)
    }

    fn root(&self) -> PathBuf {
        self.dir.join("ws")
    }

    fn cache(&self) -> PathBuf {
        self.dir.join("cache.json")
    }

    fn write(&self, rel: &Path, text: &str) -> Result<(), String> {
        let path = self.root().join(rel);
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)
                .map_err(|e| format!("create {}: {e}", parent.display()))?;
        }
        std::fs::write(&path, text).map_err(|e| format!("write {}: {e}", path.display()))
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn scan(
    root: &Path,
    cache: Option<PathBuf>,
    telemetry: &Telemetry,
) -> Result<(Report, ScanStats, f64), String> {
    let opts = ScanOptions {
        threads: THREADS,
        cache_path: cache,
        telemetry: telemetry.clone(),
        rules: None,
    };
    let t0 = Instant::now();
    let (report, stats) =
        scan_with(root, &opts).map_err(|e| format!("scan {}: {e}", root.display()))?;
    Ok((report, stats, t0.elapsed().as_secs_f64() * 1e3))
}

/// One timed set-up: drops `old`, makes a fresh copy of the corpus and
/// times the scan that builds its cache, at the reference host's speed.
fn setup(
    files: &[(PathBuf, String)],
    expected: &[String],
    old: Option<WorkDir>,
    speed: &HostSpeed,
    setups: &mut Vec<f64>,
    tally: &mut Tally,
) -> Result<WorkDir, String> {
    drop(old);
    let work = WorkDir::create(files)?;
    let factor = speed.factor();
    let (report, _, ms) = scan(&work.root(), Some(work.cache()), &Telemetry::disabled())?;
    tally.check(identities(&report) == expected);
    setups.push(ms * factor / 1e3);
    Ok(work)
}

pub fn run(args: &Args, print_meta: fn(&Args, u64)) -> Result<Outcome, String> {
    let files = read_corpus(&corpus_dir().join("miniws"))?;
    let expected = expected()?;
    let edit_seed = derive(args.seed, "analyzer-edits", 0);
    let mut d = Digest::new();
    d.bytes(b"analyzer");
    for (rel, text) in &files {
        d.bytes(rel.to_string_lossy().as_bytes());
        d.bytes(text.as_bytes());
    }
    expected.iter().for_each(|e| d.bytes(e.as_bytes()));
    d.u64(edit_seed);
    print_meta(args, d.finish());
    // Every end-to-end time is scaled to the reference host's speed by a
    // probe on the scan's worth of threads, taken right before it, and the
    // iterations' times to the share of their block that the host did not
    // take away.
    let speed = HostSpeed::new(THREADS);
    let corpus_bytes: usize = files.iter().map(|(_, t)| t.len()).sum();
    // Edits go to Rust sources only: those are what the scan hashes.
    let sources: Vec<&(PathBuf, String)> = files
        .iter()
        .filter(|(rel, _)| rel.extension().is_some_and(|e| e == "rs"))
        .collect();
    let disabled = Telemetry::disabled();
    let mut tally = Tally::default();

    // Set-up is timed before the first block and between every two blocks,
    // so its median sees the same host phases as the scans do.
    let mut setups = Vec::new();
    let mut work = None;

    let mut tracer = args.trace.then(Tracer::new);
    let (mut cycle_us, mut traced_us, mut cold_ms, mut warm_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut reference_us, mut reference_cold_ms) = (Vec::new(), Vec::new());
    let mut warm_stats: Vec<ScanStats> = Vec::new();
    let mut n = 0u64;
    let mut blocks = Blocks::new(args.seconds);
    for _ in 0..blocks.count() {
        let fresh = setup(
            &files,
            &expected,
            work.take(),
            &speed,
            &mut setups,
            &mut tally,
        )?;
        let work = work.insert(fresh);
        let first = reference_us.len();
        blocks.start();
        loop {
            let tele = match &tracer {
                Some(tr) if n % 2 == 1 => tr.telemetry().clone(),
                _ => disabled.clone(),
            };
            let root = if tele.is_enabled() {
                TraceContext::root(mix64(edit_seed ^ n))
            } else {
                TraceContext::default()
            };
            let (rel, text) = sources[(mix64(edit_seed ^ n) % sources.len() as u64) as usize];
            let factor = if tele.is_enabled() {
                1.0
            } else {
                speed.factor()
            };
            let start = Instant::now();
            let root_span = tele.span_at(ROOT_SPAN, root);
            let (cold, _, cold_t) = {
                let _span = tele.span_at("analyzer.workspace.scan_cold", root.child(0));
                scan(&work.root(), None, &tele)?
            };
            work.write(rel, &edited(text, n))?;
            let (warm, stats, warm_t) = {
                let _span = tele.span_at("analyzer.workspace.scan_warm", root.child(1));
                scan(&work.root(), Some(work.cache()), &disabled)?
            };
            drop(root_span);
            let us = start.elapsed().as_secs_f64() * 1e6;
            tally.check(identities(&cold) == expected);
            tally.check(
                warm.to_json().to_string() == cold.to_json().to_string()
                    && stats.cache_misses >= 1
                    && stats.cache_hits + stats.cache_misses == stats.files,
            );
            n += 1;
            if tele.is_enabled() {
                traced_us.push(us);
            } else {
                cycle_us.push(us);
                cold_ms.push(cold_t);
                reference_us.push(us * factor);
                reference_cold_ms.push(cold_t * factor);
                warm_ms.push(warm_t);
                warm_stats.push(stats);
            }
            if blocks.block_done() {
                break;
            }
        }
        let busy = blocks.busy_share();
        reference_us[first..].iter_mut().for_each(|us| *us *= busy);
        reference_cold_ms[first..]
            .iter_mut()
            .for_each(|ms| *ms *= busy);
        if let Some(tr) = tracer.as_mut() {
            tr.collect()?;
        }
    }
    println!(
        "# {n} measured iteration(s), {} timed set-up(s), over {} corpus file(s), {corpus_bytes} bytes",
        setups.len(),
        files.len()
    );

    println!(
        "# wall clock: cold scan p50 {:.3} ms, iteration p50 {:.1} us; scaled / wall p50 {:.3}",
        median(&cold_ms),
        median(&cycle_us),
        ratio(median(&reference_us), median(&cycle_us)),
    );

    let mut metrics = BTreeMap::new();
    match tracer {
        None => metrics.extend([
            ("setup_s", median(&setups)),
            ("rss_peak_MB", rss_peak_mb()?),
            (
                "goodput_MBps",
                ratio(corpus_bytes as f64 / 1e3, median(&reference_cold_ms)),
            ),
            ("cycle_p50_us", median(&reference_us)),
        ]),
        Some(tr) => {
            let snapshot = tr.telemetry().snapshot();
            let path = out_dir().join(format!("{}-seed{}.trace.json", args.workload, args.seed));
            let budget = tr.finish(ROOT_SPAN, &path)?;
            budget.print();
            let stat = |f: fn(&ScanStats) -> u64| {
                median(&warm_stats.iter().map(|s| f(s) as f64).collect::<Vec<_>>())
            };
            metrics.extend([
                ("analyzer.files", stat(|s| s.files)),
                ("analyzer.cache_hits", stat(|s| s.cache_hits)),
                ("analyzer.cache_misses", stat(|s| s.cache_misses)),
                ("analyzer.dep_invalidated", stat(|s| s.dep_invalidated)),
                ("analyzer.scan_cold_ms", median(&cold_ms)),
                ("analyzer.scan_warm_ms", median(&warm_ms)),
                (
                    "analyzer.self_share",
                    budget.layer_share("analyzer.workspace"),
                ),
                ("path.cycle_p99_us", quantile(&cycle_us, 0.99)),
                ("path.unattributed_share", budget.unattributed_share()),
                (
                    "trace.overhead_ratio",
                    ratio(median(&traced_us), median(&cycle_us)),
                ),
            ]);
            for (metric, histogram) in STAGES {
                let h = snapshot
                    .histogram(histogram)
                    .ok_or_else(|| format!("no {histogram} span recorded"))?;
                metrics.insert(metric, ratio(h.sum as f64 / 1e6, h.count as f64));
            }
        }
    }
    Ok(Outcome { tally, metrics })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edit_keeps_line_count() {
        for text in ["fn a() {}\n", "fn a() {}", "fn a() {}\n\n", "x\ny\n"] {
            let e = edited(text, 3);
            assert_ne!(e, text);
            assert_eq!(e.lines().count(), text.lines().count());
            assert_eq!(e.ends_with('\n'), text.ends_with('\n'));
        }
    }

    #[test]
    fn corpus_scan_matches_expected_set() {
        let files = read_corpus(&corpus_dir().join("miniws")).unwrap();
        let work = WorkDir::create(&files).unwrap();
        let (report, _, _) = scan(&work.root(), None, &Telemetry::disabled()).unwrap();
        assert_eq!(identities(&report), expected().unwrap());
    }
}
