//! Determinism properties of the v2 scan pipeline: the report must be a
//! pure function of the workspace contents — independent of the cache
//! state and of the worker-thread count.

use std::fs;
use std::path::{Path, PathBuf};

use genio_analyzer::workspace::{scan_with, ScanOptions};

fn fixture_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/miniws")
}

/// Fresh scratch dir under the target tmpdir, wiped per test.
fn scratch(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("genio-analyzer-tests").join(name);
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

fn copy_tree(from: &Path, to: &Path) {
    fs::create_dir_all(to).expect("mkdir");
    for entry in fs::read_dir(from).expect("readdir") {
        let entry = entry.expect("entry");
        let src = entry.path();
        let dst = to.join(entry.file_name());
        if src.is_dir() {
            copy_tree(&src, &dst);
        } else {
            fs::copy(&src, &dst).expect("copy");
        }
    }
}

#[test]
fn warm_scan_is_byte_identical_to_cold() {
    let dir = scratch("warm-vs-cold");
    let cache = dir.join("cache.json");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };

    let (cold, cold_stats) = scan_with(&fixture_root(), &opts).expect("cold scan");
    assert_eq!(cold_stats.cache_hits, 0, "first scan must miss everything");
    assert!(cache.is_file(), "cold scan writes the cache");

    let (warm, warm_stats) = scan_with(&fixture_root(), &opts).expect("warm scan");
    assert_eq!(warm_stats.cache_misses, 0, "second scan must hit everything");
    assert_eq!(warm_stats.cache_hits, cold_stats.cache_misses);

    assert_eq!(
        cold.to_json().to_string(),
        warm.to_json().to_string(),
        "cache state leaked into the report"
    );
}

#[test]
fn uncached_and_cached_reports_agree() {
    let dir = scratch("cached-vs-uncached");
    let cached_opts = ScanOptions {
        cache_path: Some(dir.join("cache.json")),
        ..ScanOptions::default()
    };
    let (plain, _) =
        scan_with(&fixture_root(), &ScanOptions::default()).expect("uncached");
    let (cached, _) = scan_with(&fixture_root(), &cached_opts).expect("cached");
    assert_eq!(plain.to_json().to_string(), cached.to_json().to_string());
}

#[test]
fn thread_counts_do_not_change_the_report() {
    let baseline = scan_with(
        &fixture_root(),
        &ScanOptions { threads: 1, ..ScanOptions::default() },
    )
    .expect("serial")
    .0
    .to_json()
    .to_string();
    for threads in [2, 3, 8] {
        let (report, stats) = scan_with(
            &fixture_root(),
            &ScanOptions { threads, ..ScanOptions::default() },
        )
        .expect("parallel");
        assert!(stats.threads >= 1 && stats.threads <= threads);
        assert_eq!(
            report.to_json().to_string(),
            baseline,
            "thread count {threads} changed the report"
        );
    }
}

#[test]
fn editing_a_file_invalidates_exactly_that_entry() {
    let dir = scratch("invalidation");
    let ws = dir.join("ws");
    copy_tree(&fixture_root(), &ws);
    let opts = ScanOptions {
        cache_path: Some(dir.join("cache.json")),
        ..ScanOptions::default()
    };

    let (before, _) = scan_with(&ws, &opts).expect("initial scan");

    // Appending a debt marker to one file must cost exactly one cache
    // miss and exactly one new R6 finding.
    let target = ws.join("crates/demo/src/ops.rs");
    let mut text = fs::read_to_string(&target).expect("read fixture");
    text.push_str("\n// FIXME: cache-invalidation probe\n");
    fs::write(&target, text).expect("write fixture");

    let (after, stats) = scan_with(&ws, &opts).expect("rescan");
    assert_eq!(stats.cache_misses, 1, "only the edited file rescans");
    assert_eq!(stats.cache_hits, before.files - 1);
    assert_eq!(after.findings.len(), before.findings.len() + 1);

    // Reverting restores the original report through the cache.
    copy_tree(&fixture_root(), &ws);
    let (reverted, _) = scan_with(&ws, &opts).expect("reverted scan");
    assert_eq!(
        reverted.to_json().to_string(),
        before.to_json().to_string()
    );
}

#[test]
fn stale_rules_version_invalidates_the_whole_cache() {
    let dir = scratch("stale-rules");
    let cache = dir.join("cache.json");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };
    let (clean, seed_stats) = scan_with(&fixture_root(), &opts).expect("seed scan");

    // Simulate a cache written by an analyzer binary with a different
    // rule set: flip the recorded rules_version hash in place.
    let text = fs::read_to_string(&cache).expect("read cache");
    let version = format!("{:016x}", genio_analyzer::rules::rules_version());
    assert!(
        text.contains(&version),
        "cache must record the rule-set version"
    );
    let flipped: String = version
        .chars()
        .map(|c| if c == '0' { '1' } else { '0' })
        .collect();
    fs::write(&cache, text.replace(&version, &flipped)).expect("rewrite cache");

    let (rescanned, stats) = scan_with(&fixture_root(), &opts).expect("rescan");
    assert_eq!(stats.cache_hits, 0, "old-rules cache must not serve hits");
    assert_eq!(stats.cache_misses, seed_stats.cache_misses);
    assert_eq!(
        rescanned.to_json().to_string(),
        clean.to_json().to_string()
    );

    // The rescan rewrote the cache under the current version: unchanged
    // files hit again.
    let (_, warm_stats) = scan_with(&fixture_root(), &opts).expect("warm");
    assert_eq!(warm_stats.cache_misses, 0, "repaired cache serves all hits");
}

#[test]
fn corrupt_cache_degrades_to_full_rescan() {
    let dir = scratch("corrupt");
    let cache = dir.join("cache.json");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };
    let (clean, _) = scan_with(&fixture_root(), &opts).expect("seed scan");

    fs::write(&cache, "{ definitely not a cache }").expect("corrupt");
    let (recovered, stats) = scan_with(&fixture_root(), &opts).expect("recover");
    assert_eq!(stats.cache_hits, 0, "corrupt cache must not serve hits");
    assert_eq!(
        recovered.to_json().to_string(),
        clean.to_json().to_string()
    );
}

#[test]
fn too_deeply_nested_cache_degrades_to_full_rescan() {
    let dir = scratch("deep");
    let cache = dir.join("cache.json");
    let opts = ScanOptions {
        cache_path: Some(cache.clone()),
        ..ScanOptions::default()
    };
    let (clean, _) = scan_with(&fixture_root(), &opts).expect("seed scan");

    // Deep enough to overflow the stack of an unbounded recursive descent.
    fs::write(&cache, "[".repeat(100_000)).expect("corrupt");
    let (recovered, stats) = scan_with(&fixture_root(), &opts).expect("recover");
    assert_eq!(stats.cache_hits, 0, "corrupt cache must not serve hits");
    assert_eq!(
        recovered.to_json().to_string(),
        clean.to_json().to_string()
    );
}
