//! GENIO benchmark: one command, five workloads, every output checked.
//!
//! ```text
//! genio-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The data-path workloads (`dp-small`, `dp-large`, `dp-hostile`) carry one
//! PON tree's TDMA cycle at a time from grant to MACsec delivery; `fleet`
//! drives the sharded fleet engine; `analyzer` scans a frozen corpus cold
//! and warm. With `--trace 0` the last line of standard output is a JSON
//! object holding the end-to-end metrics; with `--trace 1` it holds the
//! per-layer metrics of a traced run. Lines before it are `#` comments:
//! host and build metadata, the input digest and a readable copy of the
//! numbers. See `README.md` next to this crate.

mod analyzer;
mod budget;
mod datapath;
mod fleet;
mod inputs;
mod oracle;
mod stats;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;

use oracle::Tally;

/// End-to-end metrics (measured with tracing off): name, unit.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("rss_peak_MB", "MB"),
    ("goodput_MBps", "MB/s"),
    ("cycle_p50_us", "us"),
];

/// Per-layer metrics (from the traced run): name, unit. A layer that a
/// workload does not exercise reports 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("pon.tdma.grant_ns", "ns"),
    ("pon.tdma.grant_fill", "ratio"),
    ("pon.tdma.self_share", "ratio"),
    ("pon.security.seal_ns_per_frame", "ns"),
    ("pon.security.open_ns_per_frame", "ns"),
    ("pon.security.rekey_us", "us"),
    ("pon.security.rejected_replay", "count"),
    ("pon.security.rejected_auth", "count"),
    ("pon.security.overhead_share", "ratio"),
    ("pon.security.self_share", "ratio"),
    ("netsec.macsec.protect_ns_per_frame", "ns"),
    ("netsec.macsec.validate_ns_per_frame", "ns"),
    ("netsec.macsec.rotate_us", "us"),
    ("netsec.macsec.rejected_replay", "count"),
    ("netsec.macsec.rejected_integrity", "count"),
    ("netsec.macsec.overhead_share", "ratio"),
    ("netsec.macsec.self_share", "ratio"),
    ("crypto.gcm.seal_ns_per_byte", "ns"),
    ("crypto.gcm.open_ns_per_byte", "ns"),
    ("pon.engine.run_shards_ms", "ms"),
    ("pon.engine.merge_shards_ms", "ms"),
    ("pon.engine.events_per_s", "1/s"),
    ("pon.engine.onu_cycles_per_s", "1/s"),
    ("pon.engine.scaling_2v1", "ratio"),
    ("pon.engine.self_share", "ratio"),
    ("analyzer.files", "count"),
    ("analyzer.cache_hits", "count"),
    ("analyzer.cache_misses", "count"),
    ("analyzer.dep_invalidated", "count"),
    ("analyzer.scan_cold_ms", "ms"),
    ("analyzer.scan_warm_ms", "ms"),
    ("analyzer.stage_files_ms", "ms"),
    ("analyzer.stage_dataflow_ms", "ms"),
    ("analyzer.stage_sidechannel_ms", "ms"),
    ("analyzer.stage_concurrency_ms", "ms"),
    ("analyzer.stage_panicfree_ms", "ms"),
    ("analyzer.stage_lifecycle_ms", "ms"),
    ("analyzer.self_share", "ratio"),
    ("path.cycle_p99_us", "us"),
    ("path.unattributed_share", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

pub const WORKLOADS: &[&str] = &["dp-small", "dp-large", "dp-hostile", "fleet", "analyzer"];

/// Name of the root span of one closed-loop iteration in every traced run.
pub const ROOT_SPAN: &str = "path.cycle";

/// What one run measured.
pub struct Outcome {
    pub tally: Tally,
    pub metrics: BTreeMap<&'static str, f64>,
}

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    let seconds = seconds.unwrap_or(20);
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be in 1..=60".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// Directory for run artifacts (trace exports, the analyzer's scratch
/// corpus), inside the benchmark's own directory.
pub fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn crypto_backend() -> &'static str {
    match genio_crypto::aes::backend() {
        genio_crypto::aes::Backend::Table => "table",
        genio_crypto::aes::Backend::Reference => "reference",
    }
}

fn print_meta(args: &Args, digest: u64) {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let env_backend = std::env::var("GENIO_CRYPTO_BACKEND").unwrap_or_else(|_| "<unset>".into());
    println!(
        "# meta {{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"profile\":\"{}\",\"rustc\":\"{}\",\"crypto_backend\":\"{}\",\
         \"GENIO_CRYPTO_BACKEND\":\"{}\",\"input_digest\":\"{digest:#018x}\"}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_PROFILE"),
        env!("PERFBENCH_RUSTC"),
        crypto_backend(),
        env_backend.escape_default(),
    );
    if crypto_backend() == "reference" {
        println!("# WARNING: reference crypto backend; never compare these figures with a table-backend run");
    }
}

/// Renders the result line. Metrics the workload did not measure are 0 for
/// per-layer metrics; a missing end-to-end metric is a bug.
fn result_line(args: &Args, outcome: &Outcome) -> Result<String, String> {
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut fields = Vec::with_capacity(table.len());
    for &(name, unit) in table {
        let value = match outcome.metrics.get(name) {
            Some(v) => *v,
            None if args.trace => 0.0,
            None => return Err(format!("workload {} did not measure {name}", args.workload)),
        };
        if !value.is_finite() {
            return Err(format!("{name} is not finite: {value}"));
        }
        println!("# {name} = {value} {unit}");
        fields.push(format!(
            "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        ));
    }
    let t = &outcome.tally;
    if t.attempted == 0 {
        return Err("no operation was attempted".into());
    }
    println!(
        "# fail_ratio = {} ({} failed / {} attempted)",
        budget::ratio(t.failed as f64, t.attempted as f64),
        t.failed,
        t.attempted
    );
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        t.failed == 0,
        t.attempted,
        t.failed,
        fields.join(",")
    ))
}

fn run(args: &Args) -> Result<String, String> {
    let outcome = match args.workload.as_str() {
        "fleet" => fleet::run(args, print_meta)?,
        "analyzer" => analyzer::run(args, print_meta)?,
        _ => datapath::run(args, print_meta)?,
    };
    result_line(args, &outcome)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("genio-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(line) => {
            println!("{line}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("genio-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root must list exactly the
    /// workloads and metrics this binary prints.
    #[test]
    fn benchmark_json_matches_tables() {
        let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let text = std::fs::read_to_string(&path).expect("BENCHMARK.json next to perfbench/");
        let names = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect(section);
            let end = text[start..].find(']').expect("section end") + start;
            text[start..end]
                .match_indices("\"name\": \"")
                .map(|(i, m)| {
                    let rest = &text[start + i + m.len()..];
                    rest[..rest.find('"').expect("closing quote")].to_string()
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<String> {
            table.iter().map(|(n, _)| n.to_string()).collect()
        };
        assert_eq!(
            names("workloads"),
            WORKLOADS.iter().map(|w| w.to_string()).collect::<Vec<_>>()
        );
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(PER_LAYER));
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(
                text.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                "{name} must have unit {unit} in BENCHMARK.json"
            );
        }
    }
}
