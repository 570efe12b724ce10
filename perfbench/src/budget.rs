//! The traced run's span recorder and per-layer time budget.
//!
//! Spans are opened by the benchmark around its calls into each layer's
//! public functions (one root per iteration, one child per layer call) and
//! kept in memory. At the end they are validated as a span forest with
//! `flight::validate_tree`, exported as a genio-trace/v1 document with
//! `flight::chrome_trace`, and folded into self-times: a span's self-time is
//! its duration minus its children's. The root's self-time is the
//! unattributed remainder, so the layer self-times plus the remainder equal
//! the iterations' wall time by construction. What can fail, and is
//! checked, is the timing itself: every child span must lie inside its
//! parent's interval.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;

use genio_telemetry::flight::{chrome_trace, validate_tree};
use genio_telemetry::{Clock, Telemetry, TelemetryOptions, TraceEvent};

/// Per-stripe ring capacity; the ring is drained after every block.
const RING_CAPACITY: usize = 1 << 16;

pub struct Tracer {
    tele: Telemetry,
    events: Vec<TraceEvent>,
}

impl Tracer {
    pub fn new() -> Tracer {
        let options = TelemetryOptions {
            ring_capacity: RING_CAPACITY,
            stripes: 1,
        };
        Tracer {
            tele: Telemetry::with_options(Clock::monotonic(), options),
            events: Vec::new(),
        }
    }

    pub fn telemetry(&self) -> &Telemetry {
        &self.tele
    }

    /// Moves buffered spans into memory; fails if the ring lost any.
    pub fn collect(&mut self) -> Result<(), String> {
        self.events.extend(self.tele.drain_trace());
        let stats = self.tele.ring().map(|r| r.stats()).unwrap_or_default();
        if stats.dropped > 0 {
            return Err(format!("trace ring dropped {} span(s)", stats.dropped));
        }
        Ok(())
    }

    /// Validates and exports the trace to `path`, then computes the budget
    /// of the span trees whose root is named `root`.
    pub fn finish(mut self, root: &str, path: &Path) -> Result<Budget, String> {
        self.collect()?;
        let tree = validate_tree(&self.events).map_err(|e| format!("trace tree invalid: {e}"))?;
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        }
        std::fs::write(path, chrome_trace(&self.events))
            .map_err(|e| format!("write {}: {e}", path.display()))?;
        println!(
            "# trace: {} span(s), {} root(s), depth {} -> {}",
            tree.traced,
            tree.roots,
            tree.max_depth,
            path.display()
        );
        Budget::of(&self.events, root)
    }
}

/// Self-time per layer over the traced iterations.
#[derive(Debug, Default)]
pub struct Budget {
    /// Traced iterations (root spans).
    pub roots: u64,
    /// Sum of the root spans' durations.
    pub wall_ns: u64,
    /// Root self-time: iteration time no layer span covers.
    pub unattributed_ns: u64,
    /// Self-time per layer (the first two components of a span name).
    pub layer_self_ns: BTreeMap<String, u64>,
    /// Per span name: (calls, total duration).
    pub spans: BTreeMap<&'static str, (u64, u64)>,
}

/// `pon.security.seal` -> `pon.security`.
pub fn layer_of(name: &str) -> &str {
    match name.match_indices('.').nth(1) {
        Some((i, _)) => &name[..i],
        None => name,
    }
}

impl Budget {
    pub fn of(events: &[TraceEvent], root: &str) -> Result<Budget, String> {
        let traced: Vec<&TraceEvent> = events.iter().filter(|e| e.span_id != 0).collect();
        let end = |e: &TraceEvent| e.start_ns + e.dur_ns;
        let interval: HashMap<u64, (u64, u64)> = traced
            .iter()
            .map(|e| (e.span_id, (e.start_ns, end(e))))
            .collect();
        let mut child_ns: HashMap<u64, u64> = HashMap::new();
        for e in &traced {
            if e.parent_id != 0 {
                let &(lo, hi) = interval
                    .get(&e.parent_id)
                    .ok_or_else(|| format!("span {} ({:#x}) has no parent", e.name, e.span_id))?;
                if e.start_ns < lo || end(e) > hi {
                    return Err(format!(
                        "span {} ({:#x}) lies outside its parent",
                        e.name, e.span_id
                    ));
                }
                *child_ns.entry(e.parent_id).or_default() += e.dur_ns;
            }
        }
        let mut budget = Budget::default();
        for e in &traced {
            let children = child_ns.get(&e.span_id).copied().unwrap_or(0);
            let own = e.dur_ns.checked_sub(children).ok_or_else(|| {
                format!(
                    "span {} ({:#x}) is shorter than its children",
                    e.name, e.span_id
                )
            })?;
            let entry = budget.spans.entry(e.name).or_default();
            entry.0 += 1;
            entry.1 += e.dur_ns;
            if e.parent_id == 0 {
                if e.name != root {
                    return Err(format!("unexpected root span {}", e.name));
                }
                budget.roots += 1;
                budget.wall_ns += e.dur_ns;
                budget.unattributed_ns += own;
            } else {
                *budget
                    .layer_self_ns
                    .entry(layer_of(e.name).to_string())
                    .or_default() += own;
            }
        }
        Ok(budget)
    }

    /// Total duration of spans named `name`.
    pub fn span_ns(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.1)
    }

    /// Number of spans named `name`.
    pub fn span_calls(&self, name: &str) -> u64 {
        self.spans.get(name).map_or(0, |s| s.0)
    }

    pub fn layer_share(&self, layer: &str) -> f64 {
        ratio(
            self.layer_self_ns.get(layer).copied().unwrap_or(0) as f64,
            self.wall_ns as f64,
        )
    }

    pub fn unattributed_share(&self) -> f64 {
        ratio(self.unattributed_ns as f64, self.wall_ns as f64)
    }

    /// Prints the budget as a table whose rows add up to the wall time.
    pub fn print(&self) {
        let per_root = |ns: u64| ns as f64 / 1e3 / self.roots.max(1) as f64;
        println!(
            "# layer budget over {} traced iteration(s), self-time per iteration:",
            self.roots
        );
        for (layer, ns) in &self.layer_self_ns {
            println!(
                "#   {layer:<18} {:>12.3} us {:>7.2}%",
                per_root(*ns),
                100.0 * self.layer_share(layer)
            );
        }
        println!(
            "#   {:<18} {:>12.3} us {:>7.2}%",
            "unattributed",
            per_root(self.unattributed_ns),
            100.0 * self.unattributed_share()
        );
        println!(
            "#   {:<18} {:>12.3} us  (layers + unattributed = wall)",
            "wall",
            per_root(self.wall_ns)
        );
    }
}

/// `num / den`, or 0 when there is nothing to divide by.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genio_telemetry::TraceContext;

    fn event(name: &'static str, ctx: TraceContext, start_ns: u64, dur_ns: u64) -> TraceEvent {
        TraceEvent {
            name,
            start_ns,
            dur_ns,
            trace_id: ctx.trace_id,
            span_id: ctx.span_id,
            parent_id: ctx.parent_id,
            shard: 0,
        }
    }

    #[test]
    fn self_times_add_up_to_wall() {
        let root = TraceContext::root(1);
        let events = [
            event("path.cycle", root, 0, 100),
            event("pon.tdma.grant", root.child(0), 1, 10),
            event("pon.security.seal", root.child(1), 11, 30),
            event("pon.security.open", root.child(2), 41, 40),
            event("analyzer.scan", TraceContext::default(), 0, 5),
        ];
        let budget = Budget::of(&events, "path.cycle").unwrap();
        assert_eq!(budget.roots, 1);
        assert_eq!(budget.wall_ns, 100);
        assert_eq!(budget.unattributed_ns, 20);
        assert_eq!(budget.layer_self_ns["pon.security"], 70);
        assert_eq!(budget.span_ns("pon.tdma.grant"), 10);
        assert!(Budget::of(&events, "other.root").is_err());
    }

    #[test]
    fn a_child_outside_its_parent_is_refused() {
        let root = TraceContext::root(1);
        let late = [
            event("path.cycle", root, 0, 100),
            event("pon.tdma.grant", root.child(0), 95, 10),
        ];
        assert!(Budget::of(&late, "path.cycle").is_err());
        let orphan = [event("pon.tdma.grant", root.child(0), 0, 10)];
        assert!(Budget::of(&orphan, "path.cycle").is_err());
    }

    #[test]
    fn layer_is_the_first_two_name_components() {
        assert_eq!(layer_of("netsec.macsec.validate"), "netsec.macsec");
        assert_eq!(layer_of("path"), "path");
    }
}
