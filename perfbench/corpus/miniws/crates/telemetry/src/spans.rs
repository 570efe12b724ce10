//! R15 fixture: span guards dropped at their creation site (flagged)
//! next to guards deliberately bound, consumed or returned (silent).

/// RAII span guard stand-in: its `Drop` records the elapsed time, so a
/// guard that dies at the creation site times nothing.
pub struct Span;

impl Drop for Span {
    fn drop(&mut self) {}
}

/// Telemetry handle stand-in.
pub struct Tele;

impl Tele {
    pub fn span(&self, _name: &'static str) -> Span {
        Span
    }

    pub fn span_at(&self, _name: &'static str, _ctx: u64) -> Span {
        Span
    }
}

fn busy() {}

/// R15 positive: `let _ =` drops the guard before `busy` runs.
pub fn tp_let_underscore(t: &Tele) {
    let _ = t.span("ingest.frame");
    busy();
}

/// R15 positive: a bare statement drops the guard at the `;`.
pub fn tp_bare_call(t: &Tele) {
    t.span_at("ingest.batch", 7);
    busy();
}

/// R15 positive: an unbound macro invocation drops the guard too.
pub fn tp_bare_macro(t: &Tele) {
    span!(t, "ingest.cycle");
    busy();
}

/// R15 negative: a named binding (even `_`-prefixed) lives to end of
/// scope and times `busy`.
pub fn ok_bound_guard(t: &Tele) {
    let _guard_span = t.span("ok.bound");
    busy();
}

/// R15 negative: a tail-position guard is returned to the caller.
pub fn ok_tail_expression(t: &Tele) -> Span {
    t.span("ok.tail")
}

/// R15 negative: a guard consumed by an enclosing expression is a
/// deliberate immediate drop.
pub fn ok_consumed(t: &Tele) {
    drop(t.span("ok.consumed"));
}

/// R15 negative: assigned to a place that outlives the statement.
pub fn ok_assigned(t: &Tele, slot: &mut Option<Span>) {
    *slot = Some(t.span_at("ok.assigned", 1));
    busy();
}
