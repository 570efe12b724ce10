//! A Falco-like runtime detection engine (mitigation **M18**).
//!
//! Falco "monitors system calls in real-time using eBPF and evaluates them
//! against a rich, customizable rule set". The engine here reproduces the
//! architecture end-to-end: a condition DSL with the same shape as Falco's
//! (`evt.type = exec and proc.name in (sh, bash)`), a parser to an AST, an
//! evaluator over event fields, and rule sets at three strictness tiers so
//! Lesson 8's false-positive/false-negative trade-off is measurable.

use std::fmt;

use genio_telemetry::{Counter, Telemetry};

use crate::events::{Event, EventKind};

/// Alert priority, mirroring Falco's levels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Priority {
    /// Informational.
    Notice,
    /// Suspicious.
    Warning,
    /// Almost certainly hostile.
    Critical,
}

/// Parse error for the condition DSL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    /// What went wrong.
    pub message: String,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error: {}", self.message)
    }
}

impl std::error::Error for ParseError {}

/// The condition AST.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Cond {
    /// Logical conjunction.
    And(Box<Cond>, Box<Cond>),
    /// Logical disjunction.
    Or(Box<Cond>, Box<Cond>),
    /// Negation.
    Not(Box<Cond>),
    /// `field = value`.
    Eq(String, String),
    /// `field != value`.
    Ne(String, String),
    /// `field contains value`.
    Contains(String, String),
    /// `field startswith value`.
    StartsWith(String, String),
    /// `field in (v1, v2, ...)`.
    In(String, Vec<String>),
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Token {
    LParen,
    RParen,
    Comma,
    Word(String),
}

fn tokenize(input: &str) -> Result<Vec<Token>, ParseError> {
    let mut tokens = Vec::new();
    let mut chars = input.chars().peekable();
    while let Some(&c) = chars.peek() {
        match c {
            ' ' | '\t' | '\n' => {
                chars.next();
            }
            '(' => {
                chars.next();
                tokens.push(Token::LParen);
            }
            ')' => {
                chars.next();
                tokens.push(Token::RParen);
            }
            ',' => {
                chars.next();
                tokens.push(Token::Comma);
            }
            '"' => {
                chars.next();
                let mut s = String::new();
                loop {
                    match chars.next() {
                        Some('"') => break,
                        Some(ch) => s.push(ch),
                        None => {
                            return Err(ParseError {
                                message: "unterminated string".into(),
                            })
                        }
                    }
                }
                tokens.push(Token::Word(s));
            }
            _ => {
                let mut s = String::new();
                while let Some(&ch) = chars.peek() {
                    if ch == ' ' || ch == '(' || ch == ')' || ch == ',' {
                        break;
                    }
                    s.push(ch);
                    chars.next();
                }
                tokens.push(Token::Word(s));
            }
        }
    }
    Ok(tokens)
}

/// Deepest nesting [`parse`] accepts, counting each `not`, parenthesis
/// and `and`/`or` link. Rule conditions nest a few levels; the bound turns
/// a hostile `not not … x` into an error instead of a stack overflow.
const MAX_DEPTH: usize = 64;

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
    /// `not`s, parentheses and `and`/`or` links open around `pos`.
    depth: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn expect_word(&mut self) -> Result<String, ParseError> {
        match self.next() {
            Some(Token::Word(w)) => Ok(w),
            other => Err(ParseError {
                message: format!("expected word, got {other:?}"),
            }),
        }
    }

    /// Consumes the keyword `word` if it is next.
    fn eat(&mut self, word: &str) -> bool {
        let found = matches!(self.peek(), Some(Token::Word(w)) if w == word);
        if found {
            self.pos += 1;
        }
        found
    }

    // `and`/`or` chains nest to the right (`a or (b or c)`): both are
    // associative and evaluate left to right either way, and each link
    // is then one nesting level, so MAX_DEPTH bounds the tree that
    // `eval` and `drop` recurse over, not only the parser.
    fn parse_or(&mut self) -> Result<Cond, ParseError> {
        let left = self.parse_and()?;
        if !self.eat("or") {
            return Ok(left);
        }
        let right = self.nested(Self::parse_or)?;
        Ok(Cond::Or(Box::new(left), Box::new(right)))
    }

    fn parse_and(&mut self) -> Result<Cond, ParseError> {
        let left = self.parse_unary()?;
        if !self.eat("and") {
            return Ok(left);
        }
        let right = self.nested(Self::parse_and)?;
        Ok(Cond::And(Box::new(left), Box::new(right)))
    }

    fn parse_unary(&mut self) -> Result<Cond, ParseError> {
        match self.peek() {
            Some(Token::Word(w)) if w == "not" => {
                self.next();
                Ok(Cond::Not(Box::new(self.nested(Self::parse_unary)?)))
            }
            Some(Token::LParen) => {
                self.next();
                let inner = self.nested(Self::parse_or)?;
                match self.next() {
                    Some(Token::RParen) => Ok(inner),
                    _ => Err(ParseError {
                        message: "expected ')'".into(),
                    }),
                }
            }
            _ => self.parse_comparison(),
        }
    }

    /// Runs `inner` one nesting level deeper, refusing past [`MAX_DEPTH`].
    fn nested(
        &mut self,
        inner: fn(&mut Self) -> Result<Cond, ParseError>,
    ) -> Result<Cond, ParseError> {
        if self.depth == MAX_DEPTH {
            return Err(ParseError {
                message: format!("nesting deeper than {MAX_DEPTH}"),
            });
        }
        self.depth += 1;
        let cond = inner(self);
        self.depth -= 1;
        cond
    }

    fn parse_comparison(&mut self) -> Result<Cond, ParseError> {
        let field = self.expect_word()?;
        let op = self.expect_word()?;
        match op.as_str() {
            "=" => Ok(Cond::Eq(field, self.expect_word()?)),
            "!=" => Ok(Cond::Ne(field, self.expect_word()?)),
            "contains" => Ok(Cond::Contains(field, self.expect_word()?)),
            "startswith" => Ok(Cond::StartsWith(field, self.expect_word()?)),
            "in" => {
                match self.next() {
                    Some(Token::LParen) => {}
                    _ => {
                        return Err(ParseError {
                            message: "expected '(' after in".into(),
                        })
                    }
                }
                let mut values = Vec::new();
                loop {
                    values.push(self.expect_word()?);
                    match self.next() {
                        Some(Token::Comma) => continue,
                        Some(Token::RParen) => break,
                        other => {
                            return Err(ParseError {
                                message: format!("expected ',' or ')', got {other:?}"),
                            })
                        }
                    }
                }
                Ok(Cond::In(field, values))
            }
            other => Err(ParseError {
                message: format!("unknown operator {other}"),
            }),
        }
    }
}

/// Parses a condition string into an AST.
///
/// # Errors
///
/// [`ParseError`] on malformed input, including `not`s, parentheses or
/// `and`/`or` chains nested deeper than `MAX_DEPTH` (64).
pub fn parse(input: &str) -> Result<Cond, ParseError> {
    let tokens = tokenize(input)?;
    if tokens.is_empty() {
        return Err(ParseError {
            message: "empty condition".into(),
        });
    }
    let mut parser = Parser {
        tokens,
        pos: 0,
        depth: 0,
    };
    let cond = parser.parse_or()?;
    if parser.pos != parser.tokens.len() {
        return Err(ParseError {
            message: "trailing tokens".into(),
        });
    }
    Ok(cond)
}

/// Resolves a DSL field against an event; `None` when the field does not
/// apply to this event type (a comparison on it is then false).
fn field_value(event: &Event, field: &str) -> Option<String> {
    match field {
        "evt.type" => Some(event.type_name().to_string()),
        "proc.name" => Some(event.process.clone()),
        "container.id" => Some(event.container.clone()),
        "user.tenant" => Some(event.tenant.clone()),
        "proc.cmdline" => match &event.kind {
            EventKind::Exec { cmdline } => Some(cmdline.clone()),
            _ => None,
        },
        "fd.path" => match &event.kind {
            EventKind::FileOpen { path, .. } => Some(path.clone()),
            _ => None,
        },
        "evt.write" => match &event.kind {
            EventKind::FileOpen { write, .. } => Some(write.to_string()),
            _ => None,
        },
        "fd.port" => match &event.kind {
            EventKind::Connect { port, .. } => Some(port.to_string()),
            EventKind::Listen { port } => Some(port.to_string()),
            _ => None,
        },
        "fd.addr" => match &event.kind {
            EventKind::Connect { addr, .. } => Some(addr.clone()),
            _ => None,
        },
        "module.name" => match &event.kind {
            EventKind::ModuleLoad { name } => Some(name.clone()),
            _ => None,
        },
        "uid" => match &event.kind {
            EventKind::SetUid { uid } => Some(uid.to_string()),
            _ => None,
        },
        _ => None,
    }
}

/// Evaluates a condition against an event.
pub fn eval(cond: &Cond, event: &Event) -> bool {
    match cond {
        Cond::And(a, b) => eval(a, event) && eval(b, event),
        Cond::Or(a, b) => eval(a, event) || eval(b, event),
        Cond::Not(inner) => !eval(inner, event),
        Cond::Eq(f, v) => field_value(event, f).map(|x| x == *v).unwrap_or(false),
        Cond::Ne(f, v) => field_value(event, f).map(|x| x != *v).unwrap_or(false),
        Cond::Contains(f, v) => field_value(event, f)
            .map(|x| x.contains(v))
            .unwrap_or(false),
        Cond::StartsWith(f, v) => field_value(event, f)
            .map(|x| x.starts_with(v))
            .unwrap_or(false),
        Cond::In(f, vs) => field_value(event, f)
            .map(|x| vs.contains(&x))
            .unwrap_or(false),
    }
}

/// One detection rule.
#[derive(Debug, Clone)]
pub struct Rule {
    /// Rule name.
    pub name: String,
    /// Parsed condition.
    pub condition: Cond,
    /// Alert priority.
    pub priority: Priority,
}

impl Rule {
    /// Parses and builds a rule.
    ///
    /// # Errors
    ///
    /// [`ParseError`] on a malformed condition.
    pub fn new(name: &str, condition: &str, priority: Priority) -> Result<Self, ParseError> {
        Ok(Rule {
            name: name.to_string(),
            condition: parse(condition)?,
            priority,
        })
    }
}

/// An alert emitted by the engine.
#[derive(Debug, Clone)]
pub struct Alert {
    /// Firing rule.
    pub rule: String,
    /// Priority.
    pub priority: Priority,
    /// The triggering event.
    pub event: Event,
}

/// Strictness tier of the bundled rule sets (Lesson 8's tuning axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleSetTier {
    /// Only unambiguous indicators: near-zero false positives, misses
    /// subtler activity.
    Lenient,
    /// The practical middle ground (still trips on some legitimate admin
    /// behaviour like config writes under /etc).
    Default,
    /// Everything suspicious: catches all attack behaviours, pays for it
    /// in false positives on shells and writes.
    Paranoid,
}

/// The detection engine: an ordered rule list.
#[derive(Debug, Clone)]
pub struct Engine {
    rules: Vec<Rule>,
    telemetry: Telemetry,
    events_seen: Counter,
    alerts_raised: Counter,
    rule_evals: Counter,
}

impl Engine {
    /// Builds an engine from explicit rules.
    pub fn new(rules: Vec<Rule>) -> Self {
        Engine {
            rules,
            telemetry: Telemetry::disabled(),
            events_seen: Counter::disabled(),
            alerts_raised: Counter::disabled(),
            rule_evals: Counter::disabled(),
        }
    }

    /// Attaches telemetry: per-event counters (`runtime.events_processed`,
    /// `runtime.alerts_raised`, `runtime.rule_evals`) and a
    /// `runtime.pipeline` span around whole-trace evaluation. Handles are
    /// resolved once, here; the per-event path only touches atomics.
    pub fn instrument(mut self, telemetry: &Telemetry) -> Self {
        self.events_seen = telemetry.counter("runtime.events_processed");
        self.alerts_raised = telemetry.counter("runtime.alerts_raised");
        self.rule_evals = telemetry.counter("runtime.rule_evals");
        self.telemetry = telemetry.clone();
        self
    }

    /// Builds an engine with the bundled rule set for `tier`.
    ///
    /// # Errors
    ///
    /// [`ParseError`] only if the bundled conditions are malformed (a bug).
    pub fn with_tier(tier: RuleSetTier) -> Result<Self, ParseError> {
        let mut rules = vec![
            Rule::new(
                "read-sensitive-file",
                "evt.type = open and fd.path in (/etc/shadow, /etc/sudoers) and evt.write = false",
                Priority::Critical,
            )?,
            Rule::new("kernel-module-load", "evt.type = module_load", Priority::Critical)?,
            Rule::new("ptrace-attach", "evt.type = ptrace", Priority::Critical)?,
            Rule::new(
                "write-below-binary-dir",
                "evt.type = open and evt.write = true and (fd.path startswith /usr/bin or fd.path startswith /usr/sbin)",
                Priority::Critical,
            )?,
        ];
        if tier >= RuleSetTier::Default {
            rules.push(Rule::new(
                "reverse-shell-port",
                "evt.type = connect and fd.port in (4444, 1337, 9001)",
                Priority::Critical,
            )?);
            rules.push(Rule::new(
                "setuid-root",
                "evt.type = setuid and uid = 0",
                Priority::Warning,
            )?);
            rules.push(Rule::new(
                "interactive-shell",
                "evt.type = exec and proc.name in (sh, bash, zsh) and proc.cmdline contains -i",
                Priority::Warning,
            )?);
            rules.push(Rule::new(
                "write-below-etc",
                "evt.type = open and evt.write = true and fd.path startswith /etc",
                Priority::Notice,
            )?);
        }
        if tier >= RuleSetTier::Paranoid {
            rules.push(Rule::new(
                "any-shell-exec",
                "evt.type = exec and proc.name in (sh, bash, zsh, dash)",
                Priority::Notice,
            )?);
            rules.push(Rule::new(
                "any-config-write",
                "evt.type = open and evt.write = true",
                Priority::Notice,
            )?);
        }
        Ok(Engine::new(rules))
    }

    /// Number of loaded rules.
    pub fn rule_count(&self) -> usize {
        self.rules.len()
    }

    /// Evaluates one event against every rule.
    pub fn process(&self, event: &Event) -> Vec<Alert> {
        self.events_seen.incr(1);
        self.rule_evals.incr(self.rules.len() as u64);
        let alerts: Vec<Alert> = self
            .rules
            .iter()
            .filter(|r| eval(&r.condition, event))
            .map(|r| Alert {
                rule: r.name.clone(),
                priority: r.priority,
                event: event.clone(),
            })
            .collect();
        self.alerts_raised.incr(alerts.len() as u64);
        alerts
    }

    /// Evaluates a whole trace.
    pub fn process_all(&self, events: &[Event]) -> Vec<Alert> {
        let _span = self.telemetry.span("runtime.pipeline");
        events.iter().flat_map(|e| self.process(e)).collect()
    }
}

/// Detection-quality statistics against ground-truth labels.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectionStats {
    /// Malicious events that triggered at least one alert.
    pub true_positives: usize,
    /// Benign events that triggered at least one alert.
    pub false_positives: usize,
    /// Malicious events that triggered nothing.
    pub false_negatives: usize,
    /// Benign events that stayed silent.
    pub true_negatives: usize,
}

impl DetectionStats {
    /// Precision over alerted events.
    pub fn precision(&self) -> f64 {
        let flagged = self.true_positives + self.false_positives;
        if flagged == 0 {
            1.0
        } else {
            self.true_positives as f64 / flagged as f64
        }
    }

    /// Recall over malicious events.
    pub fn recall(&self) -> f64 {
        let malicious = self.true_positives + self.false_negatives;
        if malicious == 0 {
            1.0
        } else {
            self.true_positives as f64 / malicious as f64
        }
    }
}

/// Scores an engine against a labelled trace (per-event granularity).
pub fn score(engine: &Engine, events: &[Event]) -> DetectionStats {
    let mut stats = DetectionStats {
        true_positives: 0,
        false_positives: 0,
        false_negatives: 0,
        true_negatives: 0,
    };
    for event in events {
        let flagged = !engine.process(event).is_empty();
        match (event.malicious_truth, flagged) {
            (true, true) => stats.true_positives += 1,
            (false, true) => stats.false_positives += 1,
            (true, false) => stats.false_negatives += 1,
            (false, false) => stats.true_negatives += 1,
        }
    }
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::events::{attack_burst, benign_workload, mixed_trace};

    #[test]
    fn parser_handles_nesting_and_precedence() {
        let c = parse("evt.type = exec and (proc.name = sh or proc.name = bash)").unwrap();
        match c {
            Cond::And(_, rhs) => assert!(matches!(*rhs, Cond::Or(_, _))),
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn parser_rejects_garbage() {
        assert!(parse("").is_err());
        assert!(parse("evt.type =").is_err());
        assert!(parse("evt.type ~ exec").is_err());
        assert!(parse("evt.type = exec extra").is_err());
        assert!(parse("proc.name in (sh, bash").is_err());
        assert!(parse("\"unterminated").is_err());
    }

    #[test]
    fn nesting_is_bounded() {
        let at_limit = format!("{}evt.type = exec", "not ".repeat(MAX_DEPTH));
        assert!(parse(&at_limit).is_ok());
        let parens = format!(
            "{}evt.type = exec{}",
            "(".repeat(MAX_DEPTH),
            ")".repeat(MAX_DEPTH)
        );
        assert!(parse(&parens).is_ok());
        let over = format!("{}evt.type = exec", "not ".repeat(MAX_DEPTH + 1));
        assert!(parse(&over).unwrap_err().message.contains("nesting deeper"));
        // 10^5 levels would overflow the stack of an unbounded descent.
        assert!(parse(&format!("{}x", "not ".repeat(100_000))).is_err());
        assert!(parse(&"(".repeat(100_000)).is_err());
        // A long chain is as deep a tree as nested `not`s.
        assert!(parse(&format!("{}x = y", "x = y and ".repeat(100_000))).is_err());
        assert!(parse(&format!("{}x = y", "x = y or ".repeat(100_000))).is_err());
    }

    #[test]
    fn chains_nest_right_and_keep_their_meaning() {
        let c = parse("proc.name = a or proc.name = b or proc.name = bash").unwrap();
        match &c {
            Cond::Or(lhs, rhs) => {
                assert!(matches!(**lhs, Cond::Eq(..)));
                assert!(matches!(**rhs, Cond::Or(..)));
            }
            other => panic!("unexpected {other:?}"),
        }
        let burst = attack_burst("t", 0);
        assert!(burst.iter().any(|e| eval(&c, e)));
        let none = parse("proc.name = a or proc.name = b and proc.name = bash").unwrap();
        assert!(!burst.iter().any(|e| eval(&none, e)));
    }

    #[test]
    fn quoted_values_with_spaces() {
        let c = parse("proc.cmdline contains \"bash -i\"").unwrap();
        assert_eq!(c, Cond::Contains("proc.cmdline".into(), "bash -i".into()));
    }

    #[test]
    fn not_operator() {
        let c = parse("not evt.type = exec").unwrap();
        let burst = attack_burst("t", 0);
        let exec_event = &burst[0];
        let open_event = &burst[1];
        assert!(!eval(&c, exec_event));
        assert!(eval(&c, open_event));
    }

    #[test]
    fn missing_field_comparisons_are_false() {
        // fd.path on an exec event resolves to None → both = and != false.
        let burst = attack_burst("t", 0);
        let exec_event = &burst[0];
        assert!(!eval(&parse("fd.path = /etc/shadow").unwrap(), exec_event));
        assert!(!eval(&parse("fd.path != /etc/shadow").unwrap(), exec_event));
    }

    #[test]
    fn default_tier_catches_the_full_burst() {
        let engine = Engine::with_tier(RuleSetTier::Default).unwrap();
        let stats = score(&engine, &attack_burst("t", 0));
        assert_eq!(
            stats.false_negatives, 0,
            "default tier must catch all 7 behaviours"
        );
    }

    #[test]
    fn lenient_tier_misses_some_attacks_but_is_quiet() {
        let engine = Engine::with_tier(RuleSetTier::Lenient).unwrap();
        let attack = score(&engine, &attack_burst("t", 0));
        assert!(
            attack.false_negatives > 0,
            "lenient misses the shell/connect"
        );
        let benign = score(&engine, &benign_workload("t", 200));
        assert_eq!(
            benign.false_positives, 0,
            "lenient is silent on benign load"
        );
    }

    #[test]
    fn paranoid_tier_trades_fp_for_recall() {
        let paranoid = Engine::with_tier(RuleSetTier::Paranoid).unwrap();
        let default = Engine::with_tier(RuleSetTier::Default).unwrap();
        let trace = mixed_trace("t", 300, 3);
        let p = score(&paranoid, &trace);
        let d = score(&default, &trace);
        assert!(p.recall() >= d.recall());
        assert!(p.false_positives > d.false_positives);
        assert!(p.precision() < d.precision());
    }

    #[test]
    fn monotone_fp_across_tiers() {
        let trace = benign_workload("t", 500);
        let mut previous = 0;
        for tier in [
            RuleSetTier::Lenient,
            RuleSetTier::Default,
            RuleSetTier::Paranoid,
        ] {
            let engine = Engine::with_tier(tier).unwrap();
            let fp = score(&engine, &trace).false_positives;
            assert!(fp >= previous, "{tier:?}: {fp} < {previous}");
            previous = fp;
        }
    }

    #[test]
    fn alerts_carry_rule_and_priority() {
        let engine = Engine::with_tier(RuleSetTier::Default).unwrap();
        let burst = attack_burst("t", 0);
        let alerts = engine.process(&burst[1]); // /etc/shadow read
        assert!(alerts
            .iter()
            .any(|a| a.rule == "read-sensitive-file" && a.priority == Priority::Critical));
    }

    #[test]
    fn stats_precision_recall_bounds() {
        let engine = Engine::with_tier(RuleSetTier::Default).unwrap();
        let stats = score(&engine, &mixed_trace("t", 200, 2));
        assert!((0.0..=1.0).contains(&stats.precision()));
        assert!((0.0..=1.0).contains(&stats.recall()));
        let total = stats.true_positives
            + stats.false_positives
            + stats.false_negatives
            + stats.true_negatives;
        assert_eq!(total, 214);
    }

    #[test]
    fn custom_rule_via_public_api() {
        let rule = Rule::new(
            "tenant-x-blocklist",
            "user.tenant = tenant-x and evt.type = connect",
            Priority::Warning,
        )
        .unwrap();
        let engine = Engine::new(vec![rule]);
        let burst = attack_burst("tenant-x", 0);
        let alerts = engine.process_all(&burst);
        assert_eq!(alerts.len(), 1);
        assert_eq!(alerts[0].rule, "tenant-x-blocklist");
    }
}
