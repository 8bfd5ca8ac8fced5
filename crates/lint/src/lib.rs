//! gridbank-lint: domain-invariant static analysis for the GridBank
//! workspace.
//!
//! Clippy and rustc enforce language-level hygiene; this crate enforces
//! *accounting-domain* invariants that no general-purpose lint knows
//! about:
//!
//! | id                    | invariant                                                         |
//! |-----------------------|-------------------------------------------------------------------|
//! | `money-arith`         | money values use checked/saturating helpers, never bare ops/casts |
//! | `idem-stamp`          | every mutating RPC arm stamps idempotency in the commit batch     |
//! | `display-parse`       | error handling reads structured details, not Display text         |
//! | `metric-prefix`       | metric/span names match the registered table in OBSERVABILITY.md  |
//! | `blocking-under-lock` | no fsync/file/net/recv/sleep inside a held lock scope in core     |
//! | `durability-order`    | store.rs sequences write→fsync→rename→dir-fsync; marker precedes deletion |
//!
//! Two invariants have a wall of their own instead of a rule here:
//! panic-free library code is clippy's restriction lints (`unwrap_used`,
//! `panic`, …, denied in the `lib.rs` of `core`, `net` and `rur`), and
//! the lock order is `gridbank_core::sync::rank`, checked at every
//! acquisition by the debug-build witness.
//!
//! The analyzer is deliberately dependency-free: it tokenizes by masking
//! comments and literals (see [`source`]) rather than parsing full Rust,
//! so it builds in the sealed CI image and runs in well under a second.
//! Escape hatch: `// lint:allow(<rule>) <reason>` on (or directly above)
//! a line, or `// lint:allow-file(<rule>) <reason>` anywhere in a file.
//! Every use is counted and printed — suppressions are visible, not
//! silent.

pub mod rules;
pub mod source;

use std::collections::BTreeMap;
use std::fmt;

pub use source::{AllowDirective, SourceFile};

/// The six domain rules. Their numbers skip L3 and L6, whose invariants
/// moved to clippy and to the lock-order witness.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Rule {
    /// L1: bare arithmetic / lossy casts in money context.
    MoneyArith,
    /// L2: mutating RPC arms must stamp idempotency with the commit.
    IdemStamp,
    /// L4: no parsing of Display text out of error frames.
    DisplayParse,
    /// L5: telemetry names must match the registered prefix table.
    MetricPrefix,
    /// L7: no blocking calls lexically inside a held lock scope.
    BlockingUnderLock,
    /// L8: durable-file creation sequences write→fsync→rename→dir-fsync,
    /// and the COMPACTED marker lands before any segment deletion.
    DurabilityOrder,
}

impl Rule {
    /// Every rule, in report order.
    pub const ALL: [Rule; 6] = [
        Rule::MoneyArith,
        Rule::IdemStamp,
        Rule::DisplayParse,
        Rule::MetricPrefix,
        Rule::BlockingUnderLock,
        Rule::DurabilityOrder,
    ];

    /// Stable identifier used in reports and allow directives.
    pub const fn id(self) -> &'static str {
        match self {
            Rule::MoneyArith => "money-arith",
            Rule::IdemStamp => "idem-stamp",
            Rule::DisplayParse => "display-parse",
            Rule::MetricPrefix => "metric-prefix",
            Rule::BlockingUnderLock => "blocking-under-lock",
            Rule::DurabilityOrder => "durability-order",
        }
    }

    /// Looks up a rule by its identifier.
    pub fn from_id(id: &str) -> Option<Rule> {
        Rule::ALL.into_iter().find(|r| r.id() == id)
    }
}

impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.id())
    }
}

/// One rule violation at a source location.
#[derive(Clone, Debug)]
pub struct Violation {
    pub rule: Rule,
    pub file: String,
    pub line: usize,
    pub message: String,
}

/// A violation suppressed by an allow directive.
#[derive(Clone, Debug)]
pub struct Suppressed {
    pub violation: Violation,
    /// Justification text from the directive.
    pub reason: String,
    /// Line the directive was declared on.
    pub declared_at: usize,
    /// Whether the directive was file-wide.
    pub file_wide: bool,
}

/// Analysis result across a workspace.
#[derive(Default)]
pub struct Report {
    /// Files scanned.
    pub files: usize,
    /// Live violations (fail the build).
    pub violations: Vec<Violation>,
    /// Violations silenced by counted allow directives.
    pub suppressed: Vec<Suppressed>,
    /// Malformed escape hatches (unknown rule id / missing reason) —
    /// these fail the build like violations.
    pub bad_directives: Vec<Violation>,
    /// Sites each rule actually inspected, by rule id. A rule with zero
    /// sites did not exercise on this tree — the driver treats that as
    /// suspicious (the invariant can't rot silently out of scope).
    pub sites: BTreeMap<&'static str, usize>,
}

impl Report {
    /// Records that `rule` inspected `n` more candidate sites.
    pub fn add_sites(&mut self, rule: Rule, n: usize) {
        *self.sites.entry(rule.id()).or_insert(0) += n;
    }

    /// Files a candidate violation, routing it through the file's allow
    /// directives.
    pub fn flag(&mut self, rule: Rule, file: &SourceFile, line: usize, message: String) {
        let violation = Violation { rule, file: file.path.clone(), line, message };
        match file.allow_for(rule.id(), line) {
            Some(allow) => self.suppressed.push(Suppressed {
                violation,
                reason: allow.reason.clone(),
                declared_at: allow.declared_at,
                file_wide: allow.line.is_none(),
            }),
            None => self.violations.push(violation),
        }
    }

    /// Rules that inspected at least one site.
    pub fn rules_exercised(&self) -> usize {
        self.sites.values().filter(|&&n| n > 0).count()
    }

    /// True when the tree is clean (no violations, no malformed
    /// directives).
    pub fn passed(&self) -> bool {
        self.violations.is_empty() && self.bad_directives.is_empty()
    }
}

/// Registered telemetry names parsed from `docs/OBSERVABILITY.md`
/// (see the "Registered name prefixes" section there).
#[derive(Clone, Debug, Default)]
pub struct NameRegistry {
    /// Allowed metric-name prefixes (each ends with `.`).
    pub metric_prefixes: Vec<String>,
    /// Allowed span component names (matched exactly).
    pub span_components: Vec<String>,
}

impl NameRegistry {
    /// Parses the registry table out of OBSERVABILITY.md. Rows look like
    /// `| metric | \`core.\` \`db.\` ... |` and
    /// `| span | \`net\` \`server.payment\` ... |`.
    pub fn parse(markdown: &str) -> Result<NameRegistry, String> {
        let mut reg = NameRegistry::default();
        for line in markdown.lines() {
            let trimmed = line.trim();
            let kind = if trimmed.starts_with("| metric ") || trimmed.starts_with("| metric|") {
                Some(true)
            } else if trimmed.starts_with("| span ") || trimmed.starts_with("| span|") {
                Some(false)
            } else {
                None
            };
            let Some(is_metric) = kind else { continue };
            let names = backtick_tokens(trimmed);
            if is_metric {
                reg.metric_prefixes.extend(names);
            } else {
                reg.span_components.extend(names);
            }
        }
        if reg.metric_prefixes.is_empty() || reg.span_components.is_empty() {
            return Err("docs/OBSERVABILITY.md has no 'Registered name prefixes' table \
                 (need `| metric | ... |` and `| span | ... |` rows)"
                .to_string());
        }
        Ok(reg)
    }

    /// Whether `name` starts with a registered metric prefix.
    pub fn metric_ok(&self, name: &str) -> bool {
        self.metric_prefixes.iter().any(|p| name.starts_with(p.as_str()))
    }

    /// Whether `component` is a registered span component.
    pub fn span_ok(&self, component: &str) -> bool {
        self.span_components.iter().any(|c| c == component)
    }
}

/// Section numbers (`1`, `2.3`, …) of every heading in
/// docs/STORAGE.md — the anchor set L8 validates `§`-citations against.
pub fn storage_sections(markdown: &str) -> Vec<String> {
    let mut out = Vec::new();
    for line in markdown.lines() {
        let trimmed = line.trim_start();
        if !trimmed.starts_with('#') {
            continue;
        }
        let rest = trimmed.trim_start_matches('#').trim_start();
        let number: String = rest.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        let number = number.trim_end_matches('.').to_string();
        if !number.is_empty() {
            out.push(number);
        }
    }
    out
}

fn backtick_tokens(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = line;
    while let Some(open) = rest.find('`') {
        let tail = &rest[open + 1..];
        let Some(close) = tail.find('`') else { break };
        let token = tail[..close].trim();
        if !token.is_empty() {
            out.push(token.to_string());
        }
        rest = &tail[close + 1..];
    }
    out
}

/// A set of prepared source files plus the doc-derived tables the
/// rules check against: the telemetry registry (L5) and the STORAGE.md
/// section anchors (L8).
pub struct Workspace {
    pub files: Vec<SourceFile>,
    pub registry: NameRegistry,
    pub storage_sections: Vec<String>,
}

impl Workspace {
    /// Runs every rule and audits the escape hatches.
    pub fn analyze(&self) -> Report {
        let mut report = Report { files: self.files.len(), ..Report::default() };
        for rule in Rule::ALL {
            report.add_sites(rule, 0); // every rule shows up in the table
        }
        for file in &self.files {
            rules::money_arith(file, &mut report);
            rules::display_parse(file, &mut report);
            rules::metric_prefix(file, &self.registry, &mut report);
            rules::blocking_under_lock(file, &mut report);
            rules::durability_order(file, &self.storage_sections, &mut report);
        }
        rules::idem_stamp(&self.files, &mut report);
        self.audit_directives(&mut report);
        report
    }

    /// Flags malformed allow directives: unknown rule ids and missing
    /// reasons both fail the run — a silent or typo'd escape hatch is
    /// worse than none.
    fn audit_directives(&self, report: &mut Report) {
        for file in &self.files {
            for allow in &file.allows {
                let Some(rule) = Rule::from_id(&allow.rule) else {
                    report.bad_directives.push(Violation {
                        rule: Rule::MoneyArith,
                        file: file.path.clone(),
                        line: allow.declared_at,
                        message: format!(
                            "lint:allow names unknown rule `{}` (known: {})",
                            allow.rule,
                            Rule::ALL.map(Rule::id).join(", ")
                        ),
                    });
                    continue;
                };
                if allow.reason.is_empty() {
                    report.bad_directives.push(Violation {
                        rule,
                        file: file.path.clone(),
                        line: allow.declared_at,
                        message: format!(
                            "lint:allow({}) has no justification — a reason is mandatory",
                            rule.id()
                        ),
                    });
                }
            }
        }
    }
}

/// Renders the human report. `verbose` additionally lists suppressions.
pub fn render_report(report: &Report) -> String {
    let mut out = String::new();
    out.push_str(&format!("gridbank-lint: scanned {} files\n", report.files));
    for rule in Rule::ALL {
        let id = rule.id();
        let v = report.violations.iter().filter(|x| x.rule == rule).count();
        let s = report.suppressed.iter().filter(|x| x.violation.rule == rule).count();
        let sites = report.sites.get(id).copied().unwrap_or(0);
        out.push_str(&format!(
            "  {id:<19} {v:>3} violation{} {sites:>5} sites inspected  {s:>2} allowed\n",
            if v == 1 { " " } else { "s" }
        ));
    }
    if !report.suppressed.is_empty() {
        // One line per *directive*, with how many findings it absorbed.
        let mut by_directive: BTreeMap<(String, usize, &'static str), (usize, &Suppressed)> =
            BTreeMap::new();
        for s in &report.suppressed {
            by_directive
                .entry((s.violation.file.clone(), s.declared_at, s.violation.rule.id()))
                .and_modify(|(n, _)| *n += 1)
                .or_insert((1, s));
        }
        out.push_str(&format!(
            "allow directives in effect ({} directives, {} findings suppressed):\n",
            by_directive.len(),
            report.suppressed.len()
        ));
        for ((file, declared_at, rule), (n, s)) in &by_directive {
            out.push_str(&format!(
                "  {file}:{declared_at}  [{rule}]{}  x{n}  {}\n",
                if s.file_wide { " (file-wide)" } else { "" },
                s.reason
            ));
        }
    }
    for v in report.violations.iter().chain(&report.bad_directives) {
        out.push_str(&format!("error: {}:{}  [{}] {}\n", v.file, v.line, v.rule, v.message));
    }
    let verdict = if report.passed() {
        format!("PASS ({} rules exercised)", report.rules_exercised())
    } else {
        format!("FAIL ({} violations)", report.violations.len() + report.bad_directives.len())
    };
    out.push_str(&verdict);
    out.push('\n');
    out
}
