//! Fixture tests: every rule must flag its seeded violation and stay
//! quiet on the compliant twin. These are the lint's own regression
//! harness — if a rule stops firing on its fixture, the workspace scan
//! has silently lost coverage.

use gridbank_lint::{
    render_report, storage_sections, NameRegistry, Report, Rule, SourceFile, Workspace,
};

fn registry() -> NameRegistry {
    NameRegistry::parse(
        "| metric | `core.` `net.` |\n\
         | span | `net` `server.payment` |",
    )
    .expect("fixture registry parses")
}

fn workspace(files: Vec<SourceFile>) -> Workspace {
    Workspace {
        files,
        registry: registry(),
        storage_sections: vec!["1".into(), "2".into(), "2.3".into(), "3".into(), "3.4".into()],
    }
}

fn analyze(path: &str, source: &str) -> Report {
    workspace(vec![SourceFile::parse(path, source)]).analyze()
}

fn violations(report: &Report, rule: Rule) -> usize {
    report.violations.iter().filter(|v| v.rule == rule).count()
}

// ---- L1 money-arith ----

#[test]
fn money_arith_flags_bare_ops_and_lossy_casts() {
    let report = analyze(
        "crates/sim/src/fixture.rs",
        r#"
fn total(a: Credits, b: Credits) -> i128 {
    a.micro() + b.micro()
}
fn lossy(a: Credits) -> u64 {
    a.micro() as u64
}
"#,
    );
    assert_eq!(violations(&report, Rule::MoneyArith), 2, "{:?}", report.violations);
}

#[test]
fn money_arith_accepts_checked_helpers_and_widening() {
    let report = analyze(
        "crates/sim/src/fixture.rs",
        r#"
fn total(a: Credits, b: Credits) -> Credits {
    a.checked_add(b).unwrap_or(Credits::ZERO)
}
fn widen(a: Credits) -> i128 {
    a.micro() as i128
}
fn telemetry(a: Credits) -> u64 {
    a.metric_micro()
}
"#,
    );
    assert_eq!(violations(&report, Rule::MoneyArith), 0, "{:?}", report.violations);
}

#[test]
fn money_arith_skips_test_code_and_counts_allows() {
    let report = analyze(
        "crates/sim/src/fixture.rs",
        r#"
fn tagged(a: Credits) -> i128 {
    // lint:allow(money-arith) fixture: justified exception
    a.micro() + 1
}

#[cfg(test)]
mod tests {
    fn free_for_all(a: Credits) -> i128 {
        a.micro() * 2 + 1
    }
}
"#,
    );
    assert_eq!(violations(&report, Rule::MoneyArith), 0, "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert_eq!(report.suppressed[0].reason, "fixture: justified exception");
}

#[test]
fn money_arith_ignores_operators_in_strings_and_comments() {
    let report = analyze(
        "crates/sim/src/fixture.rs",
        r#"
fn describe(a: Credits) -> String {
    // a.micro() + b.micro() would be wrong here
    format!("balance {a} = x + y")
}
"#,
    );
    assert_eq!(violations(&report, Rule::MoneyArith), 0, "{:?}", report.violations);
}

// ---- L2 idem-stamp ----

const API_OK: &str = r#"
impl BankRequest {
    pub fn variant_name(&self) -> &'static str {
        match self {
            BankRequest::CreateAccount { .. } => "CreateAccount",
            BankRequest::DirectTransfer { .. } => "DirectTransfer",
        }
    }
    pub fn is_mutating(&self) -> bool {
        match self {
            BankRequest::CreateAccount { .. } => true,
            BankRequest::DirectTransfer { .. } => true,
        }
    }
}
"#;

const SERVER_OK: &str = r#"
impl GridBank {
    fn handle_keyed(&self, req: BankRequest) -> BankResponse {
        if let Some(hit) = self.db.idem_lookup(&cert, key) {
            return hit;
        }
        let response = self.dispatch(req);
        self.db.idem_record(&cert, key, &response);
        response
    }
    fn dispatch(&self, req: BankRequest) -> BankResponse {
        match req {
            BankRequest::CreateAccount { .. } => self.create(),
            BankRequest::DirectTransfer { .. } => self.transfer(),
        }
    }
}
"#;

fn analyze_core(api: &str, server: &str) -> Report {
    workspace(vec![
        SourceFile::parse("crates/core/src/api.rs", api),
        SourceFile::parse("crates/core/src/server.rs", server),
    ])
    .analyze()
}

#[test]
fn idem_stamp_passes_on_explicit_classification() {
    let report = analyze_core(API_OK, SERVER_OK);
    assert_eq!(violations(&report, Rule::IdemStamp), 0, "{:?}", report.violations);
}

#[test]
fn idem_stamp_rejects_wildcard_is_mutating() {
    let api = API_OK.replace(
        "BankRequest::CreateAccount { .. } => true,\n            BankRequest::DirectTransfer { .. } => true,",
        "_ => true,",
    );
    let report = analyze_core(&api, SERVER_OK);
    // Wildcard arm plus two unclassified variants.
    assert!(violations(&report, Rule::IdemStamp) >= 1, "{:?}", report.violations);
}

#[test]
fn idem_stamp_rejects_dispatch_outside_handle_keyed() {
    let server = format!(
        "{SERVER_OK}
impl SideDoor {{
    fn sneak(&self, req: BankRequest) -> BankResponse {{
        self.dispatch(req)
    }}
}}
"
    );
    let report = analyze_core(API_OK, &server);
    assert_eq!(violations(&report, Rule::IdemStamp), 1, "{:?}", report.violations);
}

#[test]
fn idem_stamp_requires_idem_calls_in_handle_keyed() {
    let server = SERVER_OK.replace("self.db.idem_record(&cert, key, &response);", "");
    let report = analyze_core(API_OK, &server);
    assert_eq!(violations(&report, Rule::IdemStamp), 1, "{:?}", report.violations);
}

#[test]
fn idem_stamp_requires_idem_field_next_to_transfer_rows() {
    let bad = r#"
fn build(&self) -> CommitRows {
    CommitRows {
        transactions: vec![],
        transfer: Some(record),
        ib_out: None,
    }
}
"#;
    let report = analyze("crates/core/src/fixture.rs", bad);
    assert_eq!(violations(&report, Rule::IdemStamp), 1, "{:?}", report.violations);

    let good = bad.replace("ib_out: None,", "ib_out: None,\n        idem: stamp,");
    let report = analyze("crates/core/src/fixture.rs", &good);
    assert_eq!(violations(&report, Rule::IdemStamp), 0, "{:?}", report.violations);

    // `transfer: None` carries no audit row, so no stamp is required.
    let none = bad.replace("transfer: Some(record),", "transfer: None,");
    let report = analyze("crates/core/src/fixture.rs", &none);
    assert_eq!(violations(&report, Rule::IdemStamp), 0, "{:?}", report.violations);
}

// ---- L4 display-parse ----

#[test]
fn display_parse_flags_matching_on_error_text() {
    let report = analyze(
        "crates/broker/src/fixture.rs",
        r#"
fn classify(e: &ErrorFrame) -> bool {
    if e.message.contains("insufficient") {
        return true;
    }
    e.to_string().starts_with("NET")
}
"#,
    );
    assert_eq!(violations(&report, Rule::DisplayParse), 2, "{:?}", report.violations);
}

#[test]
fn display_parse_permits_structured_fields_and_ordinary_strings() {
    let report = analyze(
        "crates/broker/src/fixture.rs",
        r#"
fn classify(e: &ErrorFrame, names: &HashSet<String>) -> bool {
    if let ErrorDetail::InsufficientFunds { needed, .. } = &e.detail {
        return needed.is_positive();
    }
    names.contains("alice") && e.code.starts_with("srv")
}
"#,
    );
    assert_eq!(violations(&report, Rule::DisplayParse), 0, "{:?}", report.violations);
}

// ---- L5 metric-prefix ----

#[test]
fn metric_prefix_checks_literal_names_against_registry() {
    let report = analyze(
        "crates/gsp/src/fixture.rs",
        r#"
fn observe(timer: Stopwatch) {
    gridbank_obs::count("core.fixture.hits", 1);
    gridbank_obs::count("bogus.fixture.hits", 1);
    timer.record_named("net.fixture.duration_ns");
}
"#,
    );
    assert_eq!(violations(&report, Rule::MetricPrefix), 1, "{:?}", report.violations);
    assert!(report.violations[0].message.contains("bogus.fixture.hits"));
}

#[test]
fn metric_prefix_checks_span_components_exactly() {
    let report = analyze(
        "crates/gsp/src/fixture.rs",
        r#"
fn trace() {
    let _a = gridbank_obs::span("server.payment", "fixture");
    let _b = gridbank_obs::span("server.shadow", "fixture");
}
"#,
    );
    assert_eq!(violations(&report, Rule::MetricPrefix), 1, "{:?}", report.violations);
    assert!(report.violations[0].message.contains("server.shadow"));
}

#[test]
fn metric_prefix_skips_dynamic_names_and_reads_multiline_calls() {
    let report = analyze(
        "crates/gsp/src/fixture.rs",
        r#"
fn observe(name: &str) {
    gridbank_obs::count(name, 1);
    gridbank_obs::count(
        "core.fixture.multiline",
        1,
    );
    gridbank_obs::count(
        "nope.fixture.multiline",
        1,
    );
}
"#,
    );
    assert_eq!(violations(&report, Rule::MetricPrefix), 1, "{:?}", report.violations);
}

// ---- L7 blocking-under-lock ----

#[test]
fn blocking_under_lock_flags_io_inside_guard_scope() {
    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn flush(&self) {
    let writer = self.writer.lock();
    file.sync_all().ok();
}
"#,
    );
    assert_eq!(violations(&report, Rule::BlockingUnderLock), 1, "{:?}", report.violations);
    assert!(report.violations[0].message.contains("sync_all"));

    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn flush(&self) {
    let writer = self.writer.lock();
    drop(writer);
    file.sync_all().ok();
}
"#,
    );
    assert_eq!(violations(&report, Rule::BlockingUnderLock), 0, "{:?}", report.violations);
}

#[test]
fn blocking_under_lock_covers_every_core_file() {
    // guarantee.rs declares no lock anywhere: the rule scans all of
    // crates/core/src/, not a list of lock-bearing files.
    let source = r#"
fn persist(&self) {
    let reservations = self.reservations.lock();
    fs::write(&path, &bytes).ok();
}
"#;
    let report = analyze("crates/core/src/guarantee.rs", source);
    assert_eq!(violations(&report, Rule::BlockingUnderLock), 1, "{:?}", report.violations);
    assert!(
        report.violations[0].message.contains("guard `reservations` (bound line 3)"),
        "{:?}",
        report.violations
    );

    let report = analyze("crates/sim/src/fixture.rs", source);
    assert_eq!(violations(&report, Rule::BlockingUnderLock), 0, "{:?}", report.violations);
}

#[test]
fn blocking_under_lock_releases_guards_at_scope_end() {
    let report = analyze(
        "crates/core/src/guarantee.rs",
        r#"
fn persist(&self) {
    {
        let reservations = self.reservations.lock();
        reservations.len();
    }
    fs::write(&path, &bytes).ok();
}
"#,
    );
    assert_eq!(violations(&report, Rule::BlockingUnderLock), 0, "{:?}", report.violations);
}

#[test]
fn blocking_under_lock_catches_same_line_chains() {
    let report = analyze(
        "crates/core/src/server.rs",
        r#"
fn next_job(&self) -> Job {
    let job = rx.lock().recv();
    job.unwrap_or_default()
}
"#,
    );
    assert_eq!(violations(&report, Rule::BlockingUnderLock), 1, "{:?}", report.violations);
}

#[test]
fn blocking_under_lock_allow_requires_and_prints_reason() {
    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn flush(&self) {
    let writer = self.writer.lock();
    // lint:allow(blocking-under-lock) group-commit fsync: batch absorbs the stall
    file.sync_data().ok();
}
"#,
    );
    assert_eq!(violations(&report, Rule::BlockingUnderLock), 0, "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    let rendered = render_report(&report);
    assert!(
        rendered.contains("group-commit fsync: batch absorbs the stall"),
        "reason must be printed:\n{rendered}"
    );
}

// ---- L8 durability-order ----

#[test]
fn durability_order_requires_fsync_before_rename() {
    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn write_snapshot(&self) -> io::Result<()> {
    f.write_all(&buf)?;
    fs::rename(&tmp, &path)?;
    Ok(())
}
"#,
    );
    assert_eq!(violations(&report, Rule::DurabilityOrder), 1, "{:?}", report.violations);
    assert!(report.violations[0].message.contains("file fsync"));

    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn write_snapshot(&self) -> io::Result<()> {
    f.write_all(&buf)?;
    f.sync_all()?;
    fs::rename(&tmp, &path)?;
    sync_dir(&dir)?;
    Ok(())
}
"#,
    );
    assert_eq!(violations(&report, Rule::DurabilityOrder), 0, "{:?}", report.violations);
}

#[test]
fn durability_order_requires_the_marker_rename_to_be_made_durable() {
    // The body `write_compacted_marker` had while "marker before delete"
    // rested on directory-entry ordering nobody asked the disk for.
    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn write_compacted_marker(dir: &Path, through: u64, fsync: bool) -> Result<(), BankError> {
    f.write_all(&bytes)?;
    if fsync {
        f.sync_all()?;
    }
    fs::rename(&tmp, &final_path).map_err(|e| storage_err("compacted marker rename", e))
}
"#,
    );
    assert_eq!(violations(&report, Rule::DurabilityOrder), 1, "{:?}", report.violations);
    assert!(report.violations[0].message.contains("directory fsync"));

    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn write_compacted_marker(dir: &Path, through: u64, fsync: bool) -> Result<(), BankError> {
    f.write_all(&bytes)?;
    if fsync {
        f.sync_all()?;
    }
    fs::rename(&tmp, &final_path)?;
    if fsync {
        sync_dir(dir)?;
    }
    Ok(())
}
"#,
    );
    assert_eq!(violations(&report, Rule::DurabilityOrder), 0, "{:?}", report.violations);
}

#[test]
fn durability_order_requires_marker_before_segment_deletion() {
    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn compact(&self) {
    fs::remove_file(segment_path(dir, seq)).ok();
    self.write_compacted_marker(cut).ok();
}
"#,
    );
    assert_eq!(violations(&report, Rule::DurabilityOrder), 1, "{:?}", report.violations);
    assert!(report.violations[0].message.contains("COMPACTED"));

    let report = analyze(
        "crates/core/src/store.rs",
        r#"
fn compact(&self) {
    self.write_compacted_marker(cut).ok();
    fs::remove_file(segment_path(dir, seq)).ok();
}
"#,
    );
    assert_eq!(violations(&report, Rule::DurabilityOrder), 0, "{:?}", report.violations);
}

#[test]
fn durability_order_validates_storage_doc_anchors() {
    let report = analyze(
        "crates/core/src/store.rs",
        r#"
// Atomic publish per docs/STORAGE.md §3.4.
// And a stale one: docs/STORAGE.md §9.9 no longer exists.
fn unrelated() {}
"#,
    );
    assert_eq!(violations(&report, Rule::DurabilityOrder), 1, "{:?}", report.violations);
    assert!(report.violations[0].message.contains("9.9"));
}

#[test]
fn storage_sections_parse_numbered_headings() {
    let sections = storage_sections(
        "# Storage\n## 1. Layout\n### 2.1 Segments\n## Unnumbered\n### 3.4 Compaction\n",
    );
    assert_eq!(sections, vec!["1", "2.1", "3.4"]);
}

// ---- escape-hatch audit ----

#[test]
fn allow_file_prints_its_reason_in_the_report() {
    let report = analyze(
        "crates/sim/src/fixture.rs",
        "// lint:allow-file(money-arith) fixture-wide waiver for synthetic totals\n\
         fn f(a: Credits) -> i128 { a.micro() + 1 }\n",
    );
    assert!(report.passed(), "{:?}", report.violations);
    assert_eq!(report.suppressed.len(), 1);
    assert!(report.suppressed[0].file_wide);
    let rendered = render_report(&report);
    assert!(
        rendered.contains("fixture-wide waiver for synthetic totals"),
        "file-wide reason must be printed:\n{rendered}"
    );
    assert!(rendered.contains("(file-wide)"), "{rendered}");
}

#[test]
fn malformed_directives_fail_the_run() {
    let report = analyze(
        "crates/sim/src/fixture.rs",
        r#"
// lint:allow(no-such-rule) typo'd rule id
fn a() {}
// lint:allow(money-arith)
fn b() {}
"#,
    );
    assert_eq!(report.bad_directives.len(), 2, "{:?}", report.bad_directives);
    assert!(!report.passed());
}

#[test]
fn registry_parse_rejects_missing_table() {
    assert!(NameRegistry::parse("# Observability\nno table here\n").is_err());
}
