//! Workspace driver: walks `crates/*/src` (plus the umbrella `src/`,
//! the root `tests/`, and per-crate `tests/`), loads the doc-declared
//! tables the rules check against — telemetry names from
//! `docs/OBSERVABILITY.md`, section anchors from `docs/STORAGE.md` —
//! runs every rule, prints the report, and exits non-zero on any
//! violation. Invoked as `cargo run -p gridbank-lint` from
//! `scripts/check.sh`.

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gridbank_lint::{render_report, storage_sections, NameRegistry, SourceFile, Workspace};

fn main() -> ExitCode {
    let root = match workspace_root() {
        Ok(root) => root,
        Err(err) => {
            eprintln!("gridbank-lint: {err}");
            return ExitCode::FAILURE;
        }
    };
    let obs_doc = root.join("docs/OBSERVABILITY.md");
    let registry = match std::fs::read_to_string(&obs_doc) {
        Ok(text) => match NameRegistry::parse(&text) {
            Ok(reg) => reg,
            Err(err) => {
                eprintln!("gridbank-lint: {err}");
                return ExitCode::FAILURE;
            }
        },
        Err(err) => {
            eprintln!("gridbank-lint: cannot read {}: {err}", obs_doc.display());
            return ExitCode::FAILURE;
        }
    };
    let storage_doc = root.join("docs/STORAGE.md");
    let sections = match std::fs::read_to_string(&storage_doc) {
        Ok(text) => storage_sections(&text),
        Err(err) => {
            eprintln!("gridbank-lint: cannot read {}: {err}", storage_doc.display());
            return ExitCode::FAILURE;
        }
    };
    if sections.is_empty() {
        eprintln!("gridbank-lint: docs/STORAGE.md has no numbered headings — L8 anchors broken");
        return ExitCode::FAILURE;
    }

    let mut files = Vec::new();
    let mut paths = collect_sources(&root);
    paths.sort();
    for path in paths {
        let rel = path.strip_prefix(&root).unwrap_or(&path).display().to_string();
        match std::fs::read_to_string(&path) {
            Ok(text) => files.push(SourceFile::parse(&rel, &text)),
            Err(err) => {
                eprintln!("gridbank-lint: cannot read {rel}: {err}");
                return ExitCode::FAILURE;
            }
        }
    }
    if files.is_empty() {
        eprintln!("gridbank-lint: no sources found under {}", root.display());
        return ExitCode::FAILURE;
    }

    let workspace = Workspace { files, registry, storage_sections: sections };
    let report = workspace.analyze();
    print!("{}", render_report(&report));
    if report.rules_exercised() == 0 {
        eprintln!("gridbank-lint: no rule inspected any site — scan scope is broken");
        return ExitCode::FAILURE;
    }
    if report.passed() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Ascends from the current directory to the first `Cargo.toml` that
/// declares `[workspace]`.
fn workspace_root() -> Result<PathBuf, String> {
    let mut dir = std::env::current_dir().map_err(|e| format!("cannot read cwd: {e}"))?;
    loop {
        let manifest = dir.join("Cargo.toml");
        if manifest.is_file() {
            let text = std::fs::read_to_string(&manifest)
                .map_err(|e| format!("cannot read {}: {e}", manifest.display()))?;
            if text.contains("[workspace]") {
                return Ok(dir);
            }
        }
        if !dir.pop() {
            return Err("no workspace Cargo.toml above the current directory".to_string());
        }
    }
}

/// Rust sources in scope: `crates/*/src/**`, the umbrella `src/**`,
/// the root `tests/**`, and per-crate `tests/**`. `vendor/`, `target/`,
/// `benches/`, and `examples/` stay out — vendored substitutes mirror
/// upstream code we don't own, and bench/example code is measured, not
/// shipped. Integration tests ARE in scope: a test that parses Display
/// text or does bare money arithmetic rots just like production code.
fn collect_sources(root: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if let Ok(entries) = std::fs::read_dir(&crates_dir) {
        for entry in entries.flatten() {
            for sub in ["src", "tests"] {
                let dir = entry.path().join(sub);
                if dir.is_dir() {
                    walk_rs(&dir, &mut out);
                }
            }
        }
    }
    for sub in ["src", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            walk_rs(&dir, &mut out);
        }
    }
    out
}

fn walk_rs(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else { return };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            walk_rs(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
}
