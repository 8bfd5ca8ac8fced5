//! The order in which the store makes a file durable, read off its
//! source. A snapshot and the `COMPACTED` marker are published write →
//! fsync → rename → directory fsync (docs/STORAGE.md §3.3, §2.4), and a
//! compaction pass writes the marker before it deletes a segment (§4).
//! A crash-state enumerator that reopens the store at every intermediate
//! file-system state would check the behaviour itself; until one exists,
//! these assertions keep the order from being edited away unnoticed.

// Offsets into the source text; no money is involved.
#![allow(clippy::arithmetic_side_effects)]

const STORE: &str = include_str!("../src/store.rs");
const STORAGE_MD: &str = include_str!("../../../docs/STORAGE.md");

/// The text of `fn name` in store.rs, up to the closing brace at its
/// signature's indentation.
fn body(name: &str) -> &'static str {
    let start = STORE.find(&format!("fn {name}(")).unwrap_or_else(|| panic!("no fn {name}"));
    let line_start = STORE[..start].rfind('\n').map_or(0, |n| n + 1);
    let indent: String =
        STORE[line_start..start].chars().take_while(|c| c.is_whitespace()).collect();
    let rest = &STORE[start..];
    let end = rest.find(&format!("\n{indent}}}\n")).unwrap_or_else(|| panic!("end of {name}"));
    &rest[..end]
}

#[test]
fn snapshot_and_marker_are_written_synced_renamed_then_the_directory_synced() {
    for name in ["write_snapshot", "write_compacted_marker"] {
        let text = body(name);
        let mut from = 0;
        for step in [".write_all(", ".sync_all(", "fs::rename(", "sync_dir("] {
            let at = text[from..].find(step).unwrap_or_else(|| {
                panic!(
                    "{name}: `{step}` missing or out of order (write → fsync → rename → sync_dir)"
                )
            });
            from += at + step.len();
        }
    }
}

#[test]
fn compaction_writes_the_marker_before_its_first_segment_deletion() {
    let text = body("compact");
    let marker = text.find("write_compacted_marker(").expect("compact writes the marker");
    let delete = text.find("remove_file(segment_path").expect("compact deletes segments");
    assert!(marker < delete, "compact deletes a segment before the COMPACTED marker is durable");
}

#[test]
fn every_storage_md_citation_in_store_rs_names_a_heading() {
    let headings: Vec<&str> = STORAGE_MD
        .lines()
        .filter(|l| l.starts_with('#'))
        .filter_map(|l| l.trim_start_matches('#').split_whitespace().next())
        .map(|n| n.trim_end_matches('.'))
        .filter(|n| n.starts_with(|c: char| c.is_ascii_digit()))
        .collect();
    let mut cited = 0;
    for cite in STORE.split("STORAGE.md §").skip(1) {
        let number: String = cite.chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
        let number = number.trim_end_matches('.');
        assert!(
            headings.contains(&number),
            "store.rs cites docs/STORAGE.md §{number}: no such heading"
        );
        cited += 1;
    }
    assert!(cited > 0, "store.rs cites no STORAGE.md section");
}
