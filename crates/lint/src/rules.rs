//! The six domain rules. Each operates on masked source (comments and
//! literal bodies blanked — see [`crate::source::mask`]) so substring
//! matching cannot be fooled by strings or docs, and skips
//! `#[cfg(test)]` / `#[cfg(loom)]` regions.

use crate::source::{fn_body, variants_of, SourceFile};
use crate::{NameRegistry, Report, Rule};

/// Tokens that put a line in "money context" for L1. `Credits` is the
/// currency type; `.micro()` / `.whole_gd()` expose its raw integers;
/// `MICRO_PER_GD` is the fixed-point scale.
const MONEY_TOKENS: [&str; 4] = ["Credits", ".micro()", ".whole_gd()", "MICRO_PER_GD"];

/// Cast targets that are always-widening from the `i128` money
/// representation, hence lossless.
const WIDENING_TARGETS: [&str; 2] = ["i128", "u128"];

/// L1 `money-arith`: in money context, arithmetic must go through the
/// `checked_*` / `saturating_*` / `mul_ratio` helpers on `Credits`, and
/// the only sanctioned money→integer conversion is
/// `Credits::metric_micro()`. Bare `+ - * / %` operators and lossy `as`
/// casts are flagged.
pub fn money_arith(file: &SourceFile, report: &mut Report) {
    for (idx, line) in file.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        if !MONEY_TOKENS.iter().any(|t| line.contains(t)) {
            continue;
        }
        report.add_sites(Rule::MoneyArith, 1);
        for (col, target) in casts(line) {
            if WIDENING_TARGETS.contains(&target.as_str()) {
                continue;
            }
            let _ = col;
            report.flag(
                Rule::MoneyArith,
                file,
                lineno,
                format!(
                    "lossy `as {target}` cast in money context — use \
                     Credits::metric_micro() for telemetry or a checked conversion"
                ),
            );
        }
        for op in bare_operators(line) {
            report.flag(
                Rule::MoneyArith,
                file,
                lineno,
                format!(
                    "bare `{op}` arithmetic in money context — use checked_add/checked_sub/\
                     checked_mul/mul_ratio (or saturating_add for metrics)"
                ),
            );
        }
    }
}

/// Every `expr as Type` cast on the line, as (column, target-type).
fn casts(line: &str) -> Vec<(usize, String)> {
    let chars: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    let mut i = 0;
    while i + 4 <= chars.len() {
        // Match the keyword `as` with identifier boundaries either side.
        if chars[i] == 'a'
            && chars.get(i + 1) == Some(&'s')
            && (i == 0 || !is_ident(chars[i - 1]))
            && chars.get(i + 2).is_some_and(|c| c.is_whitespace())
        {
            // Require something cast-able before it (not `as` in a word).
            let prev = chars[..i].iter().rev().find(|c| !c.is_whitespace());
            let castable = matches!(prev, Some(&c) if is_ident(c) || c == ')' || c == ']');
            if castable {
                let mut j = i + 2;
                while j < chars.len() && chars[j].is_whitespace() {
                    j += 1;
                }
                let target: String = chars[j..].iter().take_while(|c| is_ident(**c)).collect();
                if !target.is_empty() {
                    out.push((i, target));
                }
            }
            i += 2;
            continue;
        }
        i += 1;
    }
    out
}

/// Binary `+ - * / %` operators (and their compound-assign forms) on a
/// masked line, excluding `->`, unary minus/deref, and references.
fn bare_operators(line: &str) -> Vec<char> {
    let chars: Vec<char> = line.chars().collect();
    let mut out = Vec::new();
    for (i, &c) in chars.iter().enumerate() {
        if !matches!(c, '+' | '-' | '*' | '/' | '%') {
            continue;
        }
        let next = chars.get(i + 1).copied();
        // `->` arrow, `//` (only in masked residue), doubled symbols.
        if c == '-' && next == Some('>') {
            continue;
        }
        if (c == '/' && next == Some('/')) || (i > 0 && chars[i - 1] == '/' && c == '/') {
            continue;
        }
        // Binary operators need an operand on the left: identifier tail,
        // close paren/bracket, or a `?` propagation. Anything else means
        // unary minus, deref `*`, or a pattern position.
        let prev = chars[..i].iter().rev().find(|ch| !ch.is_whitespace());
        let has_left_operand =
            matches!(prev, Some(p) if is_ident(*p) || matches!(p, ')' | ']' | '?' | '"'));
        if !has_left_operand {
            continue;
        }
        // `&mut *x` / `ref mut` style derefs: previous token is a keyword.
        if c == '*' {
            let word = prev_word(&chars, i);
            if matches!(word.as_str(), "mut" | "ref" | "return" | "in" | "as" | "else") {
                continue;
            }
        }
        // The right side must be an operand too (filters `x <-` typos and
        // stray punctuation in masked residue).
        let after = chars[i + 1..].iter().find(|ch| !ch.is_whitespace());
        let rhs_start = if next == Some('=') {
            // Compound assign `+=` — arithmetic all the same.
            chars[i + 2..].iter().find(|ch| !ch.is_whitespace())
        } else {
            after
        };
        let has_right_operand = matches!(
            rhs_start,
            Some(r) if is_ident(*r) || matches!(r, '(' | '-' | '*' | '&' | '"' | '\'')
        );
        if !has_right_operand {
            continue;
        }
        out.push(c);
    }
    out
}

fn prev_word(chars: &[char], before: usize) -> String {
    let mut end = before;
    while end > 0 && chars[end - 1].is_whitespace() {
        end -= 1;
    }
    let mut start = end;
    while start > 0 && is_ident(chars[start - 1]) {
        start -= 1;
    }
    chars[start..end].iter().collect()
}

fn is_ident(c: char) -> bool {
    c.is_ascii_alphanumeric() || c == '_'
}

/// String methods that, applied to Display text, constitute parsing (L4).
const PARSE_SINKS: [&str; 10] = [
    "contains(",
    "split(",
    "splitn(",
    "rsplit(",
    "strip_prefix(",
    "strip_suffix(",
    "find(",
    "starts_with(",
    "ends_with(",
    "parse",
];

/// Receiver chain segments that mark the value as human-readable error
/// text rather than a structured field.
const DISPLAY_SOURCES: [&str; 3] = ["message", "msg", "to_string()"];

/// L4 `display-parse`: error frames carry a structured `detail` field;
/// matching on rendered `message` text (or any `to_string()` output)
/// couples callers to wording and breaks silently when copy changes.
pub fn display_parse(file: &SourceFile, report: &mut Report) {
    for (idx, line) in file.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if file.is_test_line(lineno) {
            continue;
        }
        for sink in PARSE_SINKS {
            let needle = format!(".{sink}");
            let mut from = 0;
            while let Some(pos) = line[from..].find(&needle) {
                let at = from + pos;
                from = at + needle.len();
                // `parse` must be the whole method name (`.parse()` or
                // `.parse::<`), not a prefix of e.g. `.parse_config(`.
                if sink == "parse" {
                    let tail = &line[at + needle.len()..];
                    if !(tail.starts_with("()") || tail.starts_with("::<")) {
                        continue;
                    }
                }
                report.add_sites(Rule::DisplayParse, 1);
                let chain = receiver_chain(line, at);
                if chain.iter().any(|seg| DISPLAY_SOURCES.contains(&seg.as_str())) {
                    report.flag(
                        Rule::DisplayParse,
                        file,
                        lineno,
                        format!(
                            "parsing Display text via `.{sink}` on `{}` — match on the \
                             structured error detail field instead",
                            chain.join(".")
                        ),
                    );
                }
            }
        }
    }
}

/// The dotted receiver chain ending at byte offset `end` (exclusive),
/// e.g. for `e.message.contains(` with `end` at the final `.`, returns
/// `["e", "message"]`.
fn receiver_chain(line: &str, end: usize) -> Vec<String> {
    let chars: Vec<char> = line[..end].chars().collect();
    let mut i = chars.len();
    while i > 0 {
        let c = chars[i - 1];
        if is_ident(c) || matches!(c, '.' | '(' | ')' | '?') {
            i -= 1;
        } else {
            break;
        }
    }
    let chain: String = chars[i..].iter().collect();
    chain.split('.').map(|s| s.trim_matches('?').to_string()).filter(|s| !s.is_empty()).collect()
}

/// Telemetry call markers whose first string literal is a metric name.
const METRIC_MARKERS: [&str; 5] = [
    "gridbank_obs::count(",
    "gridbank_obs::observe(",
    "gridbank_obs::gauge_set(",
    ".record_named(",
    ".record_named_label(",
];

/// Span constructors whose first string literal is the component.
const SPAN_MARKERS: [&str; 2] = ["gridbank_obs::span(", "gridbank_obs::span_under("];

/// L5 `metric-prefix`: every literal metric name must start with a
/// registered prefix and every literal span component must be a
/// registered component (table in docs/OBSERVABILITY.md). Dynamic names
/// are out of static reach and skipped.
pub fn metric_prefix(file: &SourceFile, registry: &NameRegistry, report: &mut Report) {
    if file.path.contains("crates/obs/src/") {
        // The obs crate is the plumbing itself; names pass through it as
        // parameters, not literals it owns.
        return;
    }
    let masked_text = file.masked_lines.join("\n");
    // Masking preserves the *char* structure (one output char per input
    // char), so char-indexed views of masked and raw text stay aligned
    // even around multi-byte characters in comments.
    let masked: Vec<char> = masked_text.chars().collect();
    let raw: Vec<char> = file.raw_lines.join("\n").chars().collect();
    for (markers, is_span) in [(&METRIC_MARKERS[..], false), (&SPAN_MARKERS[..], true)] {
        for marker in markers {
            let mut from = 0;
            while let Some(pos) = masked_text[from..].find(marker) {
                let at = from + pos;
                from = at + marker.len();
                let lineno = masked_text[..at].matches('\n').count() + 1;
                if file.is_test_line(lineno) {
                    continue;
                }
                let open = masked_text[..at + marker.len()].chars().count() - 1;
                let Some(close) = match_paren(&masked, open) else { continue };
                let Some(name) = first_literal(&masked, &raw, open + 1, close) else {
                    continue; // dynamic name — not statically checkable
                };
                report.add_sites(Rule::MetricPrefix, 1);
                let ok = if is_span { registry.span_ok(&name) } else { registry.metric_ok(&name) };
                if !ok {
                    let kind = if is_span { "span component" } else { "metric name" };
                    let want = if is_span {
                        format!("registered components: {}", registry.span_components.join(", "))
                    } else {
                        format!("registered prefixes: {}", registry.metric_prefixes.join(" "))
                    };
                    report.flag(
                        Rule::MetricPrefix,
                        file,
                        lineno,
                        format!(
                            "{kind} \"{name}\" is not in docs/OBSERVABILITY.md ({want}) — \
                             register it there or fix the name"
                        ),
                    );
                }
            }
        }
    }
}

/// Char index of the `)` matching the `(` at `open`, if balanced.
fn match_paren(masked: &[char], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (off, c) in masked[open..].iter().enumerate() {
        match c {
            '(' => depth += 1,
            ')' => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

/// First `"..."` literal between char indices `start..end`, read from
/// the raw text (masking keeps the quotes but blanks the contents).
fn first_literal(masked: &[char], raw: &[char], start: usize, end: usize) -> Option<String> {
    let open = masked[start..end].iter().position(|&c| c == '"')? + start;
    let close = masked[open + 1..end].iter().position(|&c| c == '"')? + open + 1;
    Some(raw[open + 1..close].iter().collect())
}

/// L2 `idem-stamp`: structural checks tying the RPC surface to the
/// idempotency journal. All four must hold:
///
/// 1. `BankRequest::is_mutating` in `crates/core/src/api.rs` classifies
///    every variant explicitly — no `_ =>` wildcard, and every variant
///    named in `variant_name` appears.
/// 2. `dispatch` in `crates/core/src/server.rs` has no wildcard arm.
/// 3. `dispatch` is reached only through `handle_keyed`, whose body
///    performs the idempotency record/lookup pairing.
/// 4. Every non-test `CommitRows { .. }` literal that carries a
///    `transfer:` row explicitly binds `idem:` (same commit batch), so a
///    transfer can never be journalled without its idempotency stamp.
pub fn idem_stamp(files: &[SourceFile], report: &mut Report) {
    let api = files.iter().find(|f| f.path.ends_with("crates/core/src/api.rs"));
    let server = files.iter().find(|f| f.path.ends_with("crates/core/src/server.rs"));

    if let Some(api) = api {
        check_is_mutating(api, report);
    }
    if let Some(server) = server {
        check_dispatch(server, api, report);
    }
    for file in files {
        if file.path.contains("crates/core/src/") {
            check_commit_rows(file, report);
        }
    }
}

fn check_is_mutating(api: &SourceFile, report: &mut Report) {
    let Some((names_line, names_body)) = fn_body(api, "variant_name") else {
        report.flag(
            Rule::IdemStamp,
            api,
            1,
            "cannot find fn variant_name in api.rs — idem-stamp coverage check lost".into(),
        );
        return;
    };
    let canonical = variants_of(&names_body, "BankRequest");
    report.add_sites(Rule::IdemStamp, canonical.len());

    let Some((mut_line, mut_body)) = fn_body(api, "is_mutating") else {
        report.flag(
            Rule::IdemStamp,
            api,
            names_line,
            "BankRequest has no is_mutating classifier".into(),
        );
        return;
    };
    if has_wildcard_arm(&mut_body) {
        report.flag(
            Rule::IdemStamp,
            api,
            mut_line,
            "is_mutating uses a `_ =>` wildcard — new request variants would silently \
             default; classify every variant explicitly"
                .into(),
        );
    }
    let classified = variants_of(&mut_body, "BankRequest");
    for variant in canonical.keys() {
        if !classified.contains_key(variant) {
            report.flag(
                Rule::IdemStamp,
                api,
                mut_line,
                format!("is_mutating does not classify BankRequest::{variant}"),
            );
        }
    }
}

fn check_dispatch(server: &SourceFile, api: Option<&SourceFile>, report: &mut Report) {
    let Some((dispatch_line, dispatch_body)) = fn_body(server, "dispatch") else {
        return;
    };
    report.add_sites(Rule::IdemStamp, 1);
    if has_wildcard_arm(&dispatch_body) {
        report.flag(
            Rule::IdemStamp,
            server,
            dispatch_line,
            "dispatch uses a `_ =>` wildcard arm — every request variant must be \
             routed explicitly so mutations cannot bypass idempotency stamping"
                .into(),
        );
    }
    if let Some(api) = api {
        if let Some((_, names_body)) = fn_body(api, "variant_name") {
            let canonical = variants_of(&names_body, "BankRequest");
            let dispatched = variants_of(&dispatch_body, "BankRequest");
            for variant in canonical.keys() {
                if !dispatched.contains_key(variant) {
                    report.flag(
                        Rule::IdemStamp,
                        server,
                        dispatch_line,
                        format!("dispatch has no arm for BankRequest::{variant}"),
                    );
                }
            }
        }
    }

    // dispatch must be called only from handle_keyed, which owns the
    // idempotency record/lookup protocol.
    let Some((hk_line, hk_body)) = fn_body(server, "handle_keyed") else {
        report.flag(
            Rule::IdemStamp,
            server,
            dispatch_line,
            "no handle_keyed wrapper found — dispatch must run under the idempotency guard".into(),
        );
        return;
    };
    report.add_sites(Rule::IdemStamp, 1);
    for miss in ["idem_record", "idem_lookup"] {
        if !hk_body.contains(miss) {
            report.flag(
                Rule::IdemStamp,
                server,
                hk_line,
                format!("handle_keyed does not call {miss} — idempotency protocol incomplete"),
            );
        }
    }
    let hk_extent = line_extent(server, hk_line);
    let dispatch_extent = line_extent(server, dispatch_line);
    for (idx, line) in server.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if !line.contains(".dispatch(") || server.is_test_line(lineno) {
            continue;
        }
        let within =
            |range: &Option<(usize, usize)>| range.is_some_and(|(s, e)| lineno >= s && lineno <= e);
        if within(&hk_extent) || within(&dispatch_extent) {
            continue;
        }
        report.flag(
            Rule::IdemStamp,
            server,
            lineno,
            "dispatch called outside handle_keyed — this bypasses idempotency \
             dedup and in-flight keying"
                .into(),
        );
    }
}

/// Line range (1-based, inclusive) of the brace-matched item starting at
/// `start_line`.
fn line_extent(file: &SourceFile, start_line: usize) -> Option<(usize, usize)> {
    let mut depth: i32 = 0;
    let mut started = false;
    for (idx, line) in file.masked_lines.iter().enumerate().skip(start_line - 1) {
        for c in line.chars() {
            match c {
                '{' => {
                    depth += 1;
                    started = true;
                }
                '}' => depth -= 1,
                _ => {}
            }
        }
        if started && depth <= 0 {
            return Some((start_line, idx + 1));
        }
    }
    None
}

fn has_wildcard_arm(body: &str) -> bool {
    let compact: String = body.chars().filter(|c| !c.is_whitespace()).collect();
    compact.contains("_=>")
}

fn check_commit_rows(file: &SourceFile, report: &mut Report) {
    for (idx, line) in file.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        // `struct CommitRows {` is the definition and `-> CommitRows {`
        // a fn signature — only brace literals are commit batches.
        if file.is_test_line(lineno) || line.contains("struct") || line.contains("->") {
            continue;
        }
        let Some(pos) = line.find("CommitRows {") else { continue };
        report.add_sites(Rule::IdemStamp, 1);
        // Brace-match the literal body across lines.
        let open_col = pos + "CommitRows ".len();
        let body = braced_text(file, idx, open_col);
        if body.contains("..") {
            continue; // struct-update syntax: fields may come from the base
        }
        let has_transfer = body.contains("transfer:")
            && !body.lines().any(|l| l.trim_start().starts_with("transfer:") && l.contains("None"));
        if has_transfer && !body.contains("idem:") {
            report.flag(
                Rule::IdemStamp,
                file,
                lineno,
                "CommitRows carries a transfer row without binding `idem:` — the \
                 idempotency stamp must land in the same commit batch as the transfer"
                    .into(),
            );
        }
    }
}

/// Text inside the brace opening at (line index, column), braces matched.
fn braced_text(file: &SourceFile, line_idx: usize, col: usize) -> String {
    let mut depth: i32 = 0;
    let mut out = String::new();
    for (idx, line) in file.masked_lines.iter().enumerate().skip(line_idx) {
        let start = if idx == line_idx { col } else { 0 };
        for c in line.chars().skip(start) {
            match c {
                '{' => {
                    depth += 1;
                    if depth == 1 {
                        continue;
                    }
                }
                '}' => {
                    depth -= 1;
                    if depth == 0 {
                        return out;
                    }
                }
                _ => {}
            }
            if depth >= 1 {
                out.push(c);
            }
        }
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// L7 blocking-under-lock
// ---------------------------------------------------------------------------

/// Zero-argument acquisition methods of `Mutex`/`RwLock`. The io-trait
/// `.read(buf)` / `.write(buf)` calls take arguments and never match.
const LOCK_CALLS: [&str; 3] = [".lock()", ".read()", ".write()"];

/// Calls that block the thread: filesystem IO, fsync, sockets, channel
/// receives, sleeps. `.wait(` is deliberately absent — `Condvar::wait`
/// releases its mutex while parked, so it is not "blocking under a lock".
const BLOCKING_PATTERNS: [&str; 11] = [
    ".sync_all(",
    ".sync_data(",
    "File::",
    "OpenOptions",
    "fs::",
    "std::net",
    "TcpStream",
    ".recv()",
    ".recv_timeout(",
    "thread::sleep",
    "::sleep(",
];

/// A lock guard bound to a name, still live.
struct Held {
    name: String,
    /// Brace depth at the start of the binding line; the guard dies when
    /// the running depth drops below this.
    depth: i32,
    line: usize,
}

/// L7 `blocking-under-lock`, over every file in `crates/core/src/`.
/// Walks the file once, tracking named guard bindings
/// (`let g = x.lock();`) plus their scopes, and flags every blocking
/// call made while one is live or after an acquisition earlier on the
/// same line. See docs/STATIC_ANALYSIS.md for the model and its honest
/// limitations.
pub fn blocking_under_lock(file: &SourceFile, report: &mut Report) {
    if !file.path.contains("crates/core/src/") {
        return;
    }
    let mut held: Vec<Held> = Vec::new();
    let mut depth: i32 = 0;
    for (idx, line) in file.masked_lines.iter().enumerate() {
        let lineno = idx + 1;
        if !file.in_test.get(idx).copied().unwrap_or(false) {
            let locks = lock_calls_on(line);
            for &(at, call) in &locks {
                if let Some(name) = held_binding(line, at + call.len()) {
                    // A rebinding replaces the old guard (drop-then-assign
                    // semantics are close enough for a lexical model).
                    held.retain(|h| h.name != name);
                    held.push(Held { name, depth, line: lineno });
                }
            }
            let blocking = BLOCKING_PATTERNS
                .iter()
                .filter_map(|p| line.find(p).map(|pos| (pos, *p)))
                .min_by_key(|(pos, _)| *pos);
            if let Some((first_pos, pat)) = blocking {
                report.add_sites(Rule::BlockingUnderLock, 1);
                let under = if locks.iter().any(|&(pos, _)| pos < first_pos) {
                    Some("a lock acquired earlier on the same line".to_string())
                } else {
                    held.last().map(|h| format!("guard `{}` (bound line {})", h.name, h.line))
                };
                if let Some(under) = under {
                    report.flag(
                        Rule::BlockingUnderLock,
                        file,
                        lineno,
                        format!(
                            "blocking call `{pat}` under {under} — move the IO off the \
                             locked path or annotate the audited exception \
                             (docs/STATIC_ANALYSIS.md §L7)"
                        ),
                    );
                }
            }
            for name in drop_calls_on(line) {
                held.retain(|h| h.name != name);
            }
        }
        // Brace depth is tracked on every line (test regions included) so
        // guard scopes survive interleaved cfg blocks.
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        held.retain(|h| depth >= h.depth);
    }
}

/// All lock-call occurrences on one masked line: (byte offset, pattern).
fn lock_calls_on(line: &str) -> Vec<(usize, &'static str)> {
    let mut out = Vec::new();
    for call in LOCK_CALLS {
        let mut from = 0;
        while let Some(pos) = line[from..].find(call) {
            out.push((from + pos, call));
            from += pos + call.len();
        }
    }
    out.sort_unstable();
    out
}

/// If the acquisition at the end of this line is a guard *binding*
/// (`let [mut] name = chain.lock();` or `name = chain.lock();`), the
/// bound name. Deref/ref copies (`let x = *c.lock();`) and `_` bindings
/// drop the guard at the semicolon and are transient.
fn held_binding(line: &str, after: usize) -> Option<String> {
    if line[after..].trim() != ";" {
        return None;
    }
    let t = line.trim_start();
    let rest = t.strip_prefix("let ").unwrap_or(t);
    let rest = rest.strip_prefix("mut ").unwrap_or(rest);
    let name: String = rest.chars().take_while(|c| is_ident(*c)).collect();
    if name.is_empty() || name == "_" {
        return None;
    }
    let after_name = rest[name.len()..].trim_start();
    if !after_name.starts_with('=') || after_name.starts_with("==") {
        return None;
    }
    let rhs = after_name[1..].trim_start();
    if rhs.starts_with('*') || rhs.starts_with('&') {
        return None;
    }
    Some(name)
}

/// Names released by `drop(name)` calls on this line.
fn drop_calls_on(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find("drop(") {
        let at = from + pos;
        let boundary = at == 0 || !is_ident(line.as_bytes()[at - 1] as char);
        from = at + "drop(".len();
        if !boundary {
            continue;
        }
        let name: String = line[from..].chars().take_while(|c| is_ident(*c)).collect();
        if !name.is_empty() {
            out.push(name);
        }
    }
    out
}

// ---------------------------------------------------------------------------
// L8 durability-order
// ---------------------------------------------------------------------------

/// L8: the storage engine's atomic-publish paths must sequence
/// write → fsync → rename → dir-fsync, the COMPACTED marker must land
/// before any segment deletion, and every `STORAGE.md §n` citation in
/// the file must resolve to a real heading. Scoped to store.rs.
pub fn durability_order(file: &SourceFile, sections: &[String], report: &mut Report) {
    if !file.path.ends_with("core/src/store.rs") {
        return;
    }
    ordered_markers(
        file,
        "write_snapshot",
        &[
            (".write_all(", "payload write"),
            (".sync_all(", "file fsync"),
            ("fs::rename(", "atomic rename"),
            ("sync_dir(", "directory fsync"),
        ],
        report,
    );
    ordered_markers(
        file,
        "write_compacted_marker",
        &[
            (".write_all(", "marker write"),
            (".sync_all(", "marker fsync"),
            ("fs::rename(", "atomic rename"),
            ("sync_dir(", "directory fsync"),
        ],
        report,
    );
    if let Some((lineno, body)) = fn_body(file, "compact") {
        report.add_sites(Rule::DurabilityOrder, 1);
        let marker = body.find("write_compacted_marker(");
        let seg_del = body.find("remove_file(segment_path");
        match (marker, seg_del) {
            (Some(m), Some(d)) if m > d => report.flag(
                Rule::DurabilityOrder,
                file,
                lineno,
                "compact deletes segments before the COMPACTED marker is durable — \
                 a crash between the two loses the only copy (docs/STORAGE.md §3.4)"
                    .into(),
            ),
            (None, Some(_)) => report.flag(
                Rule::DurabilityOrder,
                file,
                lineno,
                "compact deletes segments without writing the COMPACTED marker \
                 (docs/STORAGE.md §3.4)"
                    .into(),
            ),
            _ => {}
        }
    }
    // §-anchor audit: raw lines, because the citations live in comments.
    for (idx, raw) in file.raw_lines.iter().enumerate() {
        let mut from = 0;
        while let Some(pos) = raw[from..].find("STORAGE.md §") {
            let at = from + pos + "STORAGE.md §".len();
            from = at;
            let token: String =
                raw[at..].chars().take_while(|c| c.is_ascii_digit() || *c == '.').collect();
            let num = token.trim_end_matches('.').to_string();
            report.add_sites(Rule::DurabilityOrder, 1);
            if num.is_empty() || !sections.contains(&num) {
                report.flag(
                    Rule::DurabilityOrder,
                    file,
                    idx + 1,
                    format!(
                        "cites docs/STORAGE.md §{num} but the doc has no such heading — \
                         fix the anchor or restore the section"
                    ),
                );
            }
        }
    }
}

/// Require `markers` to appear in order inside `fn name`; each search
/// resumes after the previous hit, so a repeated marker (the second
/// `.sync_all(`) must occur again later. A missing function is not a
/// violation — renames surface via the zero-sites gate instead.
fn ordered_markers(file: &SourceFile, name: &str, markers: &[(&str, &str)], report: &mut Report) {
    let Some((lineno, body)) = fn_body(file, name) else {
        return;
    };
    report.add_sites(Rule::DurabilityOrder, 1);
    let mut from = 0;
    for (marker, step) in markers {
        match body[from..].find(marker) {
            Some(pos) => from += pos + marker.len(),
            None => {
                report.flag(
                    Rule::DurabilityOrder,
                    file,
                    lineno,
                    format!(
                        "{name} is missing the `{step}` step (`{marker}`) at its place in \
                         the write→fsync→rename→dir-fsync sequence (docs/STORAGE.md §3)"
                    ),
                );
                return;
            }
        }
    }
}
