//! `hpa-lint` — static audit of the workspace's unsafety, atomics, and
//! tracing discipline. Zero dependencies; line-oriented heuristics,
//! documented per rule. Run from the workspace root (CI does):
//!
//! ```text
//! cargo run -p hpa-check --bin lint              # audit, exit 1 on findings
//! cargo run -p hpa-check --bin lint -- /path/to/workspace
//! ```
//!
//! Rules (see DESIGN.md § Verification for the policy rationale):
//!
//! * **R1 safety-comment** — every `unsafe` keyword must be introduced by
//!   a `SAFETY:` comment: on the same line, or in the contiguous block of
//!   comments/attributes immediately above it.
//! * **R2 forbid_unsafe_code** — every crate root (`src/lib.rs`) must carry
//!   `#![forbid(unsafe_code)]`, except the audited allowlist (`exec`,
//!   `metrics`, `check`), whose unsafety R1 covers.
//! * **R3 no-raw-sync** — modules retrofitted onto the model-check facade
//!   must not name `std::sync` primitives directly; they import from the
//!   facade (`hpa_exec::sync`, `hpa_dict::atomic`) so the checker can
//!   interpose.
//! * **R4 relaxed-allowlist** — `Relaxed` atomic orderings may appear
//!   only in files audited as statistics-only (no synchronization is
//!   carried through the atomic); everywhere else acquire/release or
//!   stronger is required, which keeps the model checker's sequentially
//!   consistent exploration a faithful over-approximation.
//! * **R5 span-predict** — every `hpa_trace::predict(cat, name, ..)` call
//!   site with literal `(cat, name)` arguments must have a span opened
//!   with the same two literals somewhere in the same file, so the run
//!   ledger (`hpa-audit`) can join the prediction to a measurement. Calls
//!   with a non-literal name are flagged: they cannot be span-matched.
//! * **R6 ordering-audit** — every non-`Relaxed` atomic ordering
//!   (`Acquire`/`Release`/`AcqRel`/`SeqCst`) must carry an `ORDERING:`
//!   justification comment, placed like R1's `SAFETY:` marker. This is
//!   R4's complement: R4 audits the weak orderings, R6 makes the strong
//!   ones explain what they pair with.
//!
//! Heuristic limits, accepted deliberately: scanning is per-line after
//! stripping `//` comments (string literals containing `//` may confuse
//! it), and everything from a `#[cfg(test)]` line to end-of-file is
//! treated as test code for R4/R5/R6 (test modules sit at file end
//! throughout this workspace). R1 applies to test code too.

use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Crates allowed to contain `unsafe` (R2). Everything else must forbid it.
const UNSAFE_CRATE_ALLOWLIST: &[&str] = &["exec", "metrics", "check"];

/// Facade-retrofitted modules that must not name `std::sync` primitives
/// directly (R3).
const SHIMMED_FILES: &[&str] = &[
    "crates/exec/src/deque.rs",
    "crates/io/src/channel.rs",
    "crates/io/src/seq.rs",
];

/// Files audited as statistics-only, where `Relaxed` is allowed (R4).
const RELAXED_FILE_ALLOWLIST: &[&str] = &[
    "crates/exec/src/sync.rs",     // Counter: monotonic stat totals
    "crates/metrics/src/alloc.rs", // heap counters; racy-max documented
    "crates/trace/src/lib.rs",     // enabled flag + tid allocator
    "crates/check/src/sched.rs",   // ObjCell ids, guarded by the scheduler lock
    "crates/check/src/sync.rs",    // shim edge-classification matches, not accesses
    "crates/core/src/lib.rs",      // discrete-run id allocator (uniqueness only)
];

/// Files exempt from R6's per-site `ORDERING:` comments (the shim names
/// every ordering while *classifying* the caller's argument, and its two
/// real accesses are model-internal snapshots documented in-file).
const ORDERING_FILE_ALLOWLIST: &[&str] = &["crates/check/src/sync.rs"];

// ---- needle construction ------------------------------------------------
// The needles are assembled at runtime so this file's own source never
// contains the tokens it hunts for (the lint scans the whole workspace,
// including itself).

fn kw_unsafe() -> String {
    ["un", "safe"].concat()
}

fn kw_relaxed() -> String {
    ["Rel", "axed"].concat()
}

fn std_sync_prefix() -> String {
    ["std::", "sync::"].concat()
}

fn forbid_attr() -> String {
    ["#![forbid(", "un", "safe_code)]"].concat()
}

/// `std::sync` items banned from shimmed modules (`Arc` is fine).
fn banned_sync_items() -> Vec<String> {
    vec![
        ["Mu", "tex"].concat(),
        ["Cond", "var"].concat(),
        ["Rw", "Lock"].concat(),
        ["ato", "mic"].concat(),
        ["mp", "sc"].concat(),
        ["Bar", "rier"].concat(),
        ["Once", "Lock"].concat(),
    ]
}

/// The prediction call R5 pairs with spans.
fn predict_call() -> String {
    ["hpa_", "trace::", "pre", "dict("].concat()
}

/// Span-opening forms R5 accepts as the measurement side.
fn span_openers() -> Vec<String> {
    vec![
        ["sp", "an!("].concat(),
        ["Span::", "ent", "er("].concat(),
        ["Span::", "ent", "er_with("].concat(),
    ]
}

/// The justification marker R6 requires (with trailing colon).
fn ordering_marker() -> String {
    ["ORDER", "ING:"].concat()
}

/// The non-`Relaxed` orderings R6 audits, as `Ordering::`-qualified words.
fn strong_orderings() -> Vec<String> {
    let q = "Ordering::";
    vec![
        [q, "Acq", "uire"].concat(),
        [q, "Rel", "ease"].concat(),
        [q, "Acq", "Rel"].concat(),
        [q, "Seq", "Cst"].concat(),
    ]
}

// ---- scanning -----------------------------------------------------------

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Finding {
    file: String,
    line: usize,
    rule: &'static str,
    message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// The code portion of a line: everything before the first `//`.
fn code_of(line: &str) -> &str {
    match line.find("//") {
        Some(i) => &line[..i],
        None => line,
    }
}

/// Does `haystack` contain `needle` as a whole word (no identifier
/// character on either side)?
fn contains_word(haystack: &str, needle: &str) -> bool {
    let is_ident = |c: char| c.is_alphanumeric() || c == '_';
    let mut from = 0;
    while let Some(pos) = haystack[from..].find(needle) {
        let start = from + pos;
        let end = start + needle.len();
        let ok_before = start == 0 || !haystack[..start].chars().next_back().is_some_and(is_ident);
        let ok_after = !haystack[end..].chars().next().is_some_and(is_ident);
        if ok_before && ok_after {
            return true;
        }
        from = end;
    }
    false
}

/// Is this (trimmed) line part of a contiguous comment/attribute block —
/// the region R1 searches for a `SAFETY:` marker?
fn is_annotation_line(trimmed: &str) -> bool {
    trimmed.starts_with("//") || trimmed.starts_with("#[") || trimmed.starts_with("#!")
}

/// The line at `idx` is covered if it, or the contiguous
/// comment/attribute block directly above it, mentions `marker`.
fn marker_covered(lines: &[&str], idx: usize, marker: &str) -> bool {
    if lines[idx].contains(marker) {
        return true;
    }
    let mut i = idx;
    while i > 0 {
        i -= 1;
        let trimmed = lines[i].trim();
        if !is_annotation_line(trimmed) {
            return false;
        }
        if trimmed.contains(marker) {
            return true;
        }
    }
    false
}

/// R1: the `unsafe` at `idx` must be introduced by a `SAFETY` marker.
fn safety_covered(lines: &[&str], idx: usize) -> bool {
    marker_covered(lines, idx, "SAFETY")
}

/// Scan one file's contents against R1/R3/R4/R5/R6. `rel` is the
/// workspace-relative path used for allowlists and reporting.
fn scan_contents(rel: &str, contents: &str) -> Vec<Finding> {
    let lines: Vec<&str> = contents.lines().collect();
    let mut findings = Vec::new();

    let unsafe_kw = kw_unsafe();
    let relaxed_kw = kw_relaxed();
    let std_sync = std_sync_prefix();
    let banned = banned_sync_items();
    let strong = strong_orderings();
    let marker = ordering_marker();

    let shimmed = SHIMMED_FILES.contains(&rel);
    let relaxed_ok = RELAXED_FILE_ALLOWLIST.contains(&rel);
    let ordering_ok = ORDERING_FILE_ALLOWLIST.contains(&rel);
    let in_test_tree = rel.contains("/tests/");

    // Everything from a `#[cfg(test)]` line to end-of-file counts as test
    // code (precomputed because R5 scans the whole file at once).
    let mut in_test = vec![false; lines.len()];
    let mut test_flag = false;
    for (i, raw) in lines.iter().enumerate() {
        if raw.trim() == "#[cfg(test)]" {
            test_flag = true;
        }
        in_test[i] = test_flag;
    }

    for (i, raw) in lines.iter().enumerate() {
        let line_no = i + 1;
        let in_test_region = in_test[i];
        let code = code_of(raw);

        // R1: undocumented unsafe (applies everywhere, tests included).
        if contains_word(code, &unsafe_kw) && !safety_covered(&lines, i) {
            findings.push(Finding {
                file: rel.to_string(),
                line: line_no,
                rule: "R1 safety-comment",
                message: format!(
                    "`{unsafe_kw}` without a SAFETY: comment on the line or \
                     in the comment block directly above"
                ),
            });
        }

        // R3: raw std::sync primitives in facade-retrofitted modules.
        if shimmed && code.contains(&std_sync) {
            if let Some(item) = banned.iter().find(|item| code.contains(item.as_str())) {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: line_no,
                    rule: "R3 no-raw-sync",
                    message: format!(
                        "`{std_sync}{item}` in a model-checked module; import \
                         from the facade instead"
                    ),
                });
            }
        }

        // R4: Relaxed ordering outside the audited allowlist (product
        // code only — test regions and test trees are exempt).
        if !relaxed_ok && !in_test_region && !in_test_tree && contains_word(code, &relaxed_kw) {
            findings.push(Finding {
                file: rel.to_string(),
                line: line_no,
                rule: "R4 relaxed-allowlist",
                message: format!(
                    "`{relaxed_kw}` ordering outside the audited allowlist; \
                     use acquire/release or add the file to the allowlist \
                     with a statistics-only justification"
                ),
            });
        }

        // R6: strong orderings must justify what they pair with (product
        // code only, like R4).
        if !ordering_ok && !in_test_region && !in_test_tree {
            if let Some(ord) = strong.iter().find(|o| contains_word(code, o)) {
                if !marker_covered(&lines, i, &marker) {
                    findings.push(Finding {
                        file: rel.to_string(),
                        line: line_no,
                        rule: "R6 ordering-audit",
                        message: format!(
                            "`{ord}` without an `{marker}` comment on the line \
                             or in the comment block directly above (state \
                             what this ordering pairs with)"
                        ),
                    });
                }
            }
        }
    }

    if !in_test_tree {
        findings.extend(scan_predict_conformance(rel, &lines, &in_test));
    }
    findings
}

/// Leading string literal of `s` (after whitespace), plus the rest.
fn parse_literal(s: &str) -> Option<(String, &str)> {
    let s = s.trim_start().strip_prefix('"')?;
    let end = s.find('"')?;
    Some((s[..end].to_string(), &s[end + 1..]))
}

/// Two comma-separated leading string literals, e.g. `"cat", "name"`.
/// `None` when either argument is not a plain literal.
fn parse_two_literals(s: &str) -> Option<(String, String)> {
    let (cat, rest) = parse_literal(s)?;
    let rest = rest.trim_start().strip_prefix(',')?;
    let (name, _) = parse_literal(rest)?;
    Some((cat, name))
}

/// R5: every `predict(cat, name, ..)` call with literal arguments must
/// have a span opened with the same `(cat, name)` literals in the same
/// file. Works on the comment-stripped file as one string, so calls
/// wrapped across lines (rustfmt does this) still parse.
fn scan_predict_conformance(rel: &str, lines: &[&str], in_test: &[bool]) -> Vec<Finding> {
    let needle = predict_call();
    let stripped: Vec<&str> = lines.iter().map(|l| code_of(l)).collect();
    let text = stripped.join("\n");
    if !text.contains(&needle) {
        return Vec::new();
    }

    let mut spans: Vec<(String, String)> = Vec::new();
    for opener in span_openers() {
        let mut from = 0;
        while let Some(pos) = text[from..].find(&opener) {
            let at = from + pos;
            if let Some(pair) = parse_two_literals(&text[at + opener.len()..]) {
                spans.push(pair);
            }
            from = at + opener.len();
        }
    }

    let mut findings = Vec::new();
    let mut from = 0;
    while let Some(pos) = text[from..].find(&needle) {
        let at = from + pos;
        from = at + needle.len();
        let line_idx = text[..at].matches('\n').count();
        if in_test.get(line_idx).copied().unwrap_or(false) {
            continue;
        }
        match parse_two_literals(&text[at + needle.len()..]) {
            Some(pair) if !spans.contains(&pair) => {
                let (cat, name) = pair;
                findings.push(Finding {
                    file: rel.to_string(),
                    line: line_idx + 1,
                    rule: "R5 span-predict",
                    message: format!(
                        "prediction (\"{cat}\", \"{name}\") has no span \
                         opened with the same literals in this file; the \
                         run ledger would report it Unmeasured"
                    ),
                });
            }
            Some(_) => {}
            None => {
                findings.push(Finding {
                    file: rel.to_string(),
                    line: line_idx + 1,
                    rule: "R5 span-predict",
                    message: "prediction with a non-literal (cat, name) cannot \
                              be statically span-matched; use literals"
                        .to_string(),
                });
            }
        }
    }
    findings
}

/// R2: crate roots must forbid unsafe code unless allowlisted.
fn check_crate_root(rel: &str, crate_name: &str, contents: &str) -> Vec<Finding> {
    if UNSAFE_CRATE_ALLOWLIST.contains(&crate_name) {
        return Vec::new();
    }
    let attr = forbid_attr();
    if contents.lines().any(|l| l.trim() == attr) {
        return Vec::new();
    }
    vec![Finding {
        file: rel.to_string(),
        line: 1,
        rule: "R2 forbid_unsafe_code",
        message: format!("crate `{crate_name}` is not allowlisted and must declare `{attr}`"),
    }]
}

/// Recursively collect `.rs` files under `dir` (skipping `target/` and
/// hidden directories), as workspace-relative sorted paths.
fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<PathBuf>) {
    let entries = match fs::read_dir(dir) {
        Ok(e) => e,
        Err(_) => return,
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if name == "target" || name.starts_with('.') {
                continue;
            }
            collect_rs_files(root, &path, out);
        } else if name.ends_with(".rs") {
            if let Ok(rel) = path.strip_prefix(root) {
                out.push(rel.to_path_buf());
            }
        }
    }
}

/// Run every rule over the workspace rooted at `root`.
fn scan_workspace(root: &Path) -> Vec<Finding> {
    let mut files = Vec::new();
    for top in ["crates", "src"] {
        collect_rs_files(root, &root.join(top), &mut files);
    }
    files.sort();

    let mut findings = Vec::new();
    for rel_path in &files {
        let rel = rel_path.to_string_lossy().replace('\\', "/");
        let contents = match fs::read_to_string(root.join(rel_path)) {
            Ok(c) => c,
            Err(e) => {
                findings.push(Finding {
                    file: rel.clone(),
                    line: 0,
                    rule: "io",
                    message: format!("unreadable: {e}"),
                });
                continue;
            }
        };
        findings.extend(scan_contents(&rel, &contents));
        // Crate roots: crates/<name>/src/lib.rs, plus the workspace
        // package's own src/lib.rs.
        if let Some(name) = rel
            .strip_prefix("crates/")
            .and_then(|r| r.strip_suffix("/src/lib.rs"))
        {
            findings.extend(check_crate_root(&rel, name, &contents));
        } else if rel == "src/lib.rs" {
            findings.extend(check_crate_root(&rel, "hpa", &contents));
        }
    }
    findings
}

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--help" | "-h" => {
                println!(
                    "hpa-lint: unsafety/atomics/tracing audit\n\
                     usage: lint [workspace-root]"
                );
                return ExitCode::SUCCESS;
            }
            other => root = PathBuf::from(other),
        }
    }

    let findings = scan_workspace(&root);
    for f in &findings {
        eprintln!("{f}");
    }
    if findings.is_empty() {
        println!("hpa-lint: workspace clean");
        ExitCode::SUCCESS
    } else {
        eprintln!("hpa-lint: {} finding(s)", findings.len());
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // Sample sources are assembled with the same concatenation trick as
    // the needles, so the lint's scan of its own source stays clean.

    #[test]
    fn r1_flags_undocumented_unsafe_and_accepts_documented() {
        let bad = format!(
            "fn f() {{\n    {} {{ core::hint::unreachable_unchecked() }}\n}}\n",
            kw_unsafe()
        );
        let findings = scan_contents("crates/exec/src/x.rs", &bad);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R1 safety-comment");
        assert_eq!(findings[0].line, 2);

        let good = format!(
            "fn f() {{\n    // SAFETY: provably unreachable\n    {} {{ core::hint::unreachable_unchecked() }}\n}}\n",
            kw_unsafe()
        );
        assert!(scan_contents("crates/exec/src/x.rs", &good).is_empty());

        let same_line = format!("{} {{ x() }} // SAFETY: contract upheld\n", kw_unsafe());
        assert!(scan_contents("crates/exec/src/x.rs", &same_line).is_empty());

        // An attribute between the comment and the item stays covered.
        let with_attr = format!(
            "// SAFETY: checked above\n#[inline]\n{} fn g() {{}}\n",
            kw_unsafe()
        );
        assert!(scan_contents("crates/exec/src/x.rs", &with_attr).is_empty());

        // A blank line breaks the annotation block.
        let broken = format!("// SAFETY: stale\n\n{} fn g() {{}}\n", kw_unsafe());
        assert_eq!(scan_contents("crates/exec/src/x.rs", &broken).len(), 1);
    }

    #[test]
    fn r1_ignores_identifier_prefixes() {
        // `unsafe_code` in a forbid attribute is not the keyword.
        let src = format!("{}\n", forbid_attr());
        assert!(scan_contents("crates/core/src/x.rs", &src).is_empty());
    }

    #[test]
    fn r2_requires_forbid_outside_allowlist() {
        let empty = "//! docs\n";
        let bad = check_crate_root("crates/core/src/lib.rs", "core", empty);
        assert_eq!(bad.len(), 1);
        assert_eq!(bad[0].rule, "R2 forbid_unsafe_code");

        let good_src = format!("//! docs\n{}\n", forbid_attr());
        assert!(check_crate_root("crates/core/src/lib.rs", "core", &good_src).is_empty());
        // Allowlisted crates are exempt.
        assert!(check_crate_root("crates/exec/src/lib.rs", "exec", empty).is_empty());
    }

    #[test]
    fn r3_flags_raw_sync_in_shimmed_modules_only() {
        let src = format!("use {}{};\n", std_sync_prefix(), ["Mu", "tex"].concat());
        let in_shimmed = scan_contents("crates/io/src/channel.rs", &src);
        assert_eq!(in_shimmed.len(), 1, "{in_shimmed:?}");
        assert_eq!(in_shimmed[0].rule, "R3 no-raw-sync");
        // The same import is fine elsewhere.
        assert!(scan_contents("crates/io/src/counter.rs", &src).is_empty());
        // Arc from std::sync is fine even in shimmed modules.
        let arc = format!("use {}Arc;\n", std_sync_prefix());
        assert!(scan_contents("crates/io/src/channel.rs", &arc).is_empty());
    }

    #[test]
    fn r4_flags_relaxed_outside_allowlist_and_skips_tests() {
        let src = format!("a.load(Ordering::{});\n", kw_relaxed());
        let flagged = scan_contents("crates/io/src/channel.rs", &src);
        assert_eq!(flagged.len(), 1, "{flagged:?}");
        assert_eq!(flagged[0].rule, "R4 relaxed-allowlist");
        // Allowlisted statistics file.
        assert!(scan_contents("crates/exec/src/sync.rs", &src).is_empty());
        // Test region of any file.
        let test_src = format!("#[cfg(test)]\nmod tests {{\n    {src}}}\n");
        assert!(scan_contents("crates/io/src/channel.rs", &test_src).is_empty());
        // Integration-test trees.
        assert!(scan_contents("crates/exec/tests/t.rs", &src).is_empty());
        // Comments don't count.
        let comment = format!("// talks about Ordering::{}\n", kw_relaxed());
        assert!(scan_contents("crates/io/src/channel.rs", &comment).is_empty());
    }

    #[test]
    fn seeded_violation_makes_a_scan_nonempty_and_workspace_is_clean() {
        // A scan with a seeded violation must produce findings (the
        // binary exits nonzero exactly when findings are non-empty)…
        let seeded = format!("fn f() {{ {} {{}} }}\n", kw_unsafe());
        assert!(!scan_contents("crates/core/src/bad.rs", &seeded).is_empty());

        // …and the real workspace must scan clean (exit zero).
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(Path::parent)
            .expect("workspace root");
        let findings = scan_workspace(root);
        assert!(
            findings.is_empty(),
            "workspace must lint clean:\n{}",
            findings
                .iter()
                .map(|f| f.to_string())
                .collect::<Vec<_>>()
                .join("\n")
        );
    }

    #[test]
    fn r5_matches_predictions_to_spans() {
        let pred = predict_call();
        let span = &span_openers()[0];

        // A prediction whose (cat, name) literals have a span: clean.
        let matched = format!(
            "let _s = {span}\"dict\", \"insert\", 0);\n{pred}\"dict\", \"insert\", 1.0);\n"
        );
        assert!(scan_contents("crates/dict/src/x.rs", &matched).is_empty());

        // No span at all: flagged, with the literals in the message.
        let unmatched = format!("{pred}\"dict\", \"insert\", 1.0);\n");
        let findings = scan_contents("crates/dict/src/x.rs", &unmatched);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R5 span-predict");
        assert_eq!(findings[0].line, 1);
        assert!(findings[0].message.contains("\"dict\", \"insert\""));

        // A span with *different* literals does not satisfy the call.
        let mismatched =
            format!("let _s = {span}\"dict\", \"probe\", 0);\n{pred}\"dict\", \"insert\", 1.0);\n");
        assert_eq!(scan_contents("crates/dict/src/x.rs", &mismatched).len(), 1);

        // rustfmt-wrapped calls parse across lines.
        let multiline = format!(
            "let _s = {span}\n    \"io\",\n    \"decode\",\n    0,\n);\n\
             {pred}\n    \"io\",\n    \"decode\",\n    1.0,\n);\n"
        );
        assert!(scan_contents("crates/io/src/x.rs", &multiline).is_empty());

        // Test regions are exempt.
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    {pred}\"a\", \"b\", 1.0);\n}}\n");
        assert!(scan_contents("crates/dict/src/x.rs", &in_test).is_empty());
    }

    #[test]
    fn r5_flags_dynamic_names() {
        let pred = predict_call();
        let dynamic = format!("{pred}\"dict\", name, 1.0);\n");
        let findings = scan_contents("crates/dict/src/x.rs", &dynamic);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert!(findings[0].message.contains("non-literal"));
    }

    #[test]
    fn r6_requires_ordering_justifications() {
        let ord = &strong_orderings()[0];
        let marker = ordering_marker();

        let bare = format!("let v = a.load({ord});\n");
        let findings = scan_contents("crates/io/src/channel.rs", &bare);
        assert_eq!(findings.len(), 1, "{findings:?}");
        assert_eq!(findings[0].rule, "R6 ordering-audit");

        // Same-line and block-above markers both cover the site.
        let same_line =
            format!("let v = a.load({ord}); // {marker} pairs with the release store\n");
        assert!(scan_contents("crates/io/src/channel.rs", &same_line).is_empty());
        let above =
            format!("// {marker} pairs with the release store in push()\nlet v = a.load({ord});\n");
        assert!(scan_contents("crates/io/src/channel.rs", &above).is_empty());

        // `std::cmp::Ordering` variants are not atomic orderings.
        let cmp = "matches!(o, Ordering::Less | Ordering::Greater | Ordering::Equal)\n";
        assert!(scan_contents("crates/io/src/channel.rs", cmp).is_empty());

        // Allowlisted shim file and test regions are exempt.
        assert!(scan_contents("crates/check/src/sync.rs", &bare).is_empty());
        let in_test = format!("#[cfg(test)]\nmod tests {{\n    {bare}}}\n");
        assert!(scan_contents("crates/io/src/channel.rs", &in_test).is_empty());
        assert!(scan_contents("crates/exec/tests/t.rs", &bare).is_empty());
    }

    #[test]
    fn word_matching_respects_identifier_boundaries() {
        let kw = kw_unsafe();
        assert!(contains_word(&format!("{kw} fn x()"), &kw));
        assert!(contains_word(&format!("({kw})"), &kw));
        assert!(!contains_word(&format!("{kw}_code"), &kw));
        assert!(!contains_word(&format!("my_{kw}"), &kw));
        assert!(!contains_word("", &kw));
    }
}
