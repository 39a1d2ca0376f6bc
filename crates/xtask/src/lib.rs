//! `xtask` — workspace static analysis, from scratch and dependency-free.
//!
//! Run as `cargo run -p xtask -- audit`. The auditor walks the workspace
//! sources and enforces four rules tailored to this paper-model codebase:
//!
//! | rule       | what it enforces                                              |
//! |------------|---------------------------------------------------------------|
//! | `cast`     | units discipline: no raw `as` casts / mixed-unit arithmetic on |
//! |            | seconds/bytes/cycles-named bindings outside `core/src/units.rs`|
//! | `panic`    | panic-free libraries: no `unwrap`/`expect`/`panic!`-family in  |
//! |            | non-test library code                                          |
//! | `citation` | paper traceability: public items in `core/src/{model,study,    |
//! |            | paper}.rs` cite the equation/figure they implement             |
//! | `dep`      | manifest hygiene: declared dependencies are actually imported  |
//! | `determinism` | schedule-independence: no hash-order iteration, ambient     |
//! |            | entropy/clock reads, float accumulation in merge paths, or     |
//! |            | tie-prone unstable sorts in model/platform code                |
//! | `unsafe`   | quarantine discipline: `unsafe` only inside `simd`/`hw`        |
//! |            | submodules, and every `unsafe` block carries `// SAFETY:`      |
//!
//! Every rule shares one escape hatch, the inline pragma
//! `// audit: allow(<rule>, <reason>)` (or `# audit: allow(dep, <reason>)`
//! in Cargo.toml) — see [`pragma`]. A pragma without a reason is itself a
//! finding. The process exits non-zero when any finding survives.

#![forbid(unsafe_code)]

pub mod casts;
pub mod citations;
pub mod deps;
pub mod determinism;
pub mod flow;
pub mod lexer;
pub mod panics;
pub mod pragma;
pub mod unsafety;

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

use pragma::{PragmaIndex, RuleKind};

/// One audit violation.
#[derive(Debug, Clone)]
pub struct Finding {
    pub rule: RuleKind,
    /// Workspace-relative path, `/`-separated.
    pub file: String,
    pub line: usize,
    pub message: String,
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

/// The result of a full audit pass.
#[derive(Debug, Default)]
pub struct AuditReport {
    pub findings: Vec<Finding>,
    /// Number of Rust source files scanned.
    pub rust_files: usize,
    /// Number of manifests scanned.
    pub manifests: usize,
    /// Number of well-formed `audit: allow` pragmas honoured.
    pub pragmas_honoured: usize,
}

impl AuditReport {
    /// True when the tree is clean.
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Number of findings for one rule.
    pub fn count(&self, rule: RuleKind) -> usize {
        self.findings.iter().filter(|f| f.rule == rule).count()
    }

    /// Renders the report as a machine-readable JSON document (for CI
    /// artifacts). Findings keep their sorted order, so the output is
    /// byte-stable for a given tree.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        out.push_str(&format!("  \"rust_files\": {},\n", self.rust_files));
        out.push_str(&format!("  \"manifests\": {},\n", self.manifests));
        out.push_str(&format!(
            "  \"pragmas_honoured\": {},\n",
            self.pragmas_honoured
        ));
        out.push_str(&format!("  \"clean\": {},\n", self.is_clean()));
        out.push_str("  \"findings\": [");
        for (i, f) in self.findings.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"rule\": \"{}\", \"file\": \"{}\", \"line\": {}, \"message\": \"{}\"}}",
                f.rule,
                json_escape(&f.file),
                f.line,
                json_escape(&f.message)
            ));
        }
        if !self.findings.is_empty() {
            out.push_str("\n  ");
        }
        out.push_str("]\n}\n");
        out
    }
}

/// Escapes a string for embedding in a JSON document.
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Directories never descended into.
const SKIP_DIRS: &[&str] = &["target", "node_modules"];

/// The one file exempt from the `cast` rule: the units layer itself.
const UNITS_FILE: &str = "crates/core/src/units.rs";

/// Files whose public items must cite the paper.
const CITATION_FILES: &[&str] = &[
    "crates/core/src/model.rs",
    "crates/core/src/study.rs",
    "crates/core/src/paper.rs",
];

/// Runs the full audit over the workspace rooted at `root`. `filter`
/// restricts the pass to the named rules (malformed-pragma findings are
/// always reported).
pub fn run_audit(root: &Path, filter: &[RuleKind]) -> io::Result<AuditReport> {
    let enabled = |r: RuleKind| filter.is_empty() || filter.contains(&r);
    let mut report = AuditReport::default();

    let (rust_files, manifests) = collect_files(root)?;
    report.rust_files = rust_files.len();
    report.manifests = manifests.len();

    for rel in &rust_files {
        let source = fs::read_to_string(root.join(rel))?;
        let lines = lexer::scan(&source);
        let rel_str = rel_display(rel);

        let pragma_input: Vec<(usize, String, bool)> = lines
            .iter()
            .map(|l| (l.number, l.comment.clone(), !l.is_code_blank()))
            .collect();
        let index = PragmaIndex::build(&pragma_input);
        for (line, msg) in &index.malformed {
            report.findings.push(Finding {
                rule: RuleKind::Pragma,
                file: rel_str.clone(),
                line: *line,
                message: msg.clone(),
            });
        }

        if enabled(RuleKind::Cast) && in_cast_scope(&rel_str) {
            for (line, message) in casts::check(&lines) {
                if index.allows(line, RuleKind::Cast) {
                    report.pragmas_honoured += 1;
                    continue;
                }
                report.findings.push(Finding {
                    rule: RuleKind::Cast,
                    file: rel_str.clone(),
                    line,
                    message,
                });
            }
        }

        if enabled(RuleKind::Panic) && in_panic_scope(&rel_str) {
            for (line, message) in panics::check(&lines) {
                if index.allows(line, RuleKind::Panic) {
                    report.pragmas_honoured += 1;
                    continue;
                }
                report.findings.push(Finding {
                    rule: RuleKind::Panic,
                    file: rel_str.clone(),
                    line,
                    message,
                });
            }
        }

        if enabled(RuleKind::Determinism) && in_determinism_scope(&rel_str) {
            for (line, message) in determinism::check(&lines) {
                if index.allows(line, RuleKind::Determinism) {
                    report.pragmas_honoured += 1;
                    continue;
                }
                report.findings.push(Finding {
                    rule: RuleKind::Determinism,
                    file: rel_str.clone(),
                    line,
                    message,
                });
            }
        }

        if enabled(RuleKind::Unsafe) && in_unsafe_scope(&rel_str) {
            for (line, message) in unsafety::check(&rel_str, &lines) {
                if index.allows(line, RuleKind::Unsafe) {
                    report.pragmas_honoured += 1;
                    continue;
                }
                report.findings.push(Finding {
                    rule: RuleKind::Unsafe,
                    file: rel_str.clone(),
                    line,
                    message,
                });
            }
        }

        if enabled(RuleKind::Citation) && CITATION_FILES.contains(&rel_str.as_str()) {
            for finding in citations::check(&lines) {
                let waived = finding
                    .doc_lines
                    .iter()
                    .any(|&l| index.allows(l, RuleKind::Citation))
                    // A doc-block pragma sits on a comment-only line, which
                    // PragmaIndex carries forward to the item line itself.
                    || index.allows(finding.line, RuleKind::Citation);
                if waived {
                    report.pragmas_honoured += 1;
                    continue;
                }
                report.findings.push(Finding {
                    rule: RuleKind::Citation,
                    file: rel_str.clone(),
                    line: finding.line,
                    message: finding.message,
                });
            }
        }
    }

    if enabled(RuleKind::Dep) {
        audit_manifests(root, &manifests, &rust_files, &mut report)?;
    }

    report.findings.sort_by(|a, b| {
        (a.file.as_str(), a.line, a.rule.name()).cmp(&(b.file.as_str(), b.line, b.rule.name()))
    });
    Ok(report)
}

/// Checks every manifest's declared deps against its crate's sources.
fn audit_manifests(
    root: &Path,
    manifests: &[PathBuf],
    rust_files: &[PathBuf],
    report: &mut AuditReport,
) -> io::Result<()> {
    // A manifest owns the rust files under its directory, minus any subtree
    // owned by a nested manifest (the workspace root vs. member crates).
    let manifest_dirs: Vec<PathBuf> = manifests
        .iter()
        .map(|m| m.parent().map(Path::to_path_buf).unwrap_or_default())
        .collect();

    for (mi, manifest_rel) in manifests.iter().enumerate() {
        let text = fs::read_to_string(root.join(manifest_rel))?;
        let rel_str = rel_display(manifest_rel);

        // Pragmas in the manifest: trailing comments and standalone `#`
        // comment lines above an entry.
        let pragma_input: Vec<(usize, String, bool)> = text
            .lines()
            .enumerate()
            .map(|(i, raw)| {
                let (code, comment) = split_manifest_line(raw);
                (i + 1, comment.to_owned(), !code.trim().is_empty())
            })
            .collect();
        let index = PragmaIndex::build(&pragma_input);
        for (line, msg) in &index.malformed {
            report.findings.push(Finding {
                rule: RuleKind::Pragma,
                file: rel_str.clone(),
                line: *line,
                message: msg.clone(),
            });
        }

        let dir = &manifest_dirs[mi];
        let owned: Vec<&PathBuf> = rust_files
            .iter()
            .filter(|f| {
                if !f.starts_with(dir) {
                    return false;
                }
                // Excluded if a more deeply nested manifest owns it.
                !manifest_dirs.iter().enumerate().any(|(oi, other)| {
                    oi != mi && other.starts_with(dir) && other != dir && f.starts_with(other)
                })
            })
            .collect();

        let mut sources = String::new();
        for f in &owned {
            for line in lexer::scan(&fs::read_to_string(root.join(f))?) {
                sources.push_str(&line.code);
                sources.push('\n');
            }
        }

        for dep in deps::declared_deps(&text) {
            let ident = dep.name.replace('-', "_");
            if deps::ident_used(&sources, &ident) {
                continue;
            }
            if index.allows(dep.line, RuleKind::Dep) {
                report.pragmas_honoured += 1;
                continue;
            }
            report.findings.push(Finding {
                rule: RuleKind::Dep,
                file: rel_str.clone(),
                line: dep.line,
                message: format!(
                    "`{}` is declared in [{}] but `{}` is never referenced in this crate's \
                     sources; remove it or whitelist with `# audit: allow(dep, <reason>)`",
                    dep.name, dep.section, ident
                ),
            });
        }
    }
    Ok(())
}

/// Splits a manifest line into (code, comment) at an unquoted `#`.
fn split_manifest_line(line: &str) -> (&str, &str) {
    let mut in_str = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_str = !in_str,
            '#' if !in_str => return (&line[..i], &line[i + 1..]),
            _ => {}
        }
    }
    (line, "")
}

/// True when the `cast` rule applies: library/binary sources, not tests or
/// benches, and never the units layer itself.
fn in_cast_scope(rel: &str) -> bool {
    if rel == UNITS_FILE {
        return false;
    }
    rel.starts_with("src/") || rel.contains("/src/")
}

/// True when the `panic` rule applies: library sources only — binary entry
/// points (`main.rs`, `src/bin/`) may fail fast on bad CLI input.
fn in_panic_scope(rel: &str) -> bool {
    (rel.starts_with("src/") || rel.contains("/src/"))
        && !rel.ends_with("/main.rs")
        && !rel.contains("/src/bin/")
}

/// True when the `determinism` rule applies: model/platform library and
/// binary sources. The bench harness measures real host time by design and
/// xtask is the auditor itself, so both crates sit outside the fleet's
/// byte-identical output path.
fn in_determinism_scope(rel: &str) -> bool {
    (rel.starts_with("src/") || rel.contains("/src/"))
        && !rel.starts_with("crates/bench/")
        && !rel.starts_with("crates/xtask/")
}

/// True when the `unsafe` rule applies: every source file in the tree —
/// tests and benches included, since raw-pointer tricks belong in the
/// quarantine no matter who calls them. Only xtask itself is skipped, as
/// with `determinism`: the auditor does not police the auditor, and its
/// crate root carries `forbid(unsafe_code)` anyway.
fn in_unsafe_scope(rel: &str) -> bool {
    !rel.starts_with("crates/xtask/")
}

/// Walks the tree rooted at `root`, returning workspace-relative paths of
/// Rust sources and Cargo manifests, sorted for deterministic reports.
pub fn collect_files(root: &Path) -> io::Result<(Vec<PathBuf>, Vec<PathBuf>)> {
    let mut rust = Vec::new();
    let mut toml = Vec::new();
    let mut stack = vec![root.to_path_buf()];
    while let Some(dir) = stack.pop() {
        for entry in fs::read_dir(&dir)? {
            let entry = entry?;
            let path = entry.path();
            let name = entry.file_name();
            let name = name.to_string_lossy();
            if entry.file_type()?.is_dir() {
                if name.starts_with('.') || SKIP_DIRS.contains(&name.as_ref()) {
                    continue;
                }
                stack.push(path);
            } else if name.ends_with(".rs") {
                if let Ok(rel) = path.strip_prefix(root) {
                    rust.push(rel.to_path_buf());
                }
            } else if name == "Cargo.toml" {
                if let Ok(rel) = path.strip_prefix(root) {
                    toml.push(rel.to_path_buf());
                }
            }
        }
    }
    rust.sort();
    toml.sort();
    Ok((rust, toml))
}

/// Renders a relative path with `/` separators on every platform.
fn rel_display(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cast_scope_excludes_units_and_tests() {
        assert!(in_cast_scope("crates/taxes/src/crc.rs"));
        assert!(in_cast_scope("src/lib.rs"));
        assert!(in_cast_scope("crates/bench/src/bin/fig9.rs"));
        assert!(!in_cast_scope("crates/core/src/units.rs"));
        assert!(!in_cast_scope("crates/core/tests/model_properties.rs"));
        assert!(!in_cast_scope("crates/bench/benches/model_speedup.rs"));
    }

    #[test]
    fn panic_scope_excludes_binaries() {
        assert!(in_panic_scope("crates/core/src/model.rs"));
        assert!(in_panic_scope("src/lib.rs"));
        // The parallel worker pool is library code: it must stay panic-free
        // even though it juggles threads and mutexes.
        assert!(in_panic_scope("crates/simcore/src/pool.rs"));
        assert!(!in_panic_scope("crates/xtask/src/main.rs"));
        assert!(!in_panic_scope("crates/bench/src/bin/fig9.rs"));
        assert!(!in_panic_scope("crates/core/tests/model_properties.rs"));
    }

    #[test]
    fn determinism_scope_excludes_bench_xtask_and_tests() {
        assert!(in_determinism_scope("crates/simcore/src/pool.rs"));
        assert!(in_determinism_scope("crates/platforms/src/runner.rs"));
        assert!(in_determinism_scope("src/lib.rs"));
        assert!(!in_determinism_scope(
            "crates/bench/src/bin/fleet_profile.rs"
        ));
        assert!(!in_determinism_scope("crates/xtask/src/lexer.rs"));
        assert!(!in_determinism_scope(
            "crates/platforms/tests/determinism.rs"
        ));
    }

    #[test]
    fn json_report_is_well_formed() {
        let report = AuditReport {
            findings: vec![Finding {
                rule: RuleKind::Determinism,
                file: "crates/x/src/lib.rs".to_owned(),
                line: 7,
                message: "uses \"quotes\" and `ticks`".to_owned(),
            }],
            rust_files: 3,
            manifests: 1,
            pragmas_honoured: 2,
        };
        let json = report.to_json();
        assert!(json.contains("\"clean\": false"));
        assert!(json.contains("\\\"quotes\\\""));
        assert!(json.contains("\"line\": 7"));
        let empty = AuditReport::default().to_json();
        assert!(empty.contains("\"findings\": []"));
        assert!(empty.contains("\"clean\": true"));
    }

    #[test]
    fn manifest_line_split_respects_strings() {
        let (code, comment) = split_manifest_line("x = \"a#b\" # audit: allow(dep, y)");
        assert!(code.contains("a#b"));
        assert!(comment.contains("allow(dep"));
    }
}
