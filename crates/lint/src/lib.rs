//! `hs-lint` — the workspace's repo-invariant static-analysis pass.
//!
//! Three bug classes have already cost this repo real PRs: NaN-unsafe
//! `partial_cmp(..).unwrap()` orderings (PR 4), poison-prone raw
//! `.lock().unwrap()` (PR 6/8), and float-reassociation ULP divergence in
//! the bit-exact aggregation path (PR 8). Until now the corresponding
//! invariants were enforced by reviewer memory; this crate makes them
//! machine-checked. `docs/LINTS.md` documents each rule, the historical bug
//! behind it, and the suppression syntax.
//!
//! The pass is a hand-rolled lexer ([`lexer`]) plus a token-level rule
//! engine ([`rules`]) — no `syn`/`quote`, consistent with the vendored
//! `serde_derive` parser, because the build environment has no crates
//! registry. [`lint_workspace`] walks every `.rs` file in the workspace
//! (crates, root `src`/`tests`/`examples`, vendored stand-ins), applies the
//! five rules under each file's context (bit-exact modules get two extra
//! rules), and produces a [`Report`] the `hs-lint` binary renders as text
//! and JSON.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod lexer;
pub mod rules;

use std::io;
use std::path::{Path, PathBuf};

pub use rules::{lint_source, FileCtx, Finding, Rule};
use serde::json::JsonValue;

/// The bit-exact modules: files whose outputs must replay bit-identically
/// across runs and machines (the determinism contract in `docs/SCALE.md`).
/// Rules `nondeterminism` and `float-accum` apply only here.
pub const BIT_EXACT_MODULES: &[&str] = &[
    "crates/fl/src/aggregate.rs",
    "crates/fl/src/cohort.rs",
    "crates/fl/src/simulation.rs",
    "crates/device/src/fault.rs",
    "crates/device/src/spec.rs",
    "crates/data/src/lazy.rs",
];

/// The one file exempt from the `raw-lock` rule: the poison-recovering
/// helpers themselves must touch raw `lock()` results to implement
/// recovery.
pub const RAW_LOCK_EXEMPT: &[&str] = &["crates/parallel/src/sync.rs"];

/// The sanctioned wall-clock homes: the only places allowed to call
/// `Instant::now()` / `SystemTime::now()` outside the bit-exact modules
/// (which ban the clock outright). Entries ending in `/` are directory
/// prefixes; the rest are exact files.
///
/// `crates/obs/` is the canonical home — it anchors every timestamp to one
/// process epoch so traces from different threads compare. The serving
/// engine, benches, examples, integration tests and vendored stand-ins
/// predate `hs-obs` and legitimately measure wall-clock (deadlines,
/// batching windows, bench timing); new code elsewhere should read time
/// through `hs_obs::now_ns()`.
pub const WALL_CLOCK_SANCTIONED: &[&str] = &[
    "crates/obs/",
    "crates/serve/",
    "crates/bench/",
    "examples/",
    "tests/",
    "vendor/",
];

/// Directories never walked: build output, VCS metadata, and this crate's
/// own rule fixtures (which contain deliberate violations).
const SKIP_DIRS: &[&str] = &["target", ".git"];
const SKIP_SUFFIXES: &[&str] = &["crates/lint/tests/fixtures"];

/// Findings for one file, keyed by its workspace-relative path (forward
/// slashes on every platform).
#[derive(Debug)]
pub struct FileReport {
    /// Workspace-relative path.
    pub path: String,
    /// Every finding, suppressed ones included.
    pub findings: Vec<Finding>,
}

/// The whole-workspace lint result.
#[derive(Debug, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Files with at least one finding.
    pub files: Vec<FileReport>,
}

impl Report {
    /// Findings not covered by a written justification — these fail
    /// `--check`.
    pub fn active(&self) -> impl Iterator<Item = (&str, &Finding)> {
        self.files.iter().flat_map(|f| {
            f.findings
                .iter()
                .filter(|x| x.suppressed.is_none())
                .map(move |x| (f.path.as_str(), x))
        })
    }

    /// Findings carrying an `hs-lint: allow(.., "reason")` justification.
    pub fn suppressed(&self) -> impl Iterator<Item = (&str, &Finding)> {
        self.files.iter().flat_map(|f| {
            f.findings
                .iter()
                .filter(|x| x.suppressed.is_some())
                .map(move |x| (f.path.as_str(), x))
        })
    }

    /// The JSON findings report written by `--json-out`.
    pub fn to_json(&self) -> JsonValue {
        let finding_json = |path: &str, f: &Finding| {
            JsonValue::obj(vec![
                ("file", JsonValue::Str(path.to_string())),
                ("line", JsonValue::Num(f.line as f64)),
                ("rule", JsonValue::Str(f.rule.name().to_string())),
                ("message", JsonValue::Str(f.message.clone())),
                ("suppressed", JsonValue::Bool(f.suppressed.is_some())),
                (
                    "reason",
                    match &f.suppressed {
                        Some(r) => JsonValue::Str(r.clone()),
                        None => JsonValue::Null,
                    },
                ),
            ])
        };
        let mut findings: Vec<JsonValue> = Vec::new();
        for file in &self.files {
            for f in &file.findings {
                findings.push(finding_json(&file.path, f));
            }
        }
        JsonValue::obj(vec![
            ("files_scanned", JsonValue::Num(self.files_scanned as f64)),
            ("active", JsonValue::Num(self.active().count() as f64)),
            (
                "suppressed",
                JsonValue::Num(self.suppressed().count() as f64),
            ),
            (
                "rules",
                JsonValue::Arr(
                    Rule::ALL
                        .iter()
                        .map(|r| JsonValue::Str(r.name().to_string()))
                        .collect(),
                ),
            ),
            ("findings", JsonValue::Arr(findings)),
        ])
    }
}

/// The lint context a workspace-relative path gets.
pub fn ctx_for(rel_path: &str) -> FileCtx {
    FileCtx {
        bit_exact: BIT_EXACT_MODULES.contains(&rel_path),
        raw_lock_exempt: RAW_LOCK_EXEMPT.contains(&rel_path),
        wall_clock_sanctioned: WALL_CLOCK_SANCTIONED.iter().any(|s| {
            if let Some(prefix) = s.strip_suffix('/') {
                rel_path.starts_with(prefix) && rel_path.as_bytes().get(prefix.len()) == Some(&b'/')
            } else {
                rel_path == *s
            }
        }),
    }
}

/// Walks every workspace `.rs` file under `root` and lints each one under
/// its path-derived context. Files are visited in sorted order, so reports
/// are byte-stable across runs and platforms.
pub fn lint_workspace(root: &Path) -> io::Result<Report> {
    let mut files = Vec::new();
    collect_rs_files(root, root, &mut files)?;
    files.sort();
    let mut report = Report {
        files_scanned: files.len(),
        files: Vec::new(),
    };
    for rel in files {
        let src = std::fs::read_to_string(root.join(&rel))?;
        let rel_fwd = rel.replace('\\', "/");
        let findings = lint_source(&src, &ctx_for(&rel_fwd));
        if !findings.is_empty() {
            report.files.push(FileReport {
                path: rel_fwd,
                findings,
            });
        }
    }
    Ok(report)
}

fn collect_rs_files(root: &Path, dir: &Path, out: &mut Vec<String>) -> io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            if SKIP_DIRS.contains(&name.as_ref()) || name.starts_with('.') {
                continue;
            }
            let rel = rel_of(root, &path);
            if SKIP_SUFFIXES.iter().any(|s| rel.ends_with(s)) {
                continue;
            }
            collect_rs_files(root, &path, out)?;
        } else if name.ends_with(".rs") {
            out.push(rel_of(root, &path));
        }
    }
    Ok(())
}

fn rel_of(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Finds the workspace root by walking upward from `start` to the first
/// directory whose `Cargo.toml` declares `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = start.to_path_buf();
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(dir);
            }
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bit_exact_context_is_path_derived() {
        assert!(ctx_for("crates/fl/src/aggregate.rs").bit_exact);
        assert!(ctx_for("crates/device/src/spec.rs").bit_exact);
        assert!(!ctx_for("crates/fl/src/trainer.rs").bit_exact);
        assert!(ctx_for("crates/parallel/src/sync.rs").raw_lock_exempt);
        assert!(!ctx_for("crates/serve/src/sync.rs").raw_lock_exempt);
    }

    #[test]
    fn wall_clock_sanction_matches_prefixes_and_exact_files() {
        // directory prefixes cover everything underneath
        assert!(ctx_for("crates/obs/src/clock.rs").wall_clock_sanctioned);
        assert!(ctx_for("crates/serve/src/batcher.rs").wall_clock_sanctioned);
        assert!(ctx_for("crates/serve/tests/serving.rs").wall_clock_sanctioned);
        assert!(ctx_for("crates/bench/src/serving_load.rs").wall_clock_sanctioned);
        assert!(ctx_for("examples/serve_quickstart.rs").wall_clock_sanctioned);
        assert!(ctx_for("tests/serving_e2e.rs").wall_clock_sanctioned);
        assert!(ctx_for("vendor/criterion/src/lib.rs").wall_clock_sanctioned);
        // prefixes don't leak into sibling names or other crates
        assert!(!ctx_for("crates/nn/src/conv.rs").wall_clock_sanctioned);
        assert!(!ctx_for("crates/nn/src/gemm.rs").wall_clock_sanctioned);
        assert!(!ctx_for("crates/fl/src/phases.rs").wall_clock_sanctioned);
        assert!(!ctx_for("crates/parallel/src/lib.rs").wall_clock_sanctioned);
        assert!(!ctx_for("crates/serve2/src/lib.rs").wall_clock_sanctioned);
        assert!(!ctx_for("tests2/foo.rs").wall_clock_sanctioned);
    }
}
