//! detlint — workspace determinism lint for the dproc reproduction.
//!
//! The sharded parallel simulator (`crates/core/src/pcluster.rs` driving
//! the handlers of `crates/core/src/node.rs`)
//! replays shard windows and requires bit-identical re-execution: the
//! same events, in the same order, producing the same f64 sums. That
//! property cannot be checked at runtime for every code path, so this
//! crate checks it statically, the way the kernel's eBPF verifier
//! fronts for E-code admission (see `DESIGN.md` §13): a small,
//! conservative analyzer over a restricted discipline, run as a
//! blocking CI gate.
//!
//! The pipeline: [`lexer`] turns each source file into tokens and
//! `// detlint:` directives; [`model`] extracts functions, impl owners,
//! a name-based call graph, and which identifiers are unordered maps or
//! channel `Directory`s; [`rules`] evaluates the replay-safety rules on
//! everything reachable from `shard-entry` roots. A justified exception
//! is a `// detlint: allow(<rule>) <reason>` comment next to the code it
//! excuses; there is no other way past the gate.

pub mod lexer;
pub mod model;
pub mod rules;

use std::path::{Path, PathBuf};

pub use rules::{Finding, Severity};

/// Crate source dirs scanned by default, relative to the workspace
/// root. `bench` is exempt (it drives the simulator from outside any
/// shard window); shims (`rand`, `proptest`, …) are test scaffolding.
pub const SCAN_DIRS: &[&str] = &[
    "crates/simcore/src",
    "crates/core/src",
    "crates/kecho/src",
    "crates/simnet/src",
];

/// Scan result.
#[derive(Debug)]
pub struct Report {
    /// Findings no inline `allow` excuses.
    pub fresh: Vec<Finding>,
    /// Files scanned.
    pub files_scanned: usize,
    /// Functions found.
    pub fns_scanned: usize,
}

impl Report {
    /// Errors among the fresh findings (warnings don't fail the gate).
    pub fn fresh_errors(&self) -> usize {
        self.fresh
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .count()
    }
}

/// Collect the `.rs` files under the default scan dirs, sorted.
pub fn scan_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for dir in SCAN_DIRS {
        let d = root.join(dir);
        if !d.is_dir() {
            continue;
        }
        collect_rs(&d, &mut out)?;
    }
    out.sort();
    Ok(out)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    for entry in std::fs::read_dir(dir)? {
        let path = entry?.path();
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Build the workspace model from explicit files. Paths are stored
/// relative to `root` when possible (the same report on every machine).
pub fn build_workspace(root: &Path, files: &[PathBuf]) -> std::io::Result<model::Workspace> {
    let mut ws = model::Workspace::default();
    for path in files {
        let src = std::fs::read_to_string(path)?;
        let display = path
            .strip_prefix(root)
            .unwrap_or(path)
            .to_string_lossy()
            .replace('\\', "/");
        ws.add_file(&display, &src);
    }
    Ok(ws)
}

/// Run the full scan over `root`.
pub fn run_scan(root: &Path) -> std::io::Result<Report> {
    let files = scan_files(root)?;
    let ws = build_workspace(root, &files)?;
    Ok(Report {
        fresh: rules::run(&ws),
        files_scanned: ws.files.len(),
        fns_scanned: ws.fns.len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn repo_root() -> PathBuf {
        // crates/detlint → workspace root.
        Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../..")
            .canonicalize()
            .expect("workspace root")
    }

    fn fixture(name: &str) -> String {
        let p = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("fixtures")
            .join(name);
        std::fs::read_to_string(&p).unwrap_or_else(|e| panic!("read {}: {e}", p.display()))
    }

    fn lint_fixture(name: &str) -> Vec<Finding> {
        let mut ws = model::Workspace::default();
        ws.add_file(name, &fixture(name));
        rules::run(&ws)
    }

    #[test]
    fn fixture_unordered_iter_fails() {
        let fx = lint_fixture("unordered_iter.rs");
        assert!(fx.iter().any(|f| f.rule == "unordered-iter"), "{fx:#?}");
    }

    #[test]
    fn fixture_ambient_time_fails() {
        let fx = lint_fixture("ambient_time.rs");
        assert!(fx.iter().any(|f| f.rule == "ambient-time"), "{fx:#?}");
    }

    #[test]
    fn fixture_ambient_rng_fails() {
        let fx = lint_fixture("ambient_rng.rs");
        assert!(fx.iter().any(|f| f.rule == "ambient-rng"), "{fx:#?}");
    }

    #[test]
    fn fixture_replay_only_fails() {
        // The fixture plays the role of a shard-context module, so any
        // replay-only annotation in it is also misplaced.
        let fx = lint_fixture("replay_only.rs");
        assert!(fx.iter().any(|f| f.rule == "replay-only"), "{fx:#?}");
        assert!(
            fx.iter().any(|f| f.rule == "misplaced-annotation"),
            "{fx:#?}"
        );
    }

    #[test]
    fn fixture_clean_passes() {
        let fx = lint_fixture("clean.rs");
        assert!(fx.is_empty(), "{fx:#?}");
    }

    #[test]
    fn both_shard_hooks_are_roots_in_the_real_tree() {
        // The cluster's shards run code through `execute` (a window's
        // events) and `receive` (its posts, after the merge).
        let root = repo_root();
        let ws = build_workspace(&root, &scan_files(&root).expect("scan")).expect("read");
        let mut hooks: Vec<&str> = ws
            .fns
            .iter()
            .filter(|f| f.owner.as_deref() == Some("PShard"))
            .filter(|f| f.annotations.iter().any(|a| a.starts_with("shard-entry")))
            .map(|f| f.name.as_str())
            .collect();
        hooks.sort_unstable();
        assert_eq!(hooks, ["execute", "receive"]);
    }

    #[test]
    fn real_workspace_has_no_errors() {
        let report = run_scan(&repo_root()).expect("scan");
        assert!(report.files_scanned > 10, "scan found the real tree");
        let errors: Vec<String> = report
            .fresh
            .iter()
            .filter(|f| f.severity == Severity::Error)
            .map(Finding::render)
            .collect();
        assert!(errors.is_empty(), "detlint errors:\n{}", errors.join("\n"));
    }
}
