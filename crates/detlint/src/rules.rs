//! The replay-safety rules.
//!
//! Every rule is a token-shape pattern evaluated inside function bodies
//! that are *reachable from shard-window context* — functions annotated
//! `// detlint: shard-entry` and everything they transitively call.
//! Code off that path (setup, CLI, reporting) may use wall clocks and
//! hash-order iteration freely; code on it may not, because the sharded
//! simulation replays shard windows and demands bit-identical results.
//!
//! Rules:
//! - `unordered-iter`: iterating a `HashMap`/`HashSet` (std: Error) or
//!   `FxHashMap`/`FxHashSet` (Warning — seeded, but still insertion-
//!   order sensitive) visits entries in hasher order.
//! - `ambient-time`: `SystemTime`/`Instant`/`std::time` read the wall
//!   clock; replay must use `SimTime` from the scheduler.
//! - `ambient-rng`: `thread_rng`/`OsRng`/`from_entropy`/`rand::random`
//!   draw from ambient entropy; replay must use seeded RNGs.
//! - `replay-only`: mutating a channel `Directory` (subscribe /
//!   unsubscribe / open) from shard context; directory mutation belongs
//!   to the coordinator's replay step. Suppressed by a
//!   `// detlint: replay-only` annotation on the enclosing function —
//!   but that annotation is itself checked: outside coordinator modules
//!   it raises `misplaced-annotation`.
//! - `no-roots`: the scan found no `shard-entry` annotation at all, so
//!   reachability would be vacuous; the roots were deleted or renamed.
//!
//! `// detlint: allow(<rule>) <reason>` on one of the five lines above a
//! finding suppresses it; the reason is mandatory by convention and the
//! comment itself documents the justification in place.

use crate::lexer::Tok;
use crate::model::{FnInfo, Workspace};

/// Finding severity. `Error` fails `--check`; `Warning` is advisory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; reported but does not fail the gate.
    Warning,
    /// Fails `--check` unless allowed inline.
    Error,
}

impl Severity {
    /// Lowercase label for display.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// One finding.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier (`unordered-iter`, `ambient-time`, …).
    pub rule: &'static str,
    /// Severity.
    pub severity: Severity,
    /// File path (as scanned).
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Enclosing function, `<module>` for file-level findings.
    pub function: String,
    /// Human-readable message.
    pub message: String,
    /// The offending source line, trimmed.
    pub snippet: String,
}

impl Finding {
    /// Render as `error[rule] path:1:2 in fn f: message`.
    pub fn render(&self) -> String {
        format!(
            "{}[{}] {}:{}:{} in fn {}: {}\n    {}",
            self.severity.label(),
            self.rule,
            self.file,
            self.line,
            self.col,
            self.function,
            self.message,
            self.snippet
        )
    }
}

/// Methods whose receiver iteration order is the hasher's.
const ITER_METHODS: &[&str] = &[
    "iter",
    "iter_mut",
    "into_iter",
    "keys",
    "values",
    "values_mut",
    "drain",
    "retain",
];

/// Directory mutators that reshape the channel registry.
const DIR_MUTATORS: &[&str] = &["subscribe", "unsubscribe", "open"];

/// How far above a finding an `allow(...)` directive still applies,
/// in lines. Five covers a comment block plus attributes.
const ALLOW_RANGE: u32 = 5;

/// Run every rule over the workspace.
pub fn run(ws: &Workspace) -> Vec<Finding> {
    let mut findings = Vec::new();

    if !ws.has_roots() {
        findings.push(Finding {
            rule: "no-roots",
            severity: Severity::Error,
            file: ws
                .files
                .first()
                .map_or_else(|| "<workspace>".to_string(), |f| f.path.clone()),
            line: 1,
            col: 1,
            function: "<module>".to_string(),
            message: "no `// detlint: shard-entry` root found; replay-safety \
                      reachability is vacuous"
                .to_string(),
            snippet: String::new(),
        });
        return findings;
    }

    let reachable = ws.reachable_from_roots();

    for (fi, f) in ws.fns.iter().enumerate() {
        let file = &ws.files[f.file];
        let replay_only = f.annotations.iter().any(|a| a.starts_with("replay-only"));

        // misplaced-annotation applies regardless of reachability: a
        // replay-only escape hatch in the wrong module is always wrong.
        if replay_only && !is_coordinator_fn(&file.path, f) {
            findings.push(Finding {
                rule: "misplaced-annotation",
                severity: Severity::Error,
                file: file.path.clone(),
                line: f.line,
                col: 1,
                function: f.name.clone(),
                message: "`replay-only` annotation outside a coordinator module; \
                          only the coordinator replay step may mutate directories"
                    .to_string(),
                snippet: snippet_at(file, f.line),
            });
        }

        if !reachable.contains(&fi) {
            continue;
        }

        let toks = &file.tokens[f.body.0..f.body.1.min(file.tokens.len())];
        scan_unordered_iter(ws, file, f, toks, &mut findings);
        scan_ambient_time(file, f, toks, &mut findings);
        scan_ambient_rng(file, f, toks, &mut findings);
        if !replay_only {
            scan_directory_mutation(ws, file, f, toks, &mut findings);
        }
    }

    // Apply allow() suppressions, then sort for stable output.
    findings.retain(|fx| !is_allowed(ws, fx));
    findings
        .sort_by(|a, b| (&a.file, a.line, a.col, a.rule).cmp(&(&b.file, b.line, b.col, b.rule)));
    findings
}

/// Is `f` a place where `replay-only` is legitimate? Only the effect
/// appliers are, and they are told by owner, not by file: in `cluster.rs`
/// the world (`ClusterWorld`'s membership appliers, which both engines
/// call between handlers, and `ClusterSim`'s setup-time bootstrap), in
/// `pcluster.rs` the coordinator `PCoord`. The serial sink next to the
/// one and the shard half next to the other run inside handlers.
fn is_coordinator_fn(path: &str, f: &FnInfo) -> bool {
    let base = path.rsplit('/').next().unwrap_or(path);
    let owner = f.owner.as_deref();
    match base {
        "cluster.rs" => matches!(owner, Some("ClusterWorld" | "ClusterSim")),
        "pcluster.rs" => owner == Some("PCoord"),
        _ => false,
    }
}

/// The trimmed source line at `line` (1-based).
fn snippet_at(file: &crate::model::FileModel, line: u32) -> String {
    file.lines
        .get(line as usize - 1)
        .map_or_else(String::new, |l| l.trim().to_string())
}

/// Is this finding covered by an `allow(<rule>)` directive within
/// [`ALLOW_RANGE`] lines above it (or on its own line)?
fn is_allowed(ws: &Workspace, fx: &Finding) -> bool {
    let Some(file) = ws.files.iter().find(|f| f.path == fx.file) else {
        return false;
    };
    let needle = format!("allow({})", fx.rule);
    file.directives.iter().any(|d| {
        d.text.starts_with(&needle) && d.line <= fx.line && fx.line - d.line <= ALLOW_RANGE
    })
}

fn push(
    findings: &mut Vec<Finding>,
    rule: &'static str,
    severity: Severity,
    file: &crate::model::FileModel,
    f: &FnInfo,
    tok: &Tok,
    message: String,
) {
    findings.push(Finding {
        rule,
        severity,
        file: file.path.clone(),
        line: tok.line,
        col: tok.col,
        function: f.name.clone(),
        message,
        snippet: snippet_at(file, tok.line),
    });
}

/// `name.iter()` / `for k in name` where `name` is an unordered map.
fn scan_unordered_iter(
    ws: &Workspace,
    file: &crate::model::FileModel,
    f: &FnInfo,
    toks: &[Tok],
    findings: &mut Vec<Finding>,
) {
    let class_of = |name: &str| -> Option<(&'static str, Severity)> {
        if ws.std_unordered.contains(name) {
            Some(("std HashMap/HashSet", Severity::Error))
        } else if ws.fx_unordered.contains(name) {
            Some(("FxHashMap/FxHashSet", Severity::Warning))
        } else {
            None
        }
    };
    for i in 0..toks.len() {
        // Shape: <name> . <method> (   — receiver may be a field access,
        // `self . conns . iter (`; the ident right before `.` is enough.
        let Some(method) = toks[i].ident() else {
            continue;
        };
        if !ITER_METHODS.contains(&method) {
            continue;
        }
        if !(i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true))
        {
            continue;
        }
        let Some(recv) = toks[i - 2].ident() else {
            continue;
        };
        if let Some((ty, sev)) = class_of(recv) {
            push(
                findings,
                "unordered-iter",
                sev,
                file,
                f,
                &toks[i],
                format!(
                    "`{recv}.{method}()` iterates a {ty} in hasher order; \
                     replayed shard windows demand a deterministic order \
                     (sort first, or keep a sorted index)"
                ),
            );
        }
    }
    // Shape: for <pat> in [&[mut]] <name> { — direct iteration of the map.
    for i in 0..toks.len() {
        if toks[i].ident() != Some("for") {
            continue;
        }
        // Find `in` within a few tokens (patterns are short).
        let Some(in_at) = (i + 1..(i + 8).min(toks.len())).find(|&j| toks[j].ident() == Some("in"))
        else {
            continue;
        };
        let mut j = in_at + 1;
        while j < toks.len() && (toks[j].is_punct('&') || toks[j].ident() == Some("mut")) {
            j += 1;
        }
        // The iterated expression's *last* ident before `{` (handles
        // `self.conns`, plain `conns`).
        let mut last_ident: Option<(usize, &str)> = None;
        let mut k = j;
        while k < toks.len() && !toks[k].is_punct('{') {
            if let Some(id) = toks[k].ident() {
                // Method-call receivers are handled by the shape above.
                if toks.get(k + 1).map(|t| t.is_punct('(')) == Some(true) {
                    last_ident = None;
                    break;
                }
                last_ident = Some((k, id));
            }
            k += 1;
        }
        if let Some((at, name)) = last_ident {
            if let Some((ty, sev)) = class_of(name) {
                push(
                    findings,
                    "unordered-iter",
                    sev,
                    file,
                    f,
                    &toks[at],
                    format!(
                        "`for … in {name}` iterates a {ty} in hasher order; \
                         replayed shard windows demand a deterministic order"
                    ),
                );
            }
        }
    }
}

/// `SystemTime` / `Instant` / `std::time` — ambient wall clock.
fn scan_ambient_time(
    file: &crate::model::FileModel,
    f: &FnInfo,
    toks: &[Tok],
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        let Some(id) = toks[i].ident() else { continue };
        let hit = match id {
            "SystemTime" | "Instant" => true,
            "time" => {
                i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].ident() == Some("std")
            }
            _ => false,
        };
        if hit {
            push(
                findings,
                "ambient-time",
                Severity::Error,
                file,
                f,
                &toks[i],
                format!(
                    "`{id}` reads the wall clock; shard-context code must use \
                     the scheduler's SimTime so replay is bit-identical"
                ),
            );
        }
    }
}

/// `thread_rng` / `OsRng` / `from_entropy` / `rand::random` — ambient
/// entropy sources.
fn scan_ambient_rng(
    file: &crate::model::FileModel,
    f: &FnInfo,
    toks: &[Tok],
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        let Some(id) = toks[i].ident() else { continue };
        let hit = match id {
            "thread_rng" | "OsRng" | "from_entropy" => true,
            "random" => {
                i >= 3
                    && toks[i - 1].is_punct(':')
                    && toks[i - 2].is_punct(':')
                    && toks[i - 3].ident() == Some("rand")
            }
            _ => false,
        };
        if hit {
            push(
                findings,
                "ambient-rng",
                Severity::Error,
                file,
                f,
                &toks[i],
                format!(
                    "`{id}` draws ambient entropy; shard-context code must use \
                     a seeded RNG owned by the deterministic scheduler"
                ),
            );
        }
    }
}

/// `dir.subscribe(…)` etc. where `dir` is a `Directory`, outside
/// functions annotated `replay-only`.
fn scan_directory_mutation(
    ws: &Workspace,
    file: &crate::model::FileModel,
    f: &FnInfo,
    toks: &[Tok],
    findings: &mut Vec<Finding>,
) {
    for i in 0..toks.len() {
        let Some(method) = toks[i].ident() else {
            continue;
        };
        if !DIR_MUTATORS.contains(&method) {
            continue;
        }
        if !(i >= 2
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true))
        {
            continue;
        }
        let Some(recv) = toks[i - 2].ident() else {
            continue;
        };
        if ws.directory_names.contains(recv) {
            push(
                findings,
                "replay-only",
                Severity::Error,
                file,
                f,
                &toks[i],
                format!(
                    "`{recv}.{method}()` mutates a channel Directory from shard \
                     context; directory mutation belongs to the coordinator \
                     replay step (annotate the fn `// detlint: replay-only` \
                     if it IS that step)"
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::Workspace;

    fn lint(path: &str, src: &str) -> Vec<Finding> {
        let mut ws = Workspace::default();
        ws.add_file(path, src);
        run(&ws)
    }

    const ROOT: &str = "// detlint: shard-entry\n";

    #[test]
    fn no_roots_is_itself_a_finding() {
        let fx = lint("a.rs", "fn f() {}");
        assert_eq!(fx.len(), 1);
        assert_eq!(fx[0].rule, "no-roots");
    }

    #[test]
    fn unordered_iter_std_is_error_fx_is_warning() {
        let src = format!(
            "{ROOT}fn f() {{\n  let m: HashMap<u32,u32> = HashMap::new();\n  \
             let fx: FxHashMap<u32,u32> = FxHashMap::default();\n  \
             for k in m.keys() {{}}\n  for v in fx.values() {{}}\n}}"
        );
        let fx = lint("a.rs", &src);
        assert_eq!(fx.len(), 2, "{fx:#?}");
        assert!(fx
            .iter()
            .any(|f| f.rule == "unordered-iter" && f.severity == Severity::Error));
        assert!(fx
            .iter()
            .any(|f| f.rule == "unordered-iter" && f.severity == Severity::Warning));
    }

    #[test]
    fn for_loop_over_map_is_caught() {
        let src =
            format!("{ROOT}fn f(m: &HashMap<u32,u32>) {{ for (k, v) in m {{ use_it(k, v); }} }}");
        let fx = lint("a.rs", &src);
        assert_eq!(fx.len(), 1, "{fx:#?}");
        assert_eq!(fx[0].rule, "unordered-iter");
    }

    #[test]
    fn unreachable_code_is_not_linted() {
        let src = format!(
            "{ROOT}fn root() {{}}\n\
             fn off_path(m: &HashMap<u32,u32>) {{ for k in m.keys() {{}} }}"
        );
        assert!(lint("a.rs", &src).is_empty());
    }

    #[test]
    fn reachability_crosses_files() {
        let mut ws = Workspace::default();
        ws.add_file("a.rs", &format!("{ROOT}fn root() {{ helper(); }}"));
        ws.add_file("b.rs", "fn helper() { let t = SystemTime::now(); }");
        let fx = run(&ws);
        assert_eq!(fx.len(), 1, "{fx:#?}");
        assert_eq!(fx[0].rule, "ambient-time");
        assert_eq!(fx[0].file, "b.rs");
    }

    #[test]
    fn ambient_time_and_rng_are_errors() {
        let src = format!(
            "{ROOT}fn f() {{\n  let t = std::time::Instant::now();\n  \
             let r = thread_rng();\n  let x = rand::random();\n}}"
        );
        let fx = lint("a.rs", &src);
        assert!(fx.iter().any(|f| f.rule == "ambient-time"));
        assert_eq!(fx.iter().filter(|f| f.rule == "ambient-rng").count(), 2);
        assert!(fx.iter().all(|f| f.severity == Severity::Error));
    }

    #[test]
    fn directory_mutation_needs_replay_only() {
        let src = format!("{ROOT}fn f(dir: &mut Directory) {{ dir.subscribe(1, 2); }}");
        let fx = lint("shard.rs", &src);
        assert_eq!(fx.len(), 1, "{fx:#?}");
        assert_eq!(fx[0].rule, "replay-only");
    }

    #[test]
    fn replay_only_annotation_suppresses_in_coordinator() {
        let src = format!(
            "{ROOT}fn f() {{ ClusterWorld::apply(); }}\n\
             struct ClusterWorld;\nimpl ClusterWorld {{\n// detlint: replay-only\n\
             fn apply() {{ let dir: Directory = Directory::new(); dir.subscribe(1, 2); }}\n}}"
        );
        assert!(lint("cluster.rs", &src).is_empty());
    }

    #[test]
    fn replay_only_outside_coordinator_is_misplaced() {
        let src = format!(
            "{ROOT}fn f() {{}}\n// detlint: replay-only\nfn sneaky(dir: &mut Directory) {{ dir.open(1); }}"
        );
        let fx = lint("dmon.rs", &src);
        assert_eq!(fx.len(), 1, "{fx:#?}");
        assert_eq!(fx[0].rule, "misplaced-annotation");
    }

    #[test]
    fn the_serial_sink_is_not_a_coordinator() {
        // Window code lives next to the serial driver now: the file name
        // must not hand it the escape hatch.
        let src = format!(
            "{ROOT}fn f() {{ SerialSink::fx(); }}\n\
             struct SerialSink;\nimpl SerialSink {{\n// detlint: replay-only\n\
             fn fx(dir: &mut Directory) {{ dir.subscribe(1, 2); }}\n}}\n\
             // detlint: replay-only\nfn free(dir: &mut Directory) {{ dir.open(1); }}"
        );
        let fx = lint("cluster.rs", &src);
        let got: Vec<_> = fx.iter().map(|f| (f.rule, f.function.as_str())).collect();
        let misplaced = "misplaced-annotation";
        assert_eq!(got, [(misplaced, "fx"), (misplaced, "free")], "{fx:#?}");
    }

    #[test]
    fn pcoord_owner_is_coordinator_in_pcluster() {
        let src = format!(
            "{ROOT}fn f() {{ PCoord::apply(); }}\n\
             struct PCoord;\nimpl PCoord {{\n// detlint: replay-only\n\
             fn apply(dir: &mut Directory) {{ dir.subscribe(1, 2); }}\n}}\n\
             struct PShard;\nimpl PShard {{\n// detlint: replay-only\n\
             fn bad(dir: &mut Directory) {{ dir.subscribe(1, 2); }}\n}}"
        );
        let fx = lint("pcluster.rs", &src);
        assert_eq!(fx.len(), 1, "{fx:#?}");
        assert_eq!(fx[0].rule, "misplaced-annotation");
        assert_eq!(fx[0].function, "bad");
    }

    #[test]
    fn allow_directive_suppresses_within_range() {
        let src = format!(
            "{ROOT}fn f(m: &HashMap<u32,u32>) {{\n  \
             // detlint: allow(unordered-iter) sorted on the next line\n  \
             let mut v: Vec<_> = m.keys().collect();\n  v.sort();\n}}"
        );
        assert!(lint("a.rs", &src).is_empty());
    }

    #[test]
    fn allow_for_wrong_rule_does_not_suppress() {
        let src = format!(
            "{ROOT}fn f(m: &HashMap<u32,u32>) {{\n  \
             // detlint: allow(ambient-time) wrong rule\n  \
             let v: Vec<_> = m.keys().collect();\n}}"
        );
        assert_eq!(lint("a.rs", &src).len(), 1);
    }

    #[test]
    fn btreemap_iteration_is_fine() {
        let src = format!(
            "{ROOT}fn f() {{ let m: BTreeMap<u32,u32> = BTreeMap::new(); \
             for k in m.keys() {{}} }}"
        );
        assert!(lint("a.rs", &src).is_empty());
    }
}
