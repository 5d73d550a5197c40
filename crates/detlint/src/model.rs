//! From tokens to a workspace model: functions with bodies, attached
//! directives, a name-based call graph, and the identifier type facts
//! the rules need (which names are unordered maps, which are channel
//! directories).
//!
//! Resolution is deliberately name-based and conservative: a method
//! call `.poll(` links to *every* scanned function named `poll`, and a
//! qualified call `DMon::poll(` links to functions named `poll` whose
//! `impl` owner is `DMon`. A call on `self` — `self.poll(` — is the one
//! method call whose receiver type is known: it links to the caller's
//! own owner's `poll` when that owner has one (an inherent method wins
//! method resolution), and to every `poll` otherwise. Over-approximation
//! can only make more code reachable — it never hides a finding.

use std::collections::{BTreeMap, BTreeSet};

use crate::lexer::{lex, Directive, Tok, TokKind};

/// Rust keywords that look like call names but never are.
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "fn", "let", "mut", "pub", "impl",
    "struct", "enum", "trait", "mod", "use", "where", "in", "as", "ref", "move", "const", "static",
    "type", "unsafe", "dyn", "crate", "self", "Self", "super", "break", "continue",
];

/// One scanned function.
#[derive(Debug)]
pub struct FnInfo {
    /// Function name.
    pub name: String,
    /// `impl` owner type, when declared inside an impl block.
    pub owner: Option<String>,
    /// Index of the file in [`Workspace::files`].
    pub file: usize,
    /// Line of the `fn` keyword.
    pub line: u32,
    /// Token range of the body (inside the braces, exclusive).
    pub body: (usize, usize),
    /// Directives attached just above the `fn` (e.g. `shard-entry`,
    /// `replay-only`).
    pub annotations: Vec<String>,
    /// Names this function calls: `name` for plain and method calls,
    /// `Owner::name` additionally for qualified calls, `Self::name` for
    /// calls on `self`.
    pub calls: BTreeSet<String>,
}

/// One scanned file.
#[derive(Debug)]
pub struct FileModel {
    /// Path as given to [`Workspace::add_file`] (display).
    pub path: String,
    /// Token stream (test modules removed).
    pub tokens: Vec<Tok>,
    /// All detlint directives, by line.
    pub directives: Vec<Directive>,
    /// Source lines (for snippets).
    pub lines: Vec<String>,
}

/// The scanned workspace.
#[derive(Debug, Default)]
pub struct Workspace {
    /// Files in scan order.
    pub files: Vec<FileModel>,
    /// Functions across all files.
    pub fns: Vec<FnInfo>,
    /// Identifiers declared with a std `HashMap`/`HashSet` type.
    pub std_unordered: BTreeSet<String>,
    /// Identifiers declared with an `FxHashMap`/`FxHashSet` type.
    pub fx_unordered: BTreeSet<String>,
    /// Identifiers declared with the channel-registry `Directory` type.
    pub directory_names: BTreeSet<String>,
}

impl Workspace {
    /// Parse one file into the workspace.
    pub fn add_file(&mut self, path: &str, src: &str) {
        let (tokens, directives) = lex(src);
        let tokens = strip_test_modules(tokens);
        let file = self.files.len();
        self.collect_type_facts(&tokens);
        let mut fns = extract_fns(&tokens, &directives, file);
        for f in &mut fns {
            f.calls = extract_calls(&tokens, f.body);
        }
        self.fns.append(&mut fns);
        self.files.push(FileModel {
            path: path.to_string(),
            tokens,
            directives,
            lines: src.lines().map(str::to_string).collect(),
        });
    }

    /// Record which identifiers are declared with unordered-map or
    /// Directory types, across struct fields, lets, and parameters.
    fn collect_type_facts(&mut self, toks: &[Tok]) {
        for i in 0..toks.len() {
            let Some(tyname) = toks[i].ident() else {
                continue;
            };
            let class = match tyname {
                "HashMap" | "HashSet" => 0,
                "FxHashMap" | "FxHashSet" => 1,
                "Directory" => 2,
                _ => continue,
            };
            let Some(name) = declared_name(toks, i) else {
                continue;
            };
            match class {
                0 => {
                    self.std_unordered.insert(name);
                }
                1 => {
                    self.fx_unordered.insert(name);
                }
                _ => {
                    self.directory_names.insert(name);
                }
            }
        }
    }

    /// The set of function indices reachable from `shard-entry` roots.
    pub fn reachable_from_roots(&self) -> BTreeSet<usize> {
        let mut by_name: BTreeMap<&str, Vec<usize>> = BTreeMap::new();
        for (i, f) in self.fns.iter().enumerate() {
            by_name.entry(&f.name).or_default().push(i);
        }
        let mut seen: BTreeSet<usize> = BTreeSet::new();
        let mut queue: Vec<usize> = self
            .fns
            .iter()
            .enumerate()
            .filter(|(_, f)| f.annotations.iter().any(|a| a.starts_with("shard-entry")))
            .map(|(i, _)| i)
            .collect();
        while let Some(i) = queue.pop() {
            if !seen.insert(i) {
                continue;
            }
            for call in &self.fns[i].calls {
                let (owner, name) = match call.split_once("::") {
                    Some((o, n)) => (Some(o), n),
                    None => (None, call.as_str()),
                };
                let named = by_name.get(name).map_or(&[][..], Vec::as_slice);
                // `self.name(` binds to the caller's owner when it has a
                // `name`; a trait-provided or deref'd one could be anyone's.
                let caller = self.fns[i].owner.as_deref();
                let owner = match owner {
                    Some("Self")
                        if named
                            .iter()
                            .any(|&j| self.fns[j].owner.as_deref() == caller) =>
                    {
                        caller
                    }
                    Some("Self") => None,
                    other => other,
                };
                for &j in named {
                    let matches_owner = match owner {
                        Some(o) => self.fns[j].owner.as_deref() == Some(o),
                        None => true,
                    };
                    if matches_owner && !seen.contains(&j) {
                        queue.push(j);
                    }
                }
            }
        }
        seen
    }

    /// True when any function carries a `shard-entry` annotation.
    pub fn has_roots(&self) -> bool {
        self.fns
            .iter()
            .any(|f| f.annotations.iter().any(|a| a.starts_with("shard-entry")))
    }
}

/// Given the index of a type name (e.g. `HashMap`), walk back to the
/// identifier it declares: `conns: FxHashMap<..>`, `x = HashMap::new()`,
/// `dir: &mut Directory`. Returns `None` when the type appears nested in
/// a generic position with no direct binder.
fn declared_name(toks: &[Tok], ty_at: usize) -> Option<String> {
    let mut j = ty_at;
    // Walk back over a leading path (`std :: collections :: HashMap`).
    while j >= 2 && toks[j - 1].is_punct(':') && toks[j - 2].is_punct(':') {
        if j >= 3 && toks[j - 3].ident().is_some() {
            j -= 3;
        } else {
            break;
        }
    }
    if j == 0 {
        return None;
    }
    // Expect `:` (type ascription) or `=` (initializer) next, possibly
    // behind `&`/`mut`.
    let mut k = j - 1;
    while k > 0 && (toks[k].is_punct('&') || toks[k].ident() == Some("mut")) {
        k -= 1;
    }
    let binder = if toks[k].is_punct(':') && !(k >= 1 && toks[k - 1].is_punct(':')) {
        // `name : Type` — but not a path separator.
        k.checked_sub(1)
    } else if toks[k].is_punct('=') {
        // `name = HashMap::new()` / `name = HashMap::default()`.
        k.checked_sub(1)
    } else {
        None
    }?;
    let name = toks[binder].ident()?;
    if KEYWORDS.contains(&name) {
        return None;
    }
    Some(name.to_string())
}

/// Remove `#[cfg(test)] mod … { … }` regions: tests may legitimately
/// use wall clocks, ambient entropy, and hash-order iteration.
fn strip_test_modules(toks: Vec<Tok>) -> Vec<Tok> {
    let mut out = Vec::with_capacity(toks.len());
    let mut i = 0;
    while i < toks.len() {
        if is_cfg_test_at(&toks, i) {
            // Skip the attribute, then the `mod name {` and its body.
            let mut j = i + 6; // past `# [ cfg ( test ) ]` is 7 tokens: #,[,cfg,(,test,),]
            j += 1;
            // Find the opening brace of the mod (or give up).
            let mut brace = None;
            for (off, t) in toks[j..].iter().take(8).enumerate() {
                if t.is_punct('{') {
                    brace = Some(j + off);
                    break;
                }
            }
            if let Some(open) = brace {
                if let Some(close) = matching_brace(&toks, open) {
                    i = close + 1;
                    continue;
                }
            }
        }
        out.push(toks[i].clone());
        i += 1;
    }
    out
}

/// Does `# [ cfg ( test ) ]` start at `i`, followed (soon) by `mod`?
fn is_cfg_test_at(toks: &[Tok], i: usize) -> bool {
    let pat = [
        toks.get(i).map(|t| t.is_punct('#')) == Some(true),
        toks.get(i + 1).map(|t| t.is_punct('[')) == Some(true),
        toks.get(i + 2).and_then(Tok::ident) == Some("cfg"),
        toks.get(i + 3).map(|t| t.is_punct('(')) == Some(true),
        toks.get(i + 4).and_then(Tok::ident) == Some("test"),
        toks.get(i + 5).map(|t| t.is_punct(')')) == Some(true),
        toks.get(i + 6).map(|t| t.is_punct(']')) == Some(true),
    ];
    pat.iter().all(|&p| p) && toks.get(i + 7).and_then(Tok::ident) == Some("mod")
}

/// Index of the `}` matching the `{` at `open`.
fn matching_brace(toks: &[Tok], open: usize) -> Option<usize> {
    let mut depth = 0usize;
    for (i, t) in toks.iter().enumerate().skip(open) {
        if t.is_punct('{') {
            depth += 1;
        } else if t.is_punct('}') {
            depth -= 1;
            if depth == 0 {
                return Some(i);
            }
        }
    }
    None
}

/// Extract every `fn` with its body range, impl owner, and attached
/// directives.
fn extract_fns(toks: &[Tok], directives: &[Directive], file: usize) -> Vec<FnInfo> {
    let mut fns = Vec::new();
    // impl-owner tracking: a stack of (owner, close_brace_index).
    let mut impl_stack: Vec<(String, usize)> = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        while let Some(&(_, close)) = impl_stack.last() {
            if i > close {
                impl_stack.pop();
            } else {
                break;
            }
        }
        if toks[i].ident() == Some("impl") {
            if let Some((owner, open)) = impl_header(toks, i) {
                if let Some(close) = matching_brace(toks, open) {
                    impl_stack.push((owner, close));
                    i = open + 1;
                    continue;
                }
            }
        }
        if toks[i].ident() == Some("fn") {
            if let Some(name_tok) = toks.get(i + 1) {
                if let Some(name) = name_tok.ident() {
                    if let Some(open) = body_open(toks, i + 2) {
                        if let Some(close) = matching_brace(toks, open) {
                            let line = toks[i].line;
                            fns.push(FnInfo {
                                name: name.to_string(),
                                owner: impl_stack.last().map(|(o, _)| o.clone()),
                                file,
                                line,
                                body: (open + 1, close),
                                annotations: Vec::new(),
                                calls: BTreeSet::new(),
                            });
                            // Do not jump past the body: nested fns get
                            // their own entries.
                            i += 2;
                            continue;
                        }
                    }
                }
            }
        }
        i += 1;
    }
    // Attach each non-allow directive to the *nearest* fn below it
    // (within 5 lines) — not to every fn in range, or a `shard-entry`
    // comment would leak onto unrelated neighbors.
    for d in directives {
        if d.text.starts_with("allow(") {
            continue;
        }
        let nearest = fns
            .iter_mut()
            .filter(|f| f.line > d.line && f.line - d.line <= 5)
            .min_by_key(|f| f.line);
        if let Some(f) = nearest {
            f.annotations.push(d.text.clone());
        }
    }
    fns
}

/// From an `impl` keyword, find the owner type name and the opening
/// brace of the impl block. The owner is the last plain identifier in
/// the header outside angle brackets (`impl ShardWorld for PShard` →
/// `PShard`; `impl<T> Table<T>` → `Table`).
fn impl_header(toks: &[Tok], impl_at: usize) -> Option<(String, usize)> {
    let mut angle = 0i32;
    let mut owner: Option<&str> = None;
    for (i, t) in toks.iter().enumerate().skip(impl_at + 1) {
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            TokKind::Punct('>') => angle -= 1,
            TokKind::Punct('{') if angle <= 0 => {
                return owner.map(|o| (o.to_string(), i));
            }
            TokKind::Punct(';') => return None, // e.g. stray tokens
            TokKind::Ident(s) if angle == 0 && !KEYWORDS.contains(&s.as_str()) => {
                owner = Some(s);
            }
            _ => {}
        }
    }
    None
}

/// From just past the fn name, find the body's opening brace, skipping
/// the signature (parens, generics, return type, where clause).
fn body_open(toks: &[Tok], from: usize) -> Option<usize> {
    let mut angle = 0i32;
    let mut i = from;
    while i < toks.len() {
        let t = &toks[i];
        match &t.kind {
            TokKind::Punct('<') => angle += 1,
            // `->` is not a closing angle.
            TokKind::Punct('>') if !(i > 0 && toks[i - 1].is_punct('-')) => angle -= 1,
            TokKind::Punct(';') if angle <= 0 => return None, // trait decl, no body
            TokKind::Punct('{') if angle <= 0 => return Some(i),
            _ => {}
        }
        i += 1;
    }
    None
}

/// Collect call targets in a body range: `name(`, `.name(`, and
/// `Owner::name(` (recorded as both `name` and `Owner::name`).
fn extract_calls(toks: &[Tok], body: (usize, usize)) -> BTreeSet<String> {
    let mut calls = BTreeSet::new();
    let (start, end) = body;
    for i in start..end.min(toks.len()) {
        let Some(name) = toks[i].ident() else {
            continue;
        };
        if KEYWORDS.contains(&name) {
            continue;
        }
        let next_is_paren = toks.get(i + 1).map(|t| t.is_punct('(')) == Some(true);
        if !next_is_paren {
            continue;
        }
        // Macro invocation `name!(` never reaches a fn by that name.
        // (The `!` sits between name and paren, so this arm is only for
        // safety with `name !(` spacing — tokens have no spacing.)
        if toks.get(i + 1).map(|t| t.is_punct('!')) == Some(true) {
            continue;
        }
        if i >= 2 && toks[i - 1].is_punct(':') && toks[i - 2].is_punct(':') {
            // Qualified: find the owner segment before `::`.
            if let Some(owner) = toks.get(i.wrapping_sub(3)).and_then(Tok::ident) {
                calls.insert(format!("{owner}::{name}"));
            }
            calls.insert(name.to_string());
        } else if i >= 2
            && toks[i - 1].is_punct('.')
            && toks[i - 2].ident() == Some("self")
            && !(i >= 3 && toks[i - 3].is_punct('.'))
        {
            calls.insert(format!("Self::{name}"));
        } else {
            // Plain or method call.
            calls.insert(name.to_string());
        }
    }
    calls
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ws(src: &str) -> Workspace {
        let mut w = Workspace::default();
        w.add_file("test.rs", src);
        w
    }

    #[test]
    fn fn_extraction_with_owner_and_annotations() {
        let w = ws(r"
struct PShard;
trait ShardWorld { fn execute(&mut self); }
impl ShardWorld for PShard {
    // detlint: shard-entry
    fn execute(&mut self) { self.poll_all(); helper(); }
}
fn helper() {}
");
        let names: Vec<(&str, Option<&str>)> = w
            .fns
            .iter()
            .map(|f| (f.name.as_str(), f.owner.as_deref()))
            .collect();
        assert!(names.contains(&("execute", Some("PShard"))));
        assert!(names.contains(&("helper", None)));
        let exec = w.fns.iter().find(|f| f.owner.is_some()).unwrap();
        assert_eq!(exec.annotations, vec!["shard-entry"]);
        assert!(exec.calls.contains("Self::poll_all"));
        assert!(exec.calls.contains("helper"));
    }

    #[test]
    fn type_facts_from_fields_lets_and_params() {
        let w = ws(r"
struct S { conns: FxHashMap<u32, u32>, names: std::collections::HashMap<String, u32> }
fn f(dir: &mut Directory) {
    let mut cache = HashMap::new();
    let ordered: BTreeMap<u32, u32> = BTreeMap::new();
}
");
        assert!(w.fx_unordered.contains("conns"));
        assert!(w.std_unordered.contains("names"));
        assert!(w.std_unordered.contains("cache"));
        assert!(w.directory_names.contains("dir"));
        assert!(!w.std_unordered.contains("ordered"));
    }

    #[test]
    fn reachability_follows_calls_and_owners() {
        let w = ws(r"
// detlint: shard-entry
fn root() { step_one(); }
fn step_one() { Helper::deep(); }
struct Helper;
impl Helper { fn deep() {} }
fn unrelated() {}
");
        let reach = w.reachable_from_roots();
        let reached: Vec<&str> = reach.iter().map(|&i| w.fns[i].name.as_str()).collect();
        assert!(reached.contains(&"root"));
        assert!(reached.contains(&"step_one"));
        assert!(reached.contains(&"deep"));
        assert!(!reached.contains(&"unrelated"));
    }

    #[test]
    fn calls_on_self_stay_with_their_owner() {
        // `Node::run` calls its own `charge`, not the serial driver's
        // wrapper of the same name — and so never reaches `settle`. A
        // `self` call to a method the owner does not define (`emit`,
        // trait-provided) still links to every function of that name.
        let w = ws(r"
struct Node; struct World; struct Other;
impl Node {
    // detlint: shard-entry
    fn run(&mut self) { self.charge(); self.emit(); }
    fn charge(&mut self) {}
}
impl World {
    fn charge(&mut self) { self.settle(); }
    fn settle(&mut self) {}
}
impl Other { fn emit(&mut self) {} }
");
        let reach = w.reachable_from_roots();
        let reached: Vec<(Option<&str>, &str)> = reach
            .iter()
            .map(|&i| (w.fns[i].owner.as_deref(), w.fns[i].name.as_str()))
            .collect();
        assert!(reached.contains(&(Some("Node"), "charge")));
        assert!(reached.contains(&(Some("Other"), "emit")));
        assert!(!reached.contains(&(Some("World"), "charge")));
        assert!(!reached.contains(&(Some("World"), "settle")));
    }

    #[test]
    fn test_modules_are_stripped() {
        let w = ws(r"
fn real() {}
#[cfg(test)]
mod tests {
    fn helper_in_tests() {}
}
");
        assert_eq!(w.fns.len(), 1);
        assert_eq!(w.fns[0].name, "real");
    }

    #[test]
    fn trait_method_declarations_have_no_body() {
        let w = ws("trait T { fn no_body(&self); fn with_body(&self) { x(); } }");
        let names: Vec<&str> = w.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["with_body"]);
    }
}
