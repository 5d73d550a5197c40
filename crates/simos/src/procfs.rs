//! The `/proc` pseudo-filesystem.
//!
//! dproc's whole user interface is `/proc`: local metrics appear as text
//! files, remote nodes' metrics appear under `/proc/cluster/<node>/...`,
//! and applications customize monitoring by *writing* to per-node
//! `control` files. This model keeps a deterministic tree of entries
//! (BTreeMap directories, so listings are sorted like the harness output
//! needs) and queues writes for the owning subsystem (d-mon) to consume —
//! the same decoupling a real `/proc` write handler gives a kernel module.
//!
//! # Text on read
//!
//! A pseudo-file has no stored text: a kernel generates it when somebody
//! reads it. A file here holds one of three things:
//!
//! - *text* its owner wrote ([`ProcFs::set`], [`ProcFs::set_handle`]);
//! - a numeric *sample* — a `(value, ts)` pair stored by
//!   [`ProcFs::set_sample`], 16 bytes and no formatting — which
//!   [`ProcFs::read`] renders as `"<leaf> <value> ts <ts:.3>"` (`<leaf>` is
//!   the file's own name) when asked. The remote-view files d-mon
//!   refreshes on every received frame are samples;
//! - a *record* — a few `u64` words copied by [`ProcFs::set_record`] into
//!   a buffer the slot keeps and reuses, plus the plain function
//!   ([`RecordRender`]) that turns those words into the file's text.
//!   Everything d-mon writes per poll and per digest is a record: module
//!   details, per-peer `status`, `overload`, the rack summaries.
//!
//! So the poll, frame and digest paths store numbers — a snapshot taken
//! at the instant the text used to be written — and only a reader pays
//! for presentation; reading caches nothing, the slot keeps its numbers.
//! [`ProcFs::handle_buf`], the one writer that hands out a `String`,
//! first turns a sample or a record into the text a reader would see.
//!
//! Paths are `/`-separated, relative to the `/proc` root; a leading `/` or
//! `/proc/` prefix is accepted and stripped, so `"/proc/cluster/alan/cpu"`,
//! `"/cluster/alan/cpu"` and `"cluster/alan/cpu"` name the same entry.

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write;

/// Errors from pseudo-file operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ProcError {
    /// Path does not exist.
    NotFound(String),
    /// Path exists but is a directory (or a file where a dir is needed).
    WrongKind(String),
    /// Empty path component or empty path.
    BadPath(String),
}

impl std::fmt::Display for ProcError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProcError::NotFound(p) => write!(f, "no such /proc entry: {p}"),
            ProcError::WrongKind(p) => write!(f, "wrong entry kind: {p}"),
            ProcError::BadPath(p) => write!(f, "malformed /proc path: {p}"),
        }
    }
}

impl std::error::Error for ProcError {}

/// Stable handle to an interned `/proc` file: path resolution (string
/// parsing plus a `BTreeMap` walk per component) happens once, at
/// [`ProcFs::intern`] time; every subsequent write through the handle is an
/// index into a slab. Handles stay valid for the lifetime of the
/// filesystem; if the underlying file is [`ProcFs::remove`]d from the tree,
/// writes through the handle still succeed but are no longer visible via
/// path lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcHandle(usize);

#[derive(Debug, Clone)]
enum Node {
    Dir(BTreeMap<String, Node>),
    /// Index of the file's content in the `files` slab.
    File(usize),
}

/// Turns a record's words into the file's text, appending to the string.
/// A plain function: what it needs beyond the words is not in the file.
pub type RecordRender = fn(&[u64], &mut String);

/// What a file holds: text its owner wrote, or numbers that are rendered
/// when read (see the module docs).
#[derive(Debug, Clone)]
enum Content {
    Text(String),
    Sample {
        value: f64,
        ts: f64,
    },
    Record {
        words: Vec<u64>,
        render: RecordRender,
    },
}

impl Content {
    /// The text a reader sees.
    fn render(&self, leaf: &str) -> Cow<'_, str> {
        let mut out = String::new();
        match self {
            Content::Text(s) => return Cow::Borrowed(s),
            Content::Sample { value, ts } => {
                let _ = write!(out, "{leaf} {value} ts {ts:.3}");
            }
            Content::Record { words, render } => render(words, &mut out),
        }
        Cow::Owned(out)
    }
}

#[derive(Debug, Clone)]
struct File {
    content: Content,
    /// Index of the file's own name in [`ProcFs::leaves`]: the label a
    /// sample renders with.
    leaf: u32,
}

/// The pseudo-filesystem of one host.
#[derive(Debug, Default)]
pub struct ProcFs {
    root: BTreeMap<String, Node>,
    /// Files, slab-indexed by [`Node::File`] and [`ProcHandle`].
    files: Vec<File>,
    /// Distinct file names, interned: a host has thousands of files under
    /// a dozen names (`cpu`, `mem`, `control`, ...).
    leaves: Vec<Box<str>>,
    leaf_ids: BTreeMap<Box<str>, u32>,
    pending_writes: Vec<(String, String)>,
}

/// Split and normalize a path. Returns the component list.
fn components(path: &str) -> Result<Vec<&str>, ProcError> {
    let trimmed = path
        .trim_start_matches("/proc/")
        .trim_start_matches('/')
        .trim_end_matches('/');
    if trimmed.is_empty() {
        return Err(ProcError::BadPath(path.to_string()));
    }
    let parts: Vec<&str> = trimmed.split('/').collect();
    if parts.iter().any(|p| p.is_empty()) {
        return Err(ProcError::BadPath(path.to_string()));
    }
    Ok(parts)
}

impl ProcFs {
    /// Empty filesystem.
    pub fn new() -> Self {
        ProcFs::default()
    }

    /// Create or replace a file at `path`, creating parent directories.
    /// This is the kernel-side API (monitoring modules publishing values).
    pub fn set(&mut self, path: &str, content: impl Into<String>) -> Result<(), ProcError> {
        let h = self.intern(path)?;
        self.set_handle(h, content);
        Ok(())
    }

    /// Resolve `path` to a stable [`ProcHandle`], creating the file (empty)
    /// and its parent directories if absent. Resolution cost is paid once;
    /// writes through the handle are O(1).
    pub fn intern(&mut self, path: &str) -> Result<ProcHandle, ProcError> {
        let parts = components(path)?;
        let (file, dirs) = parts.split_last().expect("non-empty components");
        let mut cur = &mut self.root;
        for d in dirs {
            let entry = cur
                .entry(d.to_string())
                .or_insert_with(|| Node::Dir(BTreeMap::new()));
            match entry {
                Node::Dir(children) => cur = children,
                Node::File(_) => return Err(ProcError::WrongKind(path.to_string())),
            }
        }
        match cur.get(*file) {
            Some(Node::Dir(_)) => Err(ProcError::WrongKind(path.to_string())),
            Some(Node::File(idx)) => Ok(ProcHandle(*idx)),
            None => {
                let idx = self.files.len();
                let leaf = match self.leaf_ids.get(*file) {
                    Some(&id) => id,
                    None => {
                        let id = self.leaves.len() as u32;
                        self.leaves.push((*file).into());
                        self.leaf_ids.insert((*file).into(), id);
                        id
                    }
                };
                self.files.push(File {
                    content: Content::Text(String::new()),
                    leaf,
                });
                cur.insert(file.to_string(), Node::File(idx));
                Ok(ProcHandle(idx))
            }
        }
    }

    /// Replace an interned file's content. O(1): no parsing, no tree walk.
    pub fn set_handle(&mut self, h: ProcHandle, content: impl Into<String>) {
        self.files[h.0].content = Content::Text(content.into());
    }

    /// Store a numeric sample in an interned file: two floats, no text.
    /// A reader sees `"<leaf> <value> ts <ts:.3>"`, rendered when it reads.
    pub fn set_sample(&mut self, h: ProcHandle, value: f64, ts: f64) {
        self.files[h.0].content = Content::Sample { value, ts };
    }

    /// Store a record in an interned file: `words` are copied into the
    /// slot's own buffer (kept across writes, so a steady-state store
    /// allocates nothing) and no text is made. A reader sees what `render`
    /// makes of the words, rendered when it reads.
    pub fn set_record(&mut self, h: ProcHandle, render: RecordRender, words: &[u64]) {
        match &mut self.files[h.0].content {
            Content::Record {
                words: kept,
                render: r,
            } => {
                kept.clear();
                kept.extend_from_slice(words);
                *r = render;
            }
            other => {
                let words = words.to_vec();
                *other = Content::Record { words, render };
            }
        }
    }

    /// Whether an interned file currently holds a record (rather than
    /// text or a sample).
    pub fn is_record(&self, h: ProcHandle) -> bool {
        matches!(self.files[h.0].content, Content::Record { .. })
    }

    /// Direct mutable access to an interned file's text, for callers that
    /// assemble content piecewise (clear + push). A sample or a record is
    /// first turned into the text a reader would see, and the slot holds
    /// text from then on. Nothing in the workspace writes this way any
    /// more; the frozen `benchmark/src/probes.rs` times a write through it
    /// (`simos.procfs.write_handle_ns`), and ROADMAP item 2(d)'s
    /// `benchmark/`-scoped PR decides whether it goes with that probe.
    pub fn handle_buf(&mut self, h: ProcHandle) -> &mut String {
        let file = &mut self.files[h.0];
        if !matches!(file.content, Content::Text(_)) {
            let text = file.content.render(&self.leaves[file.leaf as usize]);
            file.content = Content::Text(text.into_owned());
        }
        let Content::Text(s) = &mut file.content else {
            unreachable!("numbers were just rendered")
        };
        s
    }

    /// Read an interned file's content; a sample or a record is rendered
    /// into a copy.
    pub fn read_handle(&self, h: ProcHandle) -> Cow<'_, str> {
        let file = &self.files[h.0];
        file.content.render(&self.leaves[file.leaf as usize])
    }

    fn lookup(&self, path: &str) -> Result<&Node, ProcError> {
        let parts = components(path)?;
        let mut cur = &self.root;
        let (last, dirs) = parts.split_last().expect("non-empty components");
        for d in dirs {
            match cur.get(*d) {
                Some(Node::Dir(children)) => cur = children,
                Some(Node::File(_)) => return Err(ProcError::WrongKind(path.to_string())),
                None => return Err(ProcError::NotFound(path.to_string())),
            }
        }
        cur.get(*last)
            .ok_or_else(|| ProcError::NotFound(path.to_string()))
    }

    /// Read a file's contents (userspace `cat`); a sample or a record is
    /// rendered into a copy.
    pub fn read(&self, path: &str) -> Result<Cow<'_, str>, ProcError> {
        match self.lookup(path)? {
            Node::File(idx) => Ok(self.read_handle(ProcHandle(*idx))),
            Node::Dir(_) => Err(ProcError::WrongKind(path.to_string())),
        }
    }

    /// Userspace write (`echo ... > /proc/...`): requires the file to
    /// exist; the data is queued for the owning subsystem rather than
    /// stored (a real `/proc` write handler intercepts data the same way).
    pub fn write(&mut self, path: &str, data: impl Into<String>) -> Result<(), ProcError> {
        match self.lookup(path)? {
            Node::File(_) => {
                let parts = components(path)?;
                self.pending_writes.push((parts.join("/"), data.into()));
                Ok(())
            }
            Node::Dir(_) => Err(ProcError::WrongKind(path.to_string())),
        }
    }

    /// Drain queued userspace writes as `(normalized_path, data)` pairs,
    /// in write order.
    pub fn drain_writes(&mut self) -> Vec<(String, String)> {
        std::mem::take(&mut self.pending_writes)
    }

    /// Number of queued, unconsumed writes.
    pub fn pending_write_count(&self) -> usize {
        self.pending_writes.len()
    }

    /// Sorted names inside a directory.
    pub fn list(&self, path: &str) -> Result<Vec<String>, ProcError> {
        match self.lookup(path)? {
            Node::Dir(children) => Ok(children.keys().cloned().collect()),
            Node::File(_) => Err(ProcError::WrongKind(path.to_string())),
        }
    }

    /// Sorted names at the filesystem root.
    pub fn list_root(&self) -> Vec<String> {
        self.root.keys().cloned().collect()
    }

    /// Whether a path exists (file or directory).
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// Whether a path exists and is a directory.
    pub fn is_dir(&self, path: &str) -> bool {
        matches!(self.lookup(path), Ok(Node::Dir(_)))
    }

    /// Remove a file or an entire directory subtree. Returns true if
    /// something was removed.
    pub fn remove(&mut self, path: &str) -> Result<bool, ProcError> {
        let parts = components(path)?;
        let (last, dirs) = parts.split_last().expect("non-empty components");
        let mut cur = &mut self.root;
        for d in dirs {
            match cur.get_mut(*d) {
                Some(Node::Dir(children)) => cur = children,
                Some(Node::File(_)) => return Err(ProcError::WrongKind(path.to_string())),
                None => return Ok(false),
            }
        }
        Ok(cur.remove(*last).is_some())
    }

    /// Render the whole tree as an indented listing (debugging aid, and
    /// the basis of the quickstart example's Figure-1 output).
    pub fn render_tree(&self) -> String {
        fn walk(out: &mut String, children: &BTreeMap<String, Node>, depth: usize) {
            for (name, node) in children {
                for _ in 0..depth {
                    out.push_str("  ");
                }
                match node {
                    Node::Dir(grand) => {
                        out.push_str(name);
                        out.push_str("/\n");
                        walk(out, grand, depth + 1);
                    }
                    Node::File(_) => {
                        out.push_str(name);
                        out.push('\n');
                    }
                }
            }
        }
        let mut out = String::new();
        walk(&mut out, &self.root, 0);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_and_read() {
        let mut fs = ProcFs::new();
        fs.set("loadavg", "0.50 0.40 0.30").unwrap();
        assert_eq!(fs.read("loadavg").unwrap(), "0.50 0.40 0.30");
        assert_eq!(fs.read("/loadavg").unwrap(), "0.50 0.40 0.30");
        assert_eq!(fs.read("/proc/loadavg").unwrap(), "0.50 0.40 0.30");
    }

    #[test]
    fn nested_paths_create_dirs() {
        let mut fs = ProcFs::new();
        fs.set("cluster/alan/cpu", "1.2").unwrap();
        fs.set("cluster/alan/net", "100").unwrap();
        fs.set("cluster/maui/cpu", "0.1").unwrap();
        assert_eq!(fs.list("cluster").unwrap(), vec!["alan", "maui"]);
        assert_eq!(fs.list("cluster/alan").unwrap(), vec!["cpu", "net"]);
        assert!(fs.is_dir("cluster"));
        assert!(!fs.is_dir("cluster/alan/cpu"));
    }

    #[test]
    fn write_requires_existing_file_and_queues() {
        let mut fs = ProcFs::new();
        assert!(matches!(
            fs.write("cluster/alan/control", "period=2"),
            Err(ProcError::NotFound(_))
        ));
        fs.set("cluster/alan/control", "").unwrap();
        fs.write("/proc/cluster/alan/control", "period=2").unwrap();
        fs.write("cluster/alan/control", "threshold=0.8").unwrap();
        assert_eq!(fs.pending_write_count(), 2);
        let writes = fs.drain_writes();
        assert_eq!(
            writes,
            vec![
                ("cluster/alan/control".to_string(), "period=2".to_string()),
                (
                    "cluster/alan/control".to_string(),
                    "threshold=0.8".to_string()
                ),
            ]
        );
        assert_eq!(fs.pending_write_count(), 0);
    }

    #[test]
    fn wrong_kind_errors() {
        let mut fs = ProcFs::new();
        fs.set("cluster/alan/cpu", "1").unwrap();
        assert!(matches!(
            fs.set("cluster/alan/cpu/deeper", "x"),
            Err(ProcError::WrongKind(_))
        ));
        assert!(matches!(fs.read("cluster"), Err(ProcError::WrongKind(_))));
        assert!(matches!(
            fs.list("cluster/alan/cpu"),
            Err(ProcError::WrongKind(_))
        ));
        assert!(matches!(
            fs.set("cluster", "overwrite a dir"),
            Err(ProcError::WrongKind(_))
        ));
    }

    #[test]
    fn bad_paths_rejected() {
        let mut fs = ProcFs::new();
        assert!(matches!(fs.set("", "x"), Err(ProcError::BadPath(_))));
        assert!(matches!(fs.set("/", "x"), Err(ProcError::BadPath(_))));
        assert!(matches!(fs.set("a//b", "x"), Err(ProcError::BadPath(_))));
    }

    #[test]
    fn remove_subtree() {
        let mut fs = ProcFs::new();
        fs.set("cluster/alan/cpu", "1").unwrap();
        fs.set("cluster/maui/cpu", "2").unwrap();
        assert!(fs.remove("cluster/alan").unwrap());
        assert!(!fs.exists("cluster/alan/cpu"));
        assert!(fs.exists("cluster/maui/cpu"));
        assert!(!fs.remove("cluster/alan").unwrap());
    }

    #[test]
    fn interned_handles_write_without_reparsing() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/cpu").unwrap();
        assert_eq!(fs.read("cluster/alan/cpu").unwrap(), "");
        fs.set_handle(h, "0.5");
        assert_eq!(fs.read("cluster/alan/cpu").unwrap(), "0.5");
        assert_eq!(fs.read_handle(h), "0.5");
        // Interning an existing path (even via a different spelling)
        // returns the same handle.
        assert_eq!(fs.intern("/proc/cluster/alan/cpu").unwrap(), h);
    }

    #[test]
    fn path_set_and_handle_set_share_the_file() {
        let mut fs = ProcFs::new();
        fs.set("stats/iterations", "1").unwrap();
        let h = fs.intern("stats/iterations").unwrap();
        assert_eq!(fs.read_handle(h), "1");
        fs.set("stats/iterations", "2").unwrap();
        assert_eq!(fs.read_handle(h), "2");
    }

    #[test]
    fn intern_rejects_dir_paths() {
        let mut fs = ProcFs::new();
        fs.set("cluster/alan/cpu", "1").unwrap();
        assert!(matches!(fs.intern("cluster"), Err(ProcError::WrongKind(_))));
        assert!(matches!(fs.intern(""), Err(ProcError::BadPath(_))));
    }

    #[test]
    fn handle_outlives_remove_but_writes_are_invisible() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/cpu").unwrap();
        fs.remove("cluster/alan").unwrap();
        fs.set_handle(h, "late");
        assert!(!fs.exists("cluster/alan/cpu"));
        // Re-creating the path makes a fresh file; the old handle still
        // points at the orphaned slab slot.
        fs.set("cluster/alan/cpu", "new").unwrap();
        assert_eq!(fs.read("cluster/alan/cpu").unwrap(), "new");
        assert_eq!(fs.read_handle(h), "late");
    }

    #[test]
    fn sample_renders_on_read_under_every_spelling_of_the_path() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/cpu").unwrap();
        fs.set_sample(h, 0.4375, 1234.5678);
        let want = "cpu 0.4375 ts 1234.568";
        assert_eq!(fs.read("cluster/alan/cpu").unwrap(), want);
        assert_eq!(fs.read("/cluster/alan/cpu").unwrap(), want);
        assert_eq!(fs.read("/proc/cluster/alan/cpu").unwrap(), want);
        assert_eq!(fs.read_handle(h), want);
        // Reading renders a copy; the slot still holds the numbers.
        assert!(matches!(fs.files[h.0].content, Content::Sample { .. }));
    }

    #[test]
    fn string_writers_see_a_sample_as_its_text() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/mem").unwrap();
        fs.set_sample(h, 7.0, 2.0);
        assert_eq!(fs.handle_buf(h), "mem 7 ts 2.000");
        fs.handle_buf(h).push('!');
        assert_eq!(fs.read_handle(h), "mem 7 ts 2.000!");
    }

    #[test]
    fn sample_after_a_text_write_wins() {
        let mut fs = ProcFs::new();
        fs.set("cluster/alan/disk", "by hand").unwrap();
        let h = fs.intern("cluster/alan/disk").unwrap();
        fs.set_sample(h, -1.0, 0.0);
        assert_eq!(fs.read("cluster/alan/disk").unwrap(), "disk -1 ts 0.000");
        fs.set_handle(h, "text again");
        assert_eq!(fs.read("cluster/alan/disk").unwrap(), "text again");
    }

    #[test]
    fn sample_through_a_handle_to_a_removed_file_round_trips() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/net").unwrap();
        fs.remove("cluster/alan").unwrap();
        fs.set_sample(h, 100.0, 1.0);
        assert!(!fs.exists("cluster/alan/net"));
        assert_eq!(fs.read_handle(h), "net 100 ts 1.000");
        assert_eq!(fs.handle_buf(h), "net 100 ts 1.000");
    }

    /// A renderer for the record tests: the words in decimal, `+`-joined.
    fn render_sum(words: &[u64], out: &mut String) {
        for (i, w) in words.iter().enumerate() {
            let sep = if i > 0 { "+" } else { "" };
            let _ = write!(out, "{sep}{w}");
        }
    }

    fn words_of(fs: &ProcFs, h: ProcHandle) -> Option<&Vec<u64>> {
        match &fs.files[h.0].content {
            Content::Record { words, .. } => Some(words),
            _ => None,
        }
    }

    #[test]
    fn record_holds_no_text_before_or_after_a_read() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/status").unwrap();
        fs.set_record(h, render_sum, &[1, 20, 300]);
        assert!(fs.is_record(h));
        assert_eq!(fs.read("cluster/alan/status").unwrap(), "1+20+300");
        assert_eq!(fs.read("/proc/cluster/alan/status").unwrap(), "1+20+300");
        assert_eq!(fs.read_handle(h), "1+20+300");
        // Reading renders a copy and caches nothing.
        assert_eq!(words_of(&fs, h), Some(&vec![1, 20, 300]));
    }

    #[test]
    fn record_buffer_is_kept_across_stores() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/net").unwrap();
        fs.set_record(h, render_sum, &[1, 2, 3, 4, 5, 6]);
        let buf = words_of(&fs, h).unwrap().as_ptr();
        fs.set_record(h, render_sum, &[7, 8]);
        fs.set_record(h, render_sum, &[9, 10, 11, 12, 13, 14]);
        assert_eq!(words_of(&fs, h).unwrap().as_ptr(), buf, "no new buffer");
        assert_eq!(fs.read_handle(h), "9+10+11+12+13+14");
        // A sample or a text write replaces the record; a record replaces
        // either.
        fs.set_sample(h, 1.0, 0.0);
        assert!(!fs.is_record(h));
        assert_eq!(fs.read_handle(h), "net 1 ts 0.000");
        fs.set_record(h, render_sum, &[]);
        assert_eq!(fs.read_handle(h), "");
        fs.set_handle(h, "text");
        assert!(!fs.is_record(h));
        fs.set_record(h, render_sum, &[4]);
        assert_eq!(fs.read_handle(h), "4");
    }

    #[test]
    fn handle_buf_on_a_record_yields_its_text_and_leaves_a_text_slot() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/overload").unwrap();
        fs.set_record(h, render_sum, &[5, 6]);
        assert_eq!(fs.handle_buf(h), "5+6");
        assert!(matches!(fs.files[h.0].content, Content::Text(_)));
        fs.handle_buf(h).push('!');
        assert_eq!(fs.read("cluster/alan/overload").unwrap(), "5+6!");
    }

    #[test]
    fn record_through_a_handle_to_a_removed_file_round_trips() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/status").unwrap();
        fs.remove("cluster/alan").unwrap();
        fs.set_record(h, render_sum, &[2, 3]);
        assert!(!fs.exists("cluster/alan/status"));
        assert_eq!(fs.read_handle(h), "2+3");
        assert_eq!(fs.handle_buf(h), "2+3");
    }

    #[test]
    fn overwrite_updates_content() {
        let mut fs = ProcFs::new();
        fs.set("meminfo", "100").unwrap();
        fs.set("meminfo", "90").unwrap();
        assert_eq!(fs.read("meminfo").unwrap(), "90");
    }

    #[test]
    fn render_tree_matches_figure1_shape() {
        let mut fs = ProcFs::new();
        for (node, metrics) in [
            ("alan", vec!["mem", "net", "cpu", "disk"]),
            ("maui", vec!["net", "cpu"]),
            ("etna", vec!["net", "cpu", "disk"]),
        ] {
            for m in metrics {
                fs.set(&format!("cluster/{node}/{m}"), "0").unwrap();
            }
        }
        let tree = fs.render_tree();
        assert!(tree.contains("cluster/"));
        assert!(tree.contains("alan/"));
        // BTreeMap ordering: alan, etna, maui
        let alan = tree.find("alan").unwrap();
        let etna = tree.find("etna").unwrap();
        let maui = tree.find("maui").unwrap();
        assert!(alan < etna && etna < maui);
        assert_eq!(fs.list_root(), vec!["cluster"]);
    }
}
