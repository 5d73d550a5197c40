//! The `/proc` pseudo-filesystem.
//!
//! dproc's whole user interface is `/proc`: local metrics appear as text
//! files, remote nodes' metrics appear under `/proc/cluster/<node>/...`,
//! and applications customize monitoring by *writing* to per-node
//! `control` files. This model keeps a deterministic tree of entries
//! and queues writes for the owning subsystem (d-mon) to consume — the
//! same decoupling a real `/proc` write handler gives a kernel module.
//!
//! A directory is a vector of 8-byte entries, each an interned name and a
//! file or directory index, sorted by name text: listings come out in the
//! byte order the harness output needs, and a path component is found by
//! binary search. Every name is stored once per filesystem: a host of a
//! 1024-node cluster in racks of 32 has 263 entries under 41 to 72 names.
//!
//! # Text on read
//!
//! A pseudo-file has no stored text: a kernel generates it when somebody
//! reads it. A file here holds one of three things:
//!
//! - *text* its owner wrote ([`ProcFs::set`], [`ProcFs::set_handle`]);
//! - a *record* — a few `u64` words copied by [`ProcFs::set_record`] into
//!   a buffer the slot keeps and reuses, plus the plain function
//!   ([`RecordRender`]) that turns those words into the file's text.
//!   What d-mon writes per poll and per digest with a length that can
//!   change is a record: module details, `overload`, the rack summaries;
//! - *cells* — a fixed number of words in one arena the filesystem keeps
//!   for all such files, claimed once ([`ProcFs::sample_cells`],
//!   [`ProcFs::record_cells`]) and stored through a [`CellHandle`] from
//!   then on. A store is a copy into the arena at an offset the writer
//!   already holds: it reads nothing of the file, so it waits for
//!   nothing. Two kinds: a numeric *sample*, a `(value, ts)` pair that
//!   [`ProcFs::read`] renders as `"<leaf> <value> ts <ts:.3>"` (`<leaf>` is
//!   the file's own name) — the remote-view files d-mon refreshes on
//!   every received frame — and a fixed-width record with its
//!   [`RecordRender`], the per-peer `status` files.
//!
//! So the poll, frame and digest paths store numbers — a snapshot taken
//! at the instant the text used to be written — and only a reader pays
//! for presentation; reading caches nothing, the slot keeps its numbers.
//! [`ProcFs::handle_buf`], the one writer that hands out a `String`,
//! first turns cells or a record into the text a reader would see.
//!
//! Paths are `/`-separated, relative to the `/proc` root; a leading `/` or
//! `/proc/` prefix is accepted and stripped, so `"/proc/cluster/alan/cpu"`,
//! `"/cluster/alan/cpu"` and `"cluster/alan/cpu"` name the same entry.

use std::borrow::Cow;
use std::fmt::Write;
use std::ops::Range;

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
/// parsing plus a binary search per component) happens once, at
/// [`ProcFs::intern`] time; every subsequent write through the handle is an
/// index into a slab. Handles stay valid for the lifetime of the
/// filesystem; if the underlying file is [`ProcFs::remove`]d from the tree,
/// writes through the handle still succeed but are no longer visible via
/// path lookups.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ProcHandle(usize);

/// Handle to the `N` words a file keeps in the filesystem's cell arena:
/// where they are, so a store is a copy and nothing else. Valid for the
/// lifetime of the filesystem, like a [`ProcHandle`]. The file shows those
/// words until text or a record is stored in it by [`ProcHandle`]; stores
/// through a `CellHandle` it no longer shows are harmless and invisible.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CellHandle<const N: usize>(u32);

/// One name in a directory: `name` indexes [`ProcFs::names`]; `node` is
/// a file's index in the slab, or with [`DIR`] set a directory's in
/// [`ProcFs::dirs`].
#[derive(Debug, Clone, Copy)]
struct Entry {
    name: u32,
    node: u32,
}

/// The bit of [`Entry::node`] that marks a directory: `DIR` alone is the
/// root.
const DIR: u32 = 1 << 31;

/// Turns a record's words into the file's text, appending to the string.
/// A plain function: what it needs beyond the words is not in the file.
pub type RecordRender = fn(&[u64], &mut String);

/// What a file holds: text its owner wrote, or numbers that are rendered
/// when read (see the module docs).
#[derive(Debug, Clone)]
enum Content {
    Text(String),
    Record {
        words: Vec<u64>,
        render: RecordRender,
    },
    /// `len` words of the cell arena from `at`; a sample (the bits of
    /// `value`, then of `ts`) when `render` is `None`.
    Cells {
        at: u32,
        len: u32,
        render: Option<RecordRender>,
    },
}

impl Content {
    /// The text a reader sees.
    fn render(&self, leaf: &str, cells: &[u64]) -> Cow<'_, str> {
        let mut out = String::new();
        match *self {
            Content::Text(ref s) => return Cow::Borrowed(s),
            Content::Record { ref words, render } => render(words, &mut out),
            Content::Cells { at, len, render } => {
                let words = &cells[at as usize..][..len as usize];
                match (render, words) {
                    (Some(render), _) => render(words, &mut out),
                    (None, &[value, ts]) => {
                        let (value, ts) = (f64::from_bits(value), f64::from_bits(ts));
                        let _ = write!(out, "{leaf} {value} ts {ts:.3}");
                    }
                    (None, _) => {}
                }
            }
        }
        Cow::Owned(out)
    }
}

#[derive(Debug, Clone)]
struct File {
    content: Content,
    /// Index of the file's own name in [`ProcFs::names`]: the label a
    /// sample renders with.
    leaf: u32,
}

// A slot of the slab, eight of them to five cache lines, named by one
// 8-byte directory entry. What is stored per frame and per peer per poll
// lives in the cell arena instead (16 and 32 bytes a file, side by side),
// so a slot is read by readers, by `set_record` and when a file is
// claimed — and a thousand-node run holds 234 000 of them.
#[cfg(target_pointer_width = "64")]
const _: () = assert!(std::mem::size_of::<File>() == 40);

/// The pseudo-filesystem of one host.
#[derive(Debug, Default)]
pub struct ProcFs {
    /// Each directory's entries, sorted by name text; `dirs[0]` is the
    /// root, made by the first `intern`. A removed directory keeps its
    /// slot, as a removed file does.
    dirs: Vec<Vec<Entry>>,
    /// Files, slab-indexed by [`Entry::node`] and [`ProcHandle`].
    files: Vec<File>,
    /// Every distinct name, file or directory: `names[i].0` is name `i`'s
    /// text, and `names[k].1` the id of the `k`-th name in byte order —
    /// the index a name's id is found in by binary search.
    names: Vec<(Box<str>, u32)>,
    /// The words of every file that holds cells, each file's together, in
    /// the order the files claimed them.
    cells: Vec<u64>,
    /// Userspace writes not yet drained, in write order: where each one's
    /// normalized path and data lie in `write_text`.
    pending_writes: Vec<(Range<usize>, Range<usize>)>,
    /// The pending writes' paths and data, back to back. One buffer, kept
    /// from one batch of writes to the next, so a write allocates nothing
    /// once it has held the largest batch.
    write_text: String,
}

/// `path` with the `/proc/` or `/` prefix and any trailing `/` stripped:
/// one or more non-empty components, `/`-separated.
fn normalize(path: &str) -> Result<&str, ProcError> {
    let trimmed = path
        .trim_start_matches("/proc/")
        .trim_start_matches('/')
        .trim_end_matches('/');
    if trimmed.is_empty() || trimmed.split('/').any(str::is_empty) {
        return Err(ProcError::BadPath(path.to_string()));
    }
    Ok(trimmed)
}

/// `n` as an entry's node index, which leaves [`DIR`] clear.
fn index(n: usize) -> u32 {
    assert!(n < DIR as usize, "over 2^31 /proc entries");
    n as u32
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
        self.intern_at(normalize(path)?.split('/'))
            .ok_or_else(|| ProcError::WrongKind(path.to_string()))
    }

    /// [`ProcFs::intern`] of the path given as its components — `dirs`,
    /// outermost first, then `leaf` — each non-empty and without a `/`.
    /// Resolving a path that exists allocates nothing.
    pub fn intern_in(&mut self, dirs: &[&str], leaf: &str) -> Result<ProcHandle, ProcError> {
        let path = || [dirs, &[leaf]].concat().join("/");
        let component = |c: &&str| !c.is_empty() && !c.contains('/');
        if !dirs.iter().chain([&leaf]).all(component) {
            return Err(ProcError::BadPath(path()));
        }
        self.intern_at(dirs.iter().copied().chain([leaf]))
            .ok_or_else(|| ProcError::WrongKind(path()))
    }

    /// Walk `parts` from the root, creating what is missing — directories,
    /// and the last part as an empty file — and resolve that file; `None`
    /// where a part is of the wrong kind. Only what is created allocates.
    fn intern_at<'p>(&mut self, parts: impl Iterator<Item = &'p str>) -> Option<ProcHandle> {
        // The root, on first use.
        self.dirs.resize_with(self.dirs.len().max(1), Vec::new);
        let (mut node, mut parts) = (DIR, parts.peekable());
        while let Some(part) = parts.next() {
            let dir = node.checked_sub(DIR)? as usize;
            node = match self.find(dir, part) {
                Ok(at) => self.dirs[dir][at].node,
                Err(at) => self.create(dir, at, part, parts.peek().is_some()),
            };
        }
        (node < DIR).then_some(ProcHandle(node as usize))
    }

    /// Directory `dir`'s entries; none in the root before it is made.
    fn entries(&self, dir: usize) -> &[Entry] {
        self.dirs.get(dir).map_or(&[], Vec::as_slice)
    }

    /// Where `name` is, or belongs, among directory `dir`'s entries.
    fn find(&self, dir: usize, name: &str) -> Result<usize, usize> {
        self.entries(dir)
            .binary_search_by(|e| (*self.names[e.name as usize].0).cmp(name))
    }

    /// Enter a new directory, or an empty file where `!is_dir`, named
    /// `name` at `at` in directory `dir`; its node.
    fn create(&mut self, dir: usize, at: usize, name: &str, is_dir: bool) -> u32 {
        let names = &self.names;
        let id = match names.binary_search_by(|&(_, id)| (*names[id as usize].0).cmp(name)) {
            Ok(k) => names[k].1,
            Err(k) => {
                let id = index(names.len());
                self.names.push((name.into(), id));
                // The byte-order column moves up one place from `k`.
                let column = self.names[k..].iter_mut();
                column.fold(id, |moved, n| std::mem::replace(&mut n.1, moved));
                id
            }
        };
        let node = if is_dir {
            self.dirs.push(Vec::new());
            DIR | index(self.dirs.len() - 1)
        } else {
            let content = Content::Text(String::new());
            self.files.push(File { content, leaf: id });
            index(self.files.len() - 1)
        };
        self.dirs[dir].insert(at, Entry { name: id, node });
        node
    }

    /// Replace an interned file's content. O(1): no parsing, no tree walk.
    pub fn set_handle(&mut self, h: ProcHandle, content: impl Into<String>) {
        self.files[h.0].content = Content::Text(content.into());
    }

    /// Make an interned file a numeric sample — two floats, no text — and
    /// return where [`ProcFs::set_sample`] stores them. A reader sees
    /// `"<leaf> <value> ts <ts:.3>"`, rendered when it reads (zeros until
    /// the first store).
    pub fn sample_cells(&mut self, h: ProcHandle) -> CellHandle<2> {
        self.claim_cells(h, None)
    }

    /// Make an interned file a record of exactly `N` words and return
    /// where [`ProcFs::set_cells`] stores them. A reader sees what
    /// `render` makes of the words (zeros until the first store).
    pub fn record_cells<const N: usize>(
        &mut self,
        h: ProcHandle,
        render: RecordRender,
    ) -> CellHandle<N> {
        self.claim_cells(h, Some(render))
    }

    /// A file that already holds `N` cells keeps them; any other gets `N`
    /// fresh ones at the end of the arena (cells are never reused).
    fn claim_cells<const N: usize>(
        &mut self,
        h: ProcHandle,
        render: Option<RecordRender>,
    ) -> CellHandle<N> {
        let content = &mut self.files[h.0].content;
        let at = match *content {
            Content::Cells { at, len, .. } if len as usize == N => at,
            _ => {
                let at = u32::try_from(self.cells.len()).expect("cell arena under 32 GB");
                self.cells.resize(self.cells.len() + N, 0);
                at
            }
        };
        let len = N as u32;
        *content = Content::Cells { at, len, render };
        CellHandle(at)
    }

    /// Store a numeric sample: a copy of two words, nothing read.
    #[inline]
    pub fn set_sample(&mut self, c: CellHandle<2>, value: f64, ts: f64) {
        self.set_cells(c, [value.to_bits(), ts.to_bits()]);
    }

    /// Store a fixed-width record: a copy of `N` words, nothing read.
    #[inline]
    pub fn set_cells<const N: usize>(&mut self, c: CellHandle<N>, words: [u64; N]) {
        self.cells[c.0 as usize..][..N].copy_from_slice(&words);
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

    /// Whether an interned file currently holds a record, in its own
    /// buffer or in cells (rather than text or a sample).
    pub fn is_record(&self, h: ProcHandle) -> bool {
        matches!(
            self.files[h.0].content,
            Content::Record { .. }
                | Content::Cells {
                    render: Some(_),
                    ..
                }
        )
    }

    /// Direct mutable access to an interned file's text, for callers that
    /// assemble content piecewise (clear + push). Cells or a record are
    /// first turned into the text a reader would see, and the slot holds
    /// text from then on. Nothing in the workspace writes this way any
    /// more; the frozen `benchmark/src/probes.rs` times a write through it
    /// (`simos.procfs.write_handle_ns`), and ROADMAP item 2(d)'s
    /// `benchmark/`-scoped PR decides whether it goes with that probe.
    pub fn handle_buf(&mut self, h: ProcHandle) -> &mut String {
        let file = &mut self.files[h.0];
        if !matches!(file.content, Content::Text(_)) {
            let leaf = &self.names[file.leaf as usize].0;
            let text = file.content.render(leaf, &self.cells).into_owned();
            file.content = Content::Text(text);
        }
        let Content::Text(s) = &mut file.content else {
            unreachable!("numbers were just rendered")
        };
        s
    }

    /// Read an interned file's content; cells or a record are rendered
    /// into a copy.
    pub fn read_handle(&self, h: ProcHandle) -> Cow<'_, str> {
        let file = &self.files[h.0];
        let leaf = &self.names[file.leaf as usize].0;
        file.content.render(leaf, &self.cells)
    }

    /// What `path` names — a file's slab index, or a directory's index
    /// with [`DIR`] set — and where its entry lies: directory, place.
    fn lookup(&self, path: &str) -> Result<(u32, usize, usize), ProcError> {
        let (kind, missing) = (ProcError::WrongKind, ProcError::NotFound);
        normalize(path)?
            .split('/')
            .try_fold((DIR, 0, 0), |(node, ..), part| {
                let dir = node.checked_sub(DIR).ok_or_else(|| kind(path.into()))? as usize;
                let at = self.find(dir, part).map_err(|_| missing(path.into()))?;
                Ok((self.dirs[dir][at].node, dir, at))
            })
    }

    /// Read a file's contents (userspace `cat`); cells or a record are
    /// rendered into a copy.
    pub fn read(&self, path: &str) -> Result<Cow<'_, str>, ProcError> {
        match self.lookup(path)?.0 {
            DIR.. => Err(ProcError::WrongKind(path.to_string())),
            file => Ok(self.read_handle(ProcHandle(file as usize))),
        }
    }

    /// Userspace write (`echo ... > /proc/...`): requires the file to
    /// exist; the data is queued for the owning subsystem rather than
    /// stored (a real `/proc` write handler intercepts data the same way).
    /// The path is resolved where it lies and the write is copied into the
    /// queue's one text buffer, so a warmed queue allocates nothing.
    pub fn write(&mut self, path: &str, data: &str) -> Result<(), ProcError> {
        if self.lookup(path)?.0 >= DIR {
            return Err(ProcError::WrongKind(path.to_string()));
        }
        // The first write of a batch reuses what the last batch drained.
        if self.pending_writes.is_empty() {
            self.write_text.clear();
        }
        let text = &mut self.write_text;
        let start = text.len();
        text.push_str(normalize(path)?);
        let mid = text.len();
        text.push_str(data);
        self.pending_writes.push((start..mid, mid..text.len()));
        Ok(())
    }

    /// Drain queued userspace writes as `(normalized_path, data)` pairs,
    /// in write order, lent from the queue's buffer. Whatever the caller
    /// leaves unread is drained all the same.
    pub fn drain_writes(&mut self) -> impl Iterator<Item = (&str, &str)> + '_ {
        let text = &self.write_text;
        let writes = self.pending_writes.drain(..);
        writes.map(move |(path, data)| (&text[path], &text[data]))
    }

    /// Number of queued, unconsumed writes.
    pub fn pending_write_count(&self) -> usize {
        self.pending_writes.len()
    }

    /// Sorted names inside a directory.
    pub fn list(&self, path: &str) -> Result<Vec<String>, ProcError> {
        match self.lookup(path)?.0.checked_sub(DIR) {
            Some(dir) => Ok(self.list_dir(dir as usize)),
            None => Err(ProcError::WrongKind(path.to_string())),
        }
    }

    /// Sorted names at the filesystem root.
    pub fn list_root(&self) -> Vec<String> {
        self.list_dir(0)
    }

    fn list_dir(&self, dir: usize) -> Vec<String> {
        let name = |e: &Entry| self.names[e.name as usize].0.to_string();
        self.entries(dir).iter().map(name).collect()
    }

    /// Whether a path exists (file or directory).
    pub fn exists(&self, path: &str) -> bool {
        self.lookup(path).is_ok()
    }

    /// Whether a path exists and is a directory.
    pub fn is_dir(&self, path: &str) -> bool {
        self.lookup(path).is_ok_and(|(node, ..)| node >= DIR)
    }

    /// Remove a file or an entire directory subtree. Returns true if
    /// something was removed.
    pub fn remove(&mut self, path: &str) -> Result<bool, ProcError> {
        match self.lookup(path) {
            Ok((_, dir, at)) => {
                self.dirs[dir].remove(at);
                Ok(true)
            }
            Err(ProcError::NotFound(_)) => Ok(false),
            Err(e) => Err(e),
        }
    }

    /// Render the whole tree as an indented listing (debugging aid, and
    /// the basis of the quickstart example's Figure-1 output).
    pub fn render_tree(&self) -> String {
        fn walk(fs: &ProcFs, out: &mut String, dir: usize, depth: usize) {
            for e in fs.entries(dir) {
                out.extend(std::iter::repeat_n("  ", depth));
                out.push_str(&fs.names[e.name as usize].0);
                match e.node.checked_sub(DIR) {
                    Some(sub) => {
                        out.push_str("/\n");
                        walk(fs, out, sub as usize, depth + 1);
                    }
                    None => out.push('\n'),
                }
            }
        }
        let mut out = String::new();
        walk(self, &mut out, 0, 0);
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
        fs.set("cluster/maui/control", "").unwrap();
        assert!(matches!(
            fs.write("cluster/alan", "x"),
            Err(ProcError::WrongKind(_))
        ));
        let batch = [
            ("/proc/cluster/alan/control", "period=2"),
            ("cluster/maui/control/", "threshold=0.8"),
            ("/cluster/alan/control", ""),
            ("cluster/alan/control", "filter {\n int i = 0;\n}"),
        ];
        let want = [
            ("cluster/alan/control", "period=2"),
            ("cluster/maui/control", "threshold=0.8"),
            ("cluster/alan/control", ""),
            ("cluster/alan/control", "filter {\n int i = 0;\n}"),
        ];
        for (path, data) in batch {
            fs.write(path, data).unwrap();
        }
        assert_eq!(fs.pending_write_count(), 4);
        let writes: Vec<_> = fs.drain_writes().collect();
        assert_eq!(writes, want, "in order, under their normalized paths");
        assert_eq!(fs.pending_write_count(), 0);
        // A second batch, no larger, is queued in the same buffer.
        let buf = (fs.write_text.as_ptr(), fs.write_text.capacity());
        for (path, data) in batch.into_iter().rev() {
            fs.write(path, data).unwrap();
        }
        assert_eq!((fs.write_text.as_ptr(), fs.write_text.capacity()), buf);
        let mut second = fs.drain_writes();
        assert_eq!(second.next(), Some(want[3]));
        drop(second);
        assert_eq!(fs.pending_write_count(), 0, "an unread write is drained");
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
        // Interning an existing path (even via a different spelling, or as
        // its components) returns the same handle.
        assert_eq!(fs.intern("/proc/cluster/alan/cpu").unwrap(), h);
        assert_eq!(fs.intern_in(&["cluster", "alan"], "cpu").unwrap(), h);
        let mem = fs.intern_in(&["cluster", "alan"], "mem").unwrap();
        assert_eq!(fs.intern("cluster/alan/mem").unwrap(), mem);
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
        let wrong = fs.intern_in(&["cluster", "alan"], "cpu/x");
        assert_eq!(wrong, Err(ProcError::BadPath("cluster/alan/cpu/x".into())));
        assert!(matches!(
            fs.intern_in(&["", "a"], "b"),
            Err(ProcError::BadPath(_))
        ));
        let dir = fs.intern_in(&["cluster"], "alan");
        assert_eq!(dir, Err(ProcError::WrongKind("cluster/alan".into())));
        let under_file = fs.intern_in(&["cluster", "alan", "cpu"], "x");
        assert!(matches!(under_file, Err(ProcError::WrongKind(_))));
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
        let c = fs.sample_cells(h);
        assert_eq!(fs.read_handle(h), "cpu 0 ts 0.000", "claimed, not stored");
        fs.set_sample(c, 0.4375, 1234.5678);
        let want = "cpu 0.4375 ts 1234.568";
        assert_eq!(fs.read("cluster/alan/cpu").unwrap(), want);
        assert_eq!(fs.read("/cluster/alan/cpu").unwrap(), want);
        assert_eq!(fs.read("/proc/cluster/alan/cpu").unwrap(), want);
        assert_eq!(fs.read_handle(h), want);
        // Reading renders a copy; the file still holds the numbers.
        assert!(matches!(fs.files[h.0].content, Content::Cells { .. }));
    }

    #[test]
    fn string_writers_see_a_sample_as_its_text() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/mem").unwrap();
        let c = fs.sample_cells(h);
        fs.set_sample(c, 7.0, 2.0);
        assert_eq!(fs.handle_buf(h), "mem 7 ts 2.000");
        fs.handle_buf(h).push('!');
        assert_eq!(fs.read_handle(h), "mem 7 ts 2.000!");
    }

    #[test]
    fn a_file_shows_whatever_was_claimed_or_written_last() {
        let mut fs = ProcFs::new();
        fs.set("cluster/alan/disk", "by hand").unwrap();
        let h = fs.intern("cluster/alan/disk").unwrap();
        let c = fs.sample_cells(h);
        fs.set_sample(c, -1.0, 0.0);
        assert_eq!(fs.read("cluster/alan/disk").unwrap(), "disk -1 ts 0.000");
        // Text by handle replaces the sample; a store through the cell
        // handle the file no longer shows changes nothing a reader sees.
        fs.set_handle(h, "text again");
        fs.set_sample(c, 5.0, 5.0);
        assert_eq!(fs.read("cluster/alan/disk").unwrap(), "text again");
        // Claiming again makes it a sample again, in fresh cells.
        let again = fs.sample_cells(h);
        assert_ne!(again, c);
        fs.set_sample(again, 2.0, 1.0);
        assert_eq!(fs.read("cluster/alan/disk").unwrap(), "disk 2 ts 1.000");
        // A file that holds its cells keeps them when claimed again.
        assert_eq!(fs.sample_cells(h), again);
        assert_eq!(fs.read("cluster/alan/disk").unwrap(), "disk 2 ts 1.000");
    }

    #[test]
    fn sample_through_a_handle_to_a_removed_file_round_trips() {
        let mut fs = ProcFs::new();
        let h = fs.intern("cluster/alan/net").unwrap();
        fs.remove("cluster/alan").unwrap();
        let c = fs.sample_cells(h);
        fs.set_sample(c, 100.0, 1.0);
        assert!(!fs.exists("cluster/alan/net"));
        assert_eq!(fs.read_handle(h), "net 100 ts 1.000");
        assert_eq!(fs.handle_buf(h), "net 100 ts 1.000");
    }

    #[test]
    fn files_claim_their_cells_side_by_side_and_keep_to_them() {
        let mut fs = ProcFs::new();
        let files = ["cpu", "mem", "status", "disk"].map(|leaf| {
            let path = format!("cluster/alan/{leaf}");
            fs.intern(&path).unwrap()
        });
        let cpu = fs.sample_cells(files[0]);
        let mem = fs.sample_cells(files[1]);
        let status: CellHandle<3> = fs.record_cells(files[2], render_sum);
        let disk = fs.sample_cells(files[3]);
        assert_eq!((cpu.0, mem.0, status.0, disk.0), (0, 2, 4, 7));
        assert_eq!(fs.cells.len(), 9);
        assert!(fs.is_record(files[2]) && !fs.is_record(files[0]));
        // Every store lands in its own file's words and nowhere else.
        fs.set_sample(cpu, 1.0, 1.0);
        fs.set_sample(mem, 2.0, 2.0);
        fs.set_cells(status, [10, 20, 30]);
        fs.set_sample(disk, 3.0, 3.0);
        fs.set_cells(status, [7, 8, 9]);
        fs.set_sample(mem, 4.0, 4.0);
        let read: Vec<_> = files.iter().map(|&h| fs.read_handle(h)).collect();
        let want = [
            "cpu 1 ts 1.000",
            "mem 4 ts 4.000",
            "7+8+9",
            "disk 3 ts 3.000",
        ];
        assert_eq!(read, want);
        // The same file as a record of another width: other cells.
        let wider: CellHandle<4> = fs.record_cells(files[2], render_sum);
        assert_eq!((wider.0, fs.cells.len()), (9, 13));
        assert_eq!(fs.read_handle(files[2]), "0+0+0+0");
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
        let c = fs.sample_cells(h);
        fs.set_sample(c, 1.0, 0.0);
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
    fn every_name_is_stored_once_and_found_in_byte_order() {
        let mut fs = ProcFs::new();
        let names = ["rack2", "cpu", "B", "a", "rack10", "control", "alan"];
        for (i, dir) in names.iter().enumerate() {
            for leaf in names.iter().cycle().skip(i).take(4) {
                fs.intern_in(&["cluster", dir], leaf).unwrap();
            }
        }
        assert_eq!(
            fs.names.len(),
            names.len() + 1,
            "each name once, `cluster` too"
        );
        let sorted: Vec<&str> = fs
            .names
            .iter()
            .map(|&(_, id)| &*fs.names[id as usize].0)
            .collect();
        let mut want: Vec<&str> = names.iter().copied().chain(["cluster"]).collect();
        want.sort_unstable();
        assert_eq!(sorted, want);
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
