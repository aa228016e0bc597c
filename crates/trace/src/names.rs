//! The per-run name table: every string and every callstack a trace record
//! refers to, each stored once and named by an integer id.
//!
//! A [`Record`](crate::Record) owns no heap memory: where it names an
//! object, a zknode path, a lock, a string map key or a traced value it
//! carries a [`NameId`], and its callstack is a [`StackId`]. The table
//! behind those ids is built as the run goes:
//!
//! * the compiled program's object and lock names are a *base* shared by
//!   every run of the program — cloning a table clones a pointer to it;
//! * a name the run makes up (a zknode path, a string map key, a focused
//!   value) is interned on first use. It is not matched against the base:
//!   ids are compared within one role only — object with object, key with
//!   key — and within a role one text has one id;
//! * a callstack is a path in the call tree, interned one `(parent, stmt)`
//!   node at a time, so each call path is stored once, not once per record.
//!
//! Text is rendered from the table in two places: the line format
//! ([`format_record`](crate::format_record) and its kin) and the sites of
//! a reported candidate ([`Names::stack`], [`Names::location`]).

use std::collections::HashMap;
use std::sync::Arc;

use dcatch_model::StmtId;

use crate::ids::{Key, Location, MemLoc};
use crate::record::CallStack;

/// A name in a run's [`Names`] table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct NameId(pub u32);

/// A callstack in a run's [`Names`] table: a node of the call tree, whose
/// path from the root lists the call sites outermost first and ends with
/// the statement of the recorded operation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct StackId(pub u32);

impl StackId {
    /// The empty callstack (the root of the call tree).
    pub const EMPTY: StackId = StackId(0);
}

/// One node of the call tree: its parent path, its innermost statement,
/// and the length of the whole path in the line format.
#[derive(Debug, Clone, Copy)]
struct Frame {
    parent: StackId,
    stmt: StmtId,
    text_len: u32,
}

/// The names and callstacks of one run (see the module docs).
#[derive(Debug, Clone, Default)]
pub struct Names {
    /// The program's names: `NameId(i)` for `i < base.len()`.
    base: Arc<[Box<str>]>,
    /// Names interned during the run: `NameId(base.len() + i)`.
    added: Vec<Arc<str>>,
    index: HashMap<Arc<str>, NameId>,
    /// `StackId(i + 1)`'s node.
    frames: Vec<Frame>,
    frame_index: HashMap<(StackId, StmtId), StackId>,
}

impl Names {
    /// An empty table.
    pub fn new() -> Names {
        Names::default()
    }

    /// A table whose first names are `base`, in order: `NameId(i)` is
    /// `base[i]`.
    pub fn with_base(base: impl IntoIterator<Item = String>) -> Names {
        Names {
            base: base.into_iter().map(String::into_boxed_str).collect(),
            ..Names::default()
        }
    }

    /// Number of names, base included.
    fn len(&self) -> usize {
        self.base.len() + self.added.len()
    }

    /// Grows with every name and callstack added and never otherwise: a
    /// holder of an earlier copy has everything iff the two agree.
    pub fn generation(&self) -> usize {
        self.len() + self.frames.len()
    }

    /// The id of `name`, added to the table on first use.
    pub fn intern(&mut self, name: &str) -> NameId {
        if let Some(&id) = self.index.get(name) {
            return id;
        }
        let id = NameId(self.len() as u32);
        let name: Arc<str> = Arc::from(name);
        self.added.push(Arc::clone(&name));
        self.index.insert(name, id);
        id
    }

    /// The text of `id`.
    pub fn name(&self, id: NameId) -> &str {
        let i = id.0 as usize;
        match self.base.get(i) {
            Some(name) => name,
            None => &self.added[i - self.base.len()],
        }
    }

    /// A map key from its text: the canonical decimal of an `i64` is
    /// carried inline, anything else is interned — the form the simulator
    /// emits, so parsing a written key gives the key back.
    pub fn key(&mut self, text: &str) -> Key {
        match Key::int_form(text) {
            Some(i) => Key::Int(i),
            None => Key::Str(self.intern(text)),
        }
    }

    /// The text of a map key.
    pub fn key_text(&self, key: Key) -> String {
        match key {
            Key::Int(i) => i.to_string(),
            Key::Str(id) => self.name(id).to_owned(),
        }
    }

    /// The callstack `parent` extended by `stmt`, added on first use.
    pub fn frame(&mut self, parent: StackId, stmt: StmtId) -> StackId {
        if let Some(&id) = self.frame_index.get(&(parent, stmt)) {
            return id;
        }
        let digits = |v: u32| 1 + v.checked_ilog10().unwrap_or(0);
        let sep = u32::from(parent != StackId::EMPTY);
        let own = digits(stmt.func.0) + 1 + digits(stmt.idx);
        let text_len = self.stack_len(parent) as u32 + sep + own;
        self.frames.push(Frame {
            parent,
            stmt,
            text_len,
        });
        let id = StackId(self.frames.len() as u32);
        self.frame_index.insert((parent, stmt), id);
        id
    }

    /// The callstack listing `stmts`, outermost first.
    pub fn stack_of(&mut self, stmts: &[StmtId]) -> StackId {
        stmts
            .iter()
            .fold(StackId::EMPTY, |parent, &stmt| self.frame(parent, stmt))
    }

    fn node(&self, id: StackId) -> Option<&Frame> {
        (id.0 as usize).checked_sub(1).map(|i| &self.frames[i])
    }

    /// The statement of the recorded operation: the innermost entry.
    pub fn leaf(&self, id: StackId) -> Option<StmtId> {
        self.node(id).map(|f| f.stmt)
    }

    /// The path of `id` minus its innermost entry.
    pub(crate) fn parent(&self, id: StackId) -> StackId {
        self.node(id).map_or(StackId::EMPTY, |f| f.parent)
    }

    /// Length of the callstack's line-format text (`f:i,f:i…`).
    pub(crate) fn stack_len(&self, id: StackId) -> usize {
        self.node(id).map_or(0, |f| f.text_len as usize)
    }

    /// The callstack, resolved.
    pub fn stack(&self, id: StackId) -> CallStack {
        let mut stmts = Vec::new();
        let mut at = id;
        while let Some(f) = self.node(at) {
            stmts.push(f.stmt);
            at = f.parent;
        }
        stmts.reverse();
        CallStack(stmts)
    }

    /// A location with its names rendered.
    pub fn location(&self, loc: &MemLoc) -> Location {
        Location {
            space: loc.space,
            node: loc.node,
            object: self.name(loc.object).to_owned(),
            key: loc.key.map(|k| self.key_text(k)),
        }
    }

    /// Copies in what `other` holds beyond this table, which must be a
    /// copy of an earlier state of `other` (or empty): how a sink keeps
    /// the table of the stream it is fed.
    pub fn extend_from(&mut self, other: &Names) {
        if self.base.len() != other.base.len() {
            debug_assert!(self.generation() == 0, "not an earlier copy of `other`");
            self.base = Arc::clone(&other.base);
        }
        for name in &other.added[self.added.len()..] {
            let id = NameId(self.len() as u32);
            self.added.push(Arc::clone(name));
            self.index.insert(Arc::clone(name), id);
        }
        for &f in &other.frames[self.frames.len()..] {
            self.frames.push(f);
            let id = StackId(self.frames.len() as u32);
            self.frame_index.insert((f.parent, f.stmt), id);
        }
    }

    /// Rough resident size of what the run added, in bytes (the base is
    /// the program's, shared).
    pub fn bytes(&self) -> usize {
        let text: usize = self.added.iter().map(|s| s.len() + 16).sum();
        text + 40 * self.added.len() + 40 * self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dcatch_model::FuncId;

    fn sid(f: u32, i: u32) -> StmtId {
        StmtId {
            func: FuncId(f),
            idx: i,
        }
    }

    #[test]
    fn base_names_come_first_and_runtime_names_are_interned_once() {
        let mut names = Names::with_base(["jMap".to_owned(), "lock".to_owned()]);
        assert_eq!(names.name(NameId(1)), "lock");
        let p = names.intern("/region/r1");
        assert_eq!(p, NameId(2));
        assert_eq!(names.intern("/region/r1"), p);
        assert_eq!(names.name(p), "/region/r1");
        assert_eq!(names.len(), 3);
    }

    #[test]
    fn keys_are_inline_integers_or_interned_text() {
        let mut names = Names::new();
        assert_eq!(names.key("42"), Key::Int(42));
        assert_eq!(names.key("-7"), Key::Int(-7));
        for text in ["007", "+1", "job_1", "-", "99999999999999999999"] {
            let key = names.key(text);
            assert!(matches!(key, Key::Str(_)), "{text}");
            assert_eq!(names.key_text(key), text);
        }
    }

    #[test]
    fn a_call_path_is_stored_once() {
        let mut names = Names::new();
        let a = names.stack_of(&[sid(0, 3), sid(2, 1)]);
        let b = names.stack_of(&[sid(0, 3), sid(2, 1)]);
        let c = names.stack_of(&[sid(0, 3), sid(2, 10)]);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(names.parent(a), names.parent(c));
        assert_eq!(names.leaf(c), Some(sid(2, 10)));
        assert_eq!(names.stack(a).to_string(), "f0:3>f2:1");
        assert_eq!(names.stack_len(c), "0:3,2:10".len());
        assert_eq!(names.leaf(StackId::EMPTY), None);
        assert_eq!(names.stack(StackId::EMPTY), CallStack::default());
    }

    #[test]
    fn a_copy_catches_up_with_the_table_it_copies() {
        let mut run = Names::with_base(["x".to_owned()]);
        let mut sink = Names::new();
        run.intern("/p");
        run.stack_of(&[sid(1, 1)]);
        sink.extend_from(&run);
        let q = run.intern("/q");
        let s = run.stack_of(&[sid(1, 1), sid(2, 2)]);
        sink.extend_from(&run);
        assert_eq!(sink.generation(), run.generation());
        assert_eq!(sink.name(q), "/q");
        assert_eq!(sink.name(NameId(0)), "x");
        assert_eq!(sink.stack(s), run.stack(s));
        assert_eq!(sink.intern("/q"), q, "the copy's index is kept too");
    }
}
