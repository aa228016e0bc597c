//! Identifiers carried by trace records (paper §3.1.2: "the IDs help
//! DCatch trace analyzer to find related trace records").

use std::fmt;

use dcatch_model::NodeId;

use crate::names::NameId;

/// Global identity of a task (thread, event-handler worker, RPC worker…):
/// the node it runs on plus a per-node index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TaskId {
    /// Node the task runs on.
    pub node: NodeId,
    /// Per-node task index, in creation order.
    pub index: u32,
}

impl fmt::Display for TaskId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}.t{}", self.node, self.index)
    }
}

/// The kind of asynchronous handler a record executes inside.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HandlerKind {
    /// Event-queue handler (`EventHandler::handle`).
    Event,
    /// RPC function execution.
    Rpc,
    /// Socket-message handler (`IVerbHandler`).
    Socket,
    /// ZooKeeper watcher callback.
    ZkWatcher,
}

/// Execution context of a record, deciding which program-order rule
/// applies: `Preg` for regular threads, `Pnreg` for handler instances
/// (paper §2.2 — two operations in the same *thread* but different handler
/// instances are **not** ordered).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ExecCtx {
    /// Inside a regular thread's own code.
    Regular,
    /// Inside the `instance`-th dynamic handler invocation of the run.
    Handler {
        /// What kind of handler.
        kind: HandlerKind,
        /// Globally unique dynamic invocation number.
        instance: u64,
    },
}

impl ExecCtx {
    /// Whether this context is a handler invocation.
    pub fn is_handler(self) -> bool {
        matches!(self, ExecCtx::Handler { .. })
    }
}

/// Which namespace a memory location lives in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MemSpace {
    /// A node-local heap object (cell, map, or list).
    Heap,
    /// A zknode in the coordination service. ZooKeeper data is shared
    /// global state; zknode reads/deletes race exactly like heap accesses
    /// (the HB-4729 bug *is* such a race).
    Zk,
}

/// Key of a key-granular map access. An integer key is carried inline, in
/// the canonical form the simulator keys its maps by (`5` and `"5"` are one
/// key); any other key is a name in the run's table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Key {
    /// The canonical decimal of an `i64`.
    Int(i64),
    /// Any other key text.
    Str(NameId),
}

impl Key {
    /// The integer `text` is the canonical decimal of, if any: the one
    /// rule that makes `5` and `"5"` one key and `"05"` another.
    pub fn int_form(text: &str) -> Option<i64> {
        text.parse::<i64>().ok().filter(|i| i.to_string() == text)
    }
}

/// Identity of a memory location: the paper's "field-offset + object
/// hashcode" / "variable name + namespace" (§3.1.2), adapted to the
/// simulator's named heap. Names are ids into the run's [`Names`](crate::Names);
/// [`Location`] is the same location rendered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemLoc {
    /// Namespace. Heap locations also carry the owning node; zknodes are
    /// global (the coordination service is shared).
    pub space: MemSpace,
    /// Owning node for heap locations; the service's view for zk.
    pub node: NodeId,
    /// Object (cell/map/list) name or zknode path.
    pub object: NameId,
    /// Key within a map, if the access is key-granular. Collection-level
    /// operations (`isEmpty`, `add`…) use `None` and conflict with every
    /// key of the same object.
    pub key: Option<Key>,
}

impl MemLoc {
    /// Whether two locations can alias: same namespace/node/object, and
    /// keys equal or either side key-less (collection-level).
    pub fn conflicts_with(&self, other: &MemLoc) -> bool {
        if self.space != other.space || self.object != other.object {
            return false;
        }
        if self.space == MemSpace::Heap && self.node != other.node {
            return false;
        }
        MemLoc::keys_alias(self.key, other.key)
    }

    /// Whether two keys of one object can alias: equal, or either side
    /// key-less (collection-level).
    pub fn keys_alias(a: Option<Key>, b: Option<Key>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }
}

/// A [`MemLoc`] with its names rendered ([`Names::location`](crate::Names::location)):
/// what the sites of a reported candidate carry.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Location {
    /// Namespace.
    pub space: MemSpace,
    /// Owning node for heap locations; the service's view for zk.
    pub node: NodeId,
    /// Object (cell/map/list) name or zknode path.
    pub object: String,
    /// Key within a map, if the access is key-granular.
    pub key: Option<String>,
}

impl fmt::Display for Location {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let space = match self.space {
            MemSpace::Heap => "heap",
            MemSpace::Zk => "zk",
        };
        write!(f, "{space}:{}:{}", self.node, self.object)?;
        if let Some(k) = &self.key {
            write!(f, "[{k}]")?;
        }
        Ok(())
    }
}

/// Identity of one dynamic RPC call. The paper tags every RPC invocation
/// with a run-time random number so trace analysis can pair caller and
/// callee records (§6, "Tagging RPC"); the simulator uses a counter, which
/// serves the same purpose deterministically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RpcId(pub u64);

/// Identity of one socket message (same tagging scheme as RPCs).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MsgId(pub u64);

/// Identity of one enqueued event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EventId(pub u64);

/// Identity of a lock object: owning node plus lock name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockRef {
    /// Node owning the lock.
    pub node: NodeId,
    /// Lock name.
    pub name: NameId,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(node: u32, object: u32, key: Option<Key>) -> MemLoc {
        MemLoc {
            space: MemSpace::Heap,
            node: NodeId(node),
            object: NameId(object),
            key,
        }
    }

    const J1: Option<Key> = Some(Key::Str(NameId(7)));
    const J2: Option<Key> = Some(Key::Int(2));

    #[test]
    fn keyed_accesses_conflict_only_on_equal_keys() {
        assert!(loc(0, 0, J1).conflicts_with(&loc(0, 0, J1)));
        assert!(!loc(0, 0, J1).conflicts_with(&loc(0, 0, J2)));
    }

    #[test]
    fn collection_level_access_conflicts_with_any_key() {
        assert!(loc(0, 0, None).conflicts_with(&loc(0, 0, J1)));
        assert!(loc(0, 0, J1).conflicts_with(&loc(0, 0, None)));
    }

    #[test]
    fn different_nodes_or_objects_never_conflict() {
        assert!(!loc(0, 0, None).conflicts_with(&loc(1, 0, None)));
        assert!(!loc(0, 0, None).conflicts_with(&loc(0, 1, None)));
    }

    #[test]
    fn zk_locations_conflict_across_observing_nodes() {
        let a = MemLoc {
            space: MemSpace::Zk,
            ..loc(0, 3, None)
        };
        let b = MemLoc {
            node: NodeId(2),
            ..a
        };
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn display_forms() {
        let l = Location {
            space: MemSpace::Heap,
            node: NodeId(1),
            object: "m".to_owned(),
            key: Some("k".to_owned()),
        };
        assert_eq!(l.to_string(), "heap:n1:m[k]");
        assert_eq!(
            TaskId {
                node: NodeId(2),
                index: 3
            }
            .to_string(),
            "n2.t3"
        );
    }
}
