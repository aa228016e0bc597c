//! Identifiers carried by trace records (paper §3.1.2: "the IDs help
//! DCatch trace analyzer to find related trace records").

use std::fmt;

use dcatch_model::NodeId;

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

/// Identity of a memory location: the paper's "field-offset + object
/// hashcode" / "variable name + namespace" (§3.1.2), adapted to the
/// simulator's named heap.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MemLoc {
    /// Namespace. Heap locations also carry the owning node; zknodes are
    /// global (the coordination service is shared).
    pub space: MemSpace,
    /// Owning node for heap locations; the service's view for zk.
    pub node: NodeId,
    /// Object (cell/map/list) name or zknode path.
    pub object: String,
    /// Key within a map, if the access is key-granular. Collection-level
    /// operations (`isEmpty`, `add`…) use `None` and conflict with every
    /// key of the same object.
    pub key: Option<String>,
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
        MemLoc::keys_alias(&self.key, &other.key)
    }

    /// Whether two keys of one object can alias: equal, or either side
    /// key-less (collection-level).
    pub fn keys_alias(a: &Option<String>, b: &Option<String>) -> bool {
        match (a, b) {
            (Some(a), Some(b)) => a == b,
            _ => true,
        }
    }
}

impl fmt::Display for MemLoc {
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
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LockRef {
    /// Node owning the lock.
    pub node: NodeId,
    /// Lock name.
    pub name: String,
}

impl fmt::Display for LockRef {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}", self.node, self.name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loc(node: u32, object: &str, key: Option<&str>) -> MemLoc {
        MemLoc {
            space: MemSpace::Heap,
            node: NodeId(node),
            object: object.to_owned(),
            key: key.map(str::to_owned),
        }
    }

    #[test]
    fn keyed_accesses_conflict_only_on_equal_keys() {
        assert!(loc(0, "jMap", Some("j1")).conflicts_with(&loc(0, "jMap", Some("j1"))));
        assert!(!loc(0, "jMap", Some("j1")).conflicts_with(&loc(0, "jMap", Some("j2"))));
    }

    #[test]
    fn collection_level_access_conflicts_with_any_key() {
        assert!(loc(0, "jMap", None).conflicts_with(&loc(0, "jMap", Some("j1"))));
        assert!(loc(0, "jMap", Some("j1")).conflicts_with(&loc(0, "jMap", None)));
    }

    #[test]
    fn different_nodes_or_objects_never_conflict() {
        assert!(!loc(0, "jMap", None).conflicts_with(&loc(1, "jMap", None)));
        assert!(!loc(0, "jMap", None).conflicts_with(&loc(0, "other", None)));
    }

    #[test]
    fn zk_locations_conflict_across_observing_nodes() {
        let a = MemLoc {
            space: MemSpace::Zk,
            node: NodeId(0),
            object: "/region/r1".to_owned(),
            key: None,
        };
        let b = MemLoc {
            space: MemSpace::Zk,
            node: NodeId(2),
            object: "/region/r1".to_owned(),
            key: None,
        };
        assert!(a.conflicts_with(&b));
    }

    #[test]
    fn display_forms() {
        assert_eq!(loc(1, "m", Some("k")).to_string(), "heap:n1:m[k]");
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
