//! Cluster node identity and per-node runtime state.

use hyperion_model::{NodeStats, ServerClock};

/// Identifier of a cluster node (0-based, dense).
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Node index as a `usize` (for indexing per-node tables).
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A cluster node: the unit the load balancer distributes threads over and
/// the granularity at which the DSM keeps object caches ("at most one copy of
/// an object may exist on a node", §3.1).
#[derive(Debug)]
pub struct Node {
    id: NodeId,
    /// Virtual-time availability of this node's protocol-service processor
    /// (page-fetch and diff handlers are serialised through it).
    pub server: ServerClock,
    /// Event counters for this node.
    pub stats: NodeStats,
}

impl Node {
    /// Create a node with an idle server and zeroed statistics.
    pub fn new(id: NodeId) -> Self {
        Node {
            id,
            server: ServerClock::new(),
            stats: NodeStats::default(),
        }
    }

    /// This node's identifier.
    #[inline]
    pub fn id(&self) -> NodeId {
        self.id
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_display_and_index() {
        let id = NodeId(3);
        assert_eq!(id.index(), 3);
        assert_eq!(format!("{id}"), "node3");
        assert!(NodeId(1) < NodeId(2));
    }
}
