//! Thread identity and per-node thread registry (the "threads subsystem").
//!
//! In the original system Java threads are mapped onto PM2's Marcel
//! user-level threads.  The reproduction maps them onto native OS threads
//! (spawned by the `hyperion` crate's runtime); this module only keeps the
//! bookkeeping: which logical thread lives on which node, so the load
//! balancer and the statistics can reason about placement.

use std::sync::Mutex;

use hyperion_model::sync::lock;

use crate::node::NodeId;

/// Identifier of a Hyperion (Java) thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ThreadId(pub u64);

impl std::fmt::Display for ThreadId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "thread{}", self.0)
    }
}

#[derive(Clone, Copy, Debug)]
struct ThreadInfo {
    node: NodeId,
    alive: bool,
}

/// Registry of every Hyperion thread created during a run.
#[derive(Debug, Default)]
pub struct ThreadRegistry {
    threads: Mutex<Vec<ThreadInfo>>,
}

impl ThreadRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Register a new thread placed on `node`; returns its id.
    pub fn register(&self, node: NodeId) -> ThreadId {
        let mut threads = lock(&self.threads);
        threads.push(ThreadInfo { node, alive: true });
        ThreadId(threads.len() as u64 - 1)
    }

    /// Mark a thread as terminated.
    pub fn mark_terminated(&self, thread: ThreadId) {
        lock(&self.threads)[thread.0 as usize].alive = false;
    }

    /// Total number of threads ever registered.
    pub fn total(&self) -> usize {
        lock(&self.threads).len()
    }

    /// Per-node live-thread counts for a cluster of `num_nodes` nodes.
    pub fn placement(&self, num_nodes: usize) -> Vec<usize> {
        let mut counts = vec![0usize; num_nodes];
        for t in lock(&self.threads).iter() {
            if t.alive && t.node.index() < num_nodes {
                counts[t.node.index()] += 1;
            }
        }
        counts
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_and_query() {
        let reg = ThreadRegistry::new();
        let t0 = reg.register(NodeId(0));
        let t1 = reg.register(NodeId(1));
        assert_eq!(t0, ThreadId(0));
        assert_eq!(t1, ThreadId(1));
        assert_eq!(reg.placement(2), vec![1, 1]);
        assert_eq!(reg.total(), 2);
        assert_eq!(format!("{t1}"), "thread1");
    }

    #[test]
    fn termination_and_placement_counts() {
        let reg = ThreadRegistry::new();
        let a = reg.register(NodeId(0));
        let _b = reg.register(NodeId(1));
        let _c = reg.register(NodeId(1));
        assert_eq!(reg.placement(3), vec![1, 2, 0]);
        reg.mark_terminated(a);
        assert_eq!(reg.placement(3), vec![0, 2, 0]);
    }
}
