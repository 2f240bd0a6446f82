//! The load balancer and Hyperion thread handles.
//!
//! The paper's Table 1 lists a "Load balancer" module that "handles the
//! distribution of newly created threads to nodes" using "a round-robin
//! thread distribution algorithm"; [`LoadBalancer`] is that module.  Actual
//! thread creation happens in [`crate::runtime::ThreadCtx::spawn`]; the
//! handle returned there is an [`HThreadHandle`].

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use hyperion_model::VTime;
use hyperion_pm2::{NodeId, ThreadId};

use crate::order::Slot;

/// Round-robin placement of newly created threads over the run's nodes.
#[derive(Debug)]
pub struct LoadBalancer {
    nodes: usize,
    next: AtomicUsize,
}

impl LoadBalancer {
    /// A balancer distributing over `nodes` nodes, starting at node 0.
    ///
    /// # Panics
    /// Panics if `nodes` is zero.
    pub fn new(nodes: usize) -> Self {
        assert!(nodes > 0, "load balancer needs at least one node");
        LoadBalancer {
            nodes,
            next: AtomicUsize::new(0),
        }
    }

    /// Pick the node for the next thread (round-robin).
    pub fn assign(&self) -> NodeId {
        let slot = self.next.fetch_add(1, Ordering::Relaxed);
        NodeId((slot % self.nodes) as u32)
    }

    /// Number of nodes the balancer distributes over.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Number of placement decisions made so far.
    pub fn assigned(&self) -> usize {
        self.next.load(Ordering::Relaxed)
    }
}

/// Handle to a running (or finished) Hyperion thread.
///
/// Join it through [`crate::runtime::ThreadCtx::join`] so the child's final
/// virtual time is merged into the joining thread's clock, mirroring
/// `Thread.join()` semantics.
#[derive(Debug)]
pub struct HThreadHandle {
    thread: ThreadId,
    node: NodeId,
    os_handle: std::thread::JoinHandle<VTime>,
    slot: Arc<Slot>,
}

impl HThreadHandle {
    pub(crate) fn new(
        thread: ThreadId,
        node: NodeId,
        os_handle: std::thread::JoinHandle<VTime>,
        slot: Arc<Slot>,
    ) -> Self {
        HThreadHandle {
            thread,
            node,
            os_handle,
            slot,
        }
    }

    /// The thread's place in the virtual-time grant order.
    pub(crate) fn slot(&self) -> &Slot {
        &self.slot
    }

    /// Id of the thread this handle refers to.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// Node the thread was created on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Block until the thread finishes and return its final virtual time.
    ///
    /// # Panics
    /// Propagates a panic from the thread body.
    pub(crate) fn into_end_time(self) -> VTime {
        self.os_handle
            .join()
            .expect("a Hyperion thread panicked; see stderr for the original panic")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_robin_cycles_over_nodes() {
        let lb = LoadBalancer::new(3);
        let picks: Vec<u32> = (0..7).map(|_| lb.assign().0).collect();
        assert_eq!(picks, vec![0, 1, 2, 0, 1, 2, 0]);
        assert_eq!(lb.assigned(), 7);
        assert_eq!(lb.nodes(), 3);
    }

    #[test]
    fn single_node_balancer_always_picks_node_zero() {
        let lb = LoadBalancer::new(1);
        for _ in 0..5 {
            assert_eq!(lb.assign(), NodeId(0));
        }
    }

    #[test]
    #[should_panic(expected = "at least one node")]
    fn zero_node_balancer_panics() {
        let _ = LoadBalancer::new(0);
    }

    #[test]
    fn concurrent_assignment_stays_balanced() {
        use std::sync::Arc;
        let lb = Arc::new(LoadBalancer::new(4));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let lb = Arc::clone(&lb);
                std::thread::spawn(move || {
                    let mut counts = vec![0usize; 4];
                    for _ in 0..100 {
                        counts[lb.assign().index()] += 1;
                    }
                    counts
                })
            })
            .collect();
        let mut totals = vec![0usize; 4];
        for h in handles {
            for (i, c) in h.join().unwrap().into_iter().enumerate() {
                totals[i] += c;
            }
        }
        assert_eq!(totals.iter().sum::<usize>(), 400);
        for &t in &totals {
            assert_eq!(t, 100, "round robin must be perfectly balanced: {totals:?}");
        }
    }
}
