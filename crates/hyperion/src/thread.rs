//! Hyperion thread handles.
//!
//! Threads are created by [`crate::runtime::ThreadCtx::spawn_on`] on the
//! node the program names; the handle returned there is an
//! [`HThreadHandle`].  The paper's Table 1 "Load balancer" (round-robin
//! placement of new threads) has no separate module here: every program
//! runs one application thread per node, worker `t` on node `t`.

use hyperion_dsm::Notices;
use hyperion_model::VTime;
use hyperion_pm2::{NodeId, ThreadId};

/// Handle to a running (or finished) Hyperion thread.
///
/// Join it through [`crate::runtime::ThreadCtx::join`] so the child's final
/// virtual time is merged into the joining thread's clock, mirroring
/// `Thread.join()` semantics.
#[derive(Debug)]
pub struct HThreadHandle {
    thread: ThreadId,
    node: NodeId,
    os_handle: std::thread::JoinHandle<(VTime, Notices)>,
}

impl HThreadHandle {
    pub(crate) fn new(
        thread: ThreadId,
        node: NodeId,
        os_handle: std::thread::JoinHandle<(VTime, Notices)>,
    ) -> Self {
        HThreadHandle {
            thread,
            node,
            os_handle,
        }
    }

    /// Id of the thread this handle refers to.
    pub fn thread_id(&self) -> ThreadId {
        self.thread
    }

    /// Node the thread was created on.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// Block until the thread finishes and return its final virtual time
    /// and what it knew others (itself included) had written.
    ///
    /// # Panics
    /// Resumes a panic of the thread body.
    pub(crate) fn into_end(self) -> (VTime, Notices) {
        let end = self.os_handle.join();
        end.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    }
}
