//! The communication subsystem: PM2-style RPCs.
//!
//! PM2's programming interface lets threads invoke the remote execution of
//! user-defined services; on the remote node the invocation is handled by a
//! message handler (an "active message").  The reproduction keeps exactly
//! that interface: the DSM layer registers handlers for page fetches, diff
//! application and remote monitor acquisition, and calls
//! [`crate::Cluster::rpc`] to invoke them.
//!
//! Handlers run on the calling OS thread but operate on the *target node's*
//! state; the virtual-time accounting (send overhead, wire latency, payload
//! transfer, home-node service occupancy, reply transfer) is what makes the
//! call "remote".

use hyperion_model::VTime;

use crate::node::{Node, NodeId};

/// Identifier of a registered RPC service.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct ServiceId(pub(crate) usize);

impl ServiceId {
    /// Index of the service in the cluster's service table (matches
    /// [`hyperion_model::WireServiceSnapshot::service`]).
    #[inline]
    pub fn index(self) -> usize {
        self.0
    }
}

/// Fixed per-message header size charged on the wire in addition to the
/// payload (request ids, service ids, page numbers...).
pub const MSG_HEADER_BYTES: u64 = 64;

/// The reply produced by an RPC handler.
#[derive(Debug, Default)]
pub struct RpcReply {
    /// Reply payload carried back to the caller.
    pub data: Vec<u8>,
    /// Additional service time spent by the handler on the target node, on
    /// top of the machine model's fixed per-request protocol cost (e.g. the
    /// time to copy a page or apply a diff).
    pub service: VTime,
    /// Set when the handler could not decode the request: every transport
    /// turns this into [`crate::TransportError::MalformedFrame`] at the
    /// caller instead of delivering `data`.
    pub error: Option<String>,
}

impl RpcReply {
    /// An empty acknowledgement with a given service time.
    pub fn ack(service: VTime) -> Self {
        RpcReply::with_data(Vec::new(), service)
    }

    /// A reply carrying `data`, with a given service time.
    pub fn with_data(data: Vec<u8>, service: VTime) -> Self {
        RpcReply {
            data,
            service,
            error: None,
        }
    }

    /// The answer to a request the handler could not decode.  Nothing was
    /// executed on the target node, so no service time is charged.
    pub fn malformed(why: impl Into<String>) -> Self {
        RpcReply {
            error: Some(why.into()),
            ..RpcReply::default()
        }
    }
}

/// A message handler ("service" in PM2 terminology).
///
/// `target` is the node the message was addressed to — the handler must only
/// touch state belonging to that node — and `caller` identifies the
/// requesting node.
pub trait RpcHandler: Send + Sync {
    /// Service a request.
    fn handle(&self, target: &Node, caller: NodeId, payload: &[u8]) -> RpcReply;

    /// Human-readable service name (for diagnostics).
    fn name(&self) -> &'static str {
        "anonymous-service"
    }
}

/// Blanket implementation so plain closures can be registered as services in
/// tests and small tools.
impl<F> RpcHandler for F
where
    F: Fn(&Node, NodeId, &[u8]) -> RpcReply + Send + Sync,
{
    fn handle(&self, target: &Node, caller: NodeId, payload: &[u8]) -> RpcReply {
        self(target, caller, payload)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rpc_reply_constructors() {
        let a = RpcReply::ack(VTime::from_us(1));
        assert!(a.data.is_empty());
        assert_eq!(a.service, VTime::from_us(1));

        let d = RpcReply::with_data(vec![1, 2, 3], VTime::ZERO);
        assert_eq!(d.data, vec![1, 2, 3]);
        assert_eq!(d.service, VTime::ZERO);
    }

    #[test]
    fn closures_implement_rpc_handler() {
        let handler = |_node: &Node, caller: NodeId, payload: &[u8]| {
            RpcReply::with_data(vec![caller.0 as u8, payload.len() as u8], VTime::ZERO)
        };
        let node = Node::new(NodeId(0));
        let reply = RpcHandler::handle(&handler, &node, NodeId(7), &[1, 2, 3]);
        assert_eq!(reply.data, vec![7, 3]);
        assert_eq!(RpcHandler::name(&handler), "anonymous-service");
    }
}
