//! Event statistics.
//!
//! Every node of the simulated cluster owns a [`NodeStats`] block of atomic
//! counters.  The DSM layer, the monitor implementation and the RPC layer
//! increment them as events happen; the benchmark harness snapshots them to
//! explain *why* one protocol beats the other (number of locality checks vs
//! number of page faults and `mprotect` calls — the quantities §4.3 of the
//! paper reasons about).

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use crate::sync::lock;

macro_rules! define_stats {
    ($(#[$meta:meta] $field:ident),+ $(,)?) => {
        /// Atomic per-node event counters (see module docs).
        #[derive(Debug, Default)]
        pub struct NodeStats {
            $(#[$meta] pub $field: AtomicU64,)+
        }

        /// A plain-old-data snapshot of [`NodeStats`], safe to aggregate,
        /// serialise and compare.
        #[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
        pub struct StatsSnapshot {
            $(#[$meta] pub $field: u64,)+
        }

        impl NodeStats {
            /// Take a consistent-enough snapshot of all counters (individual
            /// counters are read atomically; cross-counter skew is acceptable
            /// because snapshots are taken when the cluster is quiescent).
            pub fn snapshot(&self) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field.load(Ordering::Relaxed),)+
                }
            }
        }

        impl StatsSnapshot {
            /// Field-wise sum of two snapshots (for cluster-wide totals).
            pub fn merged(&self, other: &StatsSnapshot) -> StatsSnapshot {
                StatsSnapshot {
                    $($field: self.$field + other.$field,)+
                }
            }

            /// Iterate over `(name, value)` pairs, in declaration order.
            pub fn fields(&self) -> Vec<(&'static str, u64)> {
                vec![$((stringify!($field), self.$field),)+]
            }
        }
    };
}

define_stats! {
    /// In-line locality checks performed (`java_ic` only).
    locality_checks,
    /// Page faults taken (`java_pf` only).
    page_faults,
    /// `mprotect` system calls performed (`java_pf` only).
    mprotect_calls,
    /// Pages fetched from a remote home node (`loadIntoCache` misses).
    page_loads,
    /// Pages whose cached copy was discarded by an acquire (or by `invalidateCache`).
    pages_invalidated,
    /// Acquire episodes: monitor acquisitions, joins and explicit `invalidateCache` calls.
    cache_invalidations,
    /// Diff messages sent to home nodes by `updateMainMemory`.
    diff_messages,
    /// Modified 8-byte slots flushed to home nodes.
    diff_slots_flushed,
    /// RPC requests issued by this node.
    rpc_requests,
    /// RPC requests served by this node (as home / target).
    rpc_served,
    /// Payload bytes sent by this node (requests + diffs).
    bytes_sent,
    /// Payload bytes received by this node (replies + fetched pages).
    bytes_received,
    /// Monitor entries executed by threads of this node.
    monitor_enters,
    /// Monitor exits executed by threads of this node.
    monitor_exits,
    /// Monitor acquisitions whose monitor object lives on another node.
    remote_monitor_acquires,
    /// Barrier episodes completed by threads of this node.
    barrier_waits,
    /// Object-field reads performed through the DSM (`get`).
    field_reads,
    /// Object-field writes performed through the DSM (`put`).
    field_writes,
    /// Bulk slice reads performed (`read_slice` / view pins), one per call.
    bulk_reads,
    /// Bulk slice writes performed (`write_slice` / view commits), one per call.
    bulk_writes,
    /// Diff RPCs that carried more than one page (batched flushing).
    batched_flushes,
    /// Payload bytes of diff messages sent by this node.
    diff_bytes,
    /// Fetch round-trip cycles hidden behind compute by overlapped fetches.
    fetch_overlap_cycles_hidden,
    /// Split-transaction fetches this node issued ahead of a scan (the stride prefetch).
    stride_fetches_issued,
    /// Stride fetches completed by a real use (the demand miss finished an in-flight RPC).
    stride_fetches_completed,
    /// Stride-fetched pages invalidated with their ticket still pending (wasted prefetches).
    stride_fetches_wasted,
    /// Release-time diff flushes handed to the deferred per-monitor queue instead of blocking.
    deferred_flushes,
    /// Diff messages that rode a monitor's release to its home instead of a blocking round trip.
    release_diffs,
    /// RPC attempts re-issued after a retryable transport failure.
    rpc_retries,
    /// RPC attempts that timed out (each charged the configured rpc_timeout).
    rpc_timeouts,
    /// Request frames dropped by the fault injector before reaching the handler.
    frames_dropped_injected,
    /// Node failures this node detected and recovered from (one per failed peer).
    nodes_failed,
    /// Pages re-homed and re-synced onto a survivor after their home failed.
    pages_resynced,
    /// Serving-style operations completed by threads of this node (KV requests, vertex updates).
    serving_ops,
    /// Page fetches (a subset of `page_loads`) the home answered "not modified": the retained copy was re-opened and no page bytes moved.
    pages_revalidated,
    /// Page fetches (a subset of `page_loads`) the home answered with the slots that changed since the retained copy's stamp: the copy was patched and re-opened, and only those slots moved.
    pages_patched,
    /// Service time booked on this node's protocol processor by remote requests, in picoseconds (busy time; divide by the run's execution time for the home's utilisation).
    rpc_service_ps,
    /// Time remote requests waited at this node between arrival and start of service, in picoseconds.
    rpc_queue_wait_ps,
    /// Cached copies acquires left open, summed over acquires: every present copy no learned write notice named at a newer stamp (a dropped copy a grant reopened is not one).
    pages_kept,
    /// Picoseconds by which monitor `enter` / re-acquire moved threads of this node forward to a previous holder's release (two critical sections that overlapped in virtual time).
    monitor_wait_ps,
    /// `mprotect` calls (of `mprotect_calls`) that re-protected a node's open stale copies at a settle: the access at which the rent reached the price, a thread-level acquire or release, `invalidateCache` or a recovery (`crates/dsm/src/pending.rs`).
    mprotect_calls_settled,
    /// Page-protection accesses that paid the in-line check asking whether their copy is one of the node's open stale copies (`java_pf`; a `java_ic` access's own check asks it).
    pending_checks,
    /// Misses that check found: an access to an open stale copy, dropped and fetched without a fault or an `mprotect` to open it (of `page_loads`, beside `page_faults`).
    pending_misses,
}

impl NodeStats {
    /// Increment a counter by one.
    #[inline]
    pub fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment a counter by `n`.
    #[inline]
    pub fn bump_by(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl StatsSnapshot {
    /// Sum a collection of snapshots into a cluster-wide total.
    pub fn total<'a, I: IntoIterator<Item = &'a StatsSnapshot>>(snapshots: I) -> StatsSnapshot {
        snapshots
            .into_iter()
            .fold(StatsSnapshot::default(), |acc, s| acc.merged(s))
    }

    /// Total DSM accesses (reads + writes).
    pub fn field_accesses(&self) -> u64 {
        self.field_reads + self.field_writes
    }

    /// Total payload bytes moved (sent + received).
    pub fn bytes_moved(&self) -> u64 {
        self.bytes_sent + self.bytes_received
    }
}

/// One RPC service's accumulated wire-level traffic, as observed by a *real*
/// transport backend (sockets): what was actually written to and read from
/// the wire, how long the round trips took on the wall clock, and what the
/// cost model charged for the very same round trips in virtual time.
///
/// The pairing of `rtt_nanos` (measured) with `modeled_ps` (charged) is what
/// the bench harness turns into the modeled-vs-measured report.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WireServiceSnapshot {
    /// Index of the service in the cluster's service table.
    pub service: usize,
    /// Round trips completed (one request frame + one reply frame each).
    pub messages: u64,
    /// Frame bytes written to the socket (length prefix + header + payload).
    pub bytes_sent: u64,
    /// Frame bytes read from the socket (replies, including the prefix).
    pub bytes_received: u64,
    /// Wall-clock nanoseconds spent inside round trips (send → reply read).
    pub rtt_nanos: u64,
    /// Modeled virtual-time cost of the same round trips, in picoseconds.
    pub modeled_ps: u64,
}

impl WireServiceSnapshot {
    /// Average measured wall-clock microseconds per round trip.
    pub fn measured_us_per_rpc(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.rtt_nanos as f64 / 1e3 / self.messages as f64
        }
    }

    /// Average modeled virtual-time microseconds per round trip.
    pub fn modeled_us_per_rpc(&self) -> f64 {
        if self.messages == 0 {
            0.0
        } else {
            self.modeled_ps as f64 / 1e6 / self.messages as f64
        }
    }
}

/// Per-service wire counters for a transport backend that performs real I/O.
///
/// Kept separate from [`NodeStats`] on purpose: the per-node counters feed
/// the protocol digests and must be byte-for-byte identical across
/// backends, while these record *physical* traffic that only exists when a
/// socket is involved.
#[derive(Debug, Default)]
pub struct WireStats {
    services: Mutex<Vec<WireServiceSnapshot>>,
}

impl WireStats {
    /// Record one completed round trip for service-table index `service`.
    pub fn record(
        &self,
        service: usize,
        bytes_sent: u64,
        bytes_received: u64,
        rtt_nanos: u64,
        modeled_ps: u64,
    ) {
        let mut table = lock(&self.services);
        if table.len() <= service {
            let first_new = table.len();
            table.resize_with(service + 1, WireServiceSnapshot::default);
            for (i, entry) in table.iter_mut().enumerate().skip(first_new) {
                entry.service = i;
            }
        }
        let entry = &mut table[service];
        entry.messages += 1;
        entry.bytes_sent += bytes_sent;
        entry.bytes_received += bytes_received;
        entry.rtt_nanos += rtt_nanos;
        entry.modeled_ps += modeled_ps;
    }

    /// Snapshot of every service that saw at least one round trip, in
    /// service-table order.
    pub fn snapshot(&self) -> Vec<WireServiceSnapshot> {
        lock(&self.services)
            .iter()
            .filter(|s| s.messages > 0)
            .copied()
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_stats_accumulate_per_service() {
        let w = WireStats::default();
        assert!(w.snapshot().is_empty());
        w.record(1, 100, 200, 5_000, 7_000_000);
        w.record(1, 50, 60, 1_000, 1_000_000);
        w.record(3, 10, 20, 500, 250_000);
        let snap = w.snapshot();
        assert_eq!(snap.len(), 2);
        assert_eq!(snap[0].service, 1);
        assert_eq!(snap[0].messages, 2);
        assert_eq!(snap[0].bytes_sent, 150);
        assert_eq!(snap[0].bytes_received, 260);
        assert_eq!(snap[0].rtt_nanos, 6_000);
        assert_eq!(snap[0].modeled_ps, 8_000_000);
        assert!((snap[0].measured_us_per_rpc() - 3.0).abs() < 1e-9);
        assert!((snap[0].modeled_us_per_rpc() - 4.0).abs() < 1e-9);
        assert_eq!(snap[1].service, 3);
        assert_eq!(WireServiceSnapshot::default().measured_us_per_rpc(), 0.0);
    }

    #[test]
    fn snapshot_reflects_bumps() {
        let s = NodeStats::default();
        NodeStats::bump(&s.locality_checks);
        NodeStats::bump(&s.locality_checks);
        NodeStats::bump_by(&s.bytes_sent, 4096);
        NodeStats::bump(&s.page_faults);
        let snap = s.snapshot();
        assert_eq!(snap.locality_checks, 2);
        assert_eq!(snap.bytes_sent, 4096);
        assert_eq!(snap.page_faults, 1);
        assert_eq!(snap.mprotect_calls, 0);
    }

    #[test]
    fn merged_and_total_sum_fieldwise() {
        let a = StatsSnapshot {
            page_loads: 3,
            bytes_sent: 100,
            ..Default::default()
        };
        let b = StatsSnapshot {
            page_loads: 4,
            bytes_received: 50,
            ..Default::default()
        };
        let m = a.merged(&b);
        assert_eq!(m.page_loads, 7);
        assert_eq!(m.bytes_sent, 100);
        assert_eq!(m.bytes_received, 50);
        assert_eq!(m.bytes_moved(), 150);

        let t = StatsSnapshot::total([&a, &b, &m]);
        assert_eq!(t.page_loads, 14);
    }

    #[test]
    fn fields_enumeration_contains_every_counter() {
        let snap = StatsSnapshot::default();
        let names: Vec<&str> = snap.fields().iter().map(|(n, _)| *n).collect();
        for expected in [
            "locality_checks",
            "page_faults",
            "mprotect_calls",
            "page_loads",
            "diff_messages",
            "monitor_enters",
            "field_reads",
            "field_writes",
        ] {
            assert!(names.contains(&expected), "missing {expected}");
        }
        assert_eq!(names.len(), 43);
        for added in [
            "batched_flushes",
            "rpc_retries",
            "rpc_timeouts",
            "frames_dropped_injected",
            "nodes_failed",
            "pages_resynced",
            "diff_bytes",
            "fetch_overlap_cycles_hidden",
            "stride_fetches_issued",
            "stride_fetches_completed",
            "stride_fetches_wasted",
            "deferred_flushes",
            "release_diffs",
            "serving_ops",
            "pages_revalidated",
            "pages_patched",
            "rpc_service_ps",
            "rpc_queue_wait_ps",
            "pages_kept",
            "monitor_wait_ps",
            "mprotect_calls_settled",
            "pending_checks",
            "pending_misses",
        ] {
            assert!(names.contains(&added), "missing {added}");
        }
    }

    #[test]
    fn concurrent_bumps_are_not_lost() {
        use std::sync::Arc;
        let s = Arc::new(NodeStats::default());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let s = Arc::clone(&s);
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        NodeStats::bump(&s.field_reads);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.snapshot().field_reads, 40_000);
    }
}
