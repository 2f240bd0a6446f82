//! Write notices, litmus by litmus: every happens-before edge the runtime
//! creates carries what the releasing side knew was written, and an acquire
//! drops exactly the cached copies those notices outdate — or, for a page
//! the grant's node homes, patches them with what the grant carries, and
//! reopens the dropped copies of such pages that the request named (those
//! whose last answer from the home fitted a grant) — under
//! `java_ic`, `java_pf` and `java_ad` (with their deferred release flushing
//! and stride prefetch).  A release to a monitor's home carries the diffs for that home's pages; the
//! litmus tests of that ride have a section of their own.
//!
//! Each litmus first lets the reading node cache the page, so a stale copy
//! kept across the acquire would be read, not refetched.  Virtual time alone
//! orders who caches before whom writes: one thread runs at a time, until
//! it takes a turn at a monitor, and the next is the one furthest behind,
//! so a reader that caches at its start and a writer that first moves its
//! clock a millisecond on run in that order.  Every ordering the assertions
//! rely on still comes from a monitor, `start` or `join`; channels only
//! carry results out.
//!
//! Mutations on record — each applied to a copy of the tree, this suite run
//! under it, and the test named failed:
//!
//! * the monitor keeps only its releaser's own writes (`MonitorState::
//!   release` deposits what the release itself wrote, not the thread's
//!   knowledge): no transitivity —
//!   `a_chain_of_monitors_carries_a_write_to_a_thread_that_never_took_the_first`;
//! * home-write notices dropped (`DsmSystem::put` never logs the page):
//!   `a_monitor_hands_over_a_home_write` (and, in `tests/`,
//!   `every_read_in_a_section_sees_the_last_write_in_monitor_order`, seed 9);
//! * the stamp compare skipped, every named copy dropped: the counter
//!   assertions of `an_acquire_keeps_every_copy_no_notice_outdates_at_no_cost`;
//! * the grant's home checks skipped (`DsmSystem::drop_copies` lets any
//!   grant's notice ride and `DsmSystem::patch_by_grant` lets any grant
//!   patch a copy, whoever homes the page):
//!   `a_page_the_grants_node_does_not_home_is_still_dropped_and_refetched`
//!   (either check alone keeps the suite passing);
//! * the grant's patch built from the notice's stamp instead of the copy's
//!   (`DsmSystem::patch_by_grant`): `a_remote_grant_makes_its_homes_page_current`
//!   (the answer no longer decodes against the copy, which is dropped), and
//!   the debug oracle's `stale copy revalidated` in
//!   `a_dirty_stale_copy_is_flushed_before_it_is_patched`;
//! * no flush before the patch (grant candidates left out of the acquire's
//!   flush): `a_dirty_stale_copy_is_flushed_before_it_is_patched`;
//! * a dropped copy reopened while its patch is skipped (`DsmSystem::
//!   patch_by_grant` applies the answer's stamp without its slots): the
//!   debug oracle's `stale copy revalidated` in
//!   `a_copy_dropped_by_another_nodes_grant_is_reopened_by_its_homes_grant`;
//! * a request index that ignores the page's home (`StaleCopies::
//!   take_named` hands a grant every home's stale copies; re-run on the
//!   index of open and dropped copies): the charge in
//!   `the_request_costs_exactly_sixteen_bytes_per_named_copy`,
//!   `a_dropped_copy_whose_last_answer_was_the_page_is_not_named` and
//!   `a_dropped_copy_refused_once_is_not_named_at_the_next_grant`;
//! * name every dropped copy regardless of its last answer
//!   (`DsmSystem::drop_copies` indexes a dropped copy without asking
//!   `PageFrame::fits_grant`): the entry charge in
//!   `a_dropped_copy_refused_once_is_not_named_at_the_next_grant` and in
//!   `a_dropped_copy_whose_last_answer_was_the_page_is_not_named`;
//! * the grant's patch kept to protection-detected copies (`DsmSystem::
//!   drop_copies` lets a copy ride only if its technique is `Protect`):
//!   `under_java_ic_the_stale_copy_rides_the_grant`,
//!   `a_reopened_check_copy_costs_no_mprotect` and two more; the index kept
//!   to them (a drop indexes only a re-protected copy):
//!   `under_java_ic_the_dropped_copy_is_reopened`,
//!   `the_request_costs_exactly_sixteen_bytes_per_named_copy` and the same;
//! * a reopened Check copy charged an `mprotect` (`reopen_runs` counting
//!   every reopened copy): `a_reopened_check_copy_costs_no_mprotect`, also
//!   when only `java_ad`'s Check copies are charged;
//! * a release that carried diffs reaching the home at the releaser's clock
//!   instead of when the home applied them (`MonitorState::release` ignores
//!   the ride): the grant comes early —
//!   `a_diff_that_rode_an_exit_is_seen_by_the_next_acquirer_on_a_third_node`;
//! * thread end not waiting for the ride (`jmm::release` without its merge
//!   of the thread's last `R`): the join leaves before the diff is home —
//!   `a_join_on_the_releasers_node_waits_for_what_rode_the_release` (and
//!   the exit litmus above, which reads `R` off the releaser's end);
//! * the access path skipping its pending check (`DsmSystem::ensure_access`
//!   never calls `drop_if_stale`; re-run once an open copy was absent, so
//!   the debug oracle's `open stale copy read unchecked` catches it):
//!   `a_section_reads_a_page_its_acquire_left_pending_and_sees_the_write`,
//!   its write twin, `a_second_thread_of_the_node_reads_a_pending_copy_after_dropping_it`
//!   and 17 more, the message-passing pair and the grant rounds among them
//!   (`open_stale_copies.rs` lists its own).

use std::sync::mpsc::channel;
use std::sync::Arc;

use hyperion::prelude::*;
use hyperion::StatsSnapshot;
use hyperion_dsm::{DsmStore, DsmSystem};
use hyperion_model::ThreadClock;
use hyperion_pm2::{Cluster, IsoAllocator};

const SLOTS: usize = 512;

/// Every protocol, labelled by name.
fn configs(nodes: usize) -> Vec<(String, HyperionConfig)> {
    let config = |protocol| HyperionConfig::new(myrinet_200(), nodes, protocol);
    let all = ProtocolKind::all_extended().into_iter();
    all.map(|protocol| (protocol.to_string(), config(protocol)))
        .collect()
}

/// Message passing through one monitor: a reader that cached the page
/// before the write sees it after acquiring the writer's monitor.
fn message_passing(writer_node: u32) {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let m = ctx.new_monitor(NodeId(1));
            let (seen_tx, seen) = channel();
            let wm = m.clone();
            let writer = ctx.spawn_on(NodeId(writer_node), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wm.synchronized(t, |t| data.put(t, 7, 41));
            });
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                assert_eq!(data.get(t, 7), 0);
                t.charge(VTime::from_ms(5) - t.now());
                seen_tx.send(m.synchronized(t, |t| data.get(t, 7))).unwrap();
            });
            ctx.join(writer);
            ctx.join(reader);
            seen.recv().unwrap()
        });
        assert_eq!(out.result, 41, "{label}");
        let reader = out.report.node_stats[2];
        assert!(
            reader.pages_invalidated >= 1,
            "{label}: the stale copy was dropped"
        );
        if writer_node == 1 {
            assert!(out.report.total_stats().deferred_flushes > 0, "{label}");
        }
    }
}

/// A diff from a third node.
#[test]
fn a_monitor_hands_over_a_remote_write() {
    message_passing(1);
}

/// A write on the page's home: no diff, only the notice the home's release
/// leaves.
#[test]
fn a_monitor_hands_over_a_home_write() {
    message_passing(0);
}

/// A →M1→ B →M2→ C: C never takes M1, yet learns A's write from B, who
/// learned it at M1 and passed it on at M2.
#[test]
fn a_chain_of_monitors_carries_a_write_to_a_thread_that_never_took_the_first() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let (m1, m2) = (ctx.new_monitor(NodeId(0)), ctx.new_monitor(NodeId(1)));
            let (seen_tx, seen) = channel();
            let (am1, bm1, bm2) = (m1.clone(), m1, m2.clone());
            let a = ctx.spawn_on(NodeId(1), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                am1.synchronized(t, |t| data.put(t, 3, 17));
            });
            let b = ctx.spawn_on(NodeId(0), move |t| {
                t.charge(VTime::from_ms(5) - t.now());
                bm1.synchronized(t, |_| ());
                bm2.synchronized(t, |_| ());
            });
            let c = ctx.spawn_on(NodeId(2), move |t| {
                assert_eq!(data.get(t, 3), 0);
                t.charge(VTime::from_ms(10) - t.now());
                seen_tx
                    .send(m2.synchronized(t, |t| data.get(t, 3)))
                    .unwrap();
            });
            for h in [a, b, c] {
                ctx.join(h);
            }
            seen.recv().unwrap()
        });
        assert_eq!(out.result, 17, "{label}");
    }
}

/// One barrier, many rounds: in round `r` thread `r % 3` writes slot `r`;
/// after the barrier every thread reads every slot written so far.
#[test]
fn a_reused_barrier_hands_over_every_round() {
    const ROUNDS: usize = 6;
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(|ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let barrier = JBarrier::new(ctx, 3, NodeId(1));
            let (seen_tx, seen) = channel();
            let handles: Vec<_> = (0..3u32)
                .map(|me| {
                    let (barrier, seen_tx) = (barrier.clone(), seen_tx.clone());
                    ctx.spawn_on(NodeId(me), move |t| {
                        for r in 0..ROUNDS {
                            if r % 3 == me as usize {
                                data.put(t, r, r as u64 + 1);
                            }
                            barrier.arrive(t);
                            let all: Vec<u64> = (0..=r).map(|s| data.get(t, s)).collect();
                            seen_tx.send((r, all)).unwrap();
                        }
                    })
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            drop(seen_tx);
            seen.iter().collect::<Vec<_>>()
        });
        assert_eq!(out.result.len(), 3 * ROUNDS, "{label}");
        for (r, all) in out.result {
            let expected: Vec<u64> = (1..=r as u64 + 1).collect();
            assert_eq!(all, expected, "{label}: round {r}");
        }
    }
}

/// Two players hand a turn back and forth with wait / notifyAll; each
/// writes a value for the other before it notifies.
#[test]
fn wait_and_notify_hand_over_every_turn() {
    const TURNS: u64 = 10;
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(|ctx| {
            let cells = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let table = ctx.new_monitor(NodeId(0));
            let (seen_tx, seen) = channel();
            let handles: Vec<_> = (0..2u64)
                .map(|player| {
                    let (table, seen_tx) = (table.clone(), seen_tx.clone());
                    ctx.spawn_on(NodeId(1 + player as u32), move |t| {
                        table.enter(t);
                        for _ in 0..TURNS {
                            while cells.get(t, 0) % 2 != player {
                                table.wait_monitor(t);
                            }
                            // The turn, and what the other player left for it.
                            let turn = (cells.get(t, 0), cells.get(t, 1));
                            seen_tx.send(turn).unwrap();
                            cells.put(t, 1, turn.0 + 1);
                            cells.put(t, 0, turn.0 + 1);
                            table.notify_all(t);
                        }
                        table.exit(t);
                    })
                })
                .collect();
            for h in handles {
                ctx.join(h);
            }
            drop(seen_tx);
            seen.iter().collect::<Vec<_>>()
        });
        let turns: Vec<_> = (0..2 * TURNS).map(|turn| (turn, turn)).collect();
        assert_eq!(out.result, turns, "{label}");
    }
}

/// Two threads on one node: T2's write is flushed by T1's release, and
/// T2's own release — which finds nothing dirty — still names the page.
#[test]
fn a_release_names_what_another_thread_of_its_node_flushed_for_it() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let (m1, m2) = (ctx.new_monitor(NodeId(1)), ctx.new_monitor(NodeId(1)));
            let (seen_tx, seen) = channel();
            let rm2 = m2.clone();
            // The reader caches first, T2 writes when the reader takes its
            // turn at 20 ms, T1 flushes at 5 ms, T2 releases at 10 ms.
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                assert_eq!(data.get(t, 9), 0);
                t.charge(VTime::from_ms(20) - t.now());
                seen_tx
                    .send(rm2.synchronized(t, |t| data.get(t, 9)))
                    .unwrap();
            });
            let t2 = ctx.spawn_on(NodeId(1), move |t| {
                data.put(t, 9, 5);
                t.charge(VTime::from_ms(10) - t.now());
                m2.synchronized(t, |_| ());
            });
            let t1 = ctx.spawn_on(NodeId(1), move |t| {
                t.charge(VTime::from_ms(5) - t.now());
                m1.synchronized(t, |_| ());
            });
            for h in [t1, t2, reader] {
                ctx.join(h);
            }
            seen.recv().unwrap()
        });
        assert_eq!(out.result, 5, "{label}");
    }
}

/// `Thread.join` is an acquire: the joiner's node drops the copy the
/// joined thread's writes outdated.
#[test]
fn a_join_hands_over_the_joined_threads_writes() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(|ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(2));
            assert_eq!(data.get(ctx, 4), 0);
            let child = ctx.spawn_on(NodeId(1), move |t| data.put(t, 4, 8));
            ctx.join(child);
            data.get(ctx, 4)
        });
        assert_eq!(out.result, 8, "{label}");
    }
}

/// `Thread.start` is an acquire on the child's node: a page node 2 cached
/// before the parent wrote it is not read stale by a child started there.
#[test]
fn a_started_thread_sees_the_parents_pre_start_write() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(|ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(1));
            let first = ctx.spawn_on(NodeId(2), move |t| assert_eq!(data.get(t, 0), 0));
            ctx.join(first);
            data.put(ctx, 0, 7);
            let (seen_tx, seen) = channel();
            let child = ctx.spawn_on(NodeId(2), move |t| seen_tx.send(data.get(t, 0)).unwrap());
            ctx.join(child);
            seen.recv().unwrap()
        });
        assert_eq!(out.result, 7, "{label}");
    }
}

/// What a node keeps open across an acquire costs nothing at all: a page
/// no notice names, and a page the notice names at the stamp the copy
/// already carries.  A page written since the copy was taken goes.
#[test]
fn an_acquire_keeps_every_copy_no_notice_outdates_at_no_cost() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let cluster = Arc::clone(rt.cluster());
        let out = rt.run(move |ctx| {
            let pages = ctx.alloc_array_page_aligned::<u64>(3 * SLOTS, NodeId(0));
            let (unchanged, current, changed) = (0, SLOTS, 2 * SLOTS);
            let m = ctx.new_monitor(NodeId(2));
            let (seen_tx, seen) = channel();
            let wm = m.clone();
            let writer = ctx.spawn_on(NodeId(1), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wm.synchronized(t, |t| pages.put(t, current, 1));
                t.charge(VTime::from_ms(50) - t.now());
                wm.synchronized(t, |t| pages.put(t, changed, 2));
            });
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                let read_all =
                    |t: &mut ThreadCtx| [unchanged, current, changed].map(|at| pages.get(t, at));
                assert_eq!(read_all(t), [0, 0, 0]);
                // At 2 ms, after the writer's first section: take a turn on a
                // monitor nobody else takes, so the writer runs first.
                t.charge(VTime::from_ms(2) - t.now());
                let gate = t.new_monitor(NodeId(2));
                gate.synchronized(t, |_| ());
                // Fetched again after the first write: `current` is at the
                // stamp the monitor's notice names.
                t.invalidate_cache();
                assert_eq!(read_all(t), [0, 1, 0]);
                t.charge(VTime::from_ms(5) - t.now());
                let before = cluster.node_stats(NodeId(2));
                let values = m.synchronized(t, read_all);
                let after = cluster.node_stats(NodeId(2));
                t.charge(VTime::from_ms(100) - t.now());
                let later = m.synchronized(t, read_all);
                seen_tx.send((before, after, values, later)).unwrap();
            });
            ctx.join(writer);
            ctx.join(reader);
            seen.recv().unwrap()
        });
        let (before, after, values, later): (StatsSnapshot, StatsSnapshot, _, _) = out.result;
        assert_eq!((values, later), ([0, 1, 0], [0, 1, 2]), "{label}");
        let cost = |s: StatsSnapshot| {
            (
                s.page_faults,
                s.rpc_requests,
                s.mprotect_calls,
                s.page_loads,
            )
        };
        assert_eq!(
            cost(after),
            cost(before),
            "{label}: kept copies cost nothing"
        );
        assert_eq!(after.pages_invalidated, before.pages_invalidated, "{label}");
        assert_eq!(after.pages_kept, before.pages_kept + 3, "{label}");
        // Three at the explicit `invalidateCache`, then the one.
        assert_eq!(out.report.node_stats[2].pages_invalidated, 3 + 1, "{label}");
    }
}

// ----- what a grant carries ---------------------------------------------------

/// A monitor on node 1 guarding page P (homed on node 1, with the monitor)
/// and page Q (homed on node 0).  A writer on node 0 writes slots
/// `0..p_slots` of P under the monitor — and slot 0 of Q if `q_too`.  A
/// reader on node 2 cached both pages first (protection-detected under
/// `java_ad` as well: `cache_protected`), wrote slot 511 of its copy of P if
/// `dirty`, and then runs a section of the monitor that reads what the
/// writer wrote.  Returns, per transport label and protocol, the values
/// read (P's slots, Q's slot 0, then P's slot 511 if `dirty`) and the
/// reader node's counters before the entry, after it and after the reads.
fn grant_section(
    p_slots: usize,
    q_too: bool,
    dirty: bool,
) -> Vec<(String, ProtocolKind, Vec<u64>, [StatsSnapshot; 3])> {
    grant_section_cached(PROTECTED, p_slots, q_too, dirty)
}

/// [`grant_section`] with the reader caching each page by `accesses` reads
/// in one epoch (`cache`): [`PROTECTED`], or 1 to keep a `java_ad` page in
/// its Check epoch.
fn grant_section_cached(
    accesses: usize,
    p_slots: usize,
    q_too: bool,
    dirty: bool,
) -> Vec<(String, ProtocolKind, Vec<u64>, [StatsSnapshot; 3])> {
    let mut out = Vec::new();
    for (label, config) in configs(3) {
        let protocol = config.protocol;
        let rt = HyperionRuntime::new(config).unwrap();
        let cluster = Arc::clone(rt.cluster());
        let run = rt.run(move |ctx| {
            let p = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(1));
            let q = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let m = ctx.new_monitor(NodeId(1));
            let (seen_tx, seen) = channel();
            let wm = m.clone();
            let writer = ctx.spawn_on(NodeId(0), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wm.synchronized(t, |t| {
                    (0..p_slots).for_each(|s| p.put(t, s, s as u64 + 1));
                    if q_too {
                        q.put(t, 0, 7);
                    }
                });
            });
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                cache(t, &[p, q], accesses);
                if dirty {
                    p.put(t, SLOTS - 1, 99);
                }
                t.charge(VTime::from_ms(5) - t.now());
                let stats = || cluster.node_stats(NodeId(2));
                let before = stats();
                m.enter(t);
                let entered = stats();
                let mut values: Vec<u64> = (0..p_slots).map(|s| p.get(t, s)).collect();
                values.push(q.get(t, 0));
                if dirty {
                    values.push(p.get(t, SLOTS - 1));
                }
                let read = stats();
                m.exit(t);
                seen_tx.send((values, [before, entered, read])).unwrap();
            });
            ctx.join(writer);
            ctx.join(reader);
            seen.recv().unwrap()
        });
        let (values, stats) = run.result;
        out.push((label, protocol, values, stats));
    }
    out
}

/// Reads of a page in one epoch that make `java_ad` detect its copy by page
/// protection, as under `java_pf`: 5 000 are well past the break-even of
/// ≈ 1 067, so closing the epoch (the explicit `invalidateCache`) switches
/// the page.
const PROTECTED: usize = 5_000;

/// Cache `pages` on the calling thread's node after reading each `accesses`
/// times in one epoch, which the explicit `invalidateCache` then closes:
/// the last answer for each copy is a "not modified".
fn cache(t: &mut ThreadCtx, pages: &[HArray<u64>], accesses: usize) {
    for page in pages {
        (0..accesses).for_each(|_| assert_eq!(page.get(t, 0), 0));
    }
    t.invalidate_cache();
    pages.iter().for_each(|page| assert_eq!(page.get(t, 0), 0));
}

/// What a section cost the reader's node between two snapshots: `(faults,
/// page loads, mprotects, copies dropped, pages patched)`.
fn section_cost(from: StatsSnapshot, to: StatsSnapshot) -> (u64, u64, u64, u64, u64) {
    (
        to.page_faults - from.page_faults,
        to.page_loads - from.page_loads,
        to.mprotect_calls - from.mprotect_calls,
        to.pages_invalidated - from.pages_invalidated,
        to.pages_patched - from.pages_patched,
    )
}

/// The grant of a monitor on another node is sent by the home of the page
/// it guards — the node that would answer the refetch — so it brings the
/// page: the section reads the releaser's write at no fault, no page load
/// and no `mprotect`, and the copy is patched, not dropped.
#[test]
fn a_remote_grant_makes_its_homes_page_current() {
    for (label, protocol, values, [before, _, read]) in grant_section(1, false, false) {
        assert_eq!(values, [1, 0], "{label}");
        if protocol != ProtocolKind::JavaIc {
            assert_eq!(section_cost(before, read), (0, 0, 0, 0, 1), "{label}");
        }
    }
}

/// The same notices name a page homed on a third node: the grant cannot
/// carry it, so under every protocol that copy alone is dropped and
/// refetched, while P's rides the grant.
#[test]
fn a_page_the_grants_node_does_not_home_is_still_dropped_and_refetched() {
    for (label, _, values, [before, _, read]) in grant_section(1, true, false) {
        assert_eq!(values, [1, 7], "{label}");
        let (_, loads, _, dropped, _) = section_cost(before, read);
        assert_eq!((loads, dropped), (1, 1), "{label}");
    }
}

/// The grant patches whatever detects the copy: under `java_ic` the stale
/// copy rides the grant as under `java_pf`, and the section reads the write
/// at no fault, no page load and no `mprotect`, with nothing dropped.
#[test]
fn under_java_ic_the_stale_copy_rides_the_grant() {
    for (label, protocol, values, [before, _, read]) in grant_section(1, false, false) {
        assert_eq!(values, [1, 0], "{label}");
        let (faults, loads, mprotects, dropped, patched) = section_cost(before, read);
        assert_eq!((loads, dropped, patched), (0, 0, 1), "{label}");
        if protocol == ProtocolKind::JavaIc {
            assert_eq!((faults, mprotects), (0, 0), "{label}");
        }
    }
}

/// A patch rides the grant only while its bytes on the wire plus the home's
/// copy cycles cost no more than one `mprotect`, whatever detects the copy:
/// on `myrinet_200` (10 µs, 125 MB/s, 1.5 cycles a slot at 200 MHz) 113
/// slots do, 114 do not — that copy is dropped and refetched, under every
/// protocol.
#[test]
fn a_patch_dearer_than_an_mprotect_is_dropped() {
    for (slots, rides) in [(113, true), (114, false)] {
        for (label, _, values, [before, _, read]) in grant_section(slots, false, false) {
            let written: Vec<u64> = (1..=slots as u64).chain([0]).collect();
            assert_eq!(values, written, "{label}: {slots} slots");
            let (_, loads, _, dropped, _) = section_cost(before, read);
            let expected = (u64::from(!rides), u64::from(!rides));
            assert_eq!((loads, dropped), expected, "{label}: {slots} slots");
        }
    }
}

/// A stale copy holding unflushed writes has them flushed by the acquire
/// before the grant's patch is applied — the patch then brings those
/// writes back with the releaser's — and nothing is lost either way.
#[test]
fn a_dirty_stale_copy_is_flushed_before_it_is_patched() {
    for (label, protocol, values, [before, entered, read]) in grant_section(1, false, true) {
        assert_eq!(values, [1, 0, 99], "{label}");
        let flushed = entered.diff_messages - before.diff_messages;
        assert_eq!(flushed, 1, "{label}: flushed by the acquire");
        if protocol != ProtocolKind::JavaIc {
            assert_eq!(section_cost(before, read), (0, 0, 0, 0, 1), "{label}");
        }
    }
}

/// One round of [`granted_rounds`]: the values read, the time the entry to
/// M1 took and the reader node's counters before it, after P's reads and
/// after Q's.
type Round = (Vec<u64>, VTime, [StatsSnapshot; 3]);

/// A monitor M1 on node 1 guarding page P, homed there too; page Q homed on
/// node 3; a monitor M0 on node 0, which homes neither.  A reader on node 2
/// caches both pages (`cache_protected`: the last answer for each is a "not
/// modified").  Then, round `r` by round, a writer on node 0 writes slots
/// `0..writes[r]` of P and slot 0 of Q under M0, and the reader takes M0,
/// whose grant cannot patch them: both copies are dropped and retained.
/// Then it enters M1 and reads P's slots, then Q's slot 0.  Returns, per
/// transport label and protocol, each round's [`Round`].
fn granted_rounds(writes: &[usize]) -> Vec<(String, ProtocolKind, Vec<Round>)> {
    granted_rounds_cached(PROTECTED, writes)
}

/// [`granted_rounds`] with the reader caching each page by `accesses` reads
/// in one epoch, as in [`grant_section_cached`].
fn granted_rounds_cached(
    accesses: usize,
    writes: &[usize],
) -> Vec<(String, ProtocolKind, Vec<Round>)> {
    let mut out = Vec::new();
    for (label, config) in configs(4) {
        let protocol = config.protocol;
        let (writes, reads) = (writes.to_vec(), writes.to_vec());
        let rt = HyperionRuntime::new(config).unwrap();
        let cluster = Arc::clone(rt.cluster());
        let run = rt.run(move |ctx| {
            let p = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(1));
            let q = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(3));
            let (m0, m1) = (ctx.new_monitor(NodeId(0)), ctx.new_monitor(NodeId(1)));
            let (seen_tx, seen) = channel();
            let wm = m0.clone();
            let writer = ctx.spawn_on(NodeId(0), move |t| {
                for (r, n) in writes.into_iter().enumerate() {
                    t.charge(VTime::from_ms(1 + 10 * r as u64) - t.now());
                    wm.synchronized(t, |t| {
                        (0..n).for_each(|s| p.put(t, s, (1000 * r + s + 1) as u64));
                        q.put(t, 0, 7 + r as u64);
                    });
                }
            });
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                cache(t, &[p, q], accesses);
                let stats = || cluster.node_stats(NodeId(2));
                let mut rounds = Vec::new();
                for (r, n) in reads.into_iter().enumerate() {
                    t.charge(VTime::from_ms(5 + 10 * r as u64) - t.now());
                    m0.synchronized(t, |_| ());
                    let (before, arrived) = (stats(), t.now());
                    m1.enter(t);
                    let entry = t.now() - arrived;
                    let mut values: Vec<u64> = (0..n).map(|s| p.get(t, s)).collect();
                    let read_p = stats();
                    values.push(q.get(t, 0));
                    let read_q = stats();
                    m1.exit(t);
                    rounds.push((values, entry, [before, read_p, read_q]));
                }
                seen_tx.send(rounds).unwrap();
            });
            ctx.join(writer);
            ctx.join(reader);
            seen.recv().unwrap()
        });
        out.push((label, protocol, run.result));
    }
    out
}

/// One round of [`granted_rounds`] per run: label, protocol, values read,
/// the time the entry took and the reader node's counters.
type Granted = (String, ProtocolKind, Vec<u64>, VTime, [StatsSnapshot; 3]);

/// Round `r` of [`granted_rounds`]`(writes)`.
fn round_of(writes: &[usize], r: usize) -> Vec<Granted> {
    let pick = |(label, protocol, mut rounds): (_, _, Vec<Round>)| {
        let (values, entry, stats) = rounds.swap_remove(r);
        (label, protocol, values, entry, stats)
    };
    granted_rounds(writes).into_iter().map(pick).collect()
}

/// The single round of [`granted_rounds`], in which the writer writes
/// slots `0..p_slots` of P.
fn dropped_then_granted(p_slots: usize) -> Vec<Granted> {
    round_of(&[p_slots], 0)
}

/// What entering M1 costs the reader when nothing rides the grant and the
/// request names nothing: its round trip, the home's service and the local
/// monitor work.
fn entry_base() -> VTime {
    let machine = myrinet_200().machine;
    let cluster = Cluster::new(machine.clone(), 4);
    let cpu = &machine.cpu;
    cluster.control_message_cost().times(2)
        + cpu.cycles(machine.dsm.protocol_server_cycles)
        + cpu.cycles(machine.dsm.monitor_local_cycles)
}

/// The copy of P that M0's grant left open and stale is patched by the
/// next grant from P's home: the request named it, the grant carried the
/// one changed slot, and the section reads the write at no fault, no page
/// load and no `mprotect` — the copy was never closed.  That patch fitted
/// a grant, so when M0's grant leaves the copy stale again the next
/// round's request names it again, and it is patched again.
#[test]
fn a_copy_dropped_by_another_nodes_grant_is_reopened_by_its_homes_grant() {
    for (label, protocol, rounds) in granted_rounds(&[1, 1]) {
        for (r, (values, _, [before, read_p, _])) in rounds.into_iter().enumerate() {
            assert_eq!(
                values,
                [1000 * r as u64 + 1, 7 + r as u64],
                "{label} round {r}"
            );
            if protocol != ProtocolKind::JavaIc {
                let cost = section_cost(before, read_p);
                assert_eq!(cost, (0, 0, 0, 0, 1), "{label} round {r}");
            }
        }
    }
}

/// 114 changed slots cost more on the wire than the `mprotect` they would
/// save: the grant leaves the copy open and stale, and the read's pending
/// check finds it, drops it and refetches it (the fetch's answer is the
/// same patch) — no fault, and nothing to open.
#[test]
fn a_dropped_copy_whose_patch_is_dearer_than_an_mprotect_is_refetched() {
    for (label, protocol, values, _, [before, read_p, _]) in dropped_then_granted(114) {
        let written: Vec<u64> = (1..=114).chain([7]).collect();
        assert_eq!(values, written, "{label}");
        if protocol != ProtocolKind::JavaIc {
            assert_eq!(section_cost(before, read_p), (0, 1, 0, 1, 1), "{label}");
            assert_eq!(read_p.pending_misses - before.pending_misses, 1, "{label}");
        }
    }
}

/// Under `java_ic` a dropped copy whose last answer fitted a grant is
/// indexed as under `java_pf`: the request names it and the grant patches
/// and reopens it, so the read loads nothing, and the reopened copy was
/// never re-protected, so it costs no `mprotect`.
#[test]
fn under_java_ic_the_dropped_copy_is_reopened() {
    for (label, protocol, values, _, [before, read_p, _]) in dropped_then_granted(1) {
        assert_eq!(values, [1, 7], "{label}");
        if protocol == ProtocolKind::JavaIc {
            assert_eq!(section_cost(before, read_p), (0, 0, 0, 0, 1), "{label}");
            assert_eq!(
                read_p.pages_revalidated, before.pages_revalidated,
                "{label}"
            );
        }
    }
}

/// Q's copy went stale too, but Q is homed on node 3: M1's request does
/// not name it, M1's grant leaves it alone, and the read refetches it (a
/// miss the pending check finds under page protection, not a fault, and a
/// fetch answered with the patch).
#[test]
fn a_dropped_copy_of_a_third_nodes_page_is_not_named_in_the_request() {
    for (label, protocol, values, _, [_, read_p, read_q]) in dropped_then_granted(1) {
        assert_eq!(values, [1, 7], "{label}");
        let (faults, loads, _, _, patched) = section_cost(read_p, read_q);
        let pf = u64::from(protocol != ProtocolKind::JavaIc);
        assert_eq!((faults, loads, patched), (0, 1, 1), "{label}");
        let found = read_q.pending_misses - read_p.pending_misses;
        assert_eq!(found, pf, "{label}");
    }
}

/// The request adds one 16-byte `(page, retained stamp)` entry per named
/// copy to the acquire, and nothing else: with P's patch refused, the
/// entry to M1 costs its round trip, the home's service and the local
/// monitor work — M1 was never released, so no notice, wait or patch rides
/// it — plus exactly `transfer(16 B × n)`, n = 1 (P, not Q) under every
/// protocol.
#[test]
fn the_request_costs_exactly_sixteen_bytes_per_named_copy() {
    let net = myrinet_200().machine.net;
    for (label, _, _, entry, _) in dropped_then_granted(114) {
        assert_eq!(entry, entry_base() + net.transfer(16), "{label}");
    }
}

/// A copy detected by the in-line check — every `java_ic` copy, and a
/// `java_ad` page in its Check epoch (cached by one read, far below the
/// break-even) — is patched by a grant at no `mprotect`: a stale open copy
/// rides the grant (one patch, no load), and a dropped copy the request
/// named reopens with `mprotect_calls` unchanged.  `java_pf` pays none
/// either: its copy was never closed, and the request names it open.
/// Debug builds check every patched copy against its home (`stale copy
/// revalidated`).
#[test]
fn a_reopened_check_copy_costs_no_mprotect() {
    for (label, protocol, values, [before, _, read]) in grant_section_cached(1, 1, false, false) {
        assert_eq!(values, [1, 0], "{label}");
        assert_eq!(read.protocol_switches, before.protocol_switches, "{label}");
        assert_eq!(section_cost(before, read), (0, 0, 0, 0, 1), "{label}");
        let checked = read.locality_checks > before.locality_checks;
        assert_eq!(checked, protocol != ProtocolKind::JavaPf, "{label}");
    }
    for (label, _, rounds) in granted_rounds_cached(1, &[1]) {
        let (values, _, [before, read_p, _]) = &rounds[0];
        assert_eq!(values, &[1, 7], "{label}");
        assert_eq!(section_cost(*before, *read_p), (0, 0, 0, 0, 1), "{label}");
    }
}

/// The acquirer names a dropped copy only if its last answer fitted a
/// grant.  In the first round 512 changed slots are more than a patch
/// carries: the grant refuses the copy and the read refetches the page
/// whole.  In the second, M0's grant leaves that copy stale again and M1's
/// request does not name it: the entry costs exactly the base, with
/// `transfer(0)`, and the read refetches the one changed slot, a miss the
/// pending check finds under page protection, not a fault.
#[test]
fn a_dropped_copy_whose_last_answer_was_the_page_is_not_named() {
    let net = myrinet_200().machine.net;
    for (label, protocol, values, entry, [before, read_p, _]) in round_of(&[512, 1], 1) {
        assert_eq!(values, [1001, 8], "{label}");
        assert_eq!(entry, entry_base() + net.transfer(0), "{label}");
        let (faults, loads, _, _, patched) = section_cost(before, read_p);
        let pf = u64::from(protocol != ProtocolKind::JavaIc);
        assert_eq!((faults, loads, patched), (0, 1, 1), "{label}");
        assert_eq!(read_p.pending_misses - before.pending_misses, pf, "{label}");
    }
}

/// The shape that cost Jacobi a request entry per grant: a copy whose
/// patch the grant refused once (114 slots), and whose refetch brought
/// the same patch, is not named at the next grant from its home, though
/// that grant's patch would fit.  The second entry costs exactly the base,
/// and the read refetches: under page protection a miss the pending check
/// finds, not a fault.
#[test]
fn a_dropped_copy_refused_once_is_not_named_at_the_next_grant() {
    for (label, protocol, values, entry, [before, read_p, _]) in round_of(&[114, 1], 1) {
        assert_eq!(values, [1001, 8], "{label}");
        assert_eq!(entry, entry_base(), "{label}");
        let (faults, loads, _, _, patched) = section_cost(before, read_p);
        let pf = u64::from(protocol != ProtocolKind::JavaIc);
        assert_eq!((faults, loads, patched), (0, 1, 1), "{label}");
        assert_eq!(read_p.pending_misses - before.pending_misses, pf, "{label}");
    }
}

// ----- open stale copies --------------------------------------------------------
//
// A monitor's acquire drops the stale copies page protection detects
// without closing them: its node's open stale copies, past its exit.  The
// access path's check finds such a copy; a grant or fetch from its home
// patches it; a thread-level acquire or release closes them all first, and
// so does the access at which the checks paid cost as much as closing them.

/// A reader on node 2 caches a page homed on node 0; a writer on node 0
/// writes slot 7 under a monitor of node 1, whose grant therefore carries no
/// patch for the page; the reader then enters the monitor and, if `nested`,
/// a monitor of its own node inside it, writes slot 8 there if `write` and
/// reads slot 7.  Returns, per protocol, the value read and the reader
/// node's counters before the entry, after the (last) entry, after the
/// section's accesses and after the exits.
fn pending_section(
    nested: bool,
    write: bool,
) -> Vec<(String, ProtocolKind, u64, [StatsSnapshot; 4])> {
    let mut out = Vec::new();
    for (label, config) in configs(3) {
        let protocol = config.protocol;
        let rt = HyperionRuntime::new(config).unwrap();
        let cluster = Arc::clone(rt.cluster());
        let run = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let m = ctx.new_monitor(NodeId(1));
            let (seen_tx, seen) = channel();
            let wm = m.clone();
            let writer = ctx.spawn_on(NodeId(0), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wm.synchronized(t, |t| data.put(t, 7, 41));
            });
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                cache(t, &[data], PROTECTED);
                let inner = t.new_monitor(NodeId(2));
                t.charge(VTime::from_ms(5) - t.now());
                let stats = || cluster.node_stats(NodeId(2));
                let before = stats();
                m.enter(t);
                if nested {
                    inner.enter(t);
                }
                let entered = stats();
                if write {
                    data.put(t, 8, 43);
                }
                let seen = data.get(t, 7);
                let done = stats();
                if nested {
                    inner.exit(t);
                }
                m.exit(t);
                seen_tx
                    .send((seen, [before, entered, done, stats()]))
                    .unwrap();
            });
            ctx.join(writer);
            ctx.join(reader);
            let home = data.get(ctx, 8);
            let (seen, stats) = seen.recv().unwrap();
            (seen, stats, home)
        });
        let (seen, stats, home) = run.result;
        assert_eq!(
            home,
            if write { 43 } else { 0 },
            "{label}: the write is home"
        );
        out.push((label, protocol, seen, stats));
    }
    out
}

/// The reader's entry leaves its stale copy open under page protection
/// (`java_pf`, and `java_ad`'s page made dense), the section's read finds
/// it by the pending check and refetches it — no fault and no `mprotect`:
/// the copy was never closed — and sees the write; the exit has nothing to
/// settle.  A Check copy (`java_ic`) is closed by the entry.  Mutation on
/// record: the access path skipping its pending check
/// (`DsmSystem::ensure_access` never calls `drop_if_stale`) fails here.
#[test]
fn a_section_reads_a_page_its_acquire_left_pending_and_sees_the_write() {
    for (label, protocol, seen, [before, entered, read, exited]) in pending_section(false, false) {
        assert_eq!(seen, 41, "{label}");
        let protect = protocol != ProtocolKind::JavaIc;
        let (at_entry, at_read) = if protect { (0, 1) } else { (1, 0) };
        let cost = section_cost(before, entered);
        assert_eq!(cost.3, at_entry, "{label}: dropped at the entry");
        let cost = section_cost(entered, read);
        assert_eq!(
            (cost.0, cost.3),
            (0, at_read),
            "{label}: dropped at the read"
        );
        assert_eq!(cost.1, 1, "{label}: refetched");
        assert_eq!(cost.2, 0, "{label}: never closed, so nothing to open");
        let found = read.pending_misses - entered.pending_misses;
        assert_eq!(found, at_read, "{label}: the check found the miss");
        assert_eq!(exited.mprotect_calls_settled, 0, "{label}");
    }
}

/// [`a_section_reads_a_page_its_acquire_left_pending_and_sees_the_write`]
/// with the section writing the page first: the write drops the pending
/// copy, so the read sees the writer's slot, and the write reaches the home.
#[test]
fn a_section_writes_a_page_its_acquire_left_pending_and_sees_the_write() {
    for (label, protocol, seen, [_, entered, written, _]) in pending_section(false, true) {
        assert_eq!(seen, 41, "{label}");
        let at_write = u64::from(protocol != ProtocolKind::JavaIc);
        assert_eq!(section_cost(entered, written).3, at_write, "{label}");
    }
}

/// A second monitor entered inside the section leaves the first one's
/// copy open and stale: a monitor's acquire settles nothing, so the copy
/// is still there when the section starts, and the read's pending check
/// finds it — dropped at the read, no fault and no `mprotect`.
#[test]
fn a_second_monitor_entered_inside_the_section_settles_the_first_ones_drop() {
    for (label, protocol, seen, [before, entered, read, exited]) in pending_section(true, false) {
        assert_eq!(seen, 41, "{label}");
        let protect = u64::from(protocol != ProtocolKind::JavaIc);
        let (faults, loads, mprotects, dropped, _) = section_cost(before, entered);
        assert_eq!((faults, loads, mprotects), (0, 0, 0), "{label}");
        assert_eq!(
            dropped,
            1 - protect,
            "{label}: only a Check copy goes at the entry"
        );
        let (faults, _, mprotects, dropped, _) = section_cost(entered, read);
        assert_eq!((faults, mprotects, dropped), (0, 0, protect), "{label}");
        assert_eq!(exited.mprotect_calls_settled, 0, "{label}");
    }
}

/// Two threads of one node take turns inside one DSM (as the baton has
/// them): the first acquires a monitor grant whose notice outdates its
/// node's copy, the second reads that pending copy before anything
/// settles.  It drops the copy and reads the write, and the node's debug
/// oracle holds before and after; the exit's settle finds nothing left.
#[test]
fn a_second_thread_of_the_node_reads_a_pending_copy_after_dropping_it() {
    for protocol in ProtocolKind::all_extended() {
        let cluster = Cluster::new(myrinet_200().machine, 3);
        let alloc = Arc::new(IsoAllocator::new(3));
        let store = DsmStore::new(Arc::clone(&alloc), 3);
        let dsm = DsmSystem::new(Arc::clone(&cluster), store, protocol);
        let addr = alloc.alloc_page_aligned(SLOTS, NodeId(0));
        let (reader, mut first, mut second) = (NodeId(2), ThreadClock::new(), ThreadClock::new());
        let (mut home, mut cursor) = (ThreadClock::new(), 0);
        assert_eq!(dsm.get(reader, &mut first, addr), 0);
        dsm.put(NodeId(0), &mut home, addr, 41);
        let written = dsm.release(NodeId(0), &mut home, &mut cursor, None).1;
        dsm.acquire(reader, &mut first, &written, Some(NodeId(1)));
        dsm.assert_knowledge_held(reader, &written);
        assert_eq!(dsm.get(reader, &mut second, addr), 41, "{protocol}");
        dsm.assert_knowledge_held(reader, &written);
        // A thread-level release settles first: nothing is left open.
        dsm.release(reader, &mut first, &mut 0, None);
        dsm.assert_no_open_stale_copies(reader, "the settle");
        let s = cluster.node_stats(reader);
        assert_eq!(
            (s.pages_invalidated, s.mprotect_calls_settled),
            (1, 0),
            "{protocol}"
        );
    }
}

/// The oracle passes the copies an acquire named and nothing else: an open
/// stale copy is absent, so it needs no exemption, and a present stale copy
/// no acquire named is caught.
#[test]
#[cfg(debug_assertions)]
#[should_panic(expected = "stale copy kept")]
fn the_oracle_exempts_only_the_pending_copies() {
    let cluster = Cluster::new(myrinet_200().machine, 3);
    let alloc = Arc::new(IsoAllocator::new(3));
    let store = DsmStore::new(Arc::clone(&alloc), 3);
    let dsm = DsmSystem::new(cluster, store, ProtocolKind::JavaPf);
    let (pending, stale) = (
        alloc.alloc_page_aligned(SLOTS, NodeId(0)),
        alloc.alloc_page_aligned(SLOTS, NodeId(0)),
    );
    let (reader, mut clock, mut home, mut cursor) =
        (NodeId(2), ThreadClock::new(), ThreadClock::new(), 0);
    dsm.get(reader, &mut clock, pending);
    dsm.get(reader, &mut clock, stale);
    dsm.put(NodeId(0), &mut home, pending, 1);
    let first = dsm.release(NodeId(0), &mut home, &mut cursor, None).1;
    dsm.put(NodeId(0), &mut home, stale, 1);
    let mut both = dsm.release(NodeId(0), &mut home, &mut cursor, None).1;
    both.merge(&first);
    dsm.acquire(reader, &mut clock, &first, Some(NodeId(1)));
    dsm.assert_knowledge_held(reader, &first);
    dsm.assert_knowledge_held(reader, &both);
}

// ----- what a release carries -------------------------------------------------

/// A monitor and the page it guards, both on node 0.  A writer on node 1
/// writes the page under the monitor and holds it a millisecond; a reader
/// on node 2 cached the page first and arrives meanwhile.  The writer's diff
/// rides its exit to node 0, and the writer's end — which waits for the
/// ride — is the instant R the home applied it.  The reader, parked, is
/// granted when the home's grant reaches it, R plus one control message, and
/// reads the write.
#[test]
fn a_diff_that_rode_an_exit_is_seen_by_the_next_acquirer_on_a_third_node() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let (cluster, control) = (
            Arc::clone(rt.cluster()),
            rt.cluster().control_message_cost(),
        );
        let machine = myrinet_200().machine;
        let trip = control.times(2) + machine.cpu.cycles(machine.dsm.protocol_server_cycles);
        let out = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let m = ctx.new_monitor(NodeId(0));
            let (seen_tx, seen) = channel();
            let wm = m.clone();
            let writer = ctx.spawn_on(NodeId(1), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wm.synchronized(t, |t| {
                    data.put(t, 7, 41);
                    t.charge(VTime::from_ms(1));
                });
            });
            let reader = ctx.spawn_on(NodeId(2), move |t| {
                assert_eq!(data.get(t, 7), 0);
                t.charge(VTime::from_us(1_500) - t.now());
                let arrived = t.now() + trip;
                let value = m.synchronized(t, |t| data.get(t, 7));
                let waited = VTime::from_ps(cluster.node_stats(NodeId(2)).monitor_wait_ps);
                seen_tx.send((arrived + waited, value)).unwrap();
            });
            let reached = ctx.join(writer);
            ctx.join(reader);
            let (granted, value) = seen.recv().unwrap();
            (reached, granted, value)
        });
        let (reached, granted, value) = out.result;
        assert_eq!(value, 41, "{label}");
        assert_eq!(granted, reached + control, "{label}: granted at R + leg");
        assert!(out.report.total_stats().release_diffs > 0, "{label}");
    }
}

/// The diff rides a `wait` instead: the notifier, on a third node, enters
/// the monitor after the waiter's release and reads the write in its
/// section.
#[test]
fn a_diff_that_rode_a_wait_is_seen_inside_the_notifiers_section() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let m = ctx.new_monitor(NodeId(0));
            let (seen_tx, seen) = channel();
            let wm = m.clone();
            let waiter = ctx.spawn_on(NodeId(1), move |t| {
                t.charge(VTime::from_ms(1) - t.now());
                wm.enter(t);
                data.put(t, 3, 17);
                wm.wait_monitor(t);
                wm.exit(t);
            });
            let notifier = ctx.spawn_on(NodeId(2), move |t| {
                assert_eq!(data.get(t, 3), 0);
                t.charge(VTime::from_ms(5) - t.now());
                m.enter(t);
                seen_tx.send(data.get(t, 3)).unwrap();
                m.notify_all(t);
                m.exit(t);
            });
            ctx.join(waiter);
            ctx.join(notifier);
            seen.recv().unwrap()
        });
        assert_eq!(out.result, 17, "{label}");
        assert!(out.report.total_stats().release_diffs > 0, "{label}");
    }
}

/// A thread on node 1 writes a page of node 0 under a monitor of node 0 and
/// ends: its diff rode the exit.  Its joiner, on the same node, sees the
/// write and leaves the join no earlier than R, when the release reached the
/// home with it.
#[test]
fn a_join_on_the_releasers_node_waits_for_what_rode_the_release() {
    for (label, config) in configs(3) {
        let rt = HyperionRuntime::new(config).unwrap();
        let out = rt.run(move |ctx| {
            let data = ctx.alloc_array_page_aligned::<u64>(SLOTS, NodeId(0));
            let m = ctx.new_monitor(NodeId(0));
            let (seen_tx, seen) = channel();
            let joiner = ctx.spawn_on(NodeId(1), move |t| {
                let wm = m.clone();
                let releaser = t.spawn_on(NodeId(1), move |t| {
                    t.charge(VTime::from_ms(1) - t.now());
                    wm.synchronized(t, |t| data.put(t, 5, 23));
                });
                t.join(releaser);
                let seen = (t.now(), m.last_release(), data.get(t, 5));
                seen_tx.send(seen).unwrap();
            });
            ctx.join(joiner);
            seen.recv().unwrap()
        });
        let (joined, reached, value) = out.result;
        assert_eq!(value, 23, "{label}");
        assert!(
            joined >= reached,
            "{label}: joined at {joined}, R is {reached}"
        );
        assert!(out.report.total_stats().release_diffs > 0, "{label}");
    }
}

/// A write on its home and the first ship of the page, in either order
/// (`dsm/src/page.rs` docs, "Home writes"): written first, the shipped copy
/// holds the write; shipped first, the home's release names the page at a
/// stamp above the copy's.
#[test]
fn a_home_write_racing_the_first_ship_is_shipped_or_noticed() {
    for write_first in [true, false] {
        let cluster = Cluster::new(myrinet_200().machine, 2);
        let alloc = Arc::new(IsoAllocator::new(2));
        let store = DsmStore::new(Arc::clone(&alloc), 2);
        let dsm = DsmSystem::new(cluster, store, ProtocolKind::JavaPf);
        let addr = alloc.alloc_page_aligned(SLOTS, NodeId(0));
        let (mut home, mut reader, mut cursor) = (ThreadClock::new(), ThreadClock::new(), 0);
        let mut ship = || dsm.get(NodeId(1), &mut reader, addr);
        let copy = if write_first { None } else { Some(ship()) };
        dsm.put(NodeId(0), &mut home, addr, 1);
        let written = dsm.release(NodeId(0), &mut home, &mut cursor, None).1;
        let copy = copy.unwrap_or_else(ship);
        let version = dsm.store().frame(NodeId(1), addr.page()).version();
        let noticed = written.iter().any(|(p, s)| p == addr.page() && s > version);
        let expected = if write_first { (1, false) } else { (0, true) };
        assert_eq!((copy, noticed), expected, "write first: {write_first}");
    }
}
