//! Per-layer probes: host time of single public calls into each layer.
//!
//! Every probe builds its runtime, cluster or DSM fixture *outside* the
//! timed region, loops at least 10⁵ calls per batch (10³ for calls that cost
//! microseconds) and reports the median of [`BATCHES`] batches.  All of them
//! run pinned to one CPU, like the workloads.

use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

use hyperion::prelude::*;
use hyperion_dsm::diff::{decode_diff, encode_diff, DiffEntry};
use hyperion_dsm::{DsmStore, DsmSystem};
use hyperion_model::{NodeStats, ServerClock, ThreadClock};
use hyperion_pm2::socket::{decode_frame, encode_frame, FrameHeader, FrameKind};
use hyperion_pm2::{
    Cluster, GlobalAddr, IsoAllocator, Node, PageId, RpcReply, ServiceId, PAGE_BYTES,
    SLOTS_PER_PAGE,
};

use crate::trace::Tracer;

/// Batches per probe; the probe's value is their median.
const BATCHES: usize = 5;

/// Median of a non-empty sample.
pub fn median(values: &mut [f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    values.sort_by(|a, b| a.partial_cmp(b).expect("measurements are finite"));
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

/// Nanoseconds per call of `call`, timing each batch of `calls` as a whole.
fn ns_per_call(calls: u64, mut call: impl FnMut(u64)) -> f64 {
    let mut batches = [0.0f64; BATCHES];
    for batch in batches.iter_mut() {
        let start = Instant::now();
        for i in 0..calls {
            call(i);
        }
        *batch = start.elapsed().as_nanos() as f64 / calls as f64;
    }
    median(&mut batches)
}

/// Nanoseconds per `timed` call when every call needs an untimed `prepare`
/// first; only the `timed` closures are on the clock.
fn ns_per_prepared_call(calls: u64, mut prepare: impl FnMut(u64), mut timed: impl FnMut()) -> f64 {
    let mut batches = [0.0f64; BATCHES];
    for batch in batches.iter_mut() {
        let mut total = Duration::ZERO;
        for i in 0..calls {
            prepare(i);
            let start = Instant::now();
            timed();
            total += start.elapsed();
        }
        *batch = total.as_nanos() as f64 / calls as f64;
    }
    median(&mut batches)
}

/// A bare DSM system over a two-node Sim cluster, as `dsm`'s own tests build
/// it: node 0 is the requester, node 1 the home of everything allocated.
struct DsmFixture {
    alloc: Arc<IsoAllocator>,
    dsm: Arc<DsmSystem>,
    clock: ThreadClock,
}

const REQUESTER: NodeId = NodeId(0);
const HOME: NodeId = NodeId(1);

impl DsmFixture {
    fn new(kind: ProtocolKind) -> DsmFixture {
        let cluster = Cluster::new(myrinet_200().machine, 2);
        let alloc = Arc::new(IsoAllocator::new(2));
        let store = DsmStore::new(Arc::clone(&alloc), 2);
        DsmFixture {
            dsm: DsmSystem::new(cluster, store, kind),
            alloc,
            clock: ThreadClock::new(),
        }
    }

    /// `pages` fresh pages homed on node 1; returns the first slot of each.
    fn remote_pages(&self, pages: usize) -> Vec<GlobalAddr> {
        (0..pages)
            .map(|_| self.alloc.alloc_page_aligned(SLOTS_PER_PAGE, HOME))
            .collect()
    }

    fn get(&mut self, addr: GlobalAddr) -> u64 {
        self.dsm.get(REQUESTER, &mut self.clock, addr)
    }

    fn put(&mut self, addr: GlobalAddr, value: u64) {
        self.dsm.put(REQUESTER, &mut self.clock, addr, value)
    }
}

/// Collects probe results; each probe runs inside a span of its own.
struct Recorder<'t> {
    out: Vec<(&'static str, f64)>,
    tracer: &'t mut Tracer,
}

impl Recorder<'_> {
    fn probe(&mut self, name: &'static str, measure: impl FnOnce() -> f64) {
        let value = self.tracer.span(name, |tracer| {
            let value = measure();
            tracer.count("value", value);
            value
        });
        self.out.push((name, value));
    }
}

fn model_probes(rec: &mut Recorder) {
    let step = VTime::from_ns(5);
    rec.probe("model.clock_advance_ns", || {
        let mut clock = ThreadClock::new();
        ns_per_call(1_000_000, |i| {
            clock.advance(step);
            clock.merge(VTime::from_ns(i));
            black_box(&mut clock);
        })
    });
    rec.probe("model.server_clock_serve_ns", || {
        let server = ServerClock::new();
        ns_per_call(1_000_000, |i| {
            black_box(server.serve(VTime::from_ns(i), step));
        })
    });
    rec.probe("model.stats_bump_ns", || {
        let stats = NodeStats::default();
        ns_per_call(1_000_000, |_| {
            NodeStats::bump(black_box(&stats.field_reads))
        })
    });
    rec.probe("model.estimate_ns", || {
        let cpu = myrinet_200().machine.cpu;
        let mix = OpCounts::new()
            .with(Op::FpAdd, 3.0)
            .with(Op::Load, 4.0)
            .with(Op::Store, 1.0)
            .with(Op::IntAlu, 9.0)
            .with(Op::Branch, 6.0);
        ns_per_call(1_000_000, |_| {
            black_box(cpu.estimate(black_box(&mix)));
        })
    });
}

/// A two-node cluster over `backend` with an echo service registered.
fn echo_cluster(backend: TransportBackend) -> (Arc<Cluster>, ServiceId) {
    let cluster = Cluster::for_backend(myrinet_200().machine, 2, backend);
    let echo = cluster.register_service(Arc::new(|_: &Node, _: NodeId, payload: &[u8]| {
        RpcReply::with_data(payload.to_vec(), VTime::ZERO)
    }));
    (cluster, echo)
}

/// Nanoseconds per echo round trip of `bytes` bytes from node 0 to node 1.
fn echo_ns(cluster: &Cluster, echo: ServiceId, bytes: usize, calls: u64) -> f64 {
    let payload = vec![0xA5u8; bytes];
    let mut clock = ThreadClock::new();
    let mut round_trip = || {
        let reply = cluster
            .rpc(&mut clock, REQUESTER, HOME, echo, &payload)
            .expect("echo RPC failed");
        assert_eq!(reply.len(), bytes, "echo reply has the wrong length");
    };
    // The first round trip dials the connection; keep it off the clock.
    round_trip();
    ns_per_call(calls, |_| round_trip())
}

fn pm2_probes(rec: &mut Recorder) {
    rec.probe("pm2.sim_rpc_ns", || {
        let (sim, echo) = echo_cluster(TransportBackend::Sim);
        echo_ns(&sim, echo, PAGE_BYTES, 100_000)
    });
    let (unix, echo) = echo_cluster(TransportBackend::UnixSocket);
    rec.probe("pm2.unix_rpc_us", || {
        echo_ns(&unix, echo, PAGE_BYTES, 5_000) / 1e3
    });
    rec.probe("pm2.unix_rpc_small_us", || {
        echo_ns(&unix, echo, 64, 5_000) / 1e3
    });
    drop(unix);

    rec.probe("pm2.frame_codec_ns", || {
        let header = FrameHeader {
            kind: FrameKind::Request,
            service: 1,
            from: 0,
            to: 1,
            aux: 0,
        };
        let payload = vec![0x5Au8; PAGE_BYTES];
        ns_per_call(100_000, |_| {
            let frame = encode_frame(header, black_box(&payload));
            let (decoded, body) = decode_frame(&frame[4..]).expect("frame must decode");
            black_box((decoded, body.len()));
        })
    });
    // Bind both per-node servers, dial one connection, tear everything down.
    rec.probe("pm2.socket_setup_ms", || {
        ns_per_call(20, |_| {
            let (cluster, echo) = echo_cluster(TransportBackend::UnixSocket);
            let mut clock = ThreadClock::new();
            cluster
                .rpc(&mut clock, REQUESTER, HOME, echo, &[1])
                .expect("echo RPC failed");
        }) / 1e6
    });
    rec.probe("pm2.iso_alloc_ns", || {
        let mut allocator = IsoAllocator::new(2);
        ns_per_call(100_000, |i| {
            // A fresh allocator per batch keeps the page table the same size
            // in every batch.
            if i == 0 {
                allocator = IsoAllocator::new(2);
            }
            black_box(allocator.alloc(24, HOME));
        })
    });
}

fn dsm_probes(rec: &mut Recorder) {
    for (kind, get_name, put_name) in [
        (
            ProtocolKind::JavaIc,
            "dsm.get_hit_ns.ic",
            "dsm.put_hit_ns.ic",
        ),
        (
            ProtocolKind::JavaPf,
            "dsm.get_hit_ns.pf",
            "dsm.put_hit_ns.pf",
        ),
    ] {
        let mut f = DsmFixture::new(kind);
        let base = f.remote_pages(1)[0];
        f.get(base);
        rec.probe(get_name, || {
            ns_per_call(1_000_000, |i| {
                black_box(f.get(base.offset(i % SLOTS_PER_PAGE as u64)));
            })
        });
        rec.probe(put_name, || {
            ns_per_call(1_000_000, |i| {
                f.put(base.offset(i % SLOTS_PER_PAGE as u64), i)
            })
        });
    }

    // Every get touches a page node 0 has never seen: frame creation, fault,
    // fetch RPC over Sim, install.
    rec.probe("dsm.fetch_miss_us", || {
        let mut f = DsmFixture::new(ProtocolKind::JavaPf);
        let mut batches = [0.0f64; BATCHES];
        for batch in batches.iter_mut() {
            let pages = f.remote_pages(1_000);
            let start = Instant::now();
            for addr in &pages {
                black_box(f.get(*addr));
            }
            *batch = start.elapsed().as_nanos() as f64 / pages.len() as f64 / 1e3;
        }
        median(&mut batches)
    });

    // `invalidateCache` with one page present among `frames` materialised
    // frames: the cost that grows with the address space, not with the
    // working set.
    for (frames, name) in [
        (16, "dsm.invalidate_us.f16"),
        (4_096, "dsm.invalidate_us.f4096"),
    ] {
        rec.probe(name, || {
            let mut f = DsmFixture::new(ProtocolKind::JavaPf);
            // A node's frame table reaches up to the highest page it has
            // touched, so touching page number `frames - 1` materialises
            // exactly `frames` frames.
            let pages = f.remote_pages(frames);
            let top = pages
                .iter()
                .find(|addr| addr.page().index() == frames - 1)
                .expect("page ids are dense");
            f.get(*top);
            assert_eq!(f.dsm.store().frames_on(REQUESTER), frames);
            let dsm = Arc::clone(&f.dsm);
            let mut walk_clock = ThreadClock::new();
            ns_per_prepared_call(
                1_000,
                |_| {
                    f.get(pages[0]);
                },
                || dsm.invalidate_cache(REQUESTER, &mut walk_clock),
            ) / 1e3
        });
    }

    // `updateMainMemory` with `dirty` dirty pages, 8 modified slots each,
    // among 16 materialised frames: collect, encode, diff RPC, apply.
    for (dirty, name) in [(1usize, "dsm.flush_us.d1"), (8, "dsm.flush_us.d8")] {
        rec.probe(name, || {
            let mut f = DsmFixture::new(ProtocolKind::JavaPf);
            let pages = f.remote_pages(16);
            let dsm = Arc::clone(&f.dsm);
            let mut flush_clock = ThreadClock::new();
            ns_per_prepared_call(
                1_000,
                |i| {
                    for page in &pages[..dirty] {
                        for slot in 0..8 {
                            f.put(page.offset(slot * 8), i);
                        }
                    }
                },
                || dsm.update_main_memory(REQUESTER, &mut flush_clock),
            ) / 1e3
        });
    }

    let entries: Vec<DiffEntry> = (0..64u16).map(|s| (s * 8, u64::from(s) << 32)).collect();
    rec.probe("dsm.diff_encode_ns", || {
        ns_per_call(1_000_000, |_| {
            black_box(encode_diff(PageId(7), black_box(&entries)));
        })
    });
    rec.probe("dsm.diff_decode_ns", || {
        let encoded = encode_diff(PageId(7), &entries);
        ns_per_call(1_000_000, |_| {
            black_box(decode_diff(black_box(&encoded)));
        })
    });

    rec.probe("dsm.read_slice_ns_per_slot", || {
        let mut f = DsmFixture::new(ProtocolKind::JavaPf);
        let base = f.remote_pages(1)[0];
        f.get(base);
        let mut slots = vec![0u64; SLOTS_PER_PAGE];
        ns_per_call(100_000, |_| {
            f.dsm.read_slice(REQUESTER, &mut f.clock, base, &mut slots);
            black_box(&mut slots);
        }) / SLOTS_PER_PAGE as f64
    });
}

fn hyperion_probes(rec: &mut Recorder) {
    let config = || HyperionConfig::new(myrinet_200(), 4, ProtocolKind::JavaPf);
    rec.probe("hyperion.runtime_new_us", || {
        ns_per_call(1_000, |_| {
            black_box(HyperionRuntime::new(config()).expect("valid configuration"));
        }) / 1e3
    });

    // Everything that needs a `ThreadCtx` is timed inside one run of a
    // runtime built here, outside every timed loop.
    let runtime = HyperionRuntime::new(config()).expect("valid configuration");
    runtime.run(|ctx| {
        let len = 4 * SLOTS_PER_PAGE;
        let array = ctx.alloc_array::<f64>(len, NodeId(0));
        rec.probe("hyperion.array_put_ns", || {
            ns_per_call(1_000_000, |i| array.put(ctx, i as usize % len, i as f64))
        });
        rec.probe("hyperion.array_get_ns", || {
            ns_per_call(1_000_000, |i| {
                black_box(array.get(ctx, i as usize % len));
            })
        });
        let view = array.view(ctx, ..);
        rec.probe("hyperion.view_get_ns", || {
            ns_per_call(1_000_000, |i| {
                black_box(view.get(i as usize % len));
            })
        });

        let local = ctx.new_monitor(NodeId(0));
        rec.probe("hyperion.monitor_local_ns", || {
            ns_per_call(100_000, |_| local.synchronized(ctx, |_| ()))
        });
        let remote = ctx.new_monitor(NodeId(1));
        rec.probe("hyperion.monitor_remote_us", || {
            ns_per_call(100_000, |_| remote.synchronized(ctx, |_| ())) / 1e3
        });
        rec.probe("hyperion.spawn_join_us", || {
            ns_per_call(1_000, |_| {
                let handle = ctx.spawn_on(NodeId(1), |_| ());
                ctx.join(handle);
            }) / 1e3
        });
    });
}

/// Run every probe; returns `(metric name, value)` in a fixed order.
pub fn run_all(tracer: &mut Tracer) -> Vec<(&'static str, f64)> {
    let mut rec = Recorder {
        out: Vec::new(),
        tracer,
    };
    model_probes(&mut rec);
    pm2_probes(&mut rec);
    dsm_probes(&mut rec);
    hyperion_probes(&mut rec);
    rec.out
}
