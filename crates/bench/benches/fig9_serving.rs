//! Figure 9 (extension): the serving-workload family — the Zipf-skewed
//! sharded KV store and the PageRank kernel — under all three protocols.
//!
//! A verification pass over the modeled results (host time is
//! `benchmark/`'s business); a violation panics, so `cargo bench` is a
//! gate:
//!
//! * **Digests**: each app must compute the same answer under `java_ic`,
//!   `java_pf` and `java_ad` (the serving apps are as
//!   protocol-independent as the paper's five).
//! * **KV throughput**: `java_ad` must serve at least as many operations
//!   per virtual second as the *worse* of the two fixed protocols — the
//!   adaptive protocol may split the difference, but it must not lose to
//!   both.  One strict round.
//! * **Prefetch economics**: under `TransportConfig::directory()` the
//!   Zipf-skewed KV traffic is the adversarial input for a stride
//!   prefetcher (hot keys recur, but in no stable order), and the waste
//!   bound of figure 8 — stride fetches invalidated untouched within 1/8
//!   of those issued — must hold here too.
//! * **Home queue wait**: on the 4-node KV rows no home may keep requests
//!   waiting for more than 5 % of the modeled time.  The homes are a few
//!   per cent busy there, so a larger share means requests queue behind
//!   bookings that lie in their virtual future — the service clock is
//!   serving in host order again.  The table (with each row's busiest-home
//!   utilisation) also goes to the CI step summary.
//! * **Validation riders**: on each of the three 4-node KV rows pages must
//!   have been opened on a rider's confirmation (`rider_opens > 0`) — the
//!   hot pages of a Zipf store are exactly what an acquire drops and the
//!   next few reads touch again.  Riders sent / opened ride in the same
//!   table; so do the fetches answered with a patch — on every serving
//!   row, PageRank's included, some must have been (`pages_patched > 0`:
//!   one write changes a slot or a few of a page its readers retain) — and
//!   the time the clients' monitor acquisitions were moved forward to a
//!   previous holder's release (`monitor_wait_ps`); no acquire may have
//!   left the virtual-time order (`order_escapes == 0`).
//! * **PageRank page loads**: the adaptive protocol's page loads on the
//!   irregular graph traffic must stay within 25% of the `java_pf`
//!   reference — switching detection modes must not thrash the cache.

use hyperion::prelude::*;
use hyperion_apps::common::{protocols_under_test, BenchmarkName};
use hyperion_bench::report::append_step_summary;
use hyperion_bench::{serving_directory_point, FigureRow, Point, Scale, ADAPTIVE_NODES};

/// Largest share of the modeled time any home may keep requests queued on
/// the KV rows.
const KV_QUEUE_WAIT_BOUND: f64 = 0.05;

/// One quick-scale row per protocol, in `protocols_under_test()` order
/// (`java_ic`, `java_pf`, `java_ad`).
fn protocol_rows(app: BenchmarkName) -> Vec<FigureRow> {
    protocols_under_test()
        .into_iter()
        .map(|protocol| Point::new(app, Scale::Quick, protocol).run())
        .collect()
}

fn assert_same_digest(a: &FigureRow, b: &FigureRow) {
    assert!(
        a.same_digest(b),
        "{}: digest diverged between {} and {} ({} vs {})",
        a.app,
        a.protocol_label(),
        b.protocol_label(),
        a.digest,
        b.digest
    );
}

fn main() {
    println!();
    println!(
        "== fig9 verification: serving workloads (Zipf KV store, PageRank), quick scale, \
         {ADAPTIVE_NODES} nodes =="
    );
    let mut home_load = format!(
        "## fig9: home load on the {ADAPTIVE_NODES}-node KV rows\n\n\
         | protocol | exec (s) | busiest home busy | peak home queue wait (bound {:.0} %) \
         | riders sent | opened without an RPC | page loads | of them patched \
         | monitor wait (ms, all clients) |\n\
         |---|---|---|---|---|---|---|---|---|\n",
        KV_QUEUE_WAIT_BOUND * 100.0
    );
    for app in BenchmarkName::serving() {
        let rows = protocol_rows(app);
        let (ic, pf, ad) = (&rows[0], &rows[1], &rows[2]);
        for row in &rows {
            println!(
                "{:<10} {:<8} {:.4}s  {:>8} ops  {:>10.0} ops/s  p99 {:>8.1} us  {:>6} loads",
                row.app.to_string(),
                row.protocol_label(),
                row.seconds,
                row.stats.serving_ops,
                row.serving_ops_per_s(),
                row.serving_p99_us,
                row.stats.page_loads,
            );
            assert!(row.stats.serving_ops > 0, "{app}: no serving ops recorded");
            assert!(row.serving_p99_us > 0.0, "{app}: no p99 recorded");
            assert!(
                row.stats.pages_patched > 0,
                "{app} {}: {} page loads and not one answered with a patch",
                row.protocol_label(),
                row.stats.page_loads,
            );
            if app == BenchmarkName::KvStore {
                home_load.push_str(&format!(
                    "| {} | {:.4} | {:.2} % | {:.2} % | {} | {} | {} | {} | {:.3} |\n",
                    row.protocol_label(),
                    row.seconds,
                    row.peak_home_util * 100.0,
                    row.peak_home_queue_wait * 100.0,
                    row.stats.validation_riders,
                    row.stats.rider_opens,
                    row.stats.page_loads,
                    row.stats.pages_patched,
                    row.stats.monitor_wait_ps as f64 / 1e9,
                ));
                assert_eq!(
                    row.stats.order_escapes,
                    0,
                    "KVStore {}: an acquire left the virtual-time order",
                    row.protocol_label()
                );
                assert!(
                    row.stats.rider_opens > 0,
                    "KVStore {}: {} validation riders sent, none ever opened a page",
                    row.protocol_label(),
                    row.stats.validation_riders,
                );
                assert!(
                    row.peak_home_queue_wait <= KV_QUEUE_WAIT_BOUND,
                    "KVStore {}: requests waited {:.2} % of the modeled time at a home that \
                     was {:.2} % busy (bound {:.0} %)",
                    row.protocol_label(),
                    row.peak_home_queue_wait * 100.0,
                    row.peak_home_util * 100.0,
                    KV_QUEUE_WAIT_BOUND * 100.0,
                );
            }
        }
        assert_same_digest(ic, pf);
        assert_same_digest(ic, ad);

        match app {
            BenchmarkName::KvStore => {
                // Throughput: java_ad must not lose to *both* fixed
                // protocols.  One strict round: the aggregate of four fresh
                // rounds that used to absorb barrier-order jitter never ran
                // in 20 of 20 runs on the virtual-time monitor order.
                let worse = ic.serving_ops_per_s().min(pf.serving_ops_per_s());
                assert!(
                    ad.serving_ops_per_s() >= worse,
                    "KVStore: java_ad throughput {:.0} ops/s fell below the worse fixed \
                     protocol's {worse:.0} ops/s",
                    ad.serving_ops_per_s()
                );
            }
            BenchmarkName::PageRank => {
                // Irregular traffic must not make the adaptive protocol
                // thrash: its page loads stay within 25% of the java_pf
                // reference (plus a small absolute slack for tiny sweeps).
                let bound = pf.stats.page_loads + pf.stats.page_loads / 4 + 16;
                assert!(
                    ad.stats.page_loads <= bound,
                    "PageRank: java_ad loaded {} pages, above the bound {} derived from \
                     java_pf's {}",
                    ad.stats.page_loads,
                    bound,
                    pf.stats.page_loads
                );
            }
            other => panic!("unexpected serving app {other}"),
        }
    }

    // Prefetch economics under Zipf traffic: the KV store under
    // `directory()` must hold figure 8's waste bound (stride fetches wasted
    // within 1/8 of those issued, floor of 16 so a run that hardly
    // prefetches cannot fail on a single unlucky one).
    let dir = serving_directory_point(BenchmarkName::KvStore, Scale::Quick);
    let plain = Point::new(BenchmarkName::KvStore, Scale::Quick, ProtocolKind::JavaPf).run();
    assert_same_digest(&plain, &dir);
    let (issued, wasted) = (
        dir.stats.stride_fetches_issued,
        dir.stats.stride_fetches_wasted,
    );
    assert!(
        wasted * 8 <= issued.max(16),
        "KVStore under directory(): stride waste {wasted} exceeds 1/8 of {issued} issued"
    );
    println!("  KVStore+dir stride waste: {wasted}/{issued} issued (bound: 1/8)");
    println!();
    println!("{home_load}");
    append_step_summary(&home_load);
}
