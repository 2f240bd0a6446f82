//! The modeled-result gates of the bench report and its extension figure 9
//! (serving workloads), checked on the 14 quick rows of the bench report:
//! seven apps under `java_ic` and `java_pf` on 4 Myrinet nodes.  The root
//! package's baseline pin (`tests/integration_suite.rs`,
//! `pins::report_rows_are_byte_for_byte_the_committed_baseline`) asserts
//! them before it compares the rows with `bench/baseline.json`, so a
//! regenerated baseline cannot hide a violation.  A run repeats exactly, so
//! each gate holds on one run.
//!
//! * **Every row**: the stride prefetch's waste (tickets still pending at
//!   an invalidation) stays within 1/8 of what it issued — floor of 16, so
//!   a row that hardly prefetches cannot fail on one unlucky ticket — and
//!   completions plus waste never exceed what was issued.
//! * **Every app**: one answer under both protocols.
//! * **Jacobi and ASP**: the `java_pf` prefetches issued after each acquire
//!   hide some latency.
//! * **The serving rows (figure 9)**: every row records serving ops and a
//!   p99, and some fetch was answered with a patch (one write changes a
//!   slot or a few of a page its readers retain).  On the KV rows acquires
//!   keep cached pages open, no home keeps requests queued for more than
//!   5 % of the modeled time (the homes are a few per cent busy there, so
//!   more means the service clock serves in host order again).

use crate::FigureRow;
use hyperion::prelude::*;
use hyperion_apps::common::BenchmarkName;

/// Largest share of the modeled time any home may keep requests queued on
/// the KV rows.
const KV_QUEUE_WAIT_BOUND: f64 = 0.05;

/// Every gate `rows` (app by app, each under `java_ic` then `java_pf`)
/// violate, one line each.
pub fn violations(rows: &[FigureRow]) -> Vec<String> {
    let expected = BenchmarkName::all_extended()
        .into_iter()
        .flat_map(|app| ProtocolKind::all().map(|protocol| (app, protocol)));
    if !rows.iter().map(|r| (r.app, r.protocol)).eq(expected) {
        return vec!["the gates need every app under java_ic, then java_pf".into()];
    }
    let mut found = Vec::new();
    // `gate!(holds, "what a violation says", ..)`.
    macro_rules! gate {
        ($holds:expr, $($violation:tt)+) => {
            let holds: bool = $holds;
            if !holds {
                found.push(format!($($violation)+));
            }
        };
    }
    for row in rows {
        let label = format!("{} {}", row.app, row.protocol_label());
        let s = &row.stats;
        let (issued, wasted) = (s.stride_fetches_issued, s.stride_fetches_wasted);
        let completed = s.stride_fetches_completed;
        gate!(
            wasted * 8 <= issued.max(16),
            "{label}: stride waste {wasted} exceeds 1/8 of {issued} issued"
        );
        gate!(
            completed + wasted <= issued,
            "{label}: {completed} completed + {wasted} wasted of {issued} issued"
        );
        if !BenchmarkName::serving().contains(&row.app) {
            continue;
        }
        gate!(s.serving_ops > 0, "{label}: no serving ops recorded");
        gate!(row.serving_p99_us > 0.0, "{label}: no p99 recorded");
        gate!(
            s.pages_patched > 0,
            "{label}: {} page loads and not one answered with a patch",
            s.page_loads
        );
        if row.app == BenchmarkName::KvStore {
            gate!(
                s.pages_kept > 0,
                "{label}: {} acquires and not one cached page kept open",
                s.cache_invalidations
            );
            gate!(
                row.peak_home_queue_wait <= KV_QUEUE_WAIT_BOUND,
                "{label}: requests waited {:.2} % of the modeled time at a home that was {:.2} % \
                 busy (bound {:.0} %)",
                row.peak_home_queue_wait * 100.0,
                row.peak_home_util * 100.0,
                KV_QUEUE_WAIT_BOUND * 100.0,
            );
        }
    }
    for pair in rows.chunks_exact(2) {
        let [ic, pf] = pair else {
            unreachable!("chunks of two")
        };
        let app = ic.app;
        gate!(
            ic.same_digest(pf),
            "{app}: protocol digests diverge (ic {}, pf {})",
            ic.digest,
            pf.digest
        );
        if matches!(app, BenchmarkName::Jacobi | BenchmarkName::Asp) {
            gate!(
                pf.stats.fetch_overlap_cycles_hidden > 0,
                "{app}: the prefetches after each acquire hid no latency"
            );
        }
    }
    found
}
