//! The modeled-result gates of the extension figures 6 (adaptive protocol)
//! and 9 (serving workloads), checked on the 21 quick rows the baseline
//! test computes (`report_rows_are_byte_for_byte_the_committed_baseline`):
//! seven apps under `java_ic`, `java_pf` and `java_ad` on 4 Myrinet nodes.
//! That test asserts them before it compares the rows with
//! `bench/baseline.json`, so a regenerated baseline cannot hide a violation.
//! A run repeats exactly, so each gate holds on one run.
//!
//! * **Every row**: the stride prefetch's waste (tickets still pending at
//!   an invalidation) stays within 1/8 of what it issued — floor of 16, so
//!   a row that hardly prefetches cannot fail on one unlucky ticket — and
//!   completions plus waste never exceed what was issued.
//! * **Every app**: one answer under all three protocols.
//! * **The paper's five (figure 6)**: `java_ad` loads no more pages that no
//!   write notice forced ([`FigureRow::unforced_loads`]) than the worse of
//!   `java_ic` / `java_pf`; on Jacobi and ASP the `java_pf` prefetches
//!   issued after each acquire hide some latency.
//! * **The serving rows (figure 9)**: every row records serving ops and a
//!   p99, and some fetch was answered with a patch (one write changes a
//!   slot or a few of a page its readers retain).  On the KV rows acquires
//!   keep cached pages open, no home keeps requests queued for more than
//!   5 % of the modeled time (the homes are a few per cent busy there, so
//!   more means the service clock serves in host order again), and
//!   `java_ad` serves at least as many ops per virtual second as the worse
//!   fixed protocol.  PageRank's `java_ad` page loads stay within 25 % of
//!   `java_pf`'s (plus 16): switching detection modes must not thrash.

use crate::FigureRow;
use hyperion::prelude::*;
use hyperion_apps::common::BenchmarkName;

/// Largest share of the modeled time any home may keep requests queued on
/// the KV rows.
const KV_QUEUE_WAIT_BOUND: f64 = 0.05;

/// Every gate `rows` (app by app, each under `java_ic`, `java_pf`,
/// `java_ad` in that order) violate, one line each.
pub(crate) fn violations(rows: &[FigureRow]) -> Vec<String> {
    let expected = BenchmarkName::all_extended()
        .into_iter()
        .flat_map(|app| ProtocolKind::all_extended().map(|protocol| (app, protocol)));
    if !rows.iter().map(|r| (r.app, r.protocol)).eq(expected) {
        return vec!["the gates need every app under java_ic, java_pf, java_ad in turn".into()];
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
    for triple in rows.chunks_exact(3) {
        let [ic, pf, ad] = triple else {
            unreachable!("chunks of three")
        };
        let app = ic.app;
        gate!(
            ic.same_digest(pf) && ic.same_digest(ad),
            "{app}: protocol digests diverge (ic {}, pf {}, ad {})",
            ic.digest,
            pf.digest,
            ad.digest
        );
        match app {
            BenchmarkName::KvStore => {
                let ad_ops = ad.serving_ops_per_s();
                let worse = ic.serving_ops_per_s().min(pf.serving_ops_per_s());
                gate!(
                    ad_ops >= worse,
                    "KVStore: java_ad throughput {ad_ops:.0} ops/s fell below the worse fixed \
                     protocol's {worse:.0} ops/s"
                );
            }
            BenchmarkName::PageRank => {
                let (ad_loads, pf_loads) = (ad.stats.page_loads, pf.stats.page_loads);
                let bound = pf_loads + pf_loads / 4 + 16;
                gate!(
                    ad_loads <= bound,
                    "PageRank: java_ad loaded {ad_loads} pages, above the bound {bound} derived \
                     from java_pf's {pf_loads}"
                );
            }
            _ => {
                let ad_loads = ad.unforced_loads();
                let worst = ic.unforced_loads().max(pf.unforced_loads());
                gate!(
                    ad_loads <= worst,
                    "{app}: java_ad unforced page loads exceed the worse of ic/pf ({ad_loads} > \
                     {worst})"
                );
                if matches!(app, BenchmarkName::Jacobi | BenchmarkName::Asp) {
                    gate!(
                        pf.stats.fetch_overlap_cycles_hidden > 0,
                        "{app}: the prefetches after each acquire hid no latency"
                    );
                }
            }
        }
    }
    found
}
