//! Ablation sweeps for the design trade-off the paper analyses in §3.3:
//! "choosing between one technique or the other involves a tradeoff which
//! needs to take into account [...] the ratio between the number of local
//! accesses to the number of remote accesses and the relative cost of page
//! faults against inline-checks."
//!
//! Three knobs are swept on the Jacobi workload:
//!
//! * the in-line check cost (`locality_check_cycles`),
//! * the page-fault cost (`page_fault`),
//! * the number of application threads per node (the overlap experiment the
//!   paper lists as future work in §4.3).
//!
//! The output is the virtual execution time, printed once per
//! configuration (`cargo bench -p hyperion-bench --bench ablation`).

use hyperion::prelude::*;
use hyperion_apps::jacobi::{self, JacobiParams};

fn run_with(cluster: ClusterSpec, protocol: ProtocolKind, threads_per_node: usize) -> f64 {
    let config = HyperionConfig::builder()
        .cluster(cluster)
        .nodes(2)
        .protocol(protocol)
        .threads_per_node(threads_per_node)
        .build()
        .expect("valid ablation configuration");
    let params = JacobiParams { size: 64, steps: 4 };
    jacobi::run(config, &params).report.seconds()
}

fn main() {
    for cycles in [1.0f64, 6.0, 12.0] {
        let mut cluster = myrinet_200();
        cluster.machine.cpu.locality_check_cycles = cycles;
        let virtual_ic = run_with(cluster.clone(), ProtocolKind::JavaIc, 1);
        let virtual_pf = run_with(cluster, ProtocolKind::JavaPf, 1);
        println!(
            "check={cycles} cycles: java_ic {virtual_ic:.4}s, java_pf {virtual_pf:.4}s (virtual)"
        );
    }
    for fault_us in [5u64, 22, 80] {
        let mut cluster = myrinet_200();
        cluster.machine.dsm.page_fault = VTime::from_us(fault_us);
        let virtual_pf = run_with(cluster, ProtocolKind::JavaPf, 1);
        println!("fault={fault_us}us: java_pf {virtual_pf:.4}s (virtual)");
    }
    for tpn in [1usize, 2, 4] {
        let virtual_pf = run_with(myrinet_200(), ProtocolKind::JavaPf, tpn);
        println!("threads_per_node={tpn}: java_pf {virtual_pf:.4}s (virtual)");
    }
}
