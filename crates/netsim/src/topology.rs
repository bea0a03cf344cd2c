//! The DIPBench experimental topology.
//!
//! The paper's setup: three computer systems — ES (external systems: one
//! DBMS with eleven database instances plus an application server hosting
//! the Web services), IS (the integration system under test) and CS (the
//! toolsuite) — connected over a *wireless* network. Endpoint names used
//! throughout the workspace are defined here so every crate agrees on them.

use crate::fault::FaultPlan;
use crate::latency::LatencyModel;
use crate::network::{LinkSpec, Network, TransferMode};

/// Machine endpoint names.
pub const IS: &str = "is";
pub const CS: &str = "cs";

/// External database instances on ES (eleven, as in the paper).
pub const ES_DATABASES: [&str; 11] = [
    "es.berlin_paris", // Berlin and Paris share one physical database
    "es.trondheim",
    "es.chicago",
    "es.baltimore",
    "es.madison",
    "es.us_eastcoast",
    "es.cdb", // consolidated database 'Sales_Cleaning'
    "es.dwh",
    "es.dm_europe",
    "es.dm_unitedstates",
    "es.dm_asia",
];

/// Web services hosted by the ES application server.
pub const ES_SERVICES: [&str; 3] = ["es.ws.hongkong", "es.ws.beijing", "es.ws.seoul"];

/// Message-emitting applications (logically on CS's client side).
pub const APPS: [&str; 3] = ["app.vienna", "app.san_diego", "app.mdm_europe"];

/// The wireless profile of the paper's testbed: a few hundred microseconds
/// of base latency with heavy jitter, ~20 Mbit/s of payload throughput.
pub fn wireless_link() -> LinkSpec {
    LinkSpec::new(
        LatencyModel::Normal {
            mean_micros: 400.0,
            stddev_micros: 120.0,
        },
        2_500_000, // 2.5 MB/s
    )
}

/// A same-machine link: intra-ES traffic (e.g. CDB → DWH both live in the
/// single DBMS installation on ES) is far cheaper than crossing the air.
pub fn local_link() -> LinkSpec {
    LinkSpec::new(LatencyModel::Fixed { micros: 20 }, 200_000_000)
}

/// Build the benchmark network. All IS↔ES and CS↔IS traffic uses the
/// wireless profile; ES-internal pairs use the local profile. Transfers are
/// accounted ([`TransferMode::Accounted`], the one mode).
pub fn dipbench_network(_mode: TransferMode, seed: u64) -> Network {
    let mut net = Network::new(wireless_link(), seed);
    let es_endpoints: Vec<&str> = ES_DATABASES
        .iter()
        .chain(ES_SERVICES.iter())
        .copied()
        .collect();
    for (i, a) in es_endpoints.iter().enumerate() {
        for b in es_endpoints.iter().skip(i + 1) {
            net.set_link_bidirectional(a, b, local_link());
        }
    }
    net
}

/// Apply a run's fault plan to the benchmark network: the network keeps
/// the plan (its crash, abort and rollback-off switch are read from there),
/// and an active model becomes the default (all wireless IS↔ES/CS traffic),
/// while ES-internal pairs — intra-machine traffic — are explicitly
/// shielded and never fault.
pub fn apply_fault_plan(net: &mut Network, plan: FaultPlan) {
    net.set_plan(plan);
    if !plan.is_active() {
        return;
    }
    net.set_default_fault_model(Some(plan.model));
    let es_endpoints: Vec<&str> = ES_DATABASES
        .iter()
        .chain(ES_SERVICES.iter())
        .copied()
        .collect();
    for (i, a) in es_endpoints.iter().enumerate() {
        for b in es_endpoints.iter().skip(i + 1) {
            net.set_fault_model(a, b, None);
            net.set_fault_model(b, a, None);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eleven_databases_three_services() {
        assert_eq!(ES_DATABASES.len(), 11);
        assert_eq!(ES_SERVICES.len(), 3);
    }

    #[test]
    fn es_internal_traffic_is_cheap() {
        let net = dipbench_network(TransferMode::Accounted, 1);
        let local = net.transfer("es.cdb", "es.dwh", 0);
        // sample wireless a few times; even its minimum should exceed local
        let mut min_wireless = std::time::Duration::MAX;
        for _ in 0..50 {
            min_wireless = min_wireless.min(net.transfer(IS, "es.cdb", 0));
        }
        assert!(
            local < min_wireless,
            "local {local:?} vs wireless {min_wireless:?}"
        );
    }
}
