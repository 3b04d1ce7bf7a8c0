//! The scheduler tests' harness: one seeded run.
//!
//! [`Golden`] names the four pinned scheduler runs and yields each one's
//! topology, configuration, scheduler and merged event stream; [`run::replay`] steps a scheduler
//! through a stream, with a per-event hook, and returns a
//! [`run::RunSummary`]. To compare a variant against a golden, replay
//! `Golden::X`'s events under both and compare the summaries.
//!
//! `tests/golden_trajectory.rs` includes the whole module. A test binary
//! that needs only part of it includes those files alone with `#[path]`,
//! so that nothing it compiles goes unused: `tests/online.rs` takes
//! `run.rs` and `service.rs`, `tests/scenarios.rs` takes `run.rs` and
//! `saturated.rs`. `enumerate.rs`, the bounded-exhaustive enumerator of
//! every short stream on a 4-host cluster, is no part of the module:
//! `tests/short_streams.rs` alone includes it.

pub mod run;
mod saturated;
mod service;

use std::sync::Arc;

use choreo_repro::online::{OnlineConfig, OnlineScheduler, SchedulerBuilder};
use choreo_repro::profile::{
    switch_link_groups, NetworkEventStreamConfig, ServiceEvent, SwitchFailureConfig,
};
use choreo_repro::topology::{MultiRootedTreeSpec, RouteTable, Topology, SECS};

use run::merged;

/// The four pinned scheduler runs. Each yields its topology, its
/// configuration, a scheduler at [`Golden::SEED`] and its event stream at
/// given stream and network seeds (7 and 11 in the goldens).
#[derive(Clone, Copy)]
pub enum Golden {
    /// `service.rs`'s run: 400 tenant events on 16 hosts, with link
    /// incidents, and every scheduler path live.
    Service,
    /// The ledger's `steady-sim`, scaled down: `saturated.rs`'s 1 500
    /// tenant events on a 32-host tree, default link incidents and the
    /// default configuration (16 candidate hosts, a 64-entry wait queue).
    Saturated,
    /// The ledger's `failover-sim`, scaled down: the saturated run's tree
    /// and tenants on a 600 s intensity clock, a link incident every half
    /// second, one in five of them a whole aggregation or core switch,
    /// cut to the first 1 500 merged events.
    Failover,
    /// The ledger's `scale-512`: 4 cores, 8 pods of 4 aggregation and 8
    /// ToR switches, 8 hosts a rack, routed over 4 ECMP paths; the
    /// saturated run's tenants every second, no link incidents and the
    /// default configuration.
    Scale512,
}

impl Golden {
    fn tree(self) -> Topology {
        let spec = match self {
            Golden::Service => return service::tree(),
            Golden::Saturated | Golden::Failover => MultiRootedTreeSpec {
                cores: 2,
                pods: 4,
                aggs_per_pod: 2,
                tors_per_pod: 2,
                hosts_per_tor: 4,
                ..Default::default()
            },
            Golden::Scale512 => MultiRootedTreeSpec {
                cores: 4,
                pods: 8,
                aggs_per_pod: 4,
                tors_per_pod: 8,
                hosts_per_tor: 8,
                ..Default::default()
            },
        };
        spec.build()
    }

    /// The seed of every golden's scheduler.
    pub const SEED: u64 = 7;

    /// This run's tree and its route table.
    pub fn topology(self) -> (Arc<Topology>, Arc<RouteTable>) {
        let topo = Arc::new(self.tree());
        let routes = match self {
            Golden::Scale512 => RouteTable::with_max_paths(&topo, 4),
            _ => RouteTable::new(&topo),
        };
        (topo, Arc::new(routes))
    }

    /// This run's scheduler configuration.
    pub fn config(self) -> OnlineConfig {
        match self {
            Golden::Service => service::config(),
            _ => OnlineConfig::default(),
        }
    }

    /// A fresh scheduler on this run's topology and configuration.
    pub fn scheduler(self) -> OnlineScheduler {
        let (topo, routes) = self.topology();
        SchedulerBuilder::new(topo, routes).config(self.config()).seed(Self::SEED).build()
    }

    /// This run's merged tenant and network events.
    pub fn events(self, stream_seed: u64, net_seed: u64) -> Vec<ServiceEvent> {
        let topo = self.tree();
        let network =
            NetworkEventStreamConfig { n_links: topo.link_count() as u32, ..Default::default() };
        let mut stream = saturated::stream();
        match self {
            Golden::Service => {
                let network = service::network(&topo);
                merged(service::stream(), stream_seed, 400, Some((network, net_seed)))
            }
            Golden::Saturated => merged(stream, stream_seed, 1_500, Some((network, net_seed))),
            Golden::Failover => {
                stream.mean_intensity_change = 600 * SECS;
                let network = NetworkEventStreamConfig {
                    mean_time_between_incidents: SECS / 2,
                    switch_failures: Some(SwitchFailureConfig {
                        groups: switch_link_groups(&topo, 2),
                        switch_prob: 0.2,
                    }),
                    ..network
                };
                let mut events = merged(stream, stream_seed, 1_500, Some((network, net_seed)));
                events.truncate(1_500);
                events
            }
            Golden::Scale512 => {
                stream.gen.mean_interarrival = SECS;
                merged(stream, stream_seed, 1_500, None)
            }
        }
    }
}
