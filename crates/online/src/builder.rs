//! Construction of the online scheduler.
//!
//! Topology and routes are the only required inputs of a
//! [`SchedulerBuilder`]; the configuration, the seed and the metrics
//! sink each have a default and a setter.

use std::sync::Arc;

use choreo_metrics::Registry;
use choreo_topology::{RouteTable, Topology};

use crate::config::OnlineConfig;
use crate::metrics::ServiceMetrics;
use crate::scheduler::OnlineScheduler;

/// Builder for [`OnlineScheduler`].
///
/// ```
/// use choreo_online::{OnlineConfig, SchedulerBuilder};
/// use choreo_topology::{MultiRootedTreeSpec, RouteTable};
/// use std::sync::Arc;
///
/// let topo = Arc::new(MultiRootedTreeSpec::default().build());
/// let routes = Arc::new(RouteTable::new(&topo));
/// let sched = SchedulerBuilder::new(topo, routes)
///     .config(OnlineConfig::default())
///     .seed(7)
///     .build();
/// assert_eq!(sched.active_tenants(), 0);
/// ```
pub struct SchedulerBuilder {
    pub(crate) topo: Arc<Topology>,
    pub(crate) routes: Arc<RouteTable>,
    pub(crate) cfg: OnlineConfig,
    pub(crate) seed: u64,
    /// Registered handles; `None` builds detached ones.
    pub(crate) metrics: Option<ServiceMetrics>,
}

impl SchedulerBuilder {
    /// Builder over `topo` with one VM per host, default config, seed 0
    /// and detached metrics.
    pub fn new(topo: Arc<Topology>, routes: Arc<RouteTable>) -> SchedulerBuilder {
        SchedulerBuilder { topo, routes, cfg: OnlineConfig::default(), seed: 0, metrics: None }
    }

    /// Service configuration (policy, queue bound, migration cadence…).
    pub fn config(mut self, cfg: OnlineConfig) -> SchedulerBuilder {
        self.cfg = cfg;
        self
    }

    /// Seed for the simulator's ECMP draws and the random-placement
    /// baseline.
    pub fn seed(mut self, seed: u64) -> SchedulerBuilder {
        self.seed = seed;
        self
    }

    /// Record service metrics into `registry` (exposed via its text
    /// exposition). Without this the scheduler records into detached
    /// handles and publishes no counters.
    pub fn metrics_registry(mut self, registry: &Registry) -> SchedulerBuilder {
        self.metrics = Some(ServiceMetrics::registered(registry, &self.topo));
        self
    }

    /// Build the scheduler.
    pub fn build(self) -> OnlineScheduler {
        OnlineScheduler::from_builder(self)
    }
}
