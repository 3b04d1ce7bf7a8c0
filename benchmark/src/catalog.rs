//! The metric catalogue: every name the benchmark prints, with its unit,
//! which direction is better and (end to end) its regression bound.
//! `BENCHMARK.json` at the repository root is rendered from this file;
//! a unit test keeps the two identical.

use crate::workload;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// How a metric follows the machine's speed, for scaling a child's
/// value to the quietest machine any child of the run saw.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scaled {
    /// Not a timing of the request loop.
    No,
    /// Grows as the machine slows.
    Time,
    /// Shrinks as the machine slows.
    Rate,
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub scaled: Scaled,
    /// Share of the parent's median by which the metric may get worse.
    pub bound: f64,
    /// A simulated statistic: a pure function of the inputs, so two runs
    /// of one commit on one seed must agree exactly.
    pub exact: bool,
}

pub struct PerLayer {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// A count the program makes: repeats exactly for one seed.
    pub exact: bool,
}

const fn timing(name: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit: "us", better: Better::Lower, scaled: Scaled::Time, bound, exact: false }
}

const fn sim(name: &'static str, unit: &'static str, bound: f64) -> EndToEnd {
    EndToEnd { name, unit, better: Better::Higher, scaled: Scaled::No, bound, exact: true }
}

/// What a tenant or an operator of the service sees. Each bound is at
/// least 2.5 times the widest spread (IQR over median of ten runs on ten
/// seeds) seen on any workload while the benchmark was sized.
pub const END_TO_END: &[EndToEnd] = &[
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        scaled: Scaled::No,
        bound: 0.25,
        exact: false,
    },
    EndToEnd {
        name: "events_per_s",
        unit: "1/s",
        better: Better::Higher,
        scaled: Scaled::Rate,
        bound: 0.25,
        exact: false,
    },
    timing("request_p50_us", 0.25),
    timing("request_p99_us", 0.25),
    timing("admit_p50_us", 0.25),
    timing("admit_p95_us", 0.25),
    timing("cpu_us_per_request", 0.25),
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        scaled: Scaled::No,
        bound: 0.05,
        exact: false,
    },
    sim("mean_tenant_rate_mbps", "Mbit/s", 0.15),
    sim("slo_attainment", "ratio", 0.1),
    sim("rate_gain", "ratio", 0.15),
];

const fn time(name: &'static str, unit: &'static str) -> PerLayer {
    PerLayer { name, unit, better: Better::Lower, exact: false }
}

const fn count(name: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit: "count", better, exact: true }
}

const fn ratio(name: &'static str, better: Better) -> PerLayer {
    PerLayer { name, unit: "ratio", better, exact: true }
}

/// One entry per thing a single layer does; crate names are the layers.
pub const PER_LAYER: &[PerLayer] = &[
    time("topology.build_s", "s"),
    time("topology.route_table_mb", "MB"),
    time("topology.path_lookup_ns", "ns"),
    time("profile.gen_ns_per_event", "ns"),
    time("wire.encode_request_ns", "ns"),
    time("wire.decode_request_ns", "ns"),
    time("wire.encode_response_ns", "ns"),
    time("wire.decode_response_ns", "ns"),
    time("wire.frame_roundtrip_ns", "ns"),
    PerLayer { name: "wire.request_bytes_mean", unit: "B", better: Better::Lower, exact: true },
    PerLayer { name: "wire.response_bytes_mean", unit: "B", better: Better::Lower, exact: true },
    time("service.dispatch_overhead_ns", "ns"),
    time("service.transport_overhead_us", "us"),
    time("service.stats_p50_us", "us"),
    time("service.metrics_p50_us", "us"),
    time("service.get_trace_p50_us", "us"),
    time("service.http_metrics_p50_us", "us"),
    time("service.http_trace_p50_us", "us"),
    PerLayer {
        name: "service.loopback_2conn_events_per_s",
        unit: "1/s",
        better: Better::Higher,
        exact: false,
    },
    time("service.open_2k_p99_us", "us"),
    time("service.open_2k_lag_p99_us", "us"),
    time("online.advance_ns_per_event", "ns"),
    time("online.arrive_p50_us", "us"),
    time("online.arrive_p99_us", "us"),
    time("online.set_intensity_p50_us", "us"),
    time("online.depart_p50_us", "us"),
    time("online.depart_p99_us", "us"),
    time("online.network_step_p50_us", "us"),
    time("online.network_step_p99_us", "us"),
    time("online.share_advance", "ratio"),
    time("online.share_arrive", "ratio"),
    time("online.share_set_intensity", "ratio"),
    time("online.share_depart", "ratio"),
    time("online.share_network", "ratio"),
    time("online.arrive_self_us", "us"),
    count("online.admitted", Better::Higher),
    count("online.queued", Better::Lower),
    count("online.queue_admitted", Better::Higher),
    count("online.rejected", Better::Lower),
    count("online.migration_passes", Better::Lower),
    count("online.measurement_passes", Better::Lower),
    count("online.migrations", Better::Lower),
    count("online.drift_detected", Better::Lower),
    count("online.failure_migrations", Better::Lower),
    ratio("online.try_place_yield", Better::Higher),
    ratio("online.migration_yield", Better::Higher),
    count("flowsim.warm_solves", Better::Lower),
    count("flowsim.cold_solves", Better::Lower),
    ratio("flowsim.live_rounds_per_solve", Better::Lower),
    ratio("flowsim.replayed_rounds_per_solve", Better::Lower),
    ratio("flowsim.dirty_resources_per_solve", Better::Lower),
    count("flowsim.probe_batches", Better::Lower),
    ratio("flowsim.probes_per_batch", Better::Lower),
    ratio("flowsim.probe_replay_rounds_per_probe", Better::Lower),
    count("flowsim.peak_active_flows", Better::Lower),
    count("flowsim.flow_records", Better::Lower),
    time("flowsim.solve_busy_s", "s"),
    time("flowsim.probe_batch_busy_s", "s"),
    time("flowsim.solve_share", "ratio"),
    time("flowsim.probe_share", "ratio"),
    time("flowsim.probe_batch_240_us", "us"),
    time("flowsim.churn_solve_us", "us"),
    time("flowsim.capacity_solve_us", "us"),
    time("flowsim.run_until_1s_us", "us"),
    time("metrics.render_us", "us"),
    PerLayer { name: "metrics.exposition_bytes", unit: "B", better: Better::Lower, exact: false },
    time("metrics.obs_overhead_pct", "%"),
    time("bench.trace_overhead_pct", "%"),
    time("bench.unattributed_share", "ratio"),
];

/// Seconds one run measures; see `plan` in `main.rs` for how the run
/// spends them.
pub const RUN_SECONDS: u32 = 20;

fn better_str(b: Better) -> &'static str {
    match b {
        Better::Higher => "higher",
        Better::Lower => "lower",
    }
}

/// The text of `BENCHMARK.json`.
pub fn benchmark_json() -> String {
    let mut s = String::from("{\n");
    s.push_str("  \"command\": [\"bash\", \"benchmark/run.sh\"],\n");
    s.push_str("  \"paths\": [\"benchmark\"],\n");
    s.push_str(&format!("  \"run_seconds\": {RUN_SECONDS},\n"));
    s.push_str("  \"workloads\": [\n");
    let specs = workload::all();
    for (i, w) in specs.iter().enumerate() {
        let comma = if i + 1 < specs.len() { "," } else { "" };
        s.push_str(&format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}{comma}\n", w.name, w.why));
    }
    s.push_str("  ],\n  \"end_to_end\": [\n");
    for (i, m) in END_TO_END.iter().enumerate() {
        let comma = if i + 1 < END_TO_END.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}{comma}\n",
            m.name,
            m.unit,
            better_str(m.better),
            m.bound
        ));
    }
    s.push_str("  ],\n  \"per_layer\": [\n");
    for (i, m) in PER_LAYER.iter().enumerate() {
        let comma = if i + 1 < PER_LAYER.len() { "," } else { "" };
        s.push_str(&format!(
            "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}{comma}\n",
            m.name,
            m.unit,
            better_str(m.better)
        ));
    }
    s.push_str("  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        let mut chars = name.chars();
        chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.len() <= 64
            && chars.all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn names_and_units_stay_inside_the_contract_charset() {
        assert!(name_ok("a.b-c_9") && !name_ok(".a") && !name_ok("a b") && !name_ok(""));
        assert!(unit_ok("1/s") && unit_ok("%") && !unit_ok("µs") && !unit_ok(""));
        let specs = workload::all();
        let mut seen = std::collections::BTreeSet::new();
        for name in specs
            .iter()
            .map(|w| w.name)
            .chain(END_TO_END.iter().map(|m| m.name))
            .chain(PER_LAYER.iter().map(|m| m.name))
        {
            assert!(name_ok(name), "bad name {name:?}");
            assert!(seen.insert(name), "name {name:?} used twice");
        }
        for unit in END_TO_END.iter().map(|m| m.unit).chain(PER_LAYER.iter().map(|m| m.unit)) {
            assert!(unit_ok(unit), "bad unit {unit:?}");
        }
        for w in &specs {
            assert!(w.why.len() <= 200 && !w.why.contains('\n') && !w.why.contains('"'));
        }
    }

    #[test]
    fn counts_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&workload::all().len()));
        assert!((1..=16).contains(&END_TO_END.len()));
        assert!((1..=128).contains(&PER_LAYER.len()));
        assert!((1..=60).contains(&RUN_SECONDS));
        assert!(END_TO_END.iter().all(|m| m.bound > 0.0 && m.bound <= 0.25));
        let setup = END_TO_END.iter().find(|m| m.name == "setup_s").expect("setup_s is required");
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        let widest = END_TO_END.iter().map(|m| m.bound).fold(0.0, f64::max);
        assert_eq!(setup.bound, widest, "set-up time gets the largest bound");
        assert!(benchmark_json().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let on_disk = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        assert_eq!(on_disk, benchmark_json(), "regenerate with --print-benchmark-json");
    }
}
