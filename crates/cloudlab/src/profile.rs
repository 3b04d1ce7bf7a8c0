//! Provider profiles: the knobs that make a simulated cloud behave like
//! EC2-2012, EC2-2013 or Rackspace.

use choreo_netsim::TrainConfig;
use choreo_topology::{
    LinkSpec, MultiRootedTreeSpec, Nanos, TracerouteStyle, GBIT, MBIT, MICROS, MILLIS, SECS,
};
use rand::Rng;

use crate::cloud::sample_normal;

/// Distribution of per-VM hose (egress cap) rates.
#[derive(Debug, Clone)]
pub enum HoseDist {
    /// Every VM gets exactly this rate (± `jitter_frac` multiplicative
    /// noise) — Rackspace's "almost exactly 300 Mbit/s".
    Fixed {
        /// Nominal rate, bits/s.
        rate_bps: f64,
        /// Relative jitter (standard deviation).
        jitter_frac: f64,
    },
    /// Weighted mixture of components — EC2's knees and slow tail.
    Mixture(Vec<(f64, HoseComponent)>),
}

/// One mixture component.
#[derive(Debug, Clone, Copy)]
pub enum HoseComponent {
    /// Normal with mean/sd (clamped positive).
    Normal {
        /// Mean, bits/s.
        mean: f64,
        /// Standard deviation, bits/s.
        sd: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound, bits/s.
        lo: f64,
        /// Upper bound, bits/s.
        hi: f64,
    },
}

impl HoseDist {
    /// Sample one VM's hose rate.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> f64 {
        let v = match self {
            HoseDist::Fixed { rate_bps, jitter_frac } => {
                rate_bps * (1.0 + jitter_frac * sample_normal(rng))
            }
            HoseDist::Mixture(parts) => {
                let total: f64 = parts.iter().map(|(w, _)| w).sum();
                let mut draw = rng.gen_range(0.0..total);
                let mut chosen = &parts[parts.len() - 1].1;
                for (w, c) in parts {
                    if draw < *w {
                        chosen = c;
                        break;
                    }
                    draw -= w;
                }
                match *chosen {
                    HoseComponent::Normal { mean, sd } => mean + sd * sample_normal(rng),
                    HoseComponent::Uniform { lo, hi } => rng.gen_range(lo..hi),
                }
            }
        };
        v.max(10.0 * MBIT)
    }
}

/// Background (other-tenant) traffic: ON–OFF bulk pairs scattered over the
/// fabric, each with its own hose.
#[derive(Debug, Clone, Copy)]
pub struct BackgroundSpec {
    /// Number of concurrent ON–OFF source/destination pairs.
    pub pairs: usize,
    /// Mean ON duration.
    pub mean_on: Nanos,
    /// Mean OFF duration.
    pub mean_off: Nanos,
}

/// Everything that distinguishes one provider from another. Co-located
/// VMs talk over [`choreo_topology::LOOPBACK`] in both backends, the same
/// for every provider.
#[derive(Debug, Clone)]
pub struct ProviderProfile {
    /// Display name (e.g. `"ec2-2013"`).
    pub name: String,
    /// Physical tree to build.
    pub tree: MultiRootedTreeSpec,
    /// Per-VM hose rate distribution.
    pub hose: HoseDist,
    /// Token-bucket depth of the egress limiter, bytes. Short packet-train
    /// bursts that fit in the bucket exit at NIC line rate and overestimate
    /// the hose rate — the Fig. 6 effect.
    pub bucket_depth_bytes: f64,
    /// Idle-credit accrual multiplier of the limiter (hypervisor credit
    /// schedulers refill faster while a VM's egress is idle). >1 keeps
    /// short-burst overestimation high even in steady state (Fig. 6b).
    pub idle_refill_mult: f64,
    /// Probability that a newly allocated VM lands on a host that already
    /// carries one of the tenant's VMs (§2.2: ≈1% of EC2 paths were
    /// same-machine).
    pub colocate_prob: f64,
    /// How traceroute reports hops.
    pub traceroute: TracerouteStyle,
    /// Other-tenant traffic.
    pub background: BackgroundSpec,
    /// Multiplicative measurement noise (sd) applied by the flow-level
    /// backend — virtualization/OS jitter that the packet-level backend
    /// produces naturally.
    pub measurement_noise: f64,
    /// Recommended packet-train configuration (§4.1 calibration).
    pub train_config: TrainConfig,
}

impl ProviderProfile {
    /// EC2 as measured in May 2013 (Figs. 2a, 6a, 7a, 8).
    ///
    /// `deep_fabric` selects the 4-tier tree variant (8-hop inter-pod
    /// paths); the paper's 19 topologies mix depths, which is how Fig. 8
    /// shows both 6- and 8-hop paths. Edge NICs are 10 Gbit/s; the ≈1
    /// Gbit/s observed rate is the hose limiter.
    pub fn ec2_2013(deep_fabric: bool) -> Self {
        ProviderProfile {
            name: format!("ec2-2013{}", if deep_fabric { "-deep" } else { "" }),
            tree: MultiRootedTreeSpec {
                cores: 2,
                pods: 4,
                aggs_per_pod: 2,
                tors_per_pod: 2,
                hosts_per_tor: 5,
                host_link: LinkSpec::new(10.0 * GBIT, 3 * MICROS),
                tor_link: LinkSpec::new(40.0 * GBIT, 5 * MICROS),
                agg_link: LinkSpec::new(40.0 * GBIT, 8 * MICROS),
                second_agg_tier: deep_fabric,
            },
            hose: HoseDist::Mixture(vec![
                (0.55, HoseComponent::Normal { mean: 950.0 * MBIT, sd: 22.0 * MBIT }),
                (0.30, HoseComponent::Normal { mean: 1080.0 * MBIT, sd: 18.0 * MBIT }),
                (0.15, HoseComponent::Uniform { lo: 320.0 * MBIT, hi: 900.0 * MBIT }),
            ]),
            bucket_depth_bytes: 30_000.0,
            idle_refill_mult: 1.0,
            colocate_prob: 0.02,
            traceroute: TracerouteStyle::Full,
            background: BackgroundSpec { pairs: 6, mean_on: 5 * SECS, mean_off: 20 * SECS },
            measurement_noise: 0.012,
            train_config: TrainConfig {
                packet_bytes: 1500,
                burst_len: 200,
                bursts: 10,
                gap: MILLIS,
            },
        }
    }

    /// Rackspace 8-GByte instances (Figs. 2b, 6b, 7b): 300 Mbit/s hose,
    /// deep burst bucket, opaque traceroute reporting only {1, 4} hops.
    pub fn rackspace() -> Self {
        ProviderProfile {
            name: "rackspace".into(),
            tree: MultiRootedTreeSpec {
                cores: 2,
                pods: 2,
                aggs_per_pod: 2,
                tors_per_pod: 2,
                hosts_per_tor: 5,
                host_link: LinkSpec::new(GBIT, 3 * MICROS),
                tor_link: LinkSpec::new(10.0 * GBIT, 5 * MICROS),
                agg_link: LinkSpec::new(10.0 * GBIT, 8 * MICROS),
                second_agg_tier: false,
            },
            hose: HoseDist::Fixed { rate_bps: 300.0 * MBIT, jitter_frac: 0.004 },
            bucket_depth_bytes: 500_000.0,
            idle_refill_mult: 1.2,
            colocate_prob: 0.0,
            traceroute: TracerouteStyle::Opaque { inter_host_hops: 4 },
            background: BackgroundSpec { pairs: 2, mean_on: 4 * SECS, mean_off: 40 * SECS },
            measurement_noise: 0.003,
            train_config: TrainConfig::rackspace(),
        }
    }

    /// EC2 as measured in May 2012 (Fig. 1): much wider spatial variation,
    /// AZ-dependent. `az` ∈ {'a', 'b', 'c', 'd'} selects the zone.
    pub fn ec2_2012(az: char) -> Self {
        let hose = match az {
            'a' => HoseDist::Mixture(vec![
                (0.6, HoseComponent::Uniform { lo: 100.0 * MBIT, hi: 600.0 * MBIT }),
                (0.4, HoseComponent::Normal { mean: 750.0 * MBIT, sd: 120.0 * MBIT }),
            ]),
            'b' => HoseDist::Mixture(vec![
                (0.7, HoseComponent::Normal { mean: 600.0 * MBIT, sd: 150.0 * MBIT }),
                (0.3, HoseComponent::Uniform { lo: 150.0 * MBIT, hi: 950.0 * MBIT }),
            ]),
            'c' => HoseDist::Mixture(vec![
                (0.8, HoseComponent::Normal { mean: 800.0 * MBIT, sd: 100.0 * MBIT }),
                (0.2, HoseComponent::Uniform { lo: 200.0 * MBIT, hi: 700.0 * MBIT }),
            ]),
            'd' => HoseDist::Mixture(vec![
                (0.5, HoseComponent::Normal { mean: 500.0 * MBIT, sd: 180.0 * MBIT }),
                (0.5, HoseComponent::Normal { mean: 850.0 * MBIT, sd: 90.0 * MBIT }),
            ]),
            _ => panic!("unknown availability zone {az:?} (use a–d)"),
        };
        ProviderProfile {
            name: format!("ec2-2012-us-east-1{az}"),
            hose,
            // Oversubscribed fabric + heavy neighbours: the 2012 network
            // had real congestion, not just source limits.
            tree: MultiRootedTreeSpec {
                cores: 2,
                pods: 3,
                aggs_per_pod: 2,
                tors_per_pod: 2,
                hosts_per_tor: 5,
                host_link: LinkSpec::new(GBIT, 3 * MICROS),
                tor_link: LinkSpec::new(4.0 * GBIT, 5 * MICROS),
                agg_link: LinkSpec::new(4.0 * GBIT, 8 * MICROS),
                second_agg_tier: false,
            },
            bucket_depth_bytes: 30_000.0,
            idle_refill_mult: 1.0,
            colocate_prob: 0.01,
            traceroute: TracerouteStyle::Full,
            background: BackgroundSpec { pairs: 14, mean_on: 8 * SECS, mean_off: 8 * SECS },
            measurement_noise: 0.03,
            train_config: TrainConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(5)
    }

    #[test]
    fn rackspace_hose_is_flat_300() {
        let p = ProviderProfile::rackspace();
        let mut r = rng();
        for _ in 0..100 {
            let h = p.hose.sample(&mut r);
            assert!((h - 300.0 * MBIT).abs() / (300.0 * MBIT) < 0.02, "h = {h}");
        }
    }

    #[test]
    fn ec2_2013_hose_mostly_near_gigabit() {
        let p = ProviderProfile::ec2_2013(false);
        let mut r = rng();
        let samples: Vec<f64> = (0..2000).map(|_| p.hose.sample(&mut r)).collect();
        let near_gig =
            samples.iter().filter(|&&h| (900.0 * MBIT..1150.0 * MBIT).contains(&h)).count();
        let frac = near_gig as f64 / samples.len() as f64;
        // Fig. 2a: "roughly 80%" between 900 and 1100 Mbit/s.
        assert!((0.7..0.95).contains(&frac), "frac = {frac}");
        let slow =
            samples.iter().filter(|&&h| h < 900.0 * MBIT).count() as f64 / samples.len() as f64;
        assert!(slow > 0.1, "a slow tail exists: {slow}");
    }

    #[test]
    fn ec2_2012_has_wide_spread() {
        let p = ProviderProfile::ec2_2012('a');
        let mut r = rng();
        let samples: Vec<f64> = (0..2000).map(|_| p.hose.sample(&mut r)).collect();
        let min = samples.iter().cloned().fold(f64::MAX, f64::min);
        let max = samples.iter().cloned().fold(0.0, f64::max);
        assert!(min < 250.0 * MBIT, "slow paths exist: {min}");
        assert!(max > 700.0 * MBIT, "fast paths exist: {max}");
    }

    #[test]
    fn all_zones_construct() {
        for az in ['a', 'b', 'c', 'd'] {
            let p = ProviderProfile::ec2_2012(az);
            assert!(p.name.ends_with(az));
        }
    }

    #[test]
    #[should_panic(expected = "unknown availability zone")]
    fn bad_zone_rejected() {
        ProviderProfile::ec2_2012('z');
    }

    #[test]
    fn train_configs_match_paper_calibration() {
        assert_eq!(ProviderProfile::ec2_2013(false).train_config.burst_len, 200);
        assert_eq!(ProviderProfile::rackspace().train_config.burst_len, 2000);
    }

    #[test]
    fn hose_samples_are_positive() {
        let p = ProviderProfile::ec2_2012('d');
        let mut r = rng();
        for _ in 0..1000 {
            assert!(p.hose.sample(&mut r) >= 10.0 * MBIT);
        }
    }
}
