//! Generator output pinned bit for bit.
//!
//! The scheduler goldens see the generators only through placement, so
//! a change that shifts a stream but happens to admit the same tenants
//! would pass them. These digests fold every field of the first events
//! of a tenant stream in the perf ledger's tenant shape (4–8 tasks, 2 s
//! mean inter-arrival, 12 s intensity clock, intensities up to 3, every
//! nominal pattern) and of a network stream with whole-switch failures
//! on the ledger's 128-host tree. A sampler rewrite that is meant to be
//! output-preserving must leave both unchanged.

use choreo_profile::{
    switch_link_groups, AppPattern, NetworkEventKind, NetworkEventStream, NetworkEventStreamConfig,
    SwitchFailureConfig, TenantEventKind, WorkloadGenConfig, WorkloadStream, WorkloadStreamConfig,
};
use choreo_topology::{MultiRootedTreeSpec, SECS};

const EVENTS: usize = 3_000;
const SEED: u64 = 7_000;

/// FNV-1a fold of one 64-bit word into a running digest.
fn fnv1a(digest: u64, word: u64) -> u64 {
    (digest ^ word).wrapping_mul(0x0000_0100_0000_01B3)
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

#[test]
fn tenant_stream_digest_is_pinned() {
    let cfg = WorkloadStreamConfig {
        gen: WorkloadGenConfig {
            tasks_min: 4,
            tasks_max: 8,
            mean_interarrival: 2 * SECS,
            patterns: AppPattern::ALL.to_vec(),
            ..Default::default()
        },
        mean_intensity_change: 12 * SECS,
        max_intensity: 3,
    };
    let mut h = FNV_OFFSET;
    let mut seen = [0usize; AppPattern::ALL.len()];
    for e in WorkloadStream::new(cfg, SEED).take(EVENTS) {
        h = fnv1a(h, e.at);
        h = fnv1a(h, e.tenant);
        match &e.kind {
            TenantEventKind::Arrive { app } => {
                h = fnv1a(h, 0);
                for b in app.name.bytes() {
                    h = fnv1a(h, u64::from(b));
                }
                h = fnv1a(h, app.start_time);
                for c in &app.cpu {
                    h = fnv1a(h, c.to_bits());
                }
                let n = app.matrix.n_tasks();
                h = fnv1a(h, n as u64);
                for i in 0..n {
                    for j in 0..n {
                        h = fnv1a(h, app.matrix.bytes(i, j));
                    }
                }
                let k = AppPattern::ALL
                    .iter()
                    .position(|p| app.name.starts_with(&format!("{p:?}-")))
                    .expect("app names lead with their pattern");
                seen[k] += 1;
            }
            TenantEventKind::SetIntensity { intensity } => {
                h = fnv1a(h, 1);
                h = fnv1a(h, u64::from(*intensity));
            }
            TenantEventKind::Depart => h = fnv1a(h, 2),
        }
    }
    assert!(seen.iter().all(|&c| c > 0), "every pattern drawn: {seen:?}");
    assert_eq!(h, 0xd62e_4527_16fc_e34f, "tenant stream digest");
}

#[test]
fn network_stream_digest_is_pinned() {
    let topo = MultiRootedTreeSpec {
        cores: 2,
        pods: 8,
        aggs_per_pod: 2,
        tors_per_pod: 4,
        hosts_per_tor: 4,
        ..Default::default()
    }
    .build();
    let cfg = NetworkEventStreamConfig {
        n_links: topo.links().len() as u32,
        mean_time_between_incidents: SECS / 2,
        switch_failures: Some(SwitchFailureConfig {
            groups: switch_link_groups(&topo, 2),
            switch_prob: 0.2,
        }),
    };
    let mut h = FNV_OFFSET;
    let mut switch_bursts = 0usize;
    let mut prev: Option<(u64, bool)> = None;
    for e in NetworkEventStream::new(cfg, SEED ^ 0x4e45_5453).take(EVENTS) {
        h = fnv1a(h, e.at);
        h = fnv1a(h, u64::from(e.link));
        let (tag, fraction) = match e.kind {
            NetworkEventKind::LinkDegrade { fraction } => (0, fraction),
            NetworkEventKind::LinkFail => (1, 0.0),
            NetworkEventKind::LinkRecover => (2, 0.0),
            NetworkEventKind::DrainStart { fraction } => (3, fraction),
            NetworkEventKind::DrainEnd => (4, 0.0),
        };
        h = fnv1a(h, tag);
        h = fnv1a(h, fraction.to_bits());
        let fail = tag == 1;
        if fail && prev == Some((e.at, true)) {
            switch_bursts += 1;
        }
        prev = Some((e.at, fail));
    }
    assert!(switch_bursts > 0, "whole-switch failures fired");
    assert_eq!(h, 0x3d2f_5aac_ff9f_2caa, "network stream digest");
}
