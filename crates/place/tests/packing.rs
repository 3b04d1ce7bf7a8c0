//! The CPU-packing pre-check against Algorithm 1.
//!
//! [`cpu_packing`] may only say [`Packing::Impossible`] when the greedy
//! placer must fail on the same hosts — the online scheduler skips the
//! placer, and every rate it would have asked for, on that answer. The
//! property drives both through random apps on random partly-used hosts,
//! rating candidates through a seeded random closure under both sharing
//! models, with demands in the half-core steps the workload generator
//! uses (so task sums land exactly on a host's free CPU) and ledgers
//! nudged by an ulp or by amounts either side of the fit test's
//! [`CPU_TOL`].

use choreo_measure::RateModel;
use choreo_place::problem::{CPU_TOL, PACK_NODE_BUDGET};
use choreo_place::{
    cpu_packing, GreedyPlacer, Machines, NetworkLoad, PackScratch, Packing, PlaceScratch,
};
use choreo_profile::{AppProfile, TrafficMatrix};
use proptest::prelude::*;

/// `used` moved off its half-core value: not at all, one ulp either way,
/// or just inside / just outside the fit test's [`CPU_TOL`].
fn nudge(used: f64, kind: u8) -> f64 {
    match kind {
        0 => used,
        1 => f64::from_bits(used.to_bits() + 1),
        2 if used > 0.0 => f64::from_bits(used.to_bits() - 1),
        3 => used + CPU_TOL / 2.0,
        4 => used + 2.0 * CPU_TOL,
        _ => used,
    }
}

/// An app of `cpu.len()` tasks whose transfers form a seeded random
/// chain-plus-extras pattern (heaviest first is the placer's order).
fn app(cpu: &[f64], seed: u64) -> AppProfile {
    let n = cpu.len();
    let mut m = TrafficMatrix::zeros(n);
    let mut r = seed;
    for i in 1..n {
        r = splitmix(r);
        let j = (r % i as u64) as usize;
        m.set(j, i, 1 + (r >> 20) % 1_000);
    }
    AppProfile::new("packing", cpu.to_vec(), m, 0)
}

fn splitmix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Free CPU per host, computed the way the online scheduler does.
fn free_of(machines: &Machines, load: &NetworkLoad) -> Vec<f64> {
    machines.cpu.iter().zip(&load.cpu_used).map(|(cap, used)| cap - used).collect()
}

fn place(app: &AppProfile, machines: &Machines, load: &NetworkLoad, hose: bool, seed: u64) -> bool {
    let model = if hose { RateModel::Hose } else { RateModel::Pipe };
    GreedyPlacer
        .place_with_scratch(
            app,
            machines,
            model,
            load,
            &mut PlaceScratch::default(),
            |pairs, out| {
                out.clear();
                out.extend(pairs.iter().map(|&(m, n)| {
                    let r = splitmix(seed ^ (m as u64) << 32 ^ n as u64);
                    1.0 + (r >> 11) as f64 / (1u64 << 53) as f64 * 99.0
                }));
            },
        )
        .is_ok()
}

/// One instance from raw draws: a 4-core host per `hosts` entry, its
/// used CPU `.0` half-cores nudged by `.1`, and tasks of `halves`
/// half-cores — or, when `carve`, the same draws cut into pieces that
/// fill the hosts' free CPU in order, with every host past the last one
/// cut from filled up, so that a packing exists with almost no room to
/// spare.
fn instance(halves: &[u32], hosts: &[(u32, u8)], carve: bool) -> (Vec<f64>, Machines, NetworkLoad) {
    let machines = Machines::uniform(hosts.len(), 4.0);
    let mut load = NetworkLoad::new(hosts.len());
    for (slot, &(used, kind)) in load.cpu_used.iter_mut().zip(hosts) {
        *slot = nudge(0.5 * used as f64, kind);
    }
    let mut cpu = Vec::new();
    if carve {
        let mut left: Vec<u32> = hosts.iter().map(|&(used, _)| 8 - used).collect();
        let mut h = 0;
        for &cut in halves {
            while h < left.len() && left[h] == 0 {
                h += 1;
            }
            let Some(room) = left.get_mut(h) else { break };
            let piece = cut.min(*room);
            *room -= piece;
            cpu.push(0.5 * piece as f64);
        }
        load.cpu_used.iter_mut().skip(h + 1).for_each(|used| *used = 4.0);
    }
    if cpu.is_empty() {
        cpu = halves.iter().map(|&h| 0.5 * h as f64).collect();
    }
    (cpu, machines, load)
}

proptest! {
    #[test]
    fn no_packing_means_the_greedy_placer_fails(
        halves in prop::collection::vec(1u32..=8, 1..9),
        hosts in prop::collection::vec((0u32..=8, 0u8..6), 2..17),
        carve in any::<bool>(),
        seed in any::<u64>(),
        hose in any::<bool>(),
    ) {
        let (cpu, machines, load) = instance(&halves, &hosts, carve);
        let packing = cpu_packing(&cpu, &free_of(&machines, &load), &mut PackScratch::default());
        let placed = place(&app(&cpu, seed), &machines, &load, hose, seed);
        if packing == Packing::Impossible {
            prop_assert!(!placed, "no packing of {cpu:?} onto {:?}, yet placed", load.cpu_used);
        }
        if placed {
            prop_assert!(packing.may_fit(), "placed {cpu:?} on {:?}: {packing:?}", load.cpu_used);
        }
    }
}

/// The property's instance mix, drawn deterministically: it covers every
/// outcome the check could get wrong — instances the placer places,
/// instances with no packing, and packable instances the greedy walk
/// still fails.
#[test]
fn the_instance_mix_covers_every_outcome() {
    let mut r = 0x5eed_u64;
    let mut next = |m: u64| {
        r = splitmix(r);
        r % m
    };
    let (mut placed, mut impossible, mut greedy_misses) = (0, 0, 0);
    let mut scratch = PackScratch::default();
    for _ in 0..2_000 {
        let halves: Vec<u32> = (0..1 + next(8)).map(|_| 1 + next(8) as u32).collect();
        let hosts: Vec<(u32, u8)> =
            (0..2 + next(15)).map(|_| (next(9) as u32, next(6) as u8)).collect();
        let (cpu, machines, load) = instance(&halves, &hosts, next(2) == 1);
        let seed = next(u64::MAX);
        let packing = cpu_packing(&cpu, &free_of(&machines, &load), &mut scratch);
        let ok = place(&app(&cpu, seed), &machines, &load, seed & 1 == 1, seed);
        assert!(packing != Packing::Impossible || !ok, "{cpu:?} on {:?}", load.cpu_used);
        placed += ok as u32;
        impossible += (packing == Packing::Impossible) as u32;
        greedy_misses += (packing == Packing::Found && !ok) as u32;
    }
    assert!(
        placed > 200 && impossible > 200 && greedy_misses > 20,
        "{placed} placed, {impossible} impossible, {greedy_misses} packable but missed"
    );
}

/// 2.0 + 2.0 on one 4-core host next to a full one: a sum that lands
/// exactly on the free CPU, an ulp past it, and just inside the fit
/// test's [`CPU_TOL`] all pack; just outside it the placer fails while
/// the check, looser by design, still answers "fits"; a full host packs
/// nothing.
#[test]
fn exact_boundary_sums_pack() {
    let cpu = [2.0, 2.0];
    let app = app(&cpu, 1);
    let machines = Machines::uniform(2, 4.0);
    let cases = [
        (0.0, true, Packing::Found),
        (f64::EPSILON, true, Packing::Found),
        (CPU_TOL / 2.0, true, Packing::Found),
        (2.0 * CPU_TOL, false, Packing::Found),
        (4.0, false, Packing::Impossible),
    ];
    for (used, placed, packing) in cases {
        let mut load = NetworkLoad::new(2);
        load.cpu_used = vec![used, 4.0];
        assert_eq!(place(&app, &machines, &load, false, 1), placed, "used {used}");
        let free = free_of(&machines, &load);
        assert_eq!(cpu_packing(&cpu, &free, &mut PackScratch::default()), packing, "used {used}");
    }
}

/// Seventeen 2-core tasks on sixteen hosts of pairwise different free
/// CPU, each too small for two: no packing exists, but neither bound
/// shows it, and no two hosts share a value to share a branch — the
/// search runs out of its budget and must answer "fits".
#[test]
fn an_exhausted_budget_answers_fits() {
    let cpu = [2.0; 17];
    let free: Vec<f64> = (0..16).map(|i| 3.0 + i as f64 / 32.0).collect();
    let packing = cpu_packing(&cpu, &free, &mut PackScratch::default());
    assert_eq!(packing, Packing::Undecided, "budget {PACK_NODE_BUDGET}");
    assert!(packing.may_fit());
    // One task fewer packs, on the first descent.
    assert_eq!(cpu_packing(&cpu[..16], &free, &mut PackScratch::default()), Packing::Found);
}
