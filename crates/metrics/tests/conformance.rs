//! Exposition-conformance property suite: whatever the registry renders,
//! the mini text-format parser in `choreo_metrics::parse` must accept it
//! and read the same values back — over random metric sets, random label
//! values (including every character the format escapes), and random
//! observations.

use choreo_metrics::{parse, Registry};
use proptest::prelude::*;

/// Label-value alphabet: the full escape surface (backslash, quote,
/// newline) plus the structural characters a sloppy renderer would trip
/// over (braces, comma, equals) and some ordinary text.
const LABEL_PARTS: &[&str] = &["\\", "\"", "\n", "{", "}", ",", "=", "plain", "x y", "π", "7", ""];

/// Help-text alphabet: HELP escapes only `\` and newline.
const HELP_PARTS: &[&str] =
    &["Requests served", "tail \\", "two\nlines", "", "spaces  inside", "\\n literal"];

fn label_value(mut pick: u64) -> String {
    let mut out = String::new();
    for _ in 0..3 {
        out.push_str(LABEL_PARTS[(pick % LABEL_PARTS.len() as u64) as usize]);
        pick /= LABEL_PARTS.len() as u64;
    }
    out
}

/// The distinct label values picked by `series`, in first-pick order.
fn distinct_values(series: &[(u64, u32)]) -> Vec<String> {
    let mut values: Vec<String> = Vec::new();
    for (pick, _) in series {
        let v = label_value(*pick);
        if !values.contains(&v) {
            values.push(v);
        }
    }
    values
}

// One registered metric per spec tuple: `(kind, help_pick, series)`
// where each series entry is `(label_pick, amount)`.
const N_KINDS: u8 = 4;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(48)))]
    #[test]
    fn rendered_expositions_conform_and_round_trip(
        specs in prop::collection::vec(
            (0u8..N_KINDS, any::<u64>(), prop::collection::vec((any::<u64>(), 0u32..100), 1..5)),
            1..8,
        ),
    ) {
        let r = Registry::new();
        for (i, (kind, help_pick, series)) in specs.iter().enumerate() {
            let name = format!("metric_{i}_total");
            let help = HELP_PARTS[(help_pick % HELP_PARTS.len() as u64) as usize];
            match kind {
                0 => r.counter(&name, help).inc_by(series[0].1 as u64),
                1 => r.gauge(&name, help).set(series[0].1 as f64 / 8.0 - 3.0),
                2 => {
                    let h = r.histogram(&name, help, vec![1.0, 10.0, 100.0]);
                    for (_, v) in series {
                        h.observe(*v as f64);
                    }
                }
                _ => {
                    let gauges = r.labeled_gauges(&name, help, "detail", distinct_values(series));
                    for (gauge, (_, v)) in gauges.iter().zip(series) {
                        gauge.set(*v as f64 / 4.0);
                    }
                }
            }
        }

        // The structural validation must pass on whatever rendered…
        let text = r.render();
        let families = match parse::validate(&text) {
            Ok(f) => f,
            Err(e) => return Err(format!("{e}\n--- exposition ---\n{text}")),
        };
        prop_assert_eq!(families.len(), specs.len());

        // …and the parsed values must agree with what was recorded.
        for ((kind, help_pick, series), fam) in specs.iter().zip(&families) {
            let help = HELP_PARTS[(help_pick % HELP_PARTS.len() as u64) as usize];
            prop_assert_eq!(fam.help.as_deref(), Some(help), "HELP round trip");
            match kind {
                0 => {
                    prop_assert_eq!(fam.samples.len(), 1);
                    prop_assert_eq!(fam.samples[0].value, series[0].1 as f64);
                }
                1 => {
                    prop_assert_eq!(fam.samples[0].value, series[0].1 as f64 / 8.0 - 3.0);
                }
                2 => {
                    let count =
                        fam.samples.iter().find(|s| s.name.ends_with("_count")).expect("_count");
                    prop_assert_eq!(count.value, series.len() as f64);
                }
                _ => {
                    // One series per distinct value, in registration
                    // order, every value back through escape → unescape.
                    prop_assert_eq!(fam.kind.as_str(), "gauge");
                    let values = distinct_values(series);
                    prop_assert_eq!(fam.samples.len(), values.len());
                    for ((sample, value), (_, v)) in fam.samples.iter().zip(&values).zip(series) {
                        prop_assert_eq!(&sample.labels, &vec![("detail".to_string(), value.clone())]);
                        prop_assert_eq!(sample.value, *v as f64 / 4.0, "{}", text);
                    }
                }
            }
        }
    }
}

#[test]
fn live_service_shaped_exposition_validates() {
    // The shape the service registers: plain instruments plus its two
    // labeled gauges (8 tenant buckets; a pod per index, then the spine),
    // rendered and validated end to end.
    let r = Registry::new();
    r.counter("choreo_service_events_total", "Tenant events consumed").inc();
    r.gauge("choreo_queue_depth", "Tenants waiting").set(3.0);
    r.histogram("choreo_placement_latency_seconds", "Latency", vec![1e-6, 1e-3, 1.0]).observe(2e-4);
    let slo = r.labeled_gauges(
        "choreo_tenant_slo_attainment",
        "By tenant-id bucket",
        "tenant_bucket",
        (0..8).map(|b: u32| b.to_string()),
    );
    slo[5].set(0.5);
    let pods = r.labeled_gauges(
        "choreo_pod_capacity_lost_fraction",
        "By pod",
        "pod",
        (0..12).map(|p: u32| p.to_string()).chain(["spine".to_string()]),
    );
    pods[12].set(0.25);
    let families = parse::validate(&r.render()).expect("service-shaped exposition conforms");
    let pod_labels: Vec<&str> =
        families[4].samples.iter().map(|s| s.label("pod").expect("pod label")).collect();
    assert_eq!(pod_labels, ["0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "spine"]);
    assert_eq!(families[4].samples[12].value, 0.25);
    assert_eq!(families[3].samples.len(), 8);
    assert_eq!(families[3].samples[5].value, 0.5);
}
