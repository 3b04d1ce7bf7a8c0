//! Exposition-conformance property suite: whatever the registry renders,
//! the mini text-format parser in `choreo_metrics::parse` must accept it
//! and read the same values back — over random metric sets, random label
//! values (including every character the format escapes), and random
//! observations.

use choreo_metrics::{parse, Family, LabelSet, Registry};
use proptest::prelude::*;

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
struct TwoLabels(String, String);

impl LabelSet for TwoLabels {
    fn label_names() -> &'static [&'static str] {
        &["kind", "detail"]
    }

    fn label_values(&self) -> Vec<String> {
        vec![self.0.clone(), self.1.clone()]
    }
}

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

// One registered metric per spec tuple: `(kind, help_pick, series)`
// where each series entry is `(label_pick_a, label_pick_b, amount)`.
const N_KINDS: u8 = 6;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest::resolve_cases(48)))]
    #[test]
    fn rendered_expositions_conform_and_round_trip(
        specs in prop::collection::vec(
            (0u8..N_KINDS, any::<u64>(), prop::collection::vec((any::<u64>(), any::<u64>(), 0u32..100), 1..5)),
            1..8,
        ),
    ) {
        let r = Registry::new();
        for (i, (kind, help_pick, series)) in specs.iter().enumerate() {
            let name = format!("metric_{i}_total");
            let help = HELP_PARTS[(help_pick % HELP_PARTS.len() as u64) as usize];
            match kind {
                0 => r.counter(&name, help).inc_by(series[0].2 as u64),
                1 => r.gauge(&name, help).set(series[0].2 as f64 / 8.0 - 3.0),
                2 => {
                    let h = r.histogram(&name, help, vec![1.0, 10.0, 100.0]);
                    for (_, _, v) in series {
                        h.observe(*v as f64);
                    }
                }
                3 => {
                    let f: Family<TwoLabels, _> = r.counter_family(&name, help, 3);
                    for (a, b, n) in series {
                        f.get(&TwoLabels(label_value(*a), label_value(*b))).inc_by(*n as u64);
                    }
                }
                4 => {
                    let f: Family<TwoLabels, _> = r.gauge_family(&name, help, 3);
                    for (a, b, v) in series {
                        f.get(&TwoLabels(label_value(*a), label_value(*b))).set(*v as f64 / 4.0);
                    }
                }
                _ => {
                    let f: Family<TwoLabels, _> =
                        r.histogram_family(&name, help, vec![1.0, 50.0], 3);
                    for (a, b, v) in series {
                        f.get(&TwoLabels(label_value(*a), label_value(*b))).observe(*v as f64);
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
                    prop_assert_eq!(fam.samples[0].value, series[0].2 as f64);
                }
                1 => {
                    prop_assert_eq!(fam.samples[0].value, series[0].2 as f64 / 8.0 - 3.0);
                }
                2 => {
                    let count =
                        fam.samples.iter().find(|s| s.name.ends_with("_count")).expect("_count");
                    prop_assert_eq!(count.value, series.len() as f64);
                }
                3 => {
                    // Distinct label sets, capped by the family bound of
                    // 3 (+1 for the `other` overflow series beyond it).
                    let mut keys: Vec<(String, String)> = series
                        .iter()
                        .map(|(a, b, _)| (label_value(*a), label_value(*b)))
                        .collect();
                    keys.sort();
                    keys.dedup();
                    let expected = if keys.len() > 3 { 4 } else { keys.len() };
                    prop_assert_eq!(fam.samples.len(), expected, "bounded cardinality");
                    let total: f64 = fam.samples.iter().map(|s| s.value).sum();
                    let recorded: u32 = series.iter().map(|(_, _, n)| n).sum();
                    prop_assert_eq!(total, recorded as f64, "no count lost to overflow folding");
                    // Within the bound, every label value survives the
                    // escape → unescape round trip.
                    if keys.len() <= 3 {
                        for (a, b) in &keys {
                            prop_assert!(
                                fam.samples.iter().any(|s| {
                                    s.label("kind") == Some(a.as_str())
                                        && s.label("detail") == Some(b.as_str())
                                }),
                                "series {:?} lost its labels in\n{}", (a, b), text
                            );
                        }
                    }
                }
                4 => {
                    prop_assert!(!fam.samples.is_empty());
                }
                _ => {
                    let total: f64 = fam
                        .samples
                        .iter()
                        .filter(|s| s.name.ends_with("_count"))
                        .map(|s| s.value)
                        .sum();
                    prop_assert_eq!(total, series.len() as f64, "family histogram count");
                }
            }
        }
    }
}

#[test]
fn live_service_shaped_exposition_validates() {
    // The same shape the service registers: plain instruments plus every
    // family kind, rendered and validated end to end.
    let r = Registry::new();
    r.counter("choreo_service_events_total", "Tenant events consumed").inc();
    r.gauge("choreo_queue_depth", "Tenants waiting").set(3.0);
    r.histogram("choreo_placement_latency_seconds", "Latency", vec![1e-6, 1e-3, 1.0]).observe(2e-4);
    let f: Family<TwoLabels, _> = r.counter_family("choreo_outcomes_total", "By outcome", 8);
    f.get(&TwoLabels("admitted".into(), "arrival".into())).inc();
    parse::validate(&r.render()).expect("service-shaped exposition conforms");
}
