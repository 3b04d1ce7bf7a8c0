//! The surface rule, enforced: later changes may not edit this
//! directory, so it must not name what the ROADMAP plans to consolidate.

/// Identifiers the benchmark's sources must not contain. Each is spelled
/// in two halves so that this file passes its own check.
const FORBIDDEN: &[(&str, &str)] = &[
    ("Solver", "Mode"),
    // The field, as a path and as it would appear in a struct literal.
    ("OnlineConfig::", "workers"),
    ("workers", ":"),
    ("Sharded", "Solver"),
    ("Solve", "Pool"),
    ("Scenario", "Pool"),
    ("max_min", "_rates"),
    ("Live", "Rater"),
    ("Snapshot", "Rater"),
    ("Backend", "Rater"),
    ("Candidate", "Rater"),
    ("trace", "_export"),
    // The one-app orchestrator crate, by path and by crate name.
    ("crates/", "core"),
    ("choreo", "::"),
];

#[test]
fn sources_name_nothing_the_roadmap_plans_to_consolidate() {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut files: Vec<std::path::PathBuf> = std::fs::read_dir(dir.join("src"))
        .expect("src/ is readable")
        .map(|e| e.expect("directory entry").path())
        .collect();
    files.push(dir.join("Cargo.toml"));
    assert!(files.len() > 5, "the check found the sources");
    for file in files {
        let text = std::fs::read_to_string(&file).expect("source is readable");
        for (a, b) in FORBIDDEN {
            let needle = format!("{a}{b}");
            assert!(!text.contains(&needle), "{} names {needle}", file.display());
        }
    }
}
