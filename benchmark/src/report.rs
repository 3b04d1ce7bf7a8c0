//! What a run prints and writes: every metric by name with its unit,
//! the spread and the raw per-child values, and the machine they were
//! taken on.

use std::fmt::Write as _;

use crate::child::OUT_DIR;
use crate::proc::Machine;
use crate::stats::Summary;

/// A run has two halves: untraced children give the end-to-end metrics,
/// traced rounds the per-layer ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Half {
    EndToEnd,
    PerLayer,
}

impl Half {
    pub fn tag(self) -> &'static str {
        match self {
            Half::EndToEnd => "end_to_end",
            Half::PerLayer => "per_layer",
        }
    }
}

pub struct WorkloadReport {
    pub workload: &'static str,
    pub half: Half,
    pub loop_type: &'static str,
    /// Child processes the medians are taken over.
    pub children: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Why the outputs are not correct; empty when they are.
    pub problems: Vec<String>,
    pub metrics: Vec<(&'static str, &'static str, Summary)>,
    /// The timings as measured, before scaling to the quiet machine,
    /// and the slowdown the reference computation saw.
    pub raw: Vec<(String, Summary)>,
    pub digests: Vec<String>,
    /// Tables the children asked to have shown.
    pub shown: Vec<String>,
}

impl WorkloadReport {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

pub fn print_human(machine: &Machine, seed: u64, reports: &[WorkloadReport]) {
    println!(
        "# cores {} · kernel {} · {} · seed {seed}",
        machine.cores, machine.kernel, machine.rustc
    );
    for r in reports {
        println!(
            "## {} · {} · {} children · loop: {} · attempted {} · failed {} · {}",
            r.workload,
            r.half.tag(),
            r.children,
            r.loop_type,
            r.attempted,
            r.failed,
            if r.correct() { "correct" } else { "INCORRECT" }
        );
        for p in &r.problems {
            println!("   problem: {p}");
        }
        for (name, unit, s) in &r.metrics {
            println!(
                "   {name:<38} {:>14.4} {unit:<7} min {:.4} max {:.4} iqr {:.4} n {}",
                s.median,
                s.min,
                s.max,
                s.iqr,
                s.samples.len()
            );
        }
        for (name, s) in &r.raw {
            println!(
                "   {name:<38} {:>14.4} {:<7} min {:.4} max {:.4} iqr {:.4} n {}",
                s.median,
                "",
                s.min,
                s.max,
                s.iqr,
                s.samples.len()
            );
        }
        if !r.digests.is_empty() {
            println!("   digests {}", r.digests.join(" "));
        }
        for line in &r.shown {
            println!("   {line}");
        }
    }
}

fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to String"),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON has no NaN or infinity; a metric that came out as one reads 0.
fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// The line the driver reads: the verdict and each metric's median.
pub fn driver_line(r: &WorkloadReport) -> String {
    let metrics: Vec<String> = r
        .metrics
        .iter()
        .map(|(name, unit, s)| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(name),
                json_num(s.median),
                json_string(unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics.join(", ")
    )
}

fn json_list(values: impl Iterator<Item = String>) -> String {
    format!("[{}]", values.collect::<Vec<_>>().join(", "))
}

fn json_samples(s: &Summary) -> String {
    json_list(s.samples.iter().map(|v| json_num(*v)))
}

/// Write the full report, per-child values included, to
/// `benchmark/out/<stem>.json`. A report that cannot be written is not
/// worth failing a run over.
pub fn write_json(
    machine: &Machine,
    seed: u64,
    seconds: u64,
    reports: &[WorkloadReport],
    stem: &str,
) {
    let runs: Vec<String> = reports
        .iter()
        .map(|r| {
            let metrics: Vec<String> = r
                .metrics
                .iter()
                .map(|(name, unit, m)| {
                    format!(
                        "       {}: {{\"unit\": {}, \"median\": {}, \"min\": {}, \"max\": {}, \"iqr\": {}, \"values\": {}}}",
                        json_string(name),
                        json_string(unit),
                        json_num(m.median),
                        json_num(m.min),
                        json_num(m.max),
                        json_num(m.iqr),
                        json_samples(m)
                    )
                })
                .collect();
            let raw: Vec<String> = r
                .raw
                .iter()
                .map(|(name, m)| format!("{}: {}", json_string(name), json_samples(m)))
                .collect();
            format!(
                "    {{\"workload\": {}, \"half\": {}, \"loop\": {}, \"children\": {}, \"correct\": {}, \"attempted\": {}, \"failed\": {},\n     \"problems\": {},\n     \"digests\": {},\n     \"metrics\": {{\n{}\n     }},\n     \"raw\": {{{}}}}}",
                json_string(r.workload),
                json_string(r.half.tag()),
                json_string(r.loop_type),
                r.children,
                r.correct(),
                r.attempted,
                r.failed,
                json_list(r.problems.iter().map(|p| json_string(p))),
                json_list(r.digests.iter().map(|d| json_string(d))),
                metrics.join(",\n"),
                raw.join(", ")
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"cores\": {},\n  \"kernel\": {},\n  \"rustc\": {},\n  \"seed\": {seed},\n  \"seconds\": {seconds},\n  \"runs\": [\n{}\n  ]\n}}\n",
        machine.cores,
        json_string(&machine.kernel),
        json_string(&machine.rustc),
        runs.join(",\n")
    );
    let path = format!("{OUT_DIR}/{stem}.json");
    if std::fs::create_dir_all(OUT_DIR).and_then(|()| std::fs::write(&path, text)).is_err() {
        eprintln!("# could not write {path}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::summarize;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = WorkloadReport {
            workload: "w",
            half: Half::EndToEnd,
            loop_type: "closed",
            children: 2,
            attempted: 10,
            failed: 0,
            problems: vec![],
            metrics: vec![("setup_s", "s", summarize(&[0.25, 0.75]))],
            raw: vec![],
            digests: vec![],
            shown: vec![],
        };
        assert_eq!(
            driver_line(&r),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_num(f64::NAN), "0");
    }
}
