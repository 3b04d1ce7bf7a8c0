//! The repo's one benchmark. See `benchmark/README.md`.
//!
//! ```text
//! choreo-benchmark --workload W --seed N --seconds S --trace 0|1   one workload (the driver's form)
//! choreo-benchmark [--seed N] [--seconds S]                        all four, interleaved, both halves
//! choreo-benchmark --aa [--seed N] [--seconds S]                   the above twice, compared
//! ```

mod calib;
mod catalog;
mod child;
mod layers;
mod loopback;
mod proc;
mod report;
mod sim;
mod spans;
mod stats;
#[cfg(test)]
mod surface;
mod workload;

use std::collections::BTreeMap;
use std::process::{Command, ExitCode, Stdio};

use catalog::{Scaled, END_TO_END, PER_LAYER};
use report::{Half, WorkloadReport};
use stats::summarize;
use workload::{Kind, Spec};

/// `--key value` pairs; bare `--flag`s read as `"1"`.
struct Args(BTreeMap<String, String>);

impl Args {
    fn parse() -> Result<Args, String> {
        let mut map = BTreeMap::new();
        let mut it = std::env::args().skip(1).peekable();
        while let Some(key) = it.next() {
            let key = key.strip_prefix("--").ok_or(format!("expected --flag, got {key:?}"))?;
            let value = match it.peek() {
                Some(v) if !v.starts_with("--") => it.next().expect("peeked"),
                _ => "1".to_string(),
            };
            map.insert(key.to_string(), value);
        }
        Ok(Args(map))
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.0.get(key).map(String::as_str)
    }

    fn num(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            Some(v) => v.parse().map_err(|_| format!("--{key} wants a whole number, got {v:?}")),
            None => Ok(default),
        }
    }
}

/// Each run measures several independent sub-streams of its seed, one
/// child process each, and reports the median over them: how a stream
/// happens to load the cluster moves a timing as much as the machine
/// does, and neither should decide a comparison. Sub-stream `k` of seed
/// `n` is generated from stream seed `1000 n + k`.
fn stream_seed(seed: u64, k: u32) -> u64 {
    seed.wrapping_mul(1000).wrapping_add(k as u64)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum JobKind {
    Timed,
    Verify,
    Layers,
}

#[derive(Debug, Clone, Copy)]
struct Job {
    kind: JobKind,
    /// Sub-stream for `Timed`, round for `Layers`.
    index: u32,
    /// Sub-streams a `Timed` child measures, from `index` on.
    passes: u32,
}

/// The child processes one half of one workload's run is made of. The
/// counts depend only on `seconds`, so a seed always means the same
/// inputs.
fn plan(spec: &Spec, seconds: u64, half: Half) -> Vec<Job> {
    let job = |kind, index| Job { kind, index, passes: 1 };
    match half {
        Half::EndToEnd => {
            let streams = ((seconds as f64 / spec.stream_seconds) as u32).max(3);
            let mut jobs: Vec<Job> = match spec.kind {
                // One child pools them: see `child::timed`.
                Kind::ServeLoopback => {
                    vec![Job { kind: JobKind::Timed, index: 0, passes: streams }]
                }
                _ => (0..streams).map(|k| job(JobKind::Timed, k)).collect(),
            };
            jobs.push(job(JobKind::Verify, 0));
            jobs
        }
        Half::PerLayer => {
            let rounds = ((seconds as f64 / spec.round_seconds) as u32).max(1);
            (0..rounds).map(|r| job(JobKind::Layers, r)).collect()
        }
    }
}

/// What a child printed.
#[derive(Default)]
struct Output {
    nums: BTreeMap<String, f64>,
    texts: BTreeMap<String, String>,
    shown: Vec<String>,
    exited_ok: bool,
}

fn run_job(job: Job, spec: &Spec, seed: u64) -> Output {
    let exe = std::env::current_exe().expect("the benchmark knows its own path");
    let (kind, stream) = match job.kind {
        JobKind::Timed => ("timed", job.index),
        JobKind::Verify => ("verify", 0),
        JobKind::Layers => ("layers", 0),
    };
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", spec.name])
        .args(["--stream-seed", &stream_seed(seed, stream).to_string()])
        .args(["--passes", &job.passes.to_string()])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if job.kind == JobKind::Layers && job.index == 0 {
        cmd.args(["--first-round", "1"]);
    }
    let mut out = Output::default();
    let Ok(done) = cmd.output() else { return out };
    out.exited_ok = done.status.success();
    for line in String::from_utf8_lossy(&done.stdout).lines() {
        if let Some(rest) = line.strip_prefix("= ") {
            if let Some((name, v)) = rest.split_once(' ') {
                if let Ok(v) = v.parse::<f64>() {
                    out.nums.insert(name.to_string(), v);
                }
            }
        } else if let Some(rest) = line.strip_prefix("~ ") {
            if let Some((name, v)) = rest.split_once(' ') {
                out.texts.insert(name.to_string(), v.to_string());
            }
        } else if let Some(rest) = line.strip_prefix("| ") {
            out.shown.push(rest.to_string());
        }
    }
    out
}

/// Fold one half's child outputs into the workload's report.
fn aggregate(spec: &Spec, half: Half, jobs: &[Job], outs: &[Output]) -> WorkloadReport {
    let mut problems = Vec::new();
    // The verify child supplies the simulated statistics, from one
    // sub-stream; every other metric is a median over the rest.
    let of_kind = |verify: bool| -> Vec<&Output> {
        let keep = |j: &Job| (j.kind == JobKind::Verify) == verify;
        jobs.iter().zip(outs).filter(|(j, _)| keep(j)).map(|(_, o)| o).collect()
    };
    let measured = of_kind(false);
    for (job, out) in jobs.iter().zip(outs) {
        if !out.exited_ok {
            problems.push(format!("{:?} child {} failed", job.kind, job.index));
        }
        for (name, v) in &out.nums {
            if name.starts_with("ok.") && *v != 1.0 {
                problems.push(format!("check {name} failed in {:?} child {}", job.kind, job.index));
            }
        }
    }
    let names: Vec<(&str, &str, bool, Scaled)> = match half {
        Half::EndToEnd => END_TO_END.iter().map(|m| (m.name, m.unit, m.exact, m.scaled)).collect(),
        Half::PerLayer => PER_LAYER.iter().map(|m| (m.name, m.unit, false, Scaled::No)).collect(),
    };
    // Each child scaled its timings to the quietest machine it saw
    // itself; a child that never saw it quiet is brought the rest of the
    // way, to the fastest quiet tick of any child of the run.
    let quiet_tick = |o: &Output| o.nums.get("raw.quiet_tick_ns").copied();
    let reference = measured.iter().filter_map(|o| quiet_tick(o)).fold(f64::INFINITY, f64::min);
    let to_reference = |o: &Output, scaled: Scaled| match (quiet_tick(o), scaled) {
        (Some(own), Scaled::Time) => reference / own,
        (Some(own), Scaled::Rate) => own / reference,
        _ => 1.0,
    };
    let mut metrics = Vec::new();
    for (name, unit, from_verify, scaled) in names {
        let sources = of_kind(from_verify);
        let samples: Vec<f64> = sources
            .iter()
            .filter_map(|o| o.nums.get(name).map(|v| v * to_reference(o, scaled)))
            .collect();
        if samples.len() != sources.len() || samples.iter().any(|v| !v.is_finite()) {
            problems.push(format!("metric {name} missing from a child"));
        }
        if !samples.is_empty() {
            metrics.push((name, unit, summarize(&samples)));
        }
    }
    // What the children measured before scaling to the quiet machine.
    let mut raw_names: Vec<&String> =
        measured.iter().flat_map(|o| o.nums.keys()).filter(|k| k.starts_with("raw.")).collect();
    raw_names.sort();
    raw_names.dedup();
    let raw = raw_names
        .into_iter()
        .map(|name| {
            let samples: Vec<f64> =
                measured.iter().filter_map(|o| o.nums.get(name).copied()).collect();
            (name.clone(), summarize(&samples))
        })
        .collect();
    // One digest per sub-stream; the first sim stream's must also be
    // what a direct scheduler replay in another process arrives at.
    let digests: Vec<String> =
        measured.iter().filter_map(|o| o.texts.get("digest").cloned()).collect();
    let sim = spec.kind != Kind::ServeLoopback;
    if let (true, Some(verify)) = (sim, of_kind(true).first()) {
        let (timed, direct) = (digests.first(), verify.texts.get("direct_digest"));
        if timed.is_none() || timed != direct {
            problems.push(format!("digests differ: service {timed:?}, direct replay {direct:?}"));
        }
    }
    if half == Half::PerLayer && sim {
        if let Some(first) = digests.first() {
            if digests.iter().any(|d| d != first) {
                problems.push(format!("rounds disagree on the digest: {digests:?}"));
            }
        }
    }
    let sum = |name: &str| measured.iter().filter_map(|o| o.nums.get(name)).sum::<f64>() as u64;
    WorkloadReport {
        workload: spec.name,
        half,
        loop_type: spec.loop_type,
        children: measured.len(),
        attempted: sum("attempted").max(1),
        failed: sum("failed"),
        problems,
        metrics,
        raw,
        digests,
        shown: outs.iter().flat_map(|o| o.shown.iter().cloned()).collect(),
    }
}

/// Every workload, both halves, as child processes taken round-robin
/// (`A B C D A B C D ...`) so a slow spell on the machine is spread
/// over all of them.
fn run_all(seed: u64, seconds: u64) -> Vec<WorkloadReport> {
    let specs = workload::all();
    let mut reports = Vec::new();
    for half in [Half::EndToEnd, Half::PerLayer] {
        let plans: Vec<Vec<Job>> = specs.iter().map(|s| plan(s, seconds, half)).collect();
        let mut outs: Vec<Vec<Output>> = plans.iter().map(|_| Vec::new()).collect();
        let longest = plans.iter().map(Vec::len).max().unwrap_or(0);
        for step in 0..longest {
            for (w, jobs) in plans.iter().enumerate() {
                if let Some(&job) = jobs.get(step) {
                    eprintln!("# {} {:?} {}", specs[w].name, job.kind, job.index);
                    outs[w].push(run_job(job, &specs[w], seed));
                }
            }
        }
        for (w, spec) in specs.iter().enumerate() {
            reports.push(aggregate(spec, half, &plans[w], &outs[w]));
        }
    }
    reports
}

fn run_one(spec: &Spec, seed: u64, seconds: u64, half: Half) -> WorkloadReport {
    let jobs = plan(spec, seconds, half);
    let outs: Vec<Output> = jobs.iter().map(|&j| run_job(j, spec, seed)).collect();
    aggregate(spec, half, &jobs, &outs)
}

/// Two full runs of one commit must agree: every end-to-end metric
/// within its own bound, and everything the inputs determine exactly.
fn compare(a: &[WorkloadReport], b: &[WorkloadReport]) -> Vec<String> {
    let mut diffs = Vec::new();
    for (ra, rb) in a.iter().zip(b) {
        let sim = ra.workload != "serve-loopback";
        if sim && ra.digests != rb.digests {
            diffs.push(format!("{} {:?}: digests differ", ra.workload, ra.half));
        }
        for ((name, _, sa), (_, _, sb)) in ra.metrics.iter().zip(&rb.metrics) {
            let (x, y) = (sa.median, sb.median);
            let (exact, bound) = match ra.half {
                Half::EndToEnd => {
                    let m = END_TO_END.iter().find(|m| m.name == *name).expect("catalogued");
                    (m.exact, Some(m.bound))
                }
                Half::PerLayer => {
                    let m = PER_LAYER.iter().find(|m| m.name == *name).expect("catalogued");
                    (m.exact && sim, None)
                }
            };
            let apart = (x - y).abs() / x.abs().min(y.abs()).max(f64::MIN_POSITIVE);
            let bad = if exact { x != y } else { bound.is_some_and(|b| apart > b) };
            if bad {
                diffs.push(format!(
                    "{} {name}: {x} vs {y} ({:.1}% apart{})",
                    ra.workload,
                    apart * 100.0,
                    if exact { ", must be equal" } else { "" }
                ));
            }
        }
    }
    diffs
}

fn child_main(args: &Args, kind: &str) -> Result<(), String> {
    let name = args.get("workload").ok_or("--child needs --workload")?;
    let spec = workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
    let stream = args.num("stream-seed", 0)?;
    match kind {
        "timed" => child::timed(&spec, stream, args.num("passes", 1)?),
        "verify" => child::verify(&spec, stream),
        "layers" => child::layers(&spec, stream, args.get("first-round").is_some()),
        other => Err(format!("unknown child kind {other:?}")),
    }
}

fn real_main() -> Result<bool, String> {
    let args = Args::parse()?;
    if args.get("print-benchmark-json").is_some() {
        print!("{}", catalog::benchmark_json());
        return Ok(true);
    }
    if let Some(kind) = args.get("child") {
        return child_main(&args, kind).map(|()| true);
    }
    let seed = args.num("seed", 7)?;
    let seconds = args.num("seconds", catalog::RUN_SECONDS as u64)?;
    let machine = proc::machine();
    if let Some(name) = args.get("workload") {
        let spec = workload::by_name(name).ok_or(format!("unknown workload {name:?}"))?;
        let half = match args.num("trace", 0)? {
            0 => Half::EndToEnd,
            _ => Half::PerLayer,
        };
        let r = run_one(&spec, seed, seconds, half);
        report::print_human(&machine, seed, std::slice::from_ref(&r));
        report::write_json(
            &machine,
            seed,
            seconds,
            std::slice::from_ref(&r),
            &format!("{}.{}", r.workload, half.tag()),
        );
        // The driver reads the verdict from the last line, not from the
        // exit code.
        println!("{}", report::driver_line(&r));
        return Ok(true);
    }
    let first = run_all(seed, seconds);
    report::print_human(&machine, seed, &first);
    report::write_json(&machine, seed, seconds, &first, "report");
    let mut ok = first.iter().all(|r| r.problems.is_empty());
    if args.get("aa").is_some() {
        let second = run_all(seed, seconds);
        report::print_human(&machine, seed, &second);
        report::write_json(&machine, seed, seconds, &second, "report.second");
        ok &= second.iter().all(|r| r.problems.is_empty());
        let diffs = compare(&first, &second);
        for d in &diffs {
            println!("A/A DISAGREE {d}");
        }
        println!("A/A: {} disagreement(s) between two runs of the same commit", diffs.len());
        ok &= diffs.is_empty();
    }
    Ok(ok)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(2),
        Err(e) => {
            eprintln!("choreo-benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
