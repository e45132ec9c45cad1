//! End-to-end and per-layer benchmark of the autofeat workspace.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <wide_serve|lake_churn> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`: the end-to-end metrics with
//! `--trace 0`, the per-layer metrics with `--trace 1`. The line before it
//! records what the run needs to be trusted: `nproc`, the commit, the
//! operations per phase, and the run-queue wait and steal time the run saw.
//! See README.md for the workloads and what each metric means.

mod checks;
mod cpu;
mod gen;
mod layers;
mod run;
mod stats;

use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use run::{Ledger, Tracers};
use stats::{median, TAIL_Q};

/// Environment variables that silently change what a run measures.
const FORBIDDEN_ENV: [&str; 4] = [
    "AUTOFEAT_THREADS",
    "AUTOFEAT_POOL",
    "AUTOFEAT_CACHE_BUDGET",
    "AUTOFEAT_TRACE",
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let get = |flag: &str| -> Result<&str, String> {
        let i = argv
            .iter()
            .position(|a| a == flag)
            .ok_or(format!("missing {flag}"))?;
        argv.get(i + 1)
            .map(String::as_str)
            .ok_or(format!("{flag} needs a value"))
    };
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload: get("--workload")?.to_string(),
        seed: get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds,
        trace: match get("--trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace must be 0 or 1, not {other}")),
        },
    })
}

/// Peak resident set of this process, in MiB (`VmHWM`).
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines().find(|l| l.starts_with("VmHWM:")).and_then(|l| {
                l.split_whitespace()
                    .nth(1)
                    .and_then(|v| v.parse::<f64>().ok())
            })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Steal ticks of the whole machine so far (`/proc/stat`, `cpu` line).
fn steal_ticks() -> u64 {
    std::fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| {
            s.lines()
                .next()
                .and_then(|l| l.split_whitespace().nth(8).and_then(|v| v.parse().ok()))
        })
        .unwrap_or(0)
}

/// The checked-out commit, when the checkout is a git work tree.
fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| "unknown".into()),
        None if !head.is_empty() => head.to_string(),
        None => "unknown".into(),
    }
}

/// Metrics in output order, each with its unit.
#[derive(Default)]
struct Metrics(Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    fn json(&self) -> String {
        let mut s = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            // JSON has no NaN or infinity; such a value fails the run's
            // checks (see `main`) and prints as 0.
            let v = if value.is_finite() { *value } else { 0.0 };
            write!(
                s,
                "{sep}\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
            )
            .expect("string write");
        }
        s.push('}');
        s
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(var) = FORBIDDEN_ENV.iter().find(|v| std::env::var_os(v).is_some()) {
        eprintln!("perfbench: refusing to run with {var} set: it changes what is measured");
        return ExitCode::from(2);
    }
    if !gen::WORKLOADS.contains(&args.workload.as_str()) {
        eprintln!("perfbench: unknown workload `{}`", args.workload);
        return ExitCode::from(2);
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let steal0 = steal_ticks();
    let t_run = Instant::now();
    let mut ledger = Ledger::default();

    let metrics = if args.trace {
        traced_run(&args, nproc, &mut ledger)
    } else {
        measured_run(&args, nproc, &mut ledger)
    };

    let total = ledger.total();
    let mut record = format!(
        "# workload={} seed={} trace={} nproc={nproc} commit={} wall_s={:.1} runq_wait_ms={:.1} steal_ticks={}",
        args.workload,
        args.seed,
        args.trace as u8,
        commit(),
        t_run.elapsed().as_secs_f64(),
        ledger.runq_wait_ns as f64 / 1e6,
        steal_ticks().saturating_sub(steal0),
    );
    for (phase, ops) in &ledger.ops {
        write!(
            record,
            " {phase}={}/{}",
            ops.attempted - ops.failed,
            ops.attempted
        )
        .expect("string write");
    }
    println!("{record}");
    let metrics = metrics.unwrap_or_default();
    for (name, value, _) in &metrics.0 {
        if !value.is_finite() {
            ledger.check(Err(format!("metric {name} is {value}")));
        }
    }
    for p in &ledger.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = ledger.problems.is_empty() && !metrics.0.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        total.attempted.max(1),
        total.failed,
        metrics.json()
    );
    ExitCode::SUCCESS
}

/// The untraced run, reduced to the end-to-end metrics.
///
/// Every timing is CPU time (see `cpu`). A latency figure pools the
/// samples of every block of the run; `setup_s` is the median of the
/// blocks' set-ups.
fn measured_run(args: &Args, nproc: usize, ledger: &mut Ledger) -> Option<Metrics> {
    let c = run::run_blocks(
        |b| gen::block_lakes(&args.workload, args.seed, b),
        args.seconds,
        nproc,
        &Tracers::new(false),
        ledger,
    )?;
    let select_s = c.selected.figure();
    let acc = &c.augmented.accuracies;
    let mut m = Metrics::default();
    m.put("setup_s", median(&c.setup), "s");
    m.put("peak_rss_mb", peak_rss_mib(), "MiB");
    m.put("serve_cpu_p50_ms", c.served.samples.p50(), "ms");
    m.put("serve_cpu_tail_ms", c.served.samples.pooled(TAIL_Q), "ms");
    m.put("solo_cpu_p50_ms", c.solo.samples.p50(), "ms");
    m.put("churn_mutate_cpu_p50_ms", c.churned.mutate.p50(), "ms");
    m.put(
        "churn_mutate_cpu_tail_ms",
        c.churned.mutate.pooled(TAIL_Q),
        "ms",
    );
    m.put("churn_read_cpu_p50_ms", c.churned.read.p50(), "ms");
    m.put(
        "churn_read_cpu_tail_ms",
        c.churned.read.pooled(TAIL_Q),
        "ms",
    );
    m.put("select_cpu_s", select_s, "s");
    m.put(
        "augment_cpu_s",
        select_s + c.augmented.train.as_secs_f64(),
        "s",
    );
    m.put(
        "augment_accuracy",
        acc.iter().sum::<f64>() / acc.len().max(1) as f64,
        "ratio",
    );
    Some(m)
}

/// The traced run, reduced to the per-layer metrics.
fn traced_run(args: &Args, nproc: usize, ledger: &mut Ledger) -> Option<Metrics> {
    use autofeat::core::RunTrace;
    use layers::{counter, ms, ns, ratio, span, us};

    let tracers = Tracers::new(true);
    let c = run::run_blocks(
        |b| gen::block_lakes(&args.workload, args.seed, b),
        args.seconds,
        nproc,
        &tracers,
        ledger,
    )?;
    let (setup, mutation, train) = (
        tracers.setup.snapshot(),
        tracers.mutation.snapshot(),
        tracers.train.snapshot(),
    );
    let blocks = c.setup.len() as f64;
    let serve: Vec<&RunTrace> = c.served.traces.iter().map(|(t, _)| t).collect();
    let solo: Vec<&RunTrace> = c.solo.traces.iter().map(|(t, _)| t).collect();
    let reads: Vec<&RunTrace> = c.churned.read_traces.iter().collect();
    let all: Vec<&RunTrace> = serve.iter().chain(&solo).chain(&reads).copied().collect();
    let requests = serve.len() as f64;
    let s = |name: &str| span(serve.iter().copied(), name);
    let sc = |name: &str| counter(serve.iter().copied(), name) as f64;

    let left_rows = sc("join.left_rows");
    let setup_builds = span([&setup], "index_build");
    let read_builds = span(reads.iter().copied(), "index_build");
    let hits = counter(all.iter().copied(), "cache.hits") as f64;
    let misses = counter(all.iter().copied(), "cache.misses") as f64;
    let (eval_busy, eval_wall) = layers::fanout(solo.iter().copied(), "eval");
    let pairs = counter([&setup], "match.pairs_scored") as f64;
    let overhead: Vec<f64> = c
        .served
        .traces
        .iter()
        .map(|(t, lat)| us(*lat) - t.phase("discover").map_or(0.0, |p| us(p.wall)))
        .collect();
    let pruned = sc("discover.pruned_unjoinable")
        + sc("discover.pruned_quality")
        + sc("discover.pruned_budget");
    let per_call = |name: &str| {
        let t = span([&mutation], name);
        ratio(ms(t.wall), t.count as f64)
    };
    // A remove's self time is the table-map clone and snapshot swap; an
    // add's also holds the new table's profiling, which no span separates.
    let swaps = span([&mutation], "lake_remove_table");

    let mut m = Metrics::default();
    m.put(
        "data.join_ns_per_row",
        ratio(ns(s("join").self_time), left_rows),
        "ns",
    );
    m.put(
        "data.index_build_ms",
        ratio(
            ms(setup_builds.wall + read_builds.wall),
            (setup_builds.count + read_builds.count) as f64,
        ),
        "ms",
    );
    m.put(
        "data.index_builds",
        ratio(read_builds.count as f64, c.churned.cycles as f64),
        "count",
    );
    m.put("data.cache_hit_ratio", ratio(hits, hits + misses), "ratio");
    m.put("data.key_meta_ms", 1e3 * median(&c.key_meta), "ms");
    m.put(
        "data.sample_us",
        ratio(us(s("sample").self_time), requests),
        "us",
    );
    // Workers record their spans as children of `eval`; their summed time
    // is the fan-out's busy time.
    m.put(
        "data.fanout_busy_ratio",
        ratio(
            eval_busy.as_secs_f64(),
            nproc as f64 * eval_wall.as_secs_f64(),
        ),
        "ratio",
    );
    m.put(
        "data.materialize_ms",
        ms(span([&train], "materialize").wall),
        "ms",
    );
    // The DRG builder profiles each table inside `drg_build` and scores its
    // pairs inside `drg_incremental_add`, so profiling is the build's self
    // time and matching is the adds' time.
    m.put(
        "discovery.profile_us_per_column",
        ratio(
            us(span([&setup], "drg_build").self_time),
            counter([&setup], "match.profiles_built") as f64,
        ),
        "us",
    );
    m.put("discovery.pairs_scored", pairs / blocks, "count");
    m.put(
        "discovery.match_us_per_pair",
        ratio(us(span([&setup], "drg_incremental_add").wall), pairs),
        "us",
    );
    m.put(
        "discovery.candidate_yield",
        ratio(counter([&setup], "match.pairs_matched") as f64, pairs),
        "ratio",
    );
    m.put("graph.add_ms", per_call("drg_incremental_add"), "ms");
    m.put("graph.remove_ms", per_call("drg_incremental_remove"), "ms");
    m.put("graph.assemble_ms", per_call("drg_assemble"), "ms");
    m.put("graph.edges", c.edges as f64, "count");
    m.put(
        "graph.enumerate_us",
        ratio(us(s("enumerate").wall), requests),
        "us",
    );
    m.put(
        "metrics.discretize_ns_per_row",
        ratio(ns(s("discretize").self_time), left_rows),
        "ns",
    );
    m.put(
        "metrics.relevance_us_per_feature",
        ratio(us(s("relevance").self_time), sc("metrics.features_scored")),
        "us",
    );
    m.put(
        "metrics.redundancy_us_per_candidate",
        ratio(
            us(s("redundancy").self_time),
            sc("metrics.redundancy_candidates"),
        ),
        "us",
    );
    m.put(
        "ml.model_eval_s",
        span([&train], "model_eval").wall.as_secs_f64(),
        "s",
    );
    m.put(
        "ml.models_evaluated",
        counter([&train], "ml.models_evaluated") as f64,
        "count",
    );
    m.put(
        "core.request_overhead_us",
        ratio(overhead.iter().sum(), overhead.len() as f64),
        "us",
    );
    m.put(
        "core.joins_per_request",
        ratio(sc("discover.joins_evaluated"), requests),
        "count",
    );
    m.put(
        "core.prune_ratio",
        ratio(pruned, sc("discover.candidates_enumerated")),
        "ratio",
    );
    m.put(
        "core.lake_swap_us",
        ratio(us(swaps.self_time), swaps.count as f64),
        "us",
    );
    m.put(
        "obs.trace_overhead_ratio",
        ratio(c.served.samples.p50(), c.plain.samples.p50()),
        "ratio",
    );
    Some(m)
}
