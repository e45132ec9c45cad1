//! The phases of one run: set-up, serve, solo, churn, select and augment,
//! each timed from outside the program in CPU time (see `cpu`) and each
//! checking the answers it gets.
//!
//! Every workload runs every phase over its own lakes, so every metric is
//! measured on every workload; the lakes decide which layers dominate.
//! Load comes from this one process and no phase runs more threads than
//! `nproc`: the serve phase runs `nproc` clients of one thread each, the
//! solo phase one client whose requests fan out over `nproc` threads, and
//! set-up, churn, select and training run on the calling thread with
//! `threads: 1`. Mutation never overlaps a read.

use std::thread;
use std::time::{Duration, Instant};

use autofeat::core::{
    train_top_k, AutoFeat, AutoFeatConfig, DiscoveryRequest, DiscoveryResult, DiscoveryService,
    RunTrace, SearchContext,
};
use autofeat::data::Table;
use autofeat::discovery::SchemaMatcher;
use autofeat::ml::eval::ModelKind;
use autofeat::obs::{with_tracer, Tracer};

use crate::checks::{self, Check};
use crate::cpu::Clock;
use crate::gen::LakeInput;
use crate::stats::{median, Samples};

/// Blocks per run. Each block sets the lakes up afresh, then serves, runs
/// solo and churns for its share of `--seconds` and selects, so a stretch of
/// disturbance on the machine lands on a few samples of every phase instead
/// of all samples of one phase. `setup_s` is the median over blocks.
const BLOCKS: usize = 10;
/// Shares of `--seconds` given to the timed phases.
const SERVE_SHARE: f64 = 0.35;
const SOLO_SHARE: f64 = 0.3;
const CHURN_SHARE: f64 = 0.35;
/// Samples a block's phase needs for its median and p90 to mean anything.
const MIN_BLOCK_SAMPLES: usize = 10;
/// Discoveries per lake and block in the select phase.
const SELECT_PER_BLOCK: usize = 5;
/// Warm-up requests stop once one runs without a cache miss.
const MAX_WARMUPS: usize = 3;

/// One lake resident in a service, with the answer every later request on
/// the unchanged lake must reproduce to the bit.
pub struct Lake<'a> {
    pub input: &'a LakeInput,
    pub svc: DiscoveryService,
    pub reference: DiscoveryResult,
}

/// Operations attempted and failed in one phase.
#[derive(Debug, Default, Clone, Copy)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    fn add(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
    }

    fn record<T, E>(&mut self, r: &Result<T, E>) {
        self.attempted += 1;
        self.failed += r.is_err() as u64;
    }
}

/// What every phase hands back besides its timings.
#[derive(Debug, Default)]
pub struct Ledger {
    pub ops: Vec<(&'static str, Ops)>,
    pub problems: Vec<String>,
    /// Run-queue wait of the threads that did the measured work.
    pub runq_wait_ns: u64,
}

impl Ledger {
    pub fn ops(&mut self, phase: &'static str, ops: Ops) {
        match self.ops.iter_mut().find(|(p, _)| *p == phase) {
            Some((_, o)) => o.add(ops),
            None => self.ops.push((phase, ops)),
        }
    }

    pub fn check(&mut self, c: Check) {
        if let Err(e) = c {
            if self.problems.len() < 20 {
                self.problems.push(e);
            }
        }
    }

    pub fn total(&self) -> Ops {
        let mut t = Ops::default();
        for (_, o) in &self.ops {
            t.add(*o);
        }
        t
    }
}

/// Run-queue wait of the calling thread so far, in ns
/// (`/proc/thread-self/schedstat`, second field; 0 where unavailable).
fn thread_runq_wait_ns() -> u64 {
    std::fs::read_to_string("/proc/thread-self/schedstat")
        .ok()
        .and_then(|s| s.split_whitespace().nth(1).and_then(|v| v.parse().ok()))
        .unwrap_or(0)
}

/// A request configuration with every knob that changes what is measured
/// set explicitly.
fn request_config(threads: usize, trace: bool) -> AutoFeatConfig {
    let mut cfg = AutoFeatConfig::paper()
        .with_threads(threads)
        .with_cache(true)
        .with_trace(trace);
    cfg.cache_budget_bytes = None;
    cfg.trace_path = None;
    cfg
}

fn request(threads: usize, trace: bool) -> DiscoveryRequest {
    DiscoveryRequest::new().with_config(request_config(threads, trace))
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Tables as they arrive at the lake: generated, without the key
/// dictionaries set-up builds.
fn arriving_tables(input: &LakeInput) -> Vec<Table> {
    input
        .tables
        .iter()
        .cloned()
        .map(Table::strip_key_meta)
        .collect()
}

/// Set-up CPU times of one lake.
pub struct SetupTimes {
    pub total: Duration,
    pub key_meta: Duration,
}

/// Build one lake's service from arriving tables: key dictionaries, column
/// profiles, LSH and DRG, service construction, and warm-up requests until
/// the join-index cache serves a request without a miss.
fn build_lake<'a>(
    input: &'a LakeInput,
    arriving: Vec<Table>,
    ledger: &mut Ledger,
) -> Option<(Lake<'a>, SetupTimes)> {
    let t0 = Clock::Process.now();
    let keyed: Vec<Table> = arriving.into_iter().map(Table::with_key_dicts).collect();
    let key_meta = Clock::Process.now().saturating_sub(t0);
    let ctx = match SearchContext::from_discovery(
        keyed,
        &SchemaMatcher::paper_default(),
        input.base.clone(),
        input.label.clone(),
    ) {
        Ok(ctx) => ctx,
        Err(e) => {
            ledger
                .problems
                .push(format!("{}: set-up failed: {e}", input.name));
            return None;
        }
    };
    let svc = DiscoveryService::new(ctx, request_config(1, false));
    let mut ops = Ops::default();
    let mut reference = None;
    for _ in 0..MAX_WARMUPS {
        let r = svc.submit(&request(1, false));
        ops.record(&r);
        match r {
            Ok(r) => {
                let cold = r.cache.as_ref().is_none_or(|c| c.misses > 0);
                reference = Some(r);
                if !cold {
                    break;
                }
            }
            Err(e) => ledger
                .problems
                .push(format!("{}: warm-up failed: {e}", input.name)),
        }
    }
    let total = Clock::Process.now().saturating_sub(t0);
    ledger.ops("setup", ops);
    let reference = reference?;
    Some((
        Lake {
            input,
            svc,
            reference,
        },
        SetupTimes { total, key_meta },
    ))
}

/// Build every lake of a workload; `None` when any fails.
fn build_all<'a>(
    inputs: &'a [LakeInput],
    ledger: &mut Ledger,
) -> Option<(Vec<Lake<'a>>, SetupTimes)> {
    let arriving: Vec<Vec<Table>> = inputs.iter().map(arriving_tables).collect();
    let mut lakes = Vec::new();
    let mut times = SetupTimes {
        total: Duration::ZERO,
        key_meta: Duration::ZERO,
    };
    for (input, tables) in inputs.iter().zip(arriving) {
        let (lake, t) = build_lake(input, tables, ledger)?;
        times.total += t.total;
        times.key_meta += t.key_meta;
        lakes.push(lake);
    }
    Some((lakes, times))
}

/// Answers and CPU times of a request phase.
#[derive(Default)]
pub struct Served {
    pub samples: Samples,
    /// `(trace, submit wall latency)` of traced requests.
    pub traces: Vec<(RunTrace, Duration)>,
}

impl Served {
    fn extend(&mut self, other: Served) {
        self.samples.extend(other.samples);
        self.traces.extend(other.traces);
    }
}

/// `clients` closed-loop clients, each sending requests of `threads`
/// threads round-robin over the lakes in whole rounds until `dur` is up.
/// Every answer must equal its lake's reference to the bit.
///
/// A sample is the request's CPU time. Several clients send `threads: 1`
/// requests, which run inline on the client's thread, so each is timed by
/// its thread's clock; a single client's request may fan out to the
/// worker pool, so it is timed by the process clock.
fn serve(
    lakes: &[Lake],
    clients: usize,
    threads: usize,
    dur: Duration,
    trace: bool,
    phase: &'static str,
    ledger: &mut Ledger,
) -> Served {
    assert!(
        clients == 1 || threads == 1,
        "concurrent clients must not fan out"
    );
    let clock = if clients == 1 {
        Clock::Process
    } else {
        Clock::Thread
    };
    let deadline = Instant::now() + dur;
    let per_client: Vec<_> = thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let wait0 = thread_runq_wait_ns();
                    let mut out = Served::default();
                    let mut ops = Ops::default();
                    let mut problems = Vec::new();
                    let req = request(threads, trace);
                    loop {
                        for i in 0..lakes.len() {
                            let lake = &lakes[(c + i) % lakes.len()];
                            let t = Instant::now();
                            let (r, cpu) = clock.time(|| lake.svc.submit(&req));
                            let lat = t.elapsed();
                            ops.record(&r);
                            match r {
                                Ok(mut r) => {
                                    out.samples.push(&lake.input.name, ms(cpu));
                                    if let Err(e) = checks::expect_same(phase, &lake.reference, &r)
                                    {
                                        problems.push(e);
                                    }
                                    if let Some(tr) = r.trace.take() {
                                        out.traces.push((tr, lat));
                                    }
                                }
                                Err(e) => problems.push(format!("{phase}: request failed: {e}")),
                            }
                        }
                        if Instant::now() >= deadline {
                            break;
                        }
                    }
                    (
                        out,
                        ops,
                        problems,
                        thread_runq_wait_ns().saturating_sub(wait0),
                    )
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let mut served = Served::default();
    for (out, ops, problems, wait) in per_client {
        served.extend(out);
        ledger.ops(phase, ops);
        ledger.runq_wait_ns += wait;
        for p in problems {
            ledger.check(Err(p));
        }
    }
    served
}

/// CPU times of the churn phase, and what was traced of it.
#[derive(Default)]
pub struct Churned {
    pub mutate: Samples,
    pub read: Samples,
    pub cycles: u64,
    /// Traces of the reads right after each mutation.
    pub read_traces: Vec<RunTrace>,
}

impl Churned {
    fn extend(&mut self, other: Churned) {
        self.mutate.extend(other.mutate);
        self.read.extend(other.read);
        self.cycles += other.cycles;
        self.read_traces.extend(other.read_traces);
    }
}

/// One thread removes a table, reads, adds the table back and reads again.
/// `cursor` walks the rotation over every lake's churn tables across
/// calls, so each table is churned equally often over a run. Nothing else
/// runs meanwhile, so each call is timed by the process clock. Mutation
/// calls run under `tracer`. While a table is out no path may touch it;
/// once it is back the answer must equal the reference again.
fn churn(
    lakes: &[Lake],
    dur: Duration,
    cursor: &mut usize,
    tracer: &Tracer,
    ledger: &mut Ledger,
) -> Churned {
    let wait0 = thread_runq_wait_ns();
    let rotation: Vec<(&Lake, &str, &str)> = lakes
        .iter()
        .flat_map(|l| {
            l.input
                .churn
                .iter()
                .map(move |(t, tag)| (l, t.as_str(), *tag))
        })
        .collect();
    let deadline = Instant::now() + dur;
    let mut out = Churned::default();
    let (mut mutations, mut reads) = (Ops::default(), Ops::default());
    let req = request(1, tracer.is_enabled());
    loop {
        let (lake, table, tag) = rotation[*cursor % rotation.len()];
        *cursor += 1;
        let class = format!("{}/{tag}", lake.input.name);
        let (r, cpu) = Clock::Process.time(|| with_tracer(tracer, || lake.svc.remove_table(table)));
        out.mutate.push(&format!("remove/{class}"), ms(cpu));
        mutations.record(&r);
        if let Err(e) = r {
            ledger.check(Err(format!("churn: remove {table}: {e}")));
            break;
        }
        let (r, cpu) = Clock::Process.time(|| lake.svc.submit(&req));
        out.read.push(&format!("out/{class}"), ms(cpu));
        reads.record(&r);
        match r {
            Ok(mut r) => {
                ledger.check(checks::expect_absent(&r, table));
                out.read_traces.extend(r.trace.take());
            }
            Err(e) => ledger.check(Err(format!("churn: read without {table}: {e}"))),
        }
        let table_copy = lake.input.table(table).clone();
        let (r, cpu) =
            Clock::Process.time(|| with_tracer(tracer, || lake.svc.add_table(table_copy)));
        out.mutate.push(&format!("add/{class}"), ms(cpu));
        mutations.record(&r);
        if let Err(e) = r {
            ledger.check(Err(format!("churn: add {table}: {e}")));
            break;
        }
        let (r, cpu) = Clock::Process.time(|| lake.svc.submit(&req));
        out.read.push(&format!("back/{class}"), ms(cpu));
        reads.record(&r);
        match r {
            Ok(mut r) => {
                ledger.check(checks::expect_same(
                    "churn: table added back",
                    &lake.reference,
                    &r,
                ));
                out.read_traces.extend(r.trace.take());
            }
            Err(e) => ledger.check(Err(format!("churn: read with {table} back: {e}"))),
        }
        out.cycles += 1;
        if Instant::now() >= deadline {
            break;
        }
    }
    ledger.ops("churn_mutate", mutations);
    ledger.ops("churn_read", reads);
    ledger.runq_wait_ns += thread_runq_wait_ns().saturating_sub(wait0);
    out
}

/// Feature selection as the paper times it: one discovery per lake at the
/// paper's configuration on one thread, `SELECT_PER_BLOCK` times per block.
/// Every answer must equal the lake's reference.
#[derive(Default)]
pub struct Selected {
    /// Per lake: discovery CPU times in seconds over the run.
    pub times: Vec<Vec<f64>>,
}

impl Selected {
    /// The sum over lakes of the median discovery time.
    pub fn figure(&self) -> f64 {
        self.times
            .iter()
            .filter(|t| !t.is_empty())
            .map(|t| median(t))
            .sum()
    }
}

fn select(lakes: &[Lake], out: &mut Selected, ledger: &mut Ledger) {
    let wait0 = thread_runq_wait_ns();
    let cfg = request_config(1, false);
    out.times.resize_with(lakes.len(), Vec::new);
    let mut ops = Ops::default();
    for (i, lake) in lakes.iter().enumerate() {
        let ctx = lake.svc.context().latest();
        for _ in 0..SELECT_PER_BLOCK {
            let (disc, cpu) = Clock::Process.time(|| AutoFeat::new(cfg.clone()).discover(&ctx));
            ops.record(&disc);
            match disc {
                Ok(d) => ledger.check(checks::expect_same("select", &lake.reference, &d)),
                Err(e) => {
                    ledger.check(Err(format!(
                        "select: discovery on {} failed: {e}",
                        lake.input.name
                    )));
                    continue;
                }
            }
            out.times[i].push(cpu.as_secs_f64());
        }
    }
    ledger.ops("select", ops);
    ledger.runq_wait_ns += thread_runq_wait_ns().saturating_sub(wait0);
}

/// The rest of the paper's job: train the top-k paths of each lake's
/// selection with the LightGBM preset, once, on one thread, timed by the
/// process clock.
#[derive(Default)]
pub struct Augmented {
    pub train: Duration,
    pub accuracies: Vec<f64>,
}

fn augment(lakes: &[Lake], tracer: &Tracer, ledger: &mut Ledger) -> Augmented {
    let wait0 = thread_runq_wait_ns();
    let cfg = request_config(1, false);
    let mut out = Augmented::default();
    let mut ops = Ops::default();
    for lake in lakes {
        let disc = &lake.reference;
        let ctx = lake.svc.context().latest();
        let (trained, cpu) = Clock::Process.time(|| {
            with_tracer(tracer, || {
                train_top_k(&ctx, disc, &[ModelKind::LightGbm], &cfg)
            })
        });
        out.train += cpu;
        ops.record(&trained);
        match trained {
            Ok(o) => {
                let acc = o.result.mean_accuracy();
                out.accuracies.push(acc);
                let base = lake.input.table(&lake.input.base);
                ledger.check(checks::expect_signal(
                    o.best_path.as_ref(),
                    &lake.input.signal,
                ));
                ledger.check(checks::expect_beats_majority(
                    acc,
                    checks::majority_rate(base, &lake.input.label),
                ));
            }
            Err(e) => ledger.check(Err(format!(
                "augment: training on {} failed: {e}",
                lake.input.name
            ))),
        }
    }
    ledger.ops("augment", ops);
    ledger.runq_wait_ns += thread_runq_wait_ns().saturating_sub(wait0);
    out
}

/// Checks on the lake as a whole: the planted edges are in the DRG, and
/// after churn the DRG the service holds equals a fresh build over the same
/// tables, which must also give the reference answer.
fn check_lake(lake: &Lake, after_churn: bool, ledger: &mut Ledger) {
    let drg = lake.svc.context().latest().drg().clone();
    let edges = checks::edge_set(&drg);
    let when = if after_churn {
        "after churn"
    } else {
        "after set-up"
    };
    ledger.check(
        checks::expect_planted(&edges, &lake.input.planted_edges)
            .map_err(|e| format!("{} {when}: {e}", lake.input.name)),
    );
    if after_churn {
        match SearchContext::from_discovery(
            lake.input.tables.clone(),
            &SchemaMatcher::paper_default(),
            lake.input.base.clone(),
            lake.input.label.clone(),
        ) {
            Ok(fresh) => {
                ledger.check(checks::expect_same_drg(&drg, fresh.drg()));
                match AutoFeat::new(request_config(1, false)).discover(&fresh) {
                    Ok(d) => ledger.check(checks::expect_same("fresh build", &lake.reference, &d)),
                    Err(e) => ledger.check(Err(format!("discovery on a fresh build failed: {e}"))),
                }
            }
            Err(e) => ledger.check(Err(format!("fresh build failed: {e}"))),
        }
    } else if let Some(n) = lake.input.one_hop_joins {
        ledger.check(checks::expect_one_hop_joins(&lake.reference, n));
        ledger.check(check_rejoin(lake));
    }
}

/// Re-join the reference top path's feature with the benchmark's own scan.
fn check_rejoin(lake: &Lake) -> Check {
    let top = lake.reference.ranked.first().ok_or("no ranked path")?;
    let hop = top.path.hops().first().ok_or("empty path")?;
    let ctx = lake.svc.context().latest();
    let sat = lake.input.table(&hop.to_table);
    let feature = sat
        .column_names()
        .into_iter()
        .find(|c| *c != hop.to_column)
        .ok_or("satellite has no feature")?
        .to_string();
    let seed = request_config(1, false).seed;
    let joined = autofeat::core::materialize_path(&ctx, ctx.base_table(), &top.path, seed)
        .map_err(|e| format!("materialize failed: {e}"))?;
    checks::expect_rejoin(ctx.base_table(), sat, &hop.to_column, &feature, &joined)
}

/// Everything a run measured, before it is reduced to metrics.
#[derive(Default)]
pub struct Collected {
    /// Set-up CPU time of each block, in seconds.
    pub setup: Vec<f64>,
    /// Key-dictionary CPU time of each block, in seconds.
    pub key_meta: Vec<f64>,
    /// Untraced serve samples of a traced run (the tracing baseline).
    pub plain: Served,
    pub served: Served,
    pub solo: Served,
    pub churned: Churned,
    pub selected: Selected,
    pub augmented: Augmented,
    /// DRG edges after set-up, over all lakes.
    pub edges: usize,
}

/// Tracers of the calls a traced run makes outside requests.
pub struct Tracers {
    pub setup: Tracer,
    pub mutation: Tracer,
    pub train: Tracer,
}

impl Tracers {
    pub fn new(enabled: bool) -> Tracers {
        let t = || {
            if enabled {
                Tracer::enabled()
            } else {
                Tracer::disabled()
            }
        };
        Tracers {
            setup: t(),
            mutation: t(),
            train: t(),
        }
    }
}

/// Run `BLOCKS` blocks of set-up, serve, solo, churn and select, then
/// train on the last block's lakes. Block `b` sets up the lakes `inputs(b)`
/// gives: each block is another draw of the workload's values, so a run's
/// figures average over ten draws and depend less on what one seed's values
/// make discovery prune and select. With tracing, requests carry their own
/// trace, the calls outside requests run under `tracers`, and each block's
/// serve share is split into an untraced half and a traced half.
pub fn run_blocks(
    inputs: impl Fn(usize) -> Vec<LakeInput>,
    seconds: f64,
    nproc: usize,
    tracers: &Tracers,
    ledger: &mut Ledger,
) -> Option<Collected> {
    let trace = tracers.setup.is_enabled();
    let share = |s: f64| Duration::from_secs_f64(seconds * s / BLOCKS as f64);
    let mut c = Collected::default();
    let mut cursor = 0;
    for block in 0..BLOCKS {
        let inputs = inputs(block);
        let (built, times) = with_tracer(&tracers.setup, || build_all(&inputs, ledger))?;
        c.setup.push(times.total.as_secs_f64());
        c.key_meta.push(times.key_meta.as_secs_f64());
        for lake in &built {
            check_lake(lake, false, ledger);
        }
        if block == 0 {
            c.edges = built
                .iter()
                .map(|l| l.svc.context().latest().drg().n_edges())
                .sum();
        }
        let served = if trace {
            let half = share(SERVE_SHARE) / 2;
            c.plain
                .extend(serve(&built, nproc, 1, half, false, "serve", ledger));
            serve(&built, nproc, 1, half, true, "serve", ledger)
        } else {
            serve(&built, nproc, 1, share(SERVE_SHARE), false, "serve", ledger)
        };
        let solo = serve(&built, 1, nproc, share(SOLO_SHARE), trace, "solo", ledger);
        let churned = churn(
            &built,
            share(CHURN_SHARE),
            &mut cursor,
            &tracers.mutation,
            ledger,
        );
        select(&built, &mut c.selected, ledger);
        for (what, n) in [
            ("serve", served.samples.len()),
            ("solo", solo.samples.len()),
            ("churn reads", churned.read.len()),
            ("churn mutations", churned.mutate.len()),
        ] {
            if n < MIN_BLOCK_SAMPLES {
                ledger.check(Err(format!(
                    "block {block}: {what} has {n} samples, fewer than {MIN_BLOCK_SAMPLES}"
                )));
            }
        }
        c.served.extend(served);
        c.solo.extend(solo);
        c.churned.extend(churned);
        if block + 1 == BLOCKS {
            c.augmented = augment(&built, &tracers.train, ledger);
            for lake in &built {
                check_lake(lake, true, ledger);
            }
        }
    }
    Some(c)
}
