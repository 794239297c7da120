//! Served-fairness benchmark of `fairank serve`.
//!
//! ```text
//! perfbench --server <fairank binary> --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --server <fairank binary> --self-check
//! ```
//!
//! `--trace 0` starts the server as a separate process with default
//! settings, drives it over TCP with two client connections, checks every
//! reply against an in-process `server::dispatch` replay of the same
//! requests and prints the end-to-end metrics. `--trace 1` replays the
//! same request sequence in process with spans around each layer's public
//! functions and prints the per-layer metrics. Either way the last line
//! is one JSON object: `correct`, `attempted`, `failed`, `metrics`.
//! `--self-check` runs every workload briefly in both modes and asserts
//! that every metric `BENCHMARK.json` names is printed with its unit,
//! that nothing failed, and that the request-tree self times add up.
//! `perfbench/run.sh` builds both binaries and runs this one.

mod oracle;
mod report;
mod served;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use fairank_service::{DispatchPolicy, SessionRegistry, WorkerPool};

use report::{ms, quantile, tail_samples_needed, us, Metrics, TAIL};
use served::{Conn, Sample, ServerProc};
use trace::{Probe, SearchCounters, Tracer};
use workload::{Load, Req, Workload, CONNECTIONS};

/// End-to-end metrics, in `BENCHMARK.json` order.
/// `error_rate` is printed but not listed: it is 0 in a correct run, and
/// the result line's `attempted` and `failed` carry it.
const END_TO_END: [&str; 7] = [
    "setup_s",
    "latency_p50_ms",
    "latency_p90_ms",
    "throughput_rps",
    "visit_p50_ms",
    "first_chunk_p50_ms",
    "peak_rss_mb",
];

/// Per-layer metrics every workload produces, in `BENCHMARK.json` order.
/// The traced run prints more (plan, cell cache, stream, CSV) where a
/// workload exercises that layer.
const PER_LAYER: [&str; 24] = [
    "protocol.parse_us",
    "protocol.serialize_us",
    "protocol.reply_bytes",
    "eventloop.overhead_us",
    "server.dispatch_us",
    "registry.lease_us",
    "registry.sessions",
    "pool.wait_p50_us",
    "pool.wait_p99_us",
    "pool.run_us",
    "command.parse_us",
    "command.apply_us",
    "data.to_space_us",
    "data.generate_us",
    "store.intern_us",
    "store.bytes",
    "store.datasets",
    "core.quantify_us",
    "core.candidate_splits",
    "core.histograms_built",
    "core.emd_calls",
    "core.emd_memo_hit_ratio",
    "trace.overhead_pct",
    "trace.self_time_coverage",
];

/// Server starts (with their setup requests) per timed run: as many as
/// fit in about two seconds, at least 3 and at most 15. `setup_s` is
/// their median.
const SETUP_BUDGET_S: f64 = 2.0;
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 15;
/// Unmeasured lead-in of the driven phase.
const WARMUP_S: f64 = 1.0;
/// An `analyst-visit` run is invalid when the generator's p99 lag
/// exceeds this.
const MAX_LAG_P99_MS: f64 = 10.0;
/// The request-tree self times must cover at least this share of the
/// in-process request total.
const MIN_SELF_TIME_COVERAGE: f64 = 0.95;
/// Driven requests per connection the traced run replays at least.
const MIN_TRACED_DRIVEN: usize = 20;
/// The quantify side probes must account for `command::apply` of the
/// same request, run alone just before them, within this relative
/// tolerance.
const PROBE_TOLERANCE: f64 = 0.3;

struct Args {
    server: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_check: bool,
}

fn parse_args() -> Result<Args, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let value = |flag: &str| -> Option<&str> {
        args.iter()
            .position(|a| a == flag)
            .and_then(|i| args.get(i + 1))
            .map(String::as_str)
    };
    let server = PathBuf::from(value("--server").ok_or("--server <fairank binary> is required")?);
    let self_check = args.iter().any(|a| a == "--self-check");
    let parsed = Args {
        server,
        workload: value("--workload").unwrap_or("").to_string(),
        seed: value("--seed")
            .unwrap_or("1")
            .parse()
            .map_err(|_| "--seed must be a number")?,
        seconds: value("--seconds")
            .unwrap_or("10")
            .parse()
            .map_err(|_| "--seconds must be a number")?,
        trace: value("--trace").unwrap_or("0") == "1",
        self_check,
    };
    if !self_check && !workload::NAMES.contains(&parsed.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {:?}, got {:?}",
            workload::NAMES,
            parsed.workload
        ));
    }
    Ok(parsed)
}

/// Where generated inputs, span dumps and run records go: inside the
/// build directory, which the checkout's `.gitignore` lists.
fn data_dir() -> PathBuf {
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
    Path::new(&target).join("perfbench-data")
}

/// The outcome of one run: what the result line reports.
struct RunResult {
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: Metrics,
    /// Set for an `analyst-visit` run whose load generator fell behind.
    invalid: Option<String>,
    self_time_coverage: Option<f64>,
    /// Quantify side-probe time over `command.apply` time.
    probe_share: Option<f64>,
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.self_check {
        return self_check(&args);
    }
    match run(&args, args.trace) {
        Ok(result) => {
            if let Some(why) = &result.invalid {
                eprintln!("perfbench: run invalid, numbers withheld: {why}");
                return ExitCode::from(3);
            }
            let names: &[&str] = if args.trace { &PER_LAYER } else { &END_TO_END };
            println!(
                "{}",
                report::result_line(
                    result.correct,
                    result.attempted,
                    result.failed,
                    &result.metrics,
                    names
                )
            );
            if result.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}

fn run(args: &Args, traced: bool) -> Result<RunResult, String> {
    let dir = data_dir();
    let csv = workload::write_wide_csv(args.seed, &dir).map_err(|e| format!("write CSV: {e}"))?;
    let snapshot = dir.join(format!("snapshot-{}-{}", args.workload, args.seed));
    workload::write_snapshot(&args.workload, &csv, &snapshot)?;
    let wl = workload::build(
        &args.workload,
        args.seed,
        &csv,
        &snapshot,
        WARMUP_S,
        args.seconds,
    )
    .expect("workload name was validated");
    let workers = WorkerPool::default_workers();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!(
        "context workload={} seed={} seconds={} trace={} nproc={nproc} server_workers={workers} \
         server_dispatchers={} client_connections={CONNECTIONS} offered_visits_per_s={}",
        wl.name,
        args.seed,
        args.seconds,
        u8::from(traced),
        workers + 2,
        match &wl.load {
            Load::Open { visits } => {
                let measured = visits.iter().filter(|v| v.at_s >= WARMUP_S).count();
                (measured as f64 / args.seconds).to_string()
            }
            Load::Closed { .. } => "closed-loop".into(),
        }
    );
    let result = if traced {
        traced_run(&wl, args, workers)?
    } else {
        timed_run(&wl, args)?
    };
    result.metrics.print("metric");
    let record = dir.join("runs");
    let _ = std::fs::create_dir_all(&record);
    let names: &[&str] = if traced { &PER_LAYER } else { &END_TO_END };
    let _ = std::fs::write(
        record.join(format!(
            "{}-seed{}-trace{}.json",
            wl.name,
            args.seed,
            u8::from(traced)
        )),
        report::result_line(
            result.correct,
            result.attempted,
            result.failed,
            &result.metrics,
            names,
        ) + "\n",
    );
    Ok(result)
}

/// Phase tallies printed with every run.
fn phase(name: &str, sent: usize, failed: usize) {
    println!(
        "phase {name}: sent={sent} succeeded={} failed={failed}",
        sent - failed
    );
}

fn timed_run(wl: &Workload, args: &Args) -> Result<RunResult, String> {
    // Set-up: start the server several times and answer the setup
    // requests each time; the last server is kept for the driven phase.
    let mut setup_times = Vec::new();
    let mut setup_replies = Vec::new();
    let mut kept = None;
    let mut setups = MIN_SETUPS;
    while setup_times.len() < setups {
        drop(kept.take());
        let started = Instant::now();
        let server = ServerProc::spawn(&args.server, wl.allow_fs)?;
        let mut conns = served::connect(&server.addr)?;
        let replies = served::run_setup(&mut conns, &wl.setup);
        setup_times.push(started.elapsed().as_secs_f64());
        setup_replies.push(replies);
        kept = Some((server, conns));
        if setup_times.len() == 1 {
            setups =
                ((SETUP_BUDGET_S / setup_times[0]).ceil() as usize).clamp(MIN_SETUPS, MAX_SETUPS);
        }
    }
    let (server, conns) = kept.expect("at least one setup");
    println!("context server_flags={:?}", server.flags);
    let setup_sent: usize = setup_replies.iter().flatten().map(Vec::len).sum();
    let setup_failed = setup_replies
        .iter()
        .flatten()
        .flatten()
        .filter(|r| !r.ok)
        .count();
    phase("setup", setup_sent, setup_failed);

    let start = Instant::now();
    let end = start + Duration::from_secs_f64(WARMUP_S + args.seconds);
    let warm = start + Duration::from_secs_f64(WARMUP_S);
    let (samples, backlog) = match &wl.load {
        Load::Closed { streams } => {
            let mut conns = conns;
            (served::closed_loop(&mut conns, streams, end), None)
        }
        Load::Open { visits } => {
            let give_up = end + Duration::from_secs(60);
            let (samples, backlog) = served::open_loop(conns, visits, start, give_up);
            (samples, Some(backlog))
        }
    };
    let peak_rss = server.peak_rss_mb();
    drop(server);

    // Oracle: the same per-connection sequences through in-process
    // `server::dispatch` on a fresh registry.
    let mut sequences: Vec<Vec<Req>> = wl.setup.clone();
    for s in &samples {
        sequences[s.conn].push(s.req.clone());
    }
    let (oracle, _) = oracle::replay(&sequences, wl.allow_fs, 2, None);
    let mut setup_mismatches = 0;
    for (c, replies) in oracle.iter().enumerate() {
        let n_setup = wl.setup[c].len();
        for run in &setup_replies {
            for (served, expected) in run[c].iter().zip(&replies[..n_setup]) {
                if served.ok && served.digest != expected.digest {
                    setup_mismatches += 1;
                }
            }
        }
    }
    let mut mismatches = setup_mismatches;
    let mut failed_driven = 0;
    let mut errors: Vec<String> = Vec::new();
    let mut per_conn_pos = [0usize; CONNECTIONS];
    let mut failed_flags = Vec::with_capacity(samples.len());
    for s in &samples {
        let expected = &oracle[s.conn][wl.setup[s.conn].len() + per_conn_pos[s.conn]];
        per_conn_pos[s.conn] += 1;
        let mismatch = s.reply.ok && s.reply.digest != expected.digest;
        let failed = !s.reply.ok || mismatch;
        if mismatch {
            mismatches += 1;
            errors.push(format!("oracle mismatch: {}", s.req.command));
        } else if !s.reply.ok {
            errors.push(format!(
                "{}: {}",
                s.reply.error.as_deref().unwrap_or("error"),
                s.req.command
            ));
        }
        failed_driven += usize::from(failed);
        failed_flags.push(failed);
    }
    for e in errors.iter().take(5) {
        eprintln!("perfbench: {e}");
    }
    phase("driven", samples.len(), failed_driven);
    println!(
        "phase oracle: compared={} mismatches={mismatches}",
        setup_sent + samples.len()
    );

    let mut m = Metrics::default();
    m.p50("setup_s", "s", &setup_times);
    let window = |s: &Sample| s.due >= warm && s.due < end;
    // A failed request is infinitely slow.
    let latency = |s: &Sample, failed: bool| {
        if failed {
            f64::INFINITY
        } else {
            ms(s.reply.done - s.due)
        }
    };
    let measured: Vec<(&Sample, bool)> = samples
        .iter()
        .zip(failed_flags.iter().copied())
        .filter(|(s, _)| s.req.measured)
        .collect();
    let in_window: Vec<(&Sample, bool)> = match &wl.load {
        Load::Closed { .. } => measured
            .iter()
            .copied()
            .filter(|(s, _)| window(s))
            .collect(),
        // Open loop: every request of a visit that arrived in the window.
        Load::Open { visits } => measured
            .iter()
            .copied()
            .filter(|(s, _)| s.visit.is_some_and(|v| visits[v].at_s >= WARMUP_S))
            .collect(),
    };
    let latencies: Vec<f64> = in_window.iter().map(|(s, f)| latency(s, *f)).collect();
    m.p50("latency_p50_ms", "ms", &latencies);
    if let Some(v) = quantile(&latencies, TAIL) {
        m.push("latency_p90_ms", "ms", v, latencies.len());
    }
    if latencies.len() < tail_samples_needed(TAIL) {
        println!(
            "note latency_p90_ms rests on {} samples, fewer than the {} that leave ten beyond it",
            latencies.len(),
            tail_samples_needed(TAIL)
        );
    }
    // Closed loop: requests completed inside the window. Open loop: all
    // requests of the window's visits, over the time until the last
    // reply.
    let (completed, span) = match &wl.load {
        Load::Closed { .. } => (
            in_window
                .iter()
                .filter(|(s, f)| !f && s.reply.done <= end)
                .count(),
            args.seconds,
        ),
        Load::Open { .. } => {
            let last = in_window
                .iter()
                .map(|(s, _)| s.reply.done)
                .max()
                .unwrap_or(end);
            (
                in_window.iter().filter(|(_, f)| !f).count(),
                last.saturating_duration_since(warm).as_secs_f64(),
            )
        }
    };
    m.push(
        "throughput_rps",
        "req/s",
        completed as f64 / span,
        completed,
    );

    // A visit is one analyst task; in the closed loops every request is
    // its own task, so there the visit time is the request latency.
    let visit_times: Vec<f64> = match &wl.load {
        Load::Open { visits } => visits
            .iter()
            .enumerate()
            .filter(|(_, v)| v.at_s >= WARMUP_S)
            .map(|(i, v)| {
                let due = start + Duration::from_secs_f64(v.at_s);
                let steps: Vec<_> = in_window
                    .iter()
                    .filter(|(s, _)| s.visit == Some(i))
                    .collect();
                if steps.len() < v.steps.len() || steps.iter().any(|(_, f)| *f) {
                    f64::INFINITY
                } else {
                    let last = steps
                        .iter()
                        .map(|(s, _)| s.reply.done)
                        .max()
                        .expect("steps");
                    ms(last - due)
                }
            })
            .collect(),
        Load::Closed { .. } => latencies.clone(),
    };
    m.p50("visit_p50_ms", "ms", &visit_times);

    // Time to the first reply line: the first chunk of a streamed grid;
    // on a workload without streamed requests, the terminal line.
    let streams = in_window.iter().any(|(s, _)| s.req.stream);
    let first_lines: Vec<f64> = in_window
        .iter()
        .filter(|(s, _)| !streams || s.req.stream)
        .map(|(s, f)| {
            if *f {
                f64::INFINITY
            } else {
                ms(s.reply.first_line - s.due)
            }
        })
        .collect();
    m.p50("first_chunk_p50_ms", "ms", &first_lines);
    if let Some(rss) = peak_rss {
        m.push("peak_rss_mb", "MiB", rss, 1);
    }
    let attempted = setup_sent + samples.len();
    let failed = setup_failed + setup_mismatches + failed_driven;
    m.push(
        "error_rate",
        "share",
        failed as f64 / attempted.max(1) as f64,
        attempted,
    );

    let mut invalid = None;
    if let Some(backlog) = backlog {
        let lags: Vec<f64> = samples.iter().map(|s| ms(s.sent - s.due)).collect();
        let lag_p99 = quantile(&lags, 0.99).unwrap_or(0.0);
        println!(
            "metric loadgen.lag_p99_ms = {lag_p99} ms (n={})",
            lags.len()
        );
        let mean = |lo: f64, hi: f64| {
            let xs: Vec<f64> = backlog
                .iter()
                .filter(|(t, _)| *t >= lo && *t < hi)
                .map(|(_, p)| *p as f64)
                .collect();
            xs.iter().sum::<f64>() / xs.len().max(1) as f64
        };
        let total = WARMUP_S + args.seconds;
        let middle = mean(total * 0.25, total * 0.5);
        let last = mean(total * 0.75, total);
        println!("context backlog_pending_mean middle={middle:.2} end={last:.2}");
        if lag_p99 > MAX_LAG_P99_MS {
            invalid = Some(format!(
                "load generator lag p99 {lag_p99:.2} ms exceeds {MAX_LAG_P99_MS} ms"
            ));
        } else if last > 2.0 * middle + 2.0 {
            invalid = Some(format!(
                "backlog grew: {middle:.2} pending requests mid-run, {last:.2} at the end"
            ));
        }
    }
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        invalid,
        self_time_coverage: None,
        probe_share: None,
    })
}

fn traced_run(wl: &Workload, args: &Args, workers: usize) -> Result<RunResult, String> {
    let budget = Duration::from_secs_f64(args.seconds / 6.0);
    let full = wl.sequences();
    // Untraced replay, cut by the time budget: this fixes the prefix
    // every later replay runs. It keeps at least the setup and a few
    // driven requests per connection, so that a short run still reaches
    // every layer the workload exercises.
    let keep = wl.setup.iter().map(Vec::len).max().unwrap_or(0) + MIN_TRACED_DRIVEN;
    let (untraced, untraced_wall_a) =
        oracle::replay(&full, wl.allow_fs, workers, Some((budget, keep)));
    let prefix: Vec<Vec<Req>> = full
        .iter()
        .zip(&untraced)
        .map(|(seq, done)| seq[..done.len()].to_vec())
        .collect();
    let attempted: usize = prefix.iter().map(Vec::len).sum();
    phase(
        "untraced-replay",
        attempted,
        untraced.iter().flatten().filter(|r| !r.ok).count(),
    );

    // Traced replay of the same prefix, same threads, same pool size.
    let registry = SessionRegistry::new();
    let pool = WorkerPool::new(workers, workers * 2);
    let policy = DispatchPolicy {
        allow_fs_commands: wl.allow_fs,
        admin: false,
    };
    let started = Instant::now();
    let outcomes: Vec<(Tracer, Vec<trace::Traced>)> = std::thread::scope(|scope| {
        let threads: Vec<_> = prefix
            .iter()
            .enumerate()
            .map(|(c, seq)| {
                let (registry, pool) = (&registry, &pool);
                scope.spawn(move || {
                    let mut tracer = Tracer::default();
                    let traced = seq
                        .iter()
                        .enumerate()
                        .map(|(i, req)| {
                            trace::traced_request(
                                registry,
                                pool,
                                policy,
                                req,
                                &mut tracer,
                                c * 1_000_000 + i,
                            )
                        })
                        .collect();
                    (tracer, traced)
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().expect("traced replay panicked"))
            .collect()
    });
    let traced_wall = started.elapsed();
    let (_, untraced_wall_b) = oracle::replay(&prefix, wl.allow_fs, workers, None);
    let untraced_wall = (untraced_wall_a + untraced_wall_b) / 2;

    let mut failed = 0;
    for (c, (_, traced)) in outcomes.iter().enumerate() {
        for (t, u) in traced.iter().zip(&untraced[c]) {
            if !t.replayed.ok || t.replayed.digest != u.digest {
                failed += 1;
            }
        }
    }
    phase("traced-replay", attempted, failed);

    // Side probes, run sequentially after the traced replay.
    let mut probe_list: Vec<(usize, Probe)> = Vec::new();
    let mut counters = SearchCounters::default();
    let mut refused = 0;
    let mut reply_bytes = Vec::new();
    for (c, (_, traced)) in outcomes.iter().enumerate() {
        for (i, t) in traced.iter().enumerate() {
            if let Some(p) = &t.probe {
                probe_list.push((c * 1_000_000 + i, p.clone()));
            }
            counters.searches += t.counters.searches;
            counters.candidate_splits += t.counters.candidate_splits;
            counters.histograms_built += t.counters.histograms_built;
            counters.emd_calls += t.counters.emd_calls;
            counters.emd_cache_hits += t.counters.emd_cache_hits;
            refused += usize::from(t.refused);
            reply_bytes.push(t.replayed.bytes as f64);
        }
    }
    let mut probe_tracer = Tracer::default();
    let mut probes = trace::run_probes(&probe_list, &mut probe_tracer);
    if wl.name == "quantify-wide" {
        // The wide CSV comes from the synthetic-population layer that
        // `generate` uses; time it like the other workloads' generates.
        let started = Instant::now();
        let ds = workload::wide_spec()
            .generate()
            .expect("wide spec generates");
        probes.generate.push(us(started.elapsed()));
        let store = fairank_data::DatasetStore::new();
        let started = Instant::now();
        std::hint::black_box(store.intern(ds));
        probes.intern.push(us(started.elapsed()));
    }

    let mut spans: Vec<trace::Span> = Vec::new();
    for (tracer, _) in &outcomes {
        let base = spans.len();
        spans.extend(tracer.spans.iter().map(|s| trace::Span {
            parent: s.parent.map(|p| p + base),
            ..s.clone()
        }));
    }
    let selfs = trace::self_times(&spans);
    let mut root_total = Duration::ZERO;
    let mut root_self = Duration::ZERO;
    for (span, own) in spans.iter().zip(&selfs) {
        if span.name == "request" {
            root_total += span.duration();
            root_self += *own;
        }
    }
    let coverage = 1.0 - root_self.as_secs_f64() / root_total.as_secs_f64().max(1e-12);
    println!(
        "context self_time_coverage={coverage:.4} (request-tree self times over the in-process \
         total; tolerance: at least {MIN_SELF_TIME_COVERAGE})"
    );
    let probe_share = (probes.quantify_apply_sum > Duration::ZERO)
        .then(|| probes.quantify_probe_sum.as_secs_f64() / probes.quantify_apply_sum.as_secs_f64());
    if let Some(share) = probe_share {
        println!(
            "context quantify_probe_share={share:.4} (to_space + filter + quantify + panel_view \
             over command::apply run alone; tolerance: within {PROBE_TOLERANCE} of 1)"
        );
    }

    // Event-loop overhead: on an idle in-process server with one
    // connection, the round trip of each request minus in-process
    // dispatch of the same request on an idle registry.
    let overhead = eventloop_overhead(wl, &prefix, workers, budget)?;

    let durations = |name: &str| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| us(s.duration()))
            .collect()
    };
    let mut m = Metrics::default();
    m.p50("protocol.parse_us", "us", &durations("protocol.parse"));
    m.p50(
        "protocol.serialize_us",
        "us",
        &durations("protocol.serialize"),
    );
    m.p50("protocol.reply_bytes", "bytes", &reply_bytes);
    m.p50("eventloop.overhead_us", "us", &overhead);
    let dispatch: Vec<f64> = untraced.iter().flatten().map(|r| us(r.dispatch)).collect();
    m.p50("server.dispatch_us", "us", &dispatch);
    m.p50("registry.lease_us", "us", &durations("registry.lease"));
    m.push(
        "registry.sessions",
        "count",
        registry.names().len() as f64,
        1,
    );
    let waits = durations("pool.wait");
    m.p50("pool.wait_p50_us", "us", &waits);
    if let Some(v) = quantile(&waits, 0.99) {
        m.push("pool.wait_p99_us", "us", v, waits.len());
    }
    m.p50("pool.run_us", "us", &durations("pool.run"));
    m.p50("command.parse_us", "us", &durations("command.parse"));
    m.p50("command.apply_us", "us", &durations("command.apply"));
    m.p50("data.to_space_us", "us", &probes.to_space);
    m.p50("data.generate_us", "us", &probes.generate);
    m.p50("store.intern_us", "us", &probes.intern);
    let store = registry.store().stats();
    m.push("store.bytes", "bytes", store.bytes as f64, 1);
    m.push("store.datasets", "count", store.datasets as f64, 1);
    m.p50("core.quantify_us", "us", &probes.quantify);
    let per_search = |v: usize| v as f64 / counters.searches.max(1) as f64;
    m.push(
        "core.candidate_splits",
        "count",
        per_search(counters.candidate_splits),
        counters.searches,
    );
    m.push(
        "core.histograms_built",
        "count",
        per_search(counters.histograms_built),
        counters.searches,
    );
    m.push(
        "core.emd_calls",
        "count",
        per_search(counters.emd_calls),
        counters.searches,
    );
    m.push(
        "core.emd_cache_hits",
        "count",
        per_search(counters.emd_cache_hits),
        counters.searches,
    );
    m.push(
        "core.emd_memo_hit_ratio",
        "ratio",
        counters.emd_cache_hits as f64
            / (counters.emd_cache_hits + counters.emd_calls).max(1) as f64,
        counters.searches,
    );
    m.push(
        "trace.overhead_pct",
        "%",
        100.0 * (traced_wall.as_secs_f64() - untraced_wall.as_secs_f64())
            / untraced_wall.as_secs_f64().max(1e-12),
        attempted,
    );
    m.push("trace.self_time_coverage", "ratio", coverage, attempted);
    // Layers only some workloads exercise.
    m.push("pool.refused", "count", refused as f64, attempted);
    m.p50("response.panel_view_us", "us", &probes.panel_view);
    m.p50("data.filter_us", "us", &probes.filter);
    m.p50("data.csv_read_us", "us", &probes.csv_read);
    m.p50("plan.compile_us", "us", &durations("plan.compile"));
    m.p50("plan.cell_us", "us", &durations("plan.cell"));
    m.p50("plan.finish_us", "us", &durations("plan.finish"));
    let grids = durations("plan.compile").len();
    if grids > 0 {
        m.push(
            "plan.cells",
            "count",
            durations("plan.cell").len() as f64 / grids as f64,
            grids,
        );
        let cache = registry.cell_cache().stats();
        m.push(
            "cellcache.hit_ratio",
            "ratio",
            cache.hits as f64 / (cache.hits + cache.misses).max(1) as f64,
            (cache.hits + cache.misses) as usize,
        );
        m.push("cellcache.evictions", "count", cache.evictions as f64, 1);
    }
    m.p50("stream.run_us", "us", &probes.stream_run);
    m.p50(
        "incremental.reused_histograms",
        "count",
        &probes.reused_histograms,
    );
    m.p50(
        "incremental.invalidated_emds",
        "count",
        &probes.invalidated_emds,
    );

    let dump = data_dir().join(format!("spans-{}-seed{}.jsonl", wl.name, args.seed));
    write_spans(&dump, &spans, probe_tracer.spans.as_slice());
    println!("context spans_written={}", dump.display());
    Ok(RunResult {
        correct: failed == 0,
        attempted,
        failed,
        metrics: m,
        invalid: None,
        self_time_coverage: Some(coverage),
        probe_share,
    })
}

fn eventloop_overhead(
    wl: &Workload,
    prefix: &[Vec<Req>],
    workers: usize,
    budget: Duration,
) -> Result<Vec<f64>, String> {
    let order: Vec<&Req> = prefix.iter().flatten().collect();
    // In-process dispatch on an idle registry, one request at a time.
    let registry = SessionRegistry::new();
    let pool = WorkerPool::new(workers, workers * 2);
    let policy = DispatchPolicy {
        allow_fs_commands: wl.allow_fs,
        admin: false,
    };
    let started = Instant::now();
    let mut baseline = Vec::new();
    for req in &order {
        if started.elapsed() >= budget {
            break;
        }
        baseline.push(oracle::dispatch_one(&registry, &pool, policy, req));
    }
    drop((registry, pool));
    // The same requests through the event loop of an idle server.
    let config = fairank_service::ServerConfig {
        allow_fs_commands: wl.allow_fs,
        ..fairank_service::ServerConfig::default()
    };
    let handle = fairank_service::Server::bind("127.0.0.1:0", config)
        .and_then(|s| s.spawn())
        .map_err(|e| format!("in-process server: {e}"))?;
    let mut conn = Conn::open(&handle.addr().to_string())?;
    let mut overhead = Vec::with_capacity(baseline.len());
    for (req, base) in order.iter().zip(&baseline) {
        let (sent, reply) = conn.call(req);
        if reply.ok && reply.digest == base.digest {
            overhead.push(us(reply.done - sent) - us(base.dispatch));
        }
    }
    drop(conn);
    handle.stop();
    Ok(overhead)
}

fn write_spans(path: &Path, spans: &[trace::Span], probes: &[trace::Span]) {
    let Some(base) = spans.iter().chain(probes).map(|s| s.start).min() else {
        return;
    };
    let mut out = String::new();
    for (kind, list) in [("tree", spans), ("probe", probes)] {
        for (i, s) in list.iter().enumerate() {
            out.push_str(&format!(
                "{{\"kind\":\"{kind}\",\"id\":{i},\"req\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3},\"parent\":{}}}\n",
                s.req,
                s.name,
                us(s.start - base),
                us(s.end - base),
                s.parent.map_or("null".to_string(), |p| p.to_string())
            ));
        }
    }
    let _ = std::fs::write(path, out);
}

/// Runs every workload briefly in both modes and checks the contract.
fn self_check(args: &Args) -> ExitCode {
    let declared = match declared_metrics() {
        Ok(d) => d,
        Err(e) => {
            eprintln!("self-check: {e}");
            return ExitCode::from(1);
        }
    };
    let mut problems = Vec::new();
    for name in workload::NAMES {
        for traced in [false, true] {
            let run_args = Args {
                server: args.server.clone(),
                workload: name.to_string(),
                seed: args.seed,
                seconds: 3.0,
                trace: traced,
                self_check: false,
            };
            let label = format!("{name} trace={}", u8::from(traced));
            let result = match run(&run_args, traced) {
                Ok(r) => r,
                Err(e) => {
                    problems.push(format!("{label}: {e}"));
                    continue;
                }
            };
            let wanted = if traced { &declared.1 } else { &declared.0 };
            for (metric, unit) in wanted {
                match result.metrics.get(metric) {
                    None => problems.push(format!("{label}: metric {metric} not printed")),
                    Some(m) if m.unit != unit => problems.push(format!(
                        "{label}: metric {metric} printed in {} but declared in {unit}",
                        m.unit
                    )),
                    Some(_) => {}
                }
            }
            if result.failed != 0 {
                problems.push(format!(
                    "{label}: {} of {} requests failed",
                    result.failed, result.attempted
                ));
            }
            if let Some(why) = &result.invalid {
                problems.push(format!("{label}: invalid run: {why}"));
            }
            if let Some(share) = result.probe_share {
                if (share - 1.0).abs() > PROBE_TOLERANCE {
                    problems.push(format!(
                        "{label}: quantify side probes account for {share:.3} of command.apply, outside 1 +- {PROBE_TOLERANCE}"
                    ));
                }
            }
            if let Some(c) = result.self_time_coverage {
                if c < MIN_SELF_TIME_COVERAGE {
                    problems.push(format!(
                        "{label}: request-tree self times cover {c:.4} of the total, below {MIN_SELF_TIME_COVERAGE}"
                    ));
                }
            }
        }
    }
    for p in &problems {
        eprintln!("self-check: {p}");
    }
    if problems.is_empty() {
        println!("self-check: ok");
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// `(name, unit)` pairs of one `BENCHMARK.json` metric list.
type Declared = Vec<(String, String)>;

/// `(end_to_end, per_layer)` metric names with their units, as
/// `BENCHMARK.json` declares them.
fn declared_metrics() -> Result<(Declared, Declared), String> {
    let text =
        std::fs::read_to_string("BENCHMARK.json").map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let value = serde_json::parse_value_str(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let list = |key: &str| -> Result<Declared, String> {
        let entries = value
            .as_map()
            .and_then(|m| m.iter().find(|(k, _)| k == key))
            .and_then(|(_, v)| v.as_seq())
            .ok_or(format!("BENCHMARK.json has no {key} list"))?;
        entries
            .iter()
            .map(|e| {
                let field = |f: &str| {
                    e.as_map()
                        .and_then(|m| m.iter().find(|(k, _)| k == f))
                        .and_then(|(_, v)| v.as_str())
                        .map(str::to_string)
                        .ok_or(format!("{key} entry without {f}"))
                };
                Ok((field("name")?, field("unit")?))
            })
            .collect()
    };
    let end_to_end = list("end_to_end")?;
    let per_layer = list("per_layer")?;
    for (name, _) in &end_to_end {
        if !END_TO_END.contains(&name.as_str()) {
            return Err(format!(
                "BENCHMARK.json names end-to-end metric {name} the benchmark does not produce"
            ));
        }
    }
    for (name, _) in &per_layer {
        if !PER_LAYER.contains(&name.as_str()) {
            return Err(format!(
                "BENCHMARK.json names per-layer metric {name} the benchmark does not produce"
            ));
        }
    }
    Ok((end_to_end, per_layer))
}
