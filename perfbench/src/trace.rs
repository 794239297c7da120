//! The traced in-process replay.
//!
//! Spans are recorded from the benchmark's own code around calls into
//! each layer's public functions; nothing is traced inside the program.
//! The request tree follows the order of `server::dispatch_with`:
//! `protocol.parse`, `command.parse`, `registry.lease`, then either
//! `command.apply` inline (light commands), `pool.wait` + `pool.run` with
//! `command.apply` as its child (heavy commands), or `command.apply`
//! wrapping `plan.compile`, `pool.wait`, `pool.run` (with one `plan.cell`
//! child per cell) and `plan.finish` (scenario plans), and finally
//! `protocol.serialize`. Side probes run the same inputs again through
//! the lower layers after the replay and are reported as their own spans.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use fairank_core::cancel::RunBudget;
use fairank_core::emd::Emd;
use fairank_core::fairness::FairnessCriterion;
use fairank_core::histogram::HistogramSpec;
use fairank_core::quantify::Quantify;
use fairank_core::scoring::{LinearScoring, ScoreSource};
use fairank_data::csv::{read_csv_str, CsvOptions};
use fairank_data::{DatasetHandle, DatasetStore, Filter};
use fairank_marketplace::{DataTransparency, FunctionTransparency, Transparency};
use fairank_service::{
    DispatchPolicy, Frame, PoolFull, Reply, Request, SessionRegistry, WorkerPool,
};
use fairank_session::command::{apply_with_budget, Command};
use fairank_session::plan::{self, Cell, CellResult};
use fairank_session::response::PanelView;
use fairank_session::Panel;
use fairank_session::{Response, SessionError};

use crate::oracle::{Digest, Replayed};
use crate::workload::Req;

/// One recorded span.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    /// The request (or probe) the span belongs to.
    pub req: usize,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// In-memory span store of one thread.
#[derive(Debug, Default)]
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    fn open(&mut self, name: &'static str, parent: Option<usize>, req: usize) -> usize {
        let now = Instant::now();
        self.record(name, now, now, parent, req)
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = Instant::now();
    }

    fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: usize,
    ) -> usize {
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    /// Times `f` as a span.
    fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        req: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, req);
        let out = f();
        self.close(id);
        out
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (children may overlap when cells run on several
/// workers).
pub fn self_times(spans: &[Span]) -> Vec<Duration> {
    let mut children: Vec<Vec<usize>> = vec![Vec::new(); spans.len()];
    for (i, s) in spans.iter().enumerate() {
        if let Some(p) = s.parent {
            children[p].push(i);
        }
    }
    spans
        .iter()
        .zip(&children)
        .map(|(span, kids)| {
            let mut intervals: Vec<(Instant, Instant)> = kids
                .iter()
                .map(|&k| (spans[k].start.max(span.start), spans[k].end.min(span.end)))
                .filter(|(a, b)| a < b)
                .collect();
            intervals.sort();
            let mut covered = Duration::ZERO;
            let mut cursor: Option<Instant> = None;
            for (a, b) in intervals {
                let a = cursor.map_or(a, |c| a.max(c));
                if b > a {
                    covered += b - a;
                    cursor = Some(b);
                }
            }
            span.duration().saturating_sub(covered)
        })
        .collect()
}

/// What a side probe needs to re-run a request's inputs, captured when
/// the request is replayed: a later `open` replaces the session's
/// functions and panels, so they cannot be looked up afterwards.
#[derive(Debug, Clone)]
pub enum Probe {
    Quantify {
        dataset: DatasetHandle,
        function: LinearScoring,
        command: Command,
        panel: Option<Box<Panel>>,
    },
    Show {
        id: usize,
        panel: Option<Box<Panel>>,
    },
    Generate {
        preset: String,
        n: usize,
        seed: u64,
    },
    Load {
        path: String,
    },
    Filter {
        source: DatasetHandle,
        expr: String,
    },
    Stream {
        command: Command,
    },
    Grid {
        inputs: Vec<(DatasetHandle, LinearScoring)>,
        command: Command,
    },
}

/// Search counters read from replies (`PanelView` and `CellStat`).
#[derive(Debug, Default, Clone, Copy)]
pub struct SearchCounters {
    pub searches: usize,
    pub candidate_splits: usize,
    pub histograms_built: usize,
    pub emd_calls: usize,
    pub emd_cache_hits: usize,
}

/// The outcome of one traced request.
pub struct Traced {
    pub replayed: Replayed,
    pub probe: Option<Probe>,
    pub counters: SearchCounters,
    pub refused: bool,
}

/// Replays one request with spans, mirroring `dispatch_with`.
pub fn traced_request(
    registry: &SessionRegistry,
    pool: &WorkerPool,
    policy: DispatchPolicy,
    req: &Req,
    tracer: &mut Tracer,
    rid: usize,
) -> Traced {
    let line = req.line();
    let mut probe = capture(registry, req);
    let started = Instant::now();
    let root = tracer.open("request", None, rid);
    let request: Request = tracer.time("protocol.parse", Some(root), rid, || {
        serde_json::from_str(&line).expect("benchmark requests parse")
    });
    let session = request.session_name().to_string();
    let parsed = tracer.time("command.parse", Some(root), rid, || {
        Command::parse(request.command_text())
    });
    let mut counters = SearchCounters::default();
    let mut refused = false;
    let chunks = Arc::new(Mutex::new(Vec::new()));
    let result = match parsed {
        Err(e) => Err(e),
        Ok(command) if command.touches_filesystem() && !policy.allow_fs_commands => Err(
            SessionError::Command("filesystem commands are disabled".into()),
        ),
        Ok(command) => {
            let lease = tracer.time("registry.lease", Some(root), rid, || {
                registry.lease(&session)
            });
            let is_scenario = matches!(command, Command::RunScenario { .. });
            let _slot = (is_scenario || command.is_compute_heavy()).then(|| {
                lease
                    .try_admit(0)
                    .expect("an uncapped session always admits")
            });
            if is_scenario {
                let Command::RunScenario { spec } = command else {
                    unreachable!("matched above")
                };
                let apply = tracer.open("command.apply", Some(root), rid);
                let budget = RunBudget::default();
                let compiled = tracer.time("plan.compile", Some(apply), rid, || {
                    let session = lease.handle().lock().expect("session lock");
                    plan::compile(&session, &spec).map(|p| p.with_run_budget(&budget))
                });
                let result = match compiled {
                    Err(e) => Err(e),
                    Ok(compiled) => {
                        let marks: Arc<Mutex<Vec<(Instant, Instant)>>> = Arc::default();
                        let submit = Instant::now();
                        let cache = Arc::clone(registry.cell_cache());
                        let executed = compiled.execute_with(|cells: Vec<Cell>| {
                            pool.run_batch_tagged(
                                &session,
                                cells
                                    .into_iter()
                                    .map(|cell| {
                                        let (cache, marks) =
                                            (Arc::clone(&cache), Arc::clone(&marks));
                                        let chunks = req.stream.then(|| Arc::clone(&chunks));
                                        move || {
                                            let start = Instant::now();
                                            let result: Result<CellResult, SessionError> =
                                                cell.execute_cached(&cache);
                                            if let (Some(chunks), Ok(cell)) = (&chunks, &result) {
                                                let line = serde_json::to_string(&Frame::chunk(
                                                    cell.stat().clone(),
                                                ))
                                                .expect("chunks serialize");
                                                chunks.lock().expect("chunk lock").push(line);
                                            }
                                            marks
                                                .lock()
                                                .expect("marks lock")
                                                .push((start, Instant::now()));
                                            result
                                        }
                                    })
                                    .collect(),
                            )
                            .into_iter()
                            .map(|r| {
                                r.unwrap_or_else(|| {
                                    Err(SessionError::Internal("a cell panicked".into()))
                                })
                            })
                            .collect()
                        });
                        let back = Instant::now();
                        let mut marks = marks.lock().expect("marks lock").clone();
                        marks.sort();
                        let first = marks.first().map_or(back, |m| m.0);
                        tracer.record("pool.wait", submit, first, Some(apply), rid);
                        let run = tracer.record("pool.run", first, back, Some(apply), rid);
                        for (a, b) in marks {
                            tracer.record("plan.cell", a, b, Some(run), rid);
                        }
                        tracer.time("plan.finish", Some(apply), rid, || {
                            let mut session = lease.handle().lock().expect("session lock");
                            executed.finish(Some(&mut session)).map(Response::Scenario)
                        })
                    }
                };
                tracer.close(apply);
                result
            } else if command.is_compute_heavy() {
                let handle = Arc::clone(lease.handle());
                let submit = Instant::now();
                let out = pool.try_run_tagged(&session, move || {
                    let start = Instant::now();
                    let mut session = handle.lock().expect("session lock");
                    let applied = Instant::now();
                    let result = apply_with_budget(&mut session, command, RunBudget::default());
                    (start, applied, Instant::now(), result)
                });
                let back = Instant::now();
                match out {
                    Ok(Some((start, applied, end, result))) => {
                        tracer.record("pool.wait", submit, start, Some(root), rid);
                        let run = tracer.record("pool.run", start, back, Some(root), rid);
                        tracer.record("command.apply", applied, end, Some(run), rid);
                        result
                    }
                    Ok(None) => Err(SessionError::Internal("command panicked".into())),
                    Err(PoolFull) => {
                        refused = true;
                        Err(SessionError::Internal("pool full".into()))
                    }
                }
            } else {
                tracer.time("command.apply", Some(root), rid, || {
                    let mut session = lease.handle().lock().expect("session lock");
                    apply_with_budget(&mut session, command, RunBudget::default())
                })
            }
        }
    };
    let mut created = None;
    match &result {
        Ok(Response::PanelCreated(view)) => {
            counters = panel_counters(view);
            created = Some(view.id);
        }
        Ok(Response::Scenario(report)) => {
            for cell in &report.cells {
                counters.searches += 1;
                counters.candidate_splits += cell.candidate_splits;
                counters.histograms_built += cell.histograms_built;
                counters.emd_calls += cell.emd_calls;
                counters.emd_cache_hits += cell.emd_cache_hits;
            }
        }
        Err(_) => probe = None,
        _ => {}
    }
    let terminal = tracer.time("protocol.serialize", Some(root), rid, || {
        serde_json::to_string(&Reply::from_result(result)).expect("replies serialize")
    });
    tracer.close(root);
    let dispatch = started.elapsed();
    // The panels the probes rebuild views of, copied before a later
    // `open` can drop them.
    match &mut probe {
        Some(Probe::Quantify { panel, .. }) => {
            *panel = created.and_then(|id| copy_panel(registry, &session, id))
        }
        Some(Probe::Show { id, panel }) => *panel = copy_panel(registry, &session, *id),
        _ => {}
    }
    let mut digest = Digest::default();
    for line in chunks.lock().expect("chunk lock").iter() {
        digest.chunk(line);
    }
    Traced {
        replayed: Replayed {
            ok: terminal.starts_with("{\"ok\":"),
            bytes: terminal.len(),
            digest: digest.finish(&terminal),
            dispatch,
        },
        probe,
        counters,
        refused,
    }
}

fn panel_counters(view: &PanelView) -> SearchCounters {
    SearchCounters {
        searches: 1,
        candidate_splits: view.candidate_splits,
        histograms_built: view.histograms_built,
        emd_calls: view.emd_calls,
        emd_cache_hits: view.emd_cache_hits,
    }
}

fn copy_panel(registry: &SessionRegistry, session: &str, id: usize) -> Option<Box<Panel>> {
    let lease = registry.lease(session);
    let session = lease.handle().lock().expect("session lock");
    session.panel(id).ok().map(|p| Box::new(p.clone()))
}

/// Resolves what the side probe of `req` needs from the session as it is
/// before the request runs.
fn capture(registry: &SessionRegistry, req: &Req) -> Option<Probe> {
    let command = Command::parse(&req.command).ok()?;
    let resolve = |dataset: &str, function: &str| -> Option<(DatasetHandle, LinearScoring)> {
        let lease = registry.lease(&req.session);
        let session = lease.handle().lock().expect("session lock");
        Some((
            session.dataset_handle(dataset).ok()?.clone(),
            session.function(function).ok()?.clone(),
        ))
    };
    Some(match &command {
        Command::Quantify {
            dataset, function, ..
        } => {
            let (dataset, function) = resolve(dataset, function)?;
            Probe::Quantify {
                dataset,
                function,
                command,
                panel: None,
            }
        }
        Command::Show { panel } => Probe::Show {
            id: *panel,
            panel: None,
        },
        Command::Generate {
            preset, n, seed, ..
        } => Probe::Generate {
            preset: preset.clone(),
            n: *n,
            seed: *seed,
        },
        Command::Load { path, .. } => Probe::Load { path: path.clone() },
        Command::DeriveFilter { source, expr, .. } => {
            let lease = registry.lease(&req.session);
            let session = lease.handle().lock().expect("session lock");
            Probe::Filter {
                source: session.dataset_handle(source).ok()?.clone(),
                expr: expr.clone(),
            }
        }
        Command::Stream { .. } => Probe::Stream { command },
        Command::RunScenario { spec } => {
            let plan::Perspective::Grid {
                datasets,
                functions,
                ..
            } = &spec.perspective
            else {
                return None;
            };
            let mut inputs = Vec::new();
            for dataset in datasets {
                for function in functions {
                    inputs.push(resolve(dataset, function)?);
                }
            }
            Probe::Grid { inputs, command }
        }
        _ => return None,
    })
}

/// Per-layer measurements the side probes produce.
#[derive(Debug, Default)]
pub struct ProbeTimes {
    pub to_space: Vec<f64>,
    pub filter: Vec<f64>,
    pub quantify: Vec<f64>,
    pub panel_view: Vec<f64>,
    pub generate: Vec<f64>,
    pub csv_read: Vec<f64>,
    pub intern: Vec<f64>,
    pub stream_run: Vec<f64>,
    pub reused_histograms: Vec<f64>,
    pub invalidated_emds: Vec<f64>,
    /// Probe time over the time of the same `command::apply` run alone
    /// just before the probes, summed over quantify requests: how much
    /// of `command.apply` the probes account for.
    pub quantify_probe_sum: Duration,
    pub quantify_apply_sum: Duration,
}

/// Runs the side probes, after the traced replay.
pub fn run_probes(probes: &[(usize, Probe)], tracer: &mut Tracer) -> ProbeTimes {
    let mut t = ProbeTimes::default();
    let us = crate::report::us;
    for (rid, probe) in probes {
        let rid = *rid;
        match probe {
            Probe::Quantify {
                dataset,
                function,
                command,
                panel,
            } => {
                let Command::Quantify {
                    dataset: name,
                    function: function_name,
                    objective,
                    aggregator,
                    bins,
                    emd,
                    filter,
                    ..
                } = command
                else {
                    continue;
                };
                // The whole command, applied alone on a session holding
                // only its inputs, right before its probes: the replay's
                // `command.apply` ran beside the other connection and
                // seconds earlier, when the machine may have run at
                // another speed.
                let mut alone = fairank_session::Session::new();
                alone
                    .add_dataset(name.clone(), dataset.dataset().clone())
                    .and_then(|()| alone.add_function(function_name.clone(), function.clone()))
                    .expect("probe session takes the request's inputs");
                let started = Instant::now();
                std::hint::black_box(
                    apply_with_budget(&mut alone, command.clone(), RunBudget::default())
                        .expect("probed quantify applies"),
                );
                let apply = started.elapsed();
                let root = tracer.open("probe.quantify", None, rid);
                let ds = dataset.dataset();
                let source = ScoreSource::Function(function.clone());
                let filtered = filter.as_ref().map(|expr| {
                    let filter = Filter::parse(expr).expect("probed filter parses");
                    tracer.time("data.filter", Some(root), rid, || {
                        ds.filter(&filter).expect("probed filter applies")
                    })
                });
                let space = tracer.time("data.to_space", Some(root), rid, || {
                    filtered
                        .as_ref()
                        .unwrap_or(ds)
                        .to_space(&source)
                        .expect("space")
                });
                let criterion = FairnessCriterion::new(*objective, *aggregator)
                    .with_hist(HistogramSpec::unit(*bins).expect("bins"))
                    .with_emd(Emd::new(*emd))
                    .fit_range(&space);
                tracer.time("core.quantify", Some(root), rid, || {
                    std::hint::black_box(
                        Quantify::new(criterion)
                            .run_space(&space)
                            .expect("quantify"),
                    )
                });
                if let Some(panel) = panel {
                    tracer.time("response.panel_view", Some(root), rid, || {
                        std::hint::black_box(PanelView::from_panel(panel).expect("panel view"))
                    });
                }
                tracer.close(root);
                let spans = &tracer.spans[root..];
                for span in spans.iter().skip(1) {
                    let v = us(span.duration());
                    match span.name {
                        "data.filter" => t.filter.push(v),
                        "data.to_space" => t.to_space.push(v),
                        "core.quantify" => t.quantify.push(v),
                        _ => t.panel_view.push(v),
                    }
                }
                t.quantify_probe_sum += spans.iter().skip(1).map(Span::duration).sum::<Duration>();
                t.quantify_apply_sum += apply;
            }
            Probe::Show { panel, .. } => {
                let Some(panel) = panel else { continue };
                let id = tracer.open("response.panel_view", None, rid);
                std::hint::black_box(PanelView::from_panel(panel).expect("view"));
                tracer.close(id);
                t.panel_view.push(us(tracer.spans[id].duration()));
            }
            Probe::Generate { preset, n, seed } => {
                let spec = match preset.as_str() {
                    "biased" => fairank_data::synth::biased_crowdsourcing_spec(*n, *seed),
                    _ => fairank_data::synth::crowdsourcing_spec(*n, *seed),
                };
                let ds = tracer.time("data.generate", None, rid, || {
                    spec.generate().expect("generate")
                });
                t.generate
                    .push(us(tracer.spans.last().expect("span").duration()));
                intern_probe(tracer, &mut t, rid, ds);
            }
            Probe::Load { path } => {
                let text = std::fs::read_to_string(path).expect("probed CSV reads");
                let ds = tracer.time("data.csv_read", None, rid, || {
                    read_csv_str(&text, &CsvOptions::default()).expect("CSV parses")
                });
                t.csv_read
                    .push(us(tracer.spans.last().expect("span").duration()));
                intern_probe(tracer, &mut t, rid, ds);
            }
            Probe::Filter { source, expr } => {
                let filter = Filter::parse(expr).expect("filter parses");
                let derived = tracer.time("data.filter", None, rid, || {
                    source.dataset().filter(&filter).expect("filter")
                });
                t.filter
                    .push(us(tracer.spans.last().expect("span").duration()));
                intern_probe(tracer, &mut t, rid, derived);
            }
            Probe::Stream { command } => {
                let Command::Stream {
                    preset,
                    job,
                    n,
                    seed,
                    k,
                    ranking_only,
                    config,
                } = command
                else {
                    continue;
                };
                let market = match preset.as_str() {
                    "qapa" => fairank_marketplace::scenario::qapa_like(*n, *seed),
                    _ => fairank_marketplace::scenario::taskrabbit_like(*n, *seed),
                }
                .expect("marketplace builds");
                let transparency = Transparency {
                    function: if *ranking_only {
                        FunctionTransparency::RankingOnly
                    } else {
                        FunctionTransparency::Visible
                    },
                    data: match k {
                        Some(k) => DataTransparency::Anonymized { k: *k },
                        None => DataTransparency::Full,
                    },
                };
                let outcome = tracer.time("stream.run", None, rid, || {
                    fairank_marketplace::stream::run_stream(
                        &market,
                        job,
                        &transparency,
                        &FairnessCriterion::default(),
                        *config,
                    )
                    .expect("stream runs")
                });
                t.stream_run
                    .push(us(tracer.spans.last().expect("span").duration()));
                t.reused_histograms
                    .push(outcome.total_reused_histograms() as f64);
                t.invalidated_emds.push(
                    outcome
                        .rounds
                        .iter()
                        .map(|r| r.delta_invalidated_emds)
                        .sum::<usize>() as f64,
                );
            }
            Probe::Grid { inputs, command } => {
                let Command::RunScenario { spec } = command else {
                    continue;
                };
                let criteria = spec.criterion_grid().criteria().expect("criteria");
                for (dataset, function) in inputs {
                    let source = ScoreSource::Function(function.clone());
                    let space = tracer.time("data.to_space", None, rid, || {
                        dataset.dataset().to_space(&source).expect("space")
                    });
                    t.to_space
                        .push(us(tracer.spans.last().expect("span").duration()));
                    for (_, criterion) in &criteria {
                        let criterion = criterion.fit_range(&space);
                        tracer.time("core.quantify", None, rid, || {
                            std::hint::black_box(
                                Quantify::new(criterion)
                                    .run_space(&space)
                                    .expect("quantify"),
                            )
                        });
                        t.quantify
                            .push(us(tracer.spans.last().expect("span").duration()));
                    }
                }
            }
        }
    }
    t
}

fn intern_probe(tracer: &mut Tracer, t: &mut ProbeTimes, rid: usize, ds: fairank_data::Dataset) {
    let store = DatasetStore::new();
    let handle = tracer.time("store.intern", None, rid, || store.intern(ds));
    std::hint::black_box(handle);
    t.intern.push(crate::report::us(
        tracer.spans.last().expect("span").duration(),
    ));
}
