//! Seeded inputs and request sequences of the three workloads.
//!
//! Everything here is a pure function of the seed: the same seed gives
//! the same CSV bytes, the same per-connection request lists and the
//! same visit schedule. Option mixes are drawn from shuffled, balanced
//! decks rather than independent coin flips, so every seed runs the same
//! mix of request types in a different order and with different data;
//! that keeps the medians comparable across seeds.

use std::path::{Path, PathBuf};
use std::time::Duration;

use fairank_data::bias::BiasRule;
use fairank_data::dist::SkillDistribution;
use fairank_data::synth::PopulationSpec;
use fairank_data::Dataset;
use fairank_service::Request;

/// The workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 3] = ["quantify-wide", "analyst-visit", "scenario-grid"];

/// Client connections (and client threads) every workload uses: the
/// `nproc` of the 2-core machine the benchmark was sized on.
pub const CONNECTIONS: usize = 2;

/// Rows of the wide CSV.
pub const WIDE_ROWS: usize = 10_000;

/// Target offered rate of `analyst-visit`, in visits per second. The
/// window is filled with whole passes of 18 visits, so the rate offered
/// is this rounded to a whole number of passes (2.7 visits/s in a
/// 20-second window). Chosen well below the saturation rate measured on a
/// 2-core machine, about 16 visits/s (see NOTES.md).
pub const VISIT_RATE: f64 = 3.0;

/// One request line a client sends.
#[derive(Debug, Clone)]
pub struct Req {
    pub session: String,
    pub command: String,
    /// Ask for chunked scenario replies.
    pub stream: bool,
    /// Whether the request's latency is a sample of the end-to-end
    /// metrics. Helper requests (a `define` ahead of a grid) are sent,
    /// counted and checked, but not timed.
    pub measured: bool,
    /// Closed loop: how long the client waits after the reply before
    /// sending its next request.
    pub think: Duration,
}

impl Req {
    fn new(session: &str, command: impl Into<String>) -> Req {
        Req {
            session: session.to_string(),
            command: command.into(),
            stream: false,
            measured: true,
            think: Duration::ZERO,
        }
    }

    fn helper(mut self) -> Req {
        self.measured = false;
        self
    }

    fn streamed(mut self, on: bool) -> Req {
        self.stream = on;
        self
    }

    /// The wire form of the request.
    pub fn request(&self) -> Request {
        let request = Request::in_session(self.session.clone(), self.command.clone());
        if self.stream {
            request.with_stream()
        } else {
            request
        }
    }

    /// The JSON line sent over TCP (without the newline).
    pub fn line(&self) -> String {
        serde_json::to_string(&self.request()).expect("requests serialize")
    }
}

/// One `analyst-visit` visit: a fresh session's step sequence, started at
/// `at_s` seconds into the run on connection `conn`.
#[derive(Debug, Clone)]
pub struct Visit {
    pub conn: usize,
    pub at_s: f64,
    pub steps: Vec<Req>,
}

/// How a workload's measured requests are offered.
#[derive(Debug, Clone)]
pub enum Load {
    /// Each connection sends its next request when the previous reply is
    /// in. The lists are longer than any run can use.
    Closed { streams: Vec<Vec<Req>> },
    /// Visits arrive on a schedule; a visit's steps follow each other
    /// (an analyst reads a reply before the next click), and visits
    /// sharing a connection are pipelined on it.
    Open { visits: Vec<Visit> },
}

/// A generated workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    /// Whether the server needs `--allow-fs` (the workload `load`s a CSV).
    pub allow_fs: bool,
    /// Per-connection setup requests, run connection by connection.
    pub setup: Vec<Vec<Req>>,
    pub load: Load,
}

impl Workload {
    /// The per-connection request order a replay follows: setup first,
    /// then the driven requests in the order the connection sends them.
    pub fn sequences(&self) -> Vec<Vec<Req>> {
        self.setup
            .iter()
            .zip(self.driven())
            .map(|(setup, driven)| setup.iter().cloned().chain(driven).collect())
            .collect()
    }

    /// Every driven request per connection, in send order (for the open
    /// loop: visits on the connection in arrival order, steps in order).
    pub fn driven(&self) -> Vec<Vec<Req>> {
        match &self.load {
            Load::Closed { streams } => streams.clone(),
            Load::Open { visits } => (0..CONNECTIONS)
                .map(|c| {
                    visits
                        .iter()
                        .filter(|v| v.conn == c)
                        .flat_map(|v| v.steps.iter().cloned())
                        .collect()
                })
                .collect(),
        }
    }
}

/// SplitMix64: a small, well-mixed generator; the benchmark's only
/// source of randomness.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x5DEE_CE66_D1CE_5EED)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}

/// Cycles through `cards`, reshuffling before every pass.
fn deal<T: Clone>(rng: &mut Rng, cards: &[T], count: usize) -> Vec<T> {
    let mut out = Vec::with_capacity(count);
    let mut deck = cards.to_vec();
    while out.len() < count {
        rng.shuffle(&mut deck);
        out.extend(deck.iter().take(count - out.len()).cloned());
    }
    out
}

/// The protected attributes of the wide CSV: 8 columns of cardinality 3.
pub const WIDE_ATTRS: [&str; 8] = [
    "region",
    "gender",
    "age_band",
    "language",
    "education",
    "device",
    "tenure",
    "origin",
];
const WIDE_VALUES: [&str; 3] = ["a", "b", "c"];

/// Generator seed of the one wide population every benchmark seed
/// relabels (see [`wide_csv`]).
pub const WIDE_BASE_SEED: u64 = 2019;

/// The wide population: 8 protected string attributes of cardinality 3
/// and the two observed skills `rating` and `language_test`, with two
/// bias rules so the search has real structure to find.
pub fn wide_spec() -> PopulationSpec {
    let weights = [
        [0.5, 0.3, 0.2],
        [0.45, 0.45, 0.1],
        [0.34, 0.33, 0.33],
        [0.6, 0.25, 0.15],
    ];
    let mut builder = PopulationSpec::builder(WIDE_ROWS, WIDE_BASE_SEED);
    for (i, attr) in WIDE_ATTRS.iter().enumerate() {
        let w = weights[i % weights.len()];
        builder = builder
            .demographic(*attr, WIDE_VALUES.iter().copied().zip(w).collect())
            .expect("static spec");
    }
    builder
        .skill(
            "rating",
            SkillDistribution::Beta {
                alpha: 3.0,
                beta: 2.0,
            },
        )
        .skill(
            "language_test",
            SkillDistribution::Beta {
                alpha: 4.0,
                beta: 2.5,
            },
        )
        .bias(BiasRule::shift("region", "c", "rating", -0.12))
        .bias(BiasRule::shift("language", "b", "language_test", -0.08))
        .build()
}

/// The seed's wide CSV: the wide population with its rows shuffled, its
/// value labels permuted per attribute and its protected columns
/// reordered, all by the seed. Relabeled copies of one population keep
/// the search work per request equal across seeds; a population drawn
/// afresh per seed changes the partitioning tree's size by up to 2x. The
/// generator's `worker_id` column is left out: a unique string column
/// would load as a protected attribute.
pub fn wide_csv(dataset: &Dataset, seed: u64) -> String {
    let text = fairank_data::csv::write_csv_string(dataset);
    let mut lines = text.lines();
    let header: Vec<&str> = lines.next().expect("CSV has a header").split(',').collect();
    let rows: Vec<Vec<&str>> = lines.map(|l| l.split(',').collect()).collect();
    // Column 0 is worker_id, 1..=8 the protected attributes, then skills.
    let protected = 1..=WIDE_ATTRS.len();
    let mut rng = Rng::new(seed, 400);
    let mut columns: Vec<usize> = protected.clone().collect();
    rng.shuffle(&mut columns);
    columns.extend(WIDE_ATTRS.len() + 1..header.len());
    let relabel: Vec<Vec<usize>> = (0..header.len())
        .map(|_| {
            let mut labels: Vec<usize> = (0..WIDE_VALUES.len()).collect();
            rng.shuffle(&mut labels);
            labels
        })
        .collect();
    let mut order: Vec<usize> = (0..rows.len()).collect();
    rng.shuffle(&mut order);
    let mut out = String::with_capacity(text.len());
    let names: Vec<&str> = columns.iter().map(|&c| header[c]).collect();
    out.push_str(&names.join(","));
    out.push('\n');
    for &r in &order {
        let fields: Vec<&str> = columns
            .iter()
            .map(|&c| {
                let value = rows[r][c];
                if protected.contains(&c) {
                    let code = WIDE_VALUES
                        .iter()
                        .position(|v| *v == value)
                        .expect("wide values are a, b or c");
                    WIDE_VALUES[relabel[c][code]]
                } else {
                    value
                }
            })
            .collect();
        out.push_str(&fields.join(","));
        out.push('\n');
    }
    out
}

/// Writes the seed's wide CSV under `dir` and returns its absolute path.
pub fn write_wide_csv(seed: u64, dir: &Path) -> std::io::Result<PathBuf> {
    let dataset = wide_spec().generate().expect("wide spec generates");
    std::fs::create_dir_all(dir)?;
    let path = dir.join(format!("wide-{seed}.csv"));
    std::fs::write(&path, wide_csv(&dataset, seed))?;
    path.canonicalize()
}

/// Driven requests generated per connection for the closed loops; more
/// than a 60-second run can send.
const STREAM_LEN: usize = 4_000;

/// Builds the named workload for `seed`. `csv` is the wide CSV's path
/// (used by `quantify-wide` and `scenario-grid`), `snapshot` the session
/// snapshot the closed loops reopen (see [`write_snapshot`]); `seconds`
/// is the measured window and `warmup` the unmeasured lead-in, which
/// together size the `analyst-visit` schedule.
pub fn build(
    name: &str,
    seed: u64,
    csv: &Path,
    snapshot: &Path,
    warmup: f64,
    seconds: f64,
) -> Option<Workload> {
    let snapshot = snapshot.display().to_string();
    match name {
        "quantify-wide" => Some(quantify_wide(seed, csv, &snapshot)),
        "analyst-visit" => Some(analyst_visit(seed, warmup, seconds)),
        "scenario-grid" => Some(scenario_grid(seed, csv, &snapshot)),
        _ => None,
    }
}

/// Writes the snapshot the closed-loop sessions reopen: the datasets and
/// functions their setup creates (no panels), saved through the session
/// layer's own `persist::save_session`, so that the server's `open`
/// reads exactly what its `save` would have written. It is written with
/// the other inputs rather than by a `save` request: a save's disk write
/// took from 6 to 240 ms and made `setup_s` noisy.
pub fn write_snapshot(name: &str, csv: &Path, path: &Path) -> Result<(), String> {
    if name == "analyst-visit" {
        return Ok(());
    }
    let mut session = fairank_session::Session::new();
    let text = std::fs::read_to_string(csv).map_err(|e| format!("read CSV: {e}"))?;
    let wide = fairank_data::csv::read_csv_str(&text, &Default::default())
        .map_err(|e| format!("parse CSV: {e}"))?;
    let function = |expr: &str| {
        fairank_session::command::parse_scoring(expr).expect("static scoring expressions parse")
    };
    session
        .add_dataset("wide", wide)
        .map_err(|e| e.to_string())?;
    match name {
        "quantify-wide" => session.add_function("f", function(WIDE_FUNCTION)),
        "scenario-grid" => {
            let pop = fairank_data::synth::biased_crowdsourcing_spec(10_000, GRID_POP_SEED)
                .generate()
                .map_err(|e| e.to_string())?;
            session.add_dataset("pop", pop).map_err(|e| e.to_string())?;
            session
                .add_function("w0", function(GRID_FUNCTIONS[0]))
                .and_then(|()| session.add_function("w1", function(GRID_FUNCTIONS[1])))
        }
        _ => unreachable!("workload names are validated"),
    }
    .map_err(|e| e.to_string())?;
    fairank_session::persist::save_session(&session, path).map_err(|e| e.to_string())
}

/// Every quantify and every grid cell keeps a panel in its session, the
/// default server never evicts sessions, and a 10k-row panel takes 1 to
/// 2.5 MB. So that memory stays bounded over a run, the closed-loop
/// clients reopen a snapshot of their session after setup (its datasets
/// and functions, no panels) after this many driven requests,
/// as an analyst reopening a saved workspace would. The reopen is sent
/// and checked but not timed.
const REOPEN_EVERY: usize = 40;

const WIDE_FUNCTION: &str = "rating*0.6+language_test*0.4";

fn quantify_wide(seed: u64, csv: &Path, snapshot: &str) -> Workload {
    let csv = csv.display();
    let mut setup = Vec::new();
    let mut streams = Vec::new();
    for c in 0..CONNECTIONS {
        let s = format!("q{c}");
        setup.push(vec![
            Req::new(&s, format!("load wide {csv}")),
            Req::new(&s, format!("define f {WIDE_FUNCTION}")),
        ]);
        // Every aggregator, bin count and objective, weighted so that the
        // median falls inside one dense group of requests (unfiltered
        // mean/10-bin searches) and not on a gap: `least` searches stop
        // at the root in under a millisecond and variance searches take
        // about 7 ms, against 60 to 160 ms for mean and max. Each card
        // comes once with a single-attribute filter and three times
        // without.
        let weighted = [
            (("mean", 10, "most"), 6),
            (("mean", 20, "most"), 4),
            (("max", 10, "most"), 4),
            (("max", 20, "most"), 4),
            (("variance", 10, "most"), 2),
            (("variance", 20, "most"), 1),
            (("mean", 10, "least"), 1),
            (("max", 20, "least"), 1),
            (("variance", 10, "least"), 1),
        ];
        let mut deck = Vec::new();
        for ((agg, bins, objective), copies) in weighted {
            for _ in 0..copies {
                for filtered in [true, false, false, false] {
                    deck.push((agg, bins, objective, filtered));
                }
            }
        }
        let mut rng = Rng::new(seed, 100 + c as u64);
        // Filters are dealt from every attribute-value pair, so that every
        // run filters to the same mix of subpopulation sizes.
        let pairs: Vec<(&str, &str)> = WIDE_ATTRS
            .iter()
            .flat_map(|a| WIDE_VALUES.iter().map(move |v| (*a, *v)))
            .collect();
        let mut filters = deal(&mut rng, &pairs, STREAM_LEN).into_iter();
        let mut stream = Vec::new();
        for (i, (agg, bins, objective, filtered)) in
            deal(&mut rng, &deck, STREAM_LEN).into_iter().enumerate()
        {
            if i > 0 && i % REOPEN_EVERY == 0 {
                stream.push(Req::new(&s, format!("open {snapshot}")).helper());
            }
            let mut command =
                format!("quantify wide f agg={agg} bins={bins} objective={objective}");
            if filtered {
                let (attr, value) = filters.next().expect("one filter per request");
                command.push_str(&format!(" where={attr}={value}"));
            }
            stream.push(Req::new(&s, command));
        }
        streams.push(stream);
    }
    Workload {
        name: "quantify-wide",
        allow_fs: true,
        setup,
        load: Load::Closed { streams },
    }
}

const VISIT_FUNCTIONS: [&str; 3] = [
    "rating*0.6+language_test*0.4",
    "rating*0.5+experience*0.5",
    "language_test*0.7+experience*0.3",
];

fn analyst_visit(seed: u64, warmup: f64, seconds: f64) -> Workload {
    let mut rng = Rng::new(seed, 200);
    // The measured window holds whole passes, so every seed times the
    // same multiset of visits; the warm-up window's visits come from one
    // more pass.
    let pass_len = visit_deck(1).len();
    let passes = ((VISIT_RATE * seconds / pass_len as f64).round() as usize).max(1);
    let warm_count = (VISIT_RATE * warmup).round() as usize;
    let mut cards = deal(&mut rng, &visit_deck(1), warm_count);
    let mut measured = visit_deck(passes);
    rng.shuffle(&mut measured);
    cards.extend(measured);
    // Poisson processes conditioned on their counts: the warm-up's and the
    // window's visits are placed uniformly in their windows.
    let mut arrivals: Vec<f64> = (0..warm_count).map(|_| rng.unit() * warmup).collect();
    arrivals.sort_by(f64::total_cmp);
    let mut window: Vec<f64> = (warm_count..cards.len())
        .map(|_| warmup + rng.unit() * seconds)
        .collect();
    window.sort_by(f64::total_cmp);
    arrivals.extend(window);
    let visits = arrivals
        .into_iter()
        .zip(cards)
        .enumerate()
        .map(|(v, (at_s, card))| Visit {
            conn: v % CONNECTIONS,
            at_s,
            steps: visit_steps(&format!("v{v}"), card),
        })
        .collect();
    // Setup: one warm-up visit per connection, so that the measured
    // visits meet a server whose allocator and code paths are warm.
    let setup = (0..CONNECTIONS)
        .map(|c| {
            let s = format!("warm{c}");
            visit_steps(
                &s,
                VisitCard {
                    preset: "biased",
                    n: 10_000,
                    data_seed: 1,
                    function: VISIT_FUNCTIONS[0],
                    second: VISIT_SECONDS[0],
                    audit: true,
                },
            )
        })
        .collect();
    Workload {
        name: "analyst-visit",
        allow_fs: false,
        setup,
        load: Load::Open { visits },
    }
}

/// What one `analyst-visit` visit does.
#[derive(Debug, Clone, Copy)]
struct VisitCard {
    preset: &'static str,
    n: usize,
    data_seed: u64,
    function: &'static str,
    /// Options of the second quantify.
    second: &'static str,
    /// Whether the visit ends with a `filter` and a `stream` re-audit.
    audit: bool,
}

/// Options of a visit's second quantify.
const VISIT_SECONDS: [&str; 4] = [
    "agg=max",
    "agg=variance bins=20",
    "agg=max objective=least",
    "bins=20",
];

/// The visits of `passes` passes of `analyst-visit`. A pass runs both
/// presets at 2k, 5k and 10k rows with dataset seeds 1 to 3 (so that
/// visits share datasets in the store), 18 visits. The function follows
/// the dataset seed, the visits on seed 1 (a third) end with the
/// re-audit, and the second quantify's options rotate from pass to pass.
fn visit_deck(passes: usize) -> Vec<VisitCard> {
    let mut deck = Vec::new();
    for pass in 0..passes {
        for preset in ["biased", "crowdsourcing"] {
            for n in [2_000, 5_000, 10_000] {
                for data_seed in 1..=3 {
                    let i = deck.len() + pass;
                    deck.push(VisitCard {
                        preset,
                        n,
                        data_seed,
                        function: VISIT_FUNCTIONS[data_seed as usize - 1],
                        second: VISIT_SECONDS[i % VISIT_SECONDS.len()],
                        audit: data_seed == 1,
                    });
                }
            }
        }
    }
    deck
}

/// One visit's steps in session `s`.
fn visit_steps(s: &str, card: VisitCard) -> Vec<Req> {
    let VisitCard {
        preset,
        n,
        data_seed,
        function,
        second,
        audit,
    } = card;
    let mut steps = vec![
        Req::new(s, format!("generate d {preset} n={n} seed={data_seed}")),
        Req::new(s, "datasets"),
        Req::new(s, "data d rows=5"),
        Req::new(s, format!("define f {function}")),
        Req::new(s, "funcs"),
        Req::new(s, "quantify d f"),
        Req::new(s, "panels"),
        Req::new(s, "node 0 0"),
        Req::new(s, "node 0 1"),
        Req::new(s, "node 0 2"),
        Req::new(s, format!("quantify d f {second}")),
        Req::new(s, "panels"),
        Req::new(s, "node 1 0"),
        Req::new(s, "show 1"),
        Req::new(s, "why 0 0"),
        Req::new(s, "compare 0 1"),
        Req::new(s, "subgroups d f"),
    ];
    if audit {
        steps.push(Req::new(s, "filter g d gender=Female"));
        steps.push(Req::new(s, "datasets"));
        steps.push(Req::new(
            s,
            "stream taskrabbit wood-panels n=2000 rounds=20",
        ));
    }
    steps
}

/// Criterion axes of the grid misses: `pop` grids take 4 or 6 criteria,
/// `pop,wide` grids 2 (4 cells, two of them 8-attribute searches). The
/// wide grids use the variance aggregator: its 8-attribute searches take
/// a few milliseconds, where mean's take 40 and make the other client
/// queue behind them, which moved `latency_p90_ms` by a quarter from seed
/// to seed.
const AXES_4: &str = "aggs=mean,max bins=10,20";
const AXES_6: &str = "aggs=mean,max,variance bins=10,20";
const AXES_WIDE: &str = "aggs=variance bins=10,20";

/// Think times between a grid reply and the client's next grid, in ms,
/// dealt from a shuffled deck: the mean (100 ms) is the same in every
/// run, but the two clients do not fall into a fixed phase, which made
/// the share of grids that overlap the other client's, and with it
/// `latency_p90_ms`, jump between runs. Every miss stays in the cell
/// cache, whose default cap is 4096 entries of 0.3 to 2 MB; at full speed
/// (about 125 grids a second) a run fills it and the server passes
/// 1.5 GB. Reading each grid for 100 ms keeps a run to about 500 MB.
const GRID_THINK_MS: [u64; 5] = [50, 75, 100, 125, 150];

/// What one `scenario-grid` request does to the cell cache.
#[derive(Debug, Clone, Copy)]
enum GridCard {
    /// Repeat a warm grid, computed by one of the sessions at setup.
    Hit,
    /// A fresh function over `pop` only: 4 or 6 cheap cells.
    MissNarrow,
    /// A fresh function over `pop` and the wide CSV: 4 cells, two of
    /// them 8-attribute searches.
    MissWide,
}

/// Generator seed of `scenario-grid`'s `pop`, the same at every seed for
/// the reason given at [`wide_csv`].
const GRID_POP_SEED: u64 = 7;
/// The two functions `scenario-grid` defines at setup.
const GRID_FUNCTIONS: [&str; 2] = [
    "rating*0.6+language_test*0.4",
    "rating*0.3+language_test*0.7",
];

fn scenario_grid(seed: u64, csv: &Path, snapshot: &str) -> Workload {
    let csv = csv.display();
    let warm: Vec<String> = (0..CONNECTIONS)
        .map(|c| format!("pop,wide w{c} aggs=mean,max"))
        .collect();
    let mut setup = Vec::new();
    let mut streams = Vec::new();
    for c in 0..CONNECTIONS {
        let s = format!("g{c}");
        setup.push(vec![
            Req::new(&s, format!("load wide {csv}")),
            Req::new(
                &s,
                format!("generate pop biased n=10000 seed={GRID_POP_SEED}"),
            ),
            Req::new(&s, format!("define w0 {}", GRID_FUNCTIONS[0])),
            Req::new(&s, format!("define w1 {}", GRID_FUNCTIONS[1])),
            Req::new(&s, format!("scenario grid {}", warm[c])),
        ]);
        // 40% hits, 40% narrow misses, 20% wide misses, so that the median
        // falls inside the narrow misses rather than on the gap between
        // them and the hits. Half of the grids stream: every narrow miss
        // and half of the wide ones, so that the streamed median
        // (`first_chunk_p50_ms`) falls inside the narrow misses' first
        // cells.
        let mut deck = Vec::new();
        for (card, copies, streamed) in [
            (GridCard::Hit, 12, 0),
            (GridCard::MissNarrow, 12, 12),
            (GridCard::MissWide, 6, 3),
        ] {
            for i in 0..copies {
                deck.push((card, i < streamed));
            }
        }
        let mut rng = Rng::new(seed, 300 + c as u64);
        let mut stream = Vec::new();
        // Grids commit about five panels each, hence a shorter interval.
        let reopen_every = REOPEN_EVERY / 4;
        let cards = deal(&mut rng, &deck, STREAM_LEN / 2);
        let thinks = deal(&mut rng, &GRID_THINK_MS, cards.len());
        for (miss, ((card, streamed), think)) in cards.into_iter().zip(thinks).enumerate() {
            if miss > 0 && miss % reopen_every == 0 {
                stream.push(Req::new(&s, format!("open {snapshot}")).helper());
            }
            let spec = match card {
                // Functions defined after the snapshot do not survive a
                // reopen, so hits repeat the warm grids.
                GridCard::Hit => warm[rng.below(warm.len())].clone(),
                GridCard::MissNarrow | GridCard::MissWide => {
                    // A weight no other request uses, so every cell misses.
                    let a = 0.1 + 0.8 * (2 * miss + c + 1) as f64 / (2 * STREAM_LEN) as f64;
                    let name = format!("m{c}x{miss}");
                    stream.push(
                        Req::new(
                            &s,
                            format!("define {name} rating*{a:.6}+language_test*{:.6}", 1.0 - a),
                        )
                        .helper(),
                    );
                    let spec = match card {
                        GridCard::MissNarrow if rng.below(2) == 0 => format!("pop {name} {AXES_4}"),
                        GridCard::MissNarrow => format!("pop {name} {AXES_6}"),
                        _ => format!("pop,wide {name} {AXES_WIDE}"),
                    };
                    spec
                }
            };
            let mut grid = Req::new(&s, format!("scenario grid {spec}")).streamed(streamed);
            grid.think = Duration::from_millis(think);
            stream.push(grid);
        }
        streams.push(stream);
    }
    Workload {
        name: "scenario-grid",
        allow_fs: true,
        setup,
        load: Load::Closed { streams },
    }
}
