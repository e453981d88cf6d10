//! The three workloads. Each runs the whole lifecycle (append, persist,
//! recover, browse) in identical rounds until the run time is used; the
//! workloads differ in which phase carries the weight.

use crate::adapters::{StorageTally, TimedStorage};
use crate::check::{check_browse, check_recovery, check_snapshot, View};
use crate::env::{query_pool, query_stream, Kb, Layers, Resources, SetupTimes, Substrates};
use crate::host;
use crate::stats::{median, percentile};
use facet_hierarchies::core::{FacetServer, PipelineOptions, ServeHandle, ShardedFacetIndex};
use facet_hierarchies::corpus::Document;
use facet_hierarchies::obs::Recorder;
use facet_hierarchies::resources::ExpansionOptions;
use facet_hierarchies::store::{DiskStorage, FacetStore, RecoveryReport, Storage};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    ArchiveBuild,
    StreamDurable,
    BrowseMixed,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ArchiveBuild,
        Workload::StreamDurable,
        Workload::BrowseMixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ArchiveBuild => "archive_build",
            Workload::StreamDurable => "stream_durable",
            Workload::BrowseMixed => "browse_mixed",
        }
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    fn shape(self) -> Shape {
        match self {
            // Bulk load: extraction and expansion of 3,000 new documents
            // dominate; selection and subsumption run once per 250 docs.
            Workload::ArchiveBuild => Shape {
                base_docs: 0,
                round_docs: 3000,
                batch: 250,
                checkpoint_every: 0,
                persists: 3,
                recoveries: 3,
                queries: 6000,
                query_blocks: 1,
            },
            // Durable trickle: fixed per-append costs (global
            // re-selection, snapshot assembly, WAL fsync) dominate, and
            // recovery replays a six-record WAL tail.
            Workload::StreamDurable => Shape {
                base_docs: 2000,
                round_docs: 360,
                batch: 10,
                checkpoint_every: 15,
                persists: 0,
                recoveries: 2,
                queries: 6000,
                query_blocks: 1,
            },
            // Serving: a long Zipfian query stream with a 10-doc append
            // (and a cache invalidation) every 3,000 queries.
            Workload::BrowseMixed => Shape {
                base_docs: 2000,
                round_docs: 40,
                batch: 10,
                checkpoint_every: 0,
                persists: 1,
                recoveries: 1,
                queries: 12_000,
                query_blocks: 4,
            },
        }
    }
}

/// Sizes of one workload's rounds.
struct Shape {
    /// Documents built and persisted during set-up.
    base_docs: usize,
    /// Documents appended per round.
    round_docs: usize,
    /// Documents per append.
    batch: usize,
    /// Persist after every this many appends while they run (0: none).
    checkpoint_every: usize,
    /// Persists of the final state per round.
    persists: usize,
    /// Recoveries of the final state per round.
    recoveries: usize,
    /// Queries per round.
    queries: usize,
    /// Blocks the queries are split into, each followed by one append
    /// (`browse_mixed` only).
    query_blocks: usize,
}

/// Set-up repetitions; the reported set-up time is their median.
const SETUP_REPS: usize = 3;
/// Every this many queries one answer is recomputed by brute force.
const BROWSE_CHECK_EVERY: usize = 61;
/// Shard count of every index unless `--shards` says otherwise: the
/// single-shard form the three index types are converging on.
pub const DEFAULT_SHARDS: usize = 1;

/// One expansion thread per shard: a single-shard index then keeps one
/// core busy at a time, so extractor and resource busy times add up to
/// wall time; `--shards 2` gives the two-core figures of the README's
/// sweep.
fn options() -> PipelineOptions {
    PipelineOptions {
        expansion: ExpansionOptions { threads: 1 },
        ..PipelineOptions::default()
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What one run produced.
pub struct Outcome {
    pub correct: bool,
    pub errors: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

/// Per-layer accumulators of the traced run.
#[derive(Default)]
struct Trace {
    recorder: Recorder,
    storage: Arc<StorageTally>,
    /// Append wall time minus extractor and resource time.
    core_self_ms: f64,
    persist_encode_ms: f64,
    /// Recovery time inside the store's `store.recover` span (read,
    /// verify, WAL scan), and the rest of `open_from` (decode, replay).
    recover_load_ms: f64,
    recover_restore_ms: f64,
    replayed_records: u64,
    serve_hit_us: Vec<f64>,
    serve_miss_us: Vec<f64>,
    serve_hits: u64,
    serve_misses: u64,
    serve_invalidations: u64,
    serve_evictions: u64,
}

/// Everything the timed phase of a run accumulates.
#[derive(Default)]
struct Samples {
    append_ms: Vec<f64>,
    append_docs: usize,
    /// Per-round throughput and tail figures; the run reports their
    /// median over rounds, so a slow spell on the host that covers a
    /// minority of rounds does not move the result.
    round_docs_per_s: Vec<f64>,
    round_qps: Vec<f64>,
    round_p99_us: Vec<f64>,
    persist_ms: Vec<f64>,
    recover_ms: Vec<f64>,
    bytes_per_doc: Vec<f64>,
    browse_us: Vec<f64>,
    attempted: u64,
    failed: u64,
    errors: Vec<String>,
}

impl Samples {
    /// Close a round whose samples start at these positions.
    fn end_round(&mut self, appends_from: usize, docs_from: usize, queries_from: usize) {
        let append_s: f64 = self.append_ms[appends_from..].iter().sum::<f64>() / 1e3;
        self.round_docs_per_s
            .push((self.append_docs - docs_from) as f64 / append_s);
        let queries = &self.browse_us[queries_from..];
        self.round_qps
            .push(queries.len() as f64 / (queries.iter().sum::<f64>() / 1e6));
        self.round_p99_us.push(percentile(queries, 0.99));
    }

    /// A failed operation counts in `failed`; it is not a wrong answer.
    fn fail(&mut self, message: String) {
        self.failed += 1;
        eprintln!("lifebench: {message}");
    }

    fn check(&mut self, result: Result<(), String>) {
        if let Err(e) = result {
            if self.errors.len() < 8 {
                self.errors.push(e);
            }
        }
    }
}

/// How an append reaches the index: logged ahead into a store, or
/// through the serving tier (which has no logged append).
enum AppendVia<'x, 'r> {
    Log(&'x mut ShardedFacetIndex<'r>, &'x FacetStore),
    Server(&'x mut FacetServer<'r>),
}

/// The state shared by every round of one run.
struct Run<'r> {
    layers: &'r Layers<'r>,
    docs: &'r [Document],
    shards: usize,
    shape: Shape,
    dir: PathBuf,
    trace: Option<Trace>,
    samples: Samples,
    rounds: usize,
}

fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(Result::ok)
                .filter_map(|e| e.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

fn copy_dir(from: &Path, to: &Path) {
    std::fs::remove_dir_all(to).ok();
    std::fs::create_dir_all(to).expect("create a round directory");
    for entry in std::fs::read_dir(from).expect("list the base store") {
        let entry = entry.expect("read a base store entry");
        std::fs::copy(entry.path(), to.join(entry.file_name())).expect("copy a base store file");
    }
}

impl<'r> Run<'r> {
    fn new_index(&self) -> ShardedFacetIndex<'r> {
        let index = ShardedFacetIndex::new(
            self.shards,
            self.layers.extractors(),
            self.layers.resources(),
            options(),
        );
        self.instrument(index)
    }

    fn instrument(&self, index: ShardedFacetIndex<'r>) -> ShardedFacetIndex<'r> {
        match &self.trace {
            Some(t) => index.with_recorder(t.recorder.clone()),
            None => index,
        }
    }

    fn open_store(&self, dir: &Path) -> FacetStore {
        let disk = DiskStorage::open(dir).expect("open a store directory");
        match &self.trace {
            Some(t) => {
                let storage: Arc<dyn Storage> = Arc::new(TimedStorage {
                    inner: disk,
                    tally: Arc::clone(&t.storage),
                });
                FacetStore::open_with(storage)
                    .expect("open a store")
                    .with_recorder(t.recorder.clone())
            }
            None => FacetStore::open_with(Arc::new(disk)).expect("open a store"),
        }
    }

    /// Wall time with an extractor or resource call in flight so far
    /// (traced run only).
    fn plugin_ms(&self) -> f64 {
        self.layers.plugin_wall_ms()
    }

    fn storage_ms(&self) -> f64 {
        self.trace.as_ref().map_or(0.0, |t| {
            t.storage.write.ms() + t.storage.append.ms() + t.storage.read.ms()
        })
    }

    fn span_ms(&self, path: &str) -> f64 {
        self.trace.as_ref().map_or(0.0, |t| {
            t.recorder
                .snapshot()
                .spans
                .iter()
                .filter(|s| s.path == path)
                .map(|s| s.total_us as f64 / 1e3)
                .sum()
        })
    }

    /// One timed append, from the call to the published snapshot.
    fn append(&mut self, via: AppendVia<'_, 'r>, batch: &[Document]) {
        let plugins_before = self.plugin_ms();
        self.samples.attempted += 1;
        let t = Instant::now();
        let result = match via {
            AppendVia::Log(index, store) => index.append_logged(batch.to_vec(), store),
            AppendVia::Server(server) => server.append(batch.to_vec()),
        };
        let wall = ms_since(t);
        match result {
            Ok(_) => {
                self.samples.append_ms.push(wall);
                self.samples.append_docs += batch.len();
            }
            Err(e) => self.samples.fail(format!("append failed: {e}")),
        }
        let plugins = self.plugin_ms() - plugins_before;
        if let Some(t) = &mut self.trace {
            t.core_self_ms += wall - plugins;
        }
    }

    fn persist(&mut self, index: &ShardedFacetIndex<'r>, store: &FacetStore) {
        let io_before = self.storage_ms();
        self.samples.attempted += 1;
        let t = Instant::now();
        let result = index.persist_to(store);
        let wall = ms_since(t);
        match result {
            Ok(_) => self.samples.persist_ms.push(wall),
            Err(e) => self.samples.fail(format!("persist failed: {e}")),
        }
        let io = self.storage_ms() - io_before;
        if let Some(t) = &mut self.trace {
            t.persist_encode_ms += wall - io;
        }
    }

    /// A restart: open the store directory afresh and recover from it.
    fn recover(&mut self, dir: &Path) -> Option<(ShardedFacetIndex<'r>, RecoveryReport)> {
        self.samples.attempted += 1;
        let span_before = self.span_ms("store.recover");
        let t = Instant::now();
        let store = self.open_store(dir);
        let result = ShardedFacetIndex::open_from(
            &store,
            self.shards,
            self.layers.extractors(),
            self.layers.resources(),
            options(),
        );
        let wall = ms_since(t);
        let load = self.span_ms("store.recover") - span_before;
        if let Some(t) = &mut self.trace {
            t.recover_load_ms += load;
            t.recover_restore_ms += wall - load;
        }
        match result {
            Ok((index, report)) => {
                self.samples.recover_ms.push(wall);
                Some((self.instrument(index), report))
            }
            Err(e) => {
                self.samples.fail(format!("recovery failed: {e}"));
                None
            }
        }
    }

    /// Recover `recoveries` times from `dir` and check each recovered
    /// index against the live one. Returns the last recovered index.
    fn recover_and_check(
        &mut self,
        dir: &Path,
        live: &View,
        live_digest: u64,
    ) -> Option<ShardedFacetIndex<'r>> {
        let mut last = None;
        for _ in 0..self.shape.recoveries {
            let Some((index, report)) = self.recover(dir) else {
                continue;
            };
            let snapshot = index.snapshot();
            let result = check_recovery(
                live,
                live_digest,
                &View::of(&snapshot),
                snapshot.digest(),
                live.rows.len(),
            );
            self.samples.check(result);
            if let Some(t) = &mut self.trace {
                t.replayed_records += report.replayed_records as u64;
            }
            last = Some(index);
        }
        last
    }

    /// Run `queries` against `handle`, timing each, and recompute every
    /// `BROWSE_CHECK_EVERY`-th answer by brute force against `view`.
    fn browse(&mut self, handle: &ServeHandle, queries: &[Vec<String>], view: &View) {
        for (i, q) in queries.iter().enumerate() {
            let terms: Vec<&str> = q.iter().map(String::as_str).collect();
            let before = self.trace.as_ref().map(|_| handle.cache_stats());
            self.samples.attempted += 1;
            let t = Instant::now();
            let answer = handle.browse(&terms);
            let us = t.elapsed().as_secs_f64() * 1e6;
            self.samples.browse_us.push(us);
            if let (Some(t), Some(before)) = (&mut self.trace, before) {
                if handle.cache_stats().hits > before.hits {
                    t.serve_hit_us.push(us);
                } else {
                    t.serve_miss_us.push(us);
                }
            }
            if i % BROWSE_CHECK_EVERY == 0 {
                let result = check_browse(view, q, &answer);
                self.samples.check(result);
            }
        }
    }

    fn serve_stats(&mut self, handle: &ServeHandle) {
        if let Some(t) = &mut self.trace {
            let s = handle.cache_stats();
            t.serve_hits += s.hits;
            t.serve_misses += s.misses;
            t.serve_invalidations += s.invalidations;
            t.serve_evictions += s.evictions;
        }
    }

    fn store_bytes(&mut self, dir: &Path, docs: usize) {
        self.samples
            .bytes_per_doc
            .push(dir_bytes(dir) as f64 / docs as f64);
    }

    /// A fresh copy of the persisted base archive in the round directory,
    /// reopened through a bare store so the reset stays out of the
    /// storage tallies.
    fn reset(&self, base: &Path) -> (PathBuf, ShardedFacetIndex<'r>) {
        let dir = self.round_dir();
        copy_dir(base, &dir);
        let store = FacetStore::open(&dir).expect("open the round store");
        let (index, _) = ShardedFacetIndex::open_from(
            &store,
            self.shards,
            self.layers.extractors(),
            self.layers.resources(),
            options(),
        )
        .expect("the base archive reopens");
        (dir, self.instrument(index))
    }

    fn round_dir(&self) -> PathBuf {
        let dir = self.dir.join("round");
        std::fs::remove_dir_all(&dir).ok();
        dir
    }
}

/// Documents per append of the set-up's base build.
const BASE_BATCH: usize = 250;

/// Bulk-load `docs` into a fresh index in `BASE_BATCH`-doc logged
/// appends and persist it: the base archive the streaming workloads start from.
fn build_base(layers: &Layers<'_>, docs: &[Document], shards: usize, dir: &Path) {
    let store = FacetStore::open(dir).expect("open the base store");
    let mut index =
        ShardedFacetIndex::new(shards, layers.extractors(), layers.resources(), options());
    for chunk in docs.chunks(BASE_BATCH) {
        index
            .append_logged(chunk.to_vec(), &store)
            .expect("the base archive builds");
    }
    index.persist_to(&store).expect("the base archive persists");
}

fn archive_round(run: &mut Run<'_>, stream: &mut Vec<Vec<String>>, seed: u64) {
    let dir = run.round_dir();
    let store = run.open_store(&dir);
    let mut index = run.new_index();
    let all = run.docs;
    let docs = &all[..run.shape.round_docs];
    for chunk in docs.chunks(run.shape.batch) {
        run.append(AppendVia::Log(&mut index, &store), chunk);
    }
    for _ in 0..run.shape.persists {
        run.persist(&index, &store);
    }
    drop(store);
    run.store_bytes(&dir, index.len());
    let snapshot = index.snapshot();
    let live = View::of(&snapshot);
    if run.rounds == 0 {
        let result = check_snapshot(&live);
        run.samples.check(result);
        *stream = query_stream(&query_pool(&snapshot), run.shape.queries, seed);
    }
    let digest = snapshot.digest();
    drop(index);
    if let Some(recovered) = run.recover_and_check(&dir, &live, digest) {
        serve_queries(run, recovered, stream, &live);
    }
}

fn serve_queries(
    run: &mut Run<'_>,
    index: ShardedFacetIndex<'_>,
    stream: &[Vec<String>],
    view: &View,
) {
    let server = FacetServer::new(index);
    let handle = server.handle();
    run.browse(&handle, stream, view);
    run.serve_stats(&handle);
}

fn stream_round(run: &mut Run<'_>, base: &Path, stream: &[Vec<String>]) {
    let (dir, mut index) = run.reset(base);
    let store = run.open_store(&dir);
    let (all, start) = (run.docs, run.shape.base_docs);
    let docs = &all[start..start + run.shape.round_docs];
    let appends = docs.len().div_ceil(run.shape.batch);
    // The last checkpoint falls before the final appends, which stay as
    // the WAL tail that recovery replays.
    let last_checkpoint = (appends - 1) / run.shape.checkpoint_every * run.shape.checkpoint_every;
    for (i, chunk) in docs.chunks(run.shape.batch).enumerate() {
        run.append(AppendVia::Log(&mut index, &store), chunk);
        if (i + 1) % run.shape.checkpoint_every == 0 && i < last_checkpoint {
            run.persist(&index, &store);
        }
    }
    drop(store);
    run.store_bytes(&dir, index.len());
    let snapshot = index.snapshot();
    let live = View::of(&snapshot);
    if run.rounds == 0 {
        let result = check_snapshot(&live);
        run.samples.check(result);
    }
    let digest = snapshot.digest();
    drop(index); // the crash: only the store survives
    if let Some(recovered) = run.recover_and_check(&dir, &live, digest) {
        serve_queries(run, recovered, stream, &live);
    }
}

fn browse_round(run: &mut Run<'_>, base: &Path, stream: &[Vec<String>]) {
    let (dir, index) = run.reset(base);
    let store = run.open_store(&dir);
    let mut server = FacetServer::new(index);
    let handle = server.handle();
    let (all, start) = (run.docs, run.shape.base_docs);
    let docs = &all[start..start + run.shape.round_docs];
    let per_block = run.shape.queries / run.shape.query_blocks;
    let mut view = View::of(server.snapshot().merged());
    for (block, chunk) in docs.chunks(run.shape.batch).enumerate() {
        let queries = &stream[block * per_block..(block + 1) * per_block];
        run.browse(&handle, queries, &view);
        run.append(AppendVia::Server(&mut server), chunk);
        view = View::of(server.snapshot().merged());
    }
    run.serve_stats(&handle);
    if run.rounds == 0 {
        let result = check_snapshot(&view);
        run.samples.check(result);
    }
    for _ in 0..run.shape.persists {
        run.persist(server.index(), &store);
    }
    drop(store);
    run.store_bytes(&dir, server.index().len());
    let digest = server.snapshot().merged().digest();
    drop(server);
    run.recover_and_check(&dir, &view, digest);
}

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The workload's own set-up after the substrates: clear the run
/// directory and, for the streaming workloads, build, persist and reopen
/// the base archive and draw the query stream from its forest (the
/// archive workload draws its stream from the first round's archive).
fn prepare(
    layers: &Layers<'_>,
    docs: &[Document],
    shape: &Shape,
    shards: usize,
    seed: u64,
    data_dir: &Path,
    times: &mut SetupTimes,
) -> Vec<Vec<String>> {
    let t = Instant::now();
    std::fs::remove_dir_all(data_dir).ok();
    std::fs::create_dir_all(data_dir).expect("create the run directory");
    let mut stream = Vec::new();
    if shape.base_docs > 0 {
        let base_dir = data_dir.join("base");
        build_base(layers, &docs[..shape.base_docs], shards, &base_dir);
        let store = FacetStore::open(&base_dir).expect("open the base store");
        let (base, _) = ShardedFacetIndex::open_from(
            &store,
            shards,
            layers.extractors(),
            layers.resources(),
            options(),
        )
        .expect("the base archive reopens");
        stream = query_stream(&query_pool(&base.snapshot()), shape.queries, seed);
    }
    times.prepare_ms = ms_since(t);
    stream
}

/// Run one workload: set up `SETUP_REPS` times, then whole rounds while
/// one more round, at the mean round time so far, still ends within
/// `seconds` (at least one round), then report every timing without
/// the share of the run's CPU time the hypervisor stole (`host`).
pub fn run(
    workload: Workload,
    seed: u64,
    shards: usize,
    seconds: f64,
    traced: bool,
    process_start: Instant,
    data_dir: &Path,
) -> Outcome {
    let probe = host::Probe::start();
    let shape = workload.shape();
    let n_docs = shape.base_docs + shape.round_docs;
    let base_dir = data_dir.join("base");

    // ---- set-up, repeated; the last repetition's state is kept --------
    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut setup_times: Vec<SetupTimes> = Vec::with_capacity(SETUP_REPS);
    for _ in 1..SETUP_REPS {
        let t = if setup_s.is_empty() {
            process_start
        } else {
            Instant::now()
        };
        let mut times = SetupTimes::default();
        let (sub, titles) = Substrates::build(seed, n_docs, &mut times);
        let kb = Kb::new(&sub, titles, &mut times);
        let res = Resources::new(&sub, &kb);
        let layers = Layers::new(&sub, &kb, &res, false);
        prepare(
            &layers, &sub.docs, &shape, shards, seed, data_dir, &mut times,
        );
        setup_times.push(times);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let t = if setup_s.is_empty() {
        process_start
    } else {
        Instant::now()
    };
    let mut times = SetupTimes::default();
    let (sub, titles) = Substrates::build(seed, n_docs, &mut times);
    let kb = Kb::new(&sub, titles, &mut times);
    let res = Resources::new(&sub, &kb);
    let layers = Layers::new(&sub, &kb, &res, traced);
    let mut stream = prepare(
        &layers, &sub.docs, &shape, shards, seed, data_dir, &mut times,
    );
    setup_times.push(times);
    setup_s.push(t.elapsed().as_secs_f64());

    // ---- timed rounds ---------------------------------------------------
    let plugin_before: Vec<(f64, u64)> = layers
        .extractor_tallies()
        .chain(layers.resource_tallies())
        .map(|t| (t.ms(), t.calls()))
        .collect();
    let mut run = Run {
        layers: &layers,
        docs: &sub.docs,
        shards,
        shape,
        dir: data_dir.to_path_buf(),
        trace: traced.then(|| Trace {
            recorder: Recorder::enabled(),
            ..Trace::default()
        }),
        samples: Samples::default(),
        rounds: 0,
    };
    let started = Instant::now();
    loop {
        let elapsed = started.elapsed().as_secs_f64();
        if run.rounds > 0 && elapsed * (run.rounds + 1) as f64 / run.rounds as f64 > seconds {
            break;
        }
        let from = (
            run.samples.append_ms.len(),
            run.samples.append_docs,
            run.samples.browse_us.len(),
        );
        match workload {
            Workload::ArchiveBuild => archive_round(&mut run, &mut stream, seed),
            Workload::StreamDurable => stream_round(&mut run, &base_dir, &stream),
            Workload::BrowseMixed => browse_round(&mut run, &base_dir, &stream),
        }
        run.samples.end_round(from.0, from.1, from.2);
        run.rounds += 1;
    }
    let timed_s = started.elapsed().as_secs_f64();
    let stolen = probe.stolen();
    eprintln!(
        "lifebench: {} seed {seed}, {shards} shard(s), traced={traced}: {} rounds in {timed_s:.3} s, \
         {:.1} ms per round, stolen {:.2}% of the working CPUs' time",
        workload.name(),
        run.rounds,
        timed_s * 1e3 / run.rounds as f64,
        stolen * 100.0
    );
    std::fs::remove_dir_all(data_dir).ok();

    let s = &run.samples;
    let rounds = run.rounds as f64;
    let mut metrics: Vec<Metric> = Vec::new();
    if let Some(t) = &run.trace {
        let report = t.recorder.snapshot();
        // Per-shard spans (`append.shard0`, `append.shard1`, …) add up.
        let span = |path: &str| -> f64 {
            report
                .spans
                .iter()
                .filter(|s| {
                    s.path
                        .strip_prefix(path)
                        .is_some_and(|rest| rest.chars().all(|c| c.is_ascii_digit()))
                })
                .map(|s| s.total_us as f64 / 1e3)
                .sum::<f64>()
                / rounds
        };
        let counter = |name: &str| -> f64 {
            report
                .counters
                .iter()
                .find(|c| c.name == name)
                .map_or(0.0, |c| c.value as f64)
        };
        let deltas: Vec<(f64, f64)> = layers
            .extractor_tallies()
            .chain(layers.resource_tallies())
            .zip(&plugin_before)
            .map(|(t, (ms, calls))| ((t.ms() - ms) / rounds, (t.calls() - calls) as f64 / rounds))
            .collect();
        const EXTRACT_NAMES: [&str; 3] =
            ["extract.ne_ms", "extract.yahoo_ms", "extract.wikipedia_ms"];
        const EXPAND_NAMES: [&str; 4] = [
            "expand.google_ms",
            "expand.wordnet_ms",
            "expand.wiki_synonyms_ms",
            "expand.wiki_graph_ms",
        ];
        for (name, (ms, _)) in EXTRACT_NAMES.iter().zip(&deltas[..3]) {
            metrics.push((name, *ms, "ms"));
        }
        metrics.push(("extract.docs", deltas[0].1, "count"));
        for (name, (ms, _)) in EXPAND_NAMES.iter().zip(&deltas[3..]) {
            metrics.push((name, *ms, "ms"));
        }
        metrics.push((
            "expand.queries",
            deltas[3..].iter().map(|d| d.1).sum(),
            "count",
        ));
        let reused = counter("append.reused_terms");
        let fresh = counter("append.new_distinct_terms");
        metrics.push((
            "expand.reuse_ratio",
            reused / (reused + fresh).max(1.0),
            "ratio",
        ));
        metrics.push(("append.shard_ms", span("append.shard"), "ms"));
        metrics.push(("append.merge_ms", span("append.merge"), "ms"));
        metrics.push(("append.select_ms", span("append.select"), "ms"));
        metrics.push(("append.subsumption_ms", span("append.subsumption"), "ms"));
        metrics.push(("append.swap_ms", span("append.swap"), "ms"));
        metrics.push(("append.core_self_ms", t.core_self_ms / rounds, "ms"));
        let lookups = (t.serve_hits + t.serve_misses).max(1) as f64;
        metrics.push(("serve.hits", t.serve_hits as f64 / rounds, "count"));
        metrics.push(("serve.misses", t.serve_misses as f64 / rounds, "count"));
        metrics.push(("serve.hit_rate", t.serve_hits as f64 / lookups, "ratio"));
        metrics.push((
            "serve.invalidations",
            t.serve_invalidations as f64 / rounds,
            "count",
        ));
        metrics.push((
            "serve.evictions",
            t.serve_evictions as f64 / rounds,
            "count",
        ));
        let p50 = |v: &[f64]| if v.is_empty() { 0.0 } else { median(v) };
        metrics.push(("serve.hit_p50_us", p50(&t.serve_hit_us), "us"));
        metrics.push(("serve.miss_p50_us", p50(&t.serve_miss_us), "us"));
        let st = &t.storage;
        metrics.push((
            "store.write_ms",
            (st.write.ms() + st.append.ms()) / rounds,
            "ms",
        ));
        metrics.push(("store.read_ms", st.read.ms() / rounds, "ms"));
        metrics.push((
            "store.bytes_written",
            st.bytes_written() as f64 / rounds,
            "B",
        ));
        metrics.push(("store.bytes_read", st.bytes_read() as f64 / rounds, "B"));
        metrics.push(("store.sync_ops", st.sync_ops() as f64 / rounds, "count"));
        metrics.push((
            "store.wal_records",
            st.append.calls() as f64 / rounds,
            "count",
        ));
        metrics.push((
            "recover.replayed_records",
            t.replayed_records as f64 / rounds,
            "count",
        ));
        metrics.push(("persist.encode_ms", t.persist_encode_ms / rounds, "ms"));
        metrics.push(("recover.load_ms", t.recover_load_ms / rounds, "ms"));
        metrics.push(("recover.restore_ms", t.recover_restore_ms / rounds, "ms"));
        let stage =
            |f: fn(&SetupTimes) -> f64| median(&setup_times.iter().map(f).collect::<Vec<_>>());
        metrics.push(("setup.world_ms", stage(|t| t.world_ms), "ms"));
        metrics.push(("setup.corpus_ms", stage(|t| t.corpus_ms), "ms"));
        metrics.push(("setup.substrates_ms", stage(|t| t.substrates_ms), "ms"));
        metrics.push(("setup.fit_ms", stage(|t| t.fit_ms), "ms"));
        metrics.push(("setup.prepare_ms", stage(|t| t.prepare_ms), "ms"));
    } else {
        metrics.push(("setup_s", median(&setup_s), "s"));
        metrics.push(("ingest_docs_per_s", median(&s.round_docs_per_s), "docs/s"));
        metrics.push(("append_p50_ms", median(&s.append_ms), "ms"));
        metrics.push(("persist_ms", median(&s.persist_ms), "ms"));
        metrics.push(("recover_ms", median(&s.recover_ms), "ms"));
        metrics.push(("store_bytes_per_doc", median(&s.bytes_per_doc), "B/doc"));
        metrics.push(("browse_qps", median(&s.round_qps), "1/s"));
        metrics.push(("browse_p50_us", median(&s.browse_us), "us"));
        metrics.push(("browse_p99_us", median(&s.round_p99_us), "us"));
        metrics.push(("peak_rss_mb", peak_rss_mb(), "MB"));
    }
    let as_timed: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!("{name}={value:.6} {unit}"))
        .collect();
    eprintln!(
        "lifebench: as timed, before the steal correction: {}",
        as_timed.join(", ")
    );
    host::remove_steal(&mut metrics, stolen);
    Outcome {
        correct: s.errors.is_empty(),
        errors: s.errors.clone(),
        attempted: s.attempted,
        failed: s.failed,
        metrics,
    }
}
