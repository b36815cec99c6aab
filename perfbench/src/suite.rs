//! The four workloads. Each sets itself up several times (the median is
//! `setup_s`), precomputes the oracle, drives its load for the run's
//! seconds, checks every answer, and in a traced run replays executed
//! requests for the per-layer numbers.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use fagin_core::RunScratch;
use fagin_middleware::{AccessPolicy, BatchConfig, CostModel, Database, Session};
use fagin_remote::{RemoteSource, ServerHandle, ShardServer};
use fagin_serve::{AggSpec, AnswerSource, QueryRequest, ServeError, ServiceConfig, TopKService};
use fagin_store::{Backend, Store, StoreOptions, StoreWriter};

use crate::drive::{closed_loop, open_loop, traced, Done};
use crate::exec::{execute, Outcome, SpanSink};
use crate::oracle::Oracle;
use crate::replay::{replay, sample, Item};
use crate::trace::{Tracer, LOCAL, REMOTE};
use crate::util::{mean, median, ms, percentile, ratio, us, Rng, ZipfPicker};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;
/// Lists per database (the paper's `m`).
const M: usize = 3;
/// The aggregations the catalogues use (and the oracle ranks).
const AGGS: [AggSpec; 4] = [
    AggSpec::Min,
    AggSpec::Average,
    AggSpec::Sum,
    AggSpec::Median,
];
/// Share of the run's seconds spent before measuring, so arenas, caches
/// and connections are warm.
const WARM_SHARE: f64 = 0.1;
/// Share of an open-loop workload's seconds given to the open loop; the
/// rest is the closed-loop saturation phase that gives `qps`.
const OPEN_SHARE: f64 = 0.6;

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// End-to-end metrics: `(name, value, unit)`.
    pub e2e: Vec<(&'static str, f64, &'static str)>,
    /// Per-layer metrics by name (units come from the metric table).
    pub layer: BTreeMap<String, f64>,
    pub attempted: u64,
    /// Typed errors + refusals + wrong answers.
    pub failed: u64,
    /// Wrong answers, and traced replays whose access counts differ from
    /// the untraced run: either makes the run incorrect.
    pub wrong: u64,
    /// Replayed runs whose access counts were compared with the untraced
    /// execution.
    pub compared: u64,
    pub spans: Option<Tracer>,
}

impl Run {
    fn put(&mut self, name: &str, value: f64) {
        self.layer.insert(name.to_string(), value);
    }
}

/// Seed of the databases. The corpus is fixed and `--seed` varies the
/// query stream: top-k cost on Zipf data swings several-fold from one
/// random database to the next, which would drown any change in the code.
const DATA_SEED: u64 = 1;

fn zipf_db(n: usize) -> (Database, f64) {
    let start = Instant::now();
    let db = fagin_workloads::random::zipf(n, M, 1.0, DATA_SEED);
    (db, start.elapsed().as_secs_f64())
}

/// The access policies the catalogues draw from.
#[derive(Clone, Copy)]
enum Policy {
    Full,
    NoRandom,
    SortedOnly0,
}

fn request(agg: AggSpec, k: usize, policy: Policy, c_r: f64, batch: usize) -> QueryRequest {
    let req = QueryRequest::new(agg, k)
        .with_costs(CostModel::new(1.0, c_r))
        .with_batch(BatchConfig::new(batch));
    match policy {
        Policy::Full => req,
        // Without random access grades cannot be required (§8.1): NRA.
        Policy::NoRandom => req
            .with_policy(AccessPolicy::no_random_access())
            .require_grades(false),
        Policy::SortedOnly0 => req.with_policy(AccessPolicy::sorted_only_on([0])),
    }
}

/// A c_R catalogue of `len` geometric steps from 1 to 256.
fn c_r(j: usize, len: usize) -> f64 {
    256f64.powf(j as f64 / len as f64)
}

/// Windows a run's time metrics are split into.
const WINDOWS: usize = 5;

/// Latency (ms) and throughput (1/s) of each window of a run. The time
/// metrics are medians over the windows: on the 2-vCPU x86-64 VM the
/// bounds were set on, speed swings by a third from one second to the next
/// (a fixed loop took 0.27 to 0.48 s), and a median over windows rides over
/// the slow spells where a median over the whole run would move with their
/// share of it.
struct Windows {
    lat_ms: Vec<Vec<f64>>,
    qps: Vec<f64>,
}

impl Windows {
    /// Splits requests `(start, end)` timed from `origin` into [`WINDOWS`]
    /// windows of `span` seconds: latency by when a request was due,
    /// throughput by when it was answered. A failed request (`end` of
    /// `None`) counts as infinitely late.
    fn split(requests: &[(Instant, Option<Instant>)], origin: Instant, span: f64) -> Self {
        let len = span / WINDOWS as f64;
        let slot = |t: Instant| {
            let at = t.saturating_duration_since(origin).as_secs_f64() / len;
            (at as usize).min(WINDOWS - 1)
        };
        let mut w = Windows {
            lat_ms: vec![Vec::new(); WINDOWS],
            qps: vec![0.0; WINDOWS],
        };
        for &(start, end) in requests {
            let lat = end.map_or(f64::INFINITY, |e| ms(e.saturating_duration_since(start)));
            w.lat_ms[slot(start)].push(lat);
            if let Some(e) = end {
                w.qps[slot(e)] += 1.0 / len;
            }
        }
        w
    }

    fn samples(&self) -> usize {
        self.lat_ms.iter().map(Vec::len).sum()
    }

    fn lat(&self, q: f64) -> f64 {
        let per: Vec<f64> = self
            .lat_ms
            .iter()
            .filter(|v| !v.is_empty())
            .map(|v| percentile(v, q))
            .collect();
        median(&per)
    }
}

fn end_to_end(run: &mut Run, setup_s: f64, lat: &Windows, qps: &[f64], costs: &[f64]) {
    run.e2e = vec![
        ("setup_s", setup_s, "s"),
        ("lat_p50_ms", lat.lat(0.5), "ms"),
        ("lat_p99_ms", lat.lat(0.99), "ms"),
        ("qps", median(qps), "1/s"),
        ("cost_per_query", mean(costs), "c_S"),
        ("peak_rss_mb", crate::util::peak_rss_mb(), "MB"),
        (
            "fail_frac",
            ratio(run.failed as f64, run.attempted as f64),
            "ratio",
        ),
        ("lat_samples", lat.samples() as f64, "count"),
    ];
}

/// One engine-direct request as measured.
struct EngineRec<'a> {
    id: u32,
    req: &'a QueryRequest,
    pass: u32,
    start: Instant,
    end: Instant,
    traced: bool,
    out: Result<Outcome, String>,
}

impl EngineRec<'_> {
    fn lat_ms(&self) -> f64 {
        ms(self.end - self.start)
    }
}

/// `engine-direct`: the serving worker's path without the service.
pub fn engine_direct(seed: u64, seconds: f64, trace: bool) -> Run {
    const N: usize = 40_000;
    let mut setups = Vec::new();
    let mut gens = Vec::new();
    let mut kept = None;
    for _ in 0..SETUP_REPS {
        drop(kept.take());
        let start = Instant::now();
        let (db, gen_s) = zipf_db(N);
        let distinct = db.satisfies_distinctness();
        let session = Session::new(&db);
        let scratch = RunScratch::new();
        std::hint::black_box((&session, &scratch));
        drop(session);
        setups.push(start.elapsed().as_secs_f64());
        gens.push(gen_s);
        kept = Some((db, distinct));
    }
    let (db, distinct) = kept.expect("at least one set-up");
    let oracle = Oracle::new(&db, &AGGS);

    let mut catalogue = Vec::new();
    for agg in AGGS {
        for policy in [Policy::Full, Policy::NoRandom, Policy::SortedOnly0] {
            for c_r in [1.0, 10.0] {
                for batch in [1, 64] {
                    for k in [1, 10, 50] {
                        for theta in [1.0, 1.5] {
                            catalogue.push(request(agg, k, policy, c_r, batch).with_theta(theta));
                        }
                    }
                }
            }
        }
    }
    // Every pass visits the whole catalogue in a fresh seeded order, so
    // the mix is the same in every run. Returns the request and its pass
    // (numbered from 1).
    let mut rng = Rng::derive(seed, 1);
    let mut order: Vec<usize> = Vec::new();
    let mut pass = 0u32;
    let mut next = || {
        if order.is_empty() {
            order = (0..catalogue.len()).collect();
            rng.shuffle(&mut order);
            pass += 1;
        }
        let i = order.pop().expect("refilled above");
        (&catalogue[i], pass)
    };

    let mut session = Session::new(&db);
    let mut scratch = RunScratch::new();
    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
    let warm_until = Instant::now() + Duration::from_secs_f64(seconds * WARM_SHARE);
    for req in catalogue.iter().cycle() {
        if Instant::now() >= warm_until {
            break;
        }
        session.reset(req.policy.clone());
        let _ = execute(req, M, distinct, &mut session, &mut scratch, None);
    }
    let mut recs: Vec<EngineRec<'_>> = Vec::new();
    let start = Instant::now();
    let end = start + Duration::from_secs_f64(seconds);
    let mut id = 0u32;
    let mut last_pass = 0;
    loop {
        let (req, pass) = next();
        // The window ends at a pass boundary, so every run measures whole
        // passes over the catalogue.
        if pass != last_pass && Instant::now() >= end {
            break;
        }
        last_pass = pass;
        // Whole passes alternate between traced and untraced, so both
        // halves see the same mix of shapes.
        let traced = trace && pass.is_multiple_of(2);
        let start = Instant::now();
        let out = match tracer.as_mut().filter(|_| traced) {
            Some(t) => {
                let root = t.open("request", 0, id);
                session.reset(req.policy.clone());
                let sink = SpanSink {
                    tracer: &mut *t,
                    parent: root,
                    request: id,
                    access_names: None,
                };
                let out = execute(req, M, distinct, &mut session, &mut scratch, Some(sink));
                t.close(root);
                out
            }
            None => {
                session.reset(req.policy.clone());
                execute(req, M, distinct, &mut session, &mut scratch, None)
            }
        };
        recs.push(EngineRec {
            id,
            req,
            pass,
            start,
            end: Instant::now(),
            traced,
            out,
        });
        id += 1;
    }

    let mut run = Run {
        attempted: recs.len() as u64,
        ..Run::default()
    };
    // The windows of the time metrics are the catalogue passes.
    let mut lat = Windows {
        lat_ms: Vec::new(),
        qps: Vec::new(),
    };
    let mut costs = Vec::new();
    for pass in recs.chunk_by(|a, b| a.pass == b.pass) {
        let mut answered = Vec::new();
        for r in pass {
            match &r.out {
                Ok(o) => {
                    if !answer_ok(&oracle, &db, r.req, &o.objects, o.guarantee, o.degraded) {
                        run.wrong += 1;
                    }
                    answered.push(r.lat_ms());
                    costs.push(o.cost);
                }
                Err(_) => {
                    run.failed += 1;
                    answered.push(f64::INFINITY);
                }
            }
        }
        let wall = pass[pass.len() - 1].end - pass[0].start;
        lat.qps.push(answered.len() as f64 / wall.as_secs_f64());
        lat.lat_ms.push(answered);
    }
    run.failed += run.wrong;
    end_to_end(&mut run, median(&setups), &lat, &lat.qps, &costs);
    run.put("workloads.gen_s", median(&gens));

    if let Some(mut t) = tracer {
        let half = |traced: bool| -> Vec<f64> {
            recs.iter()
                .filter(|r| r.traced == traced && r.out.is_ok())
                .map(EngineRec::lat_ms)
                .collect()
        };
        run.put(
            "trace.overhead_pct",
            overhead_pct(&half(true), &half(false)),
        );
        let items: Vec<Item<'_>> = sample(recs.len())
            .into_iter()
            .filter_map(|i| {
                let out = recs[i].out.as_ref().ok()?;
                Some(Item {
                    request: recs[i].id,
                    req: recs[i].req,
                    expect: Some((out.sorted, out.random)),
                })
            })
            .collect();
        let r = replay(&items, M, distinct, &mut session, &mut t, LOCAL);
        run.layer.extend(r.layer);
        run.wrong += r.mismatched;
        run.compared = r.compared;
        run.spans = Some(t);
    }
    run
}

/// How much higher the traced half's median latency is than the untraced
/// half's, in percent (0 when either half is empty).
fn overhead_pct(traced: &[f64], untraced: &[f64]) -> f64 {
    if traced.is_empty() || untraced.is_empty() {
        return 0.0;
    }
    (median(traced) / median(untraced) - 1.0) * 100.0
}

/// Checks one answer: exact answers against the true top-k grade
/// multiset, approximate ones at the guarantee they report, degraded ones
/// with the library oracle at their achieved θ̂.
fn answer_ok(
    oracle: &Oracle,
    db: &Database,
    req: &QueryRequest,
    objects: &[fagin_middleware::ObjectId],
    guarantee: f64,
    degraded: bool,
) -> bool {
    if degraded {
        fagin_core::oracle::is_valid_theta_approximation(
            db,
            req.agg.instance(),
            req.k,
            guarantee,
            objects,
        )
    } else {
        oracle.check(req.agg, req.k, guarantee, objects)
    }
}

/// The measured requests of a phase in [`WINDOWS`] windows over `span`
/// seconds from the first of them. A failed or refused request misses
/// every latency limit.
fn split(done: &[Done], span: f64) -> Windows {
    let measured: Vec<(Instant, Option<Instant>)> = done
        .iter()
        .filter(|d| d.measured)
        .map(|d| (d.intended, d.result.is_ok().then_some(d.done)))
        .collect();
    let origin = measured
        .iter()
        .map(|m| m.0)
        .min()
        .unwrap_or_else(Instant::now);
    Windows::split(&measured, origin, span)
}

/// Which service-backed workload to run.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Served {
    ServeZipf,
    DeadlineDegrade,
    RemoteMmap,
}

/// A running service plus whatever keeps its data alive.
struct Rig {
    db: Arc<Database>,
    service: TopKService,
    shard: Option<(ServerHandle, PathBuf)>,
}

impl Rig {
    fn shutdown(self) {
        drop(self.service);
        if let Some((handle, path)) = self.shard {
            handle.shutdown();
            let _ = std::fs::remove_file(path);
        }
    }
}

/// One set-up: data generation, then either an in-process service, or a
/// store written, opened on mmap, served by a loopback shard server and
/// connected to. Returns the rig, its set-up seconds and the per-layer
/// parts: generation, store write and open seconds, store bytes per entry.
fn set_up(kind: Served, n: usize, out_dir: &Path) -> (Rig, f64, [f64; 4]) {
    let start = Instant::now();
    let (db, gen_s) = zipf_db(n);
    let db = Arc::new(db);
    if kind != Served::RemoteMmap {
        let service = TopKService::new(Arc::clone(&db), ServiceConfig::default());
        let rig = Rig {
            db,
            service,
            shard: None,
        };
        return (rig, start.elapsed().as_secs_f64(), [gen_s, 0.0, 0.0, 0.0]);
    }
    std::fs::create_dir_all(out_dir).expect("benchmark output directory is writable");
    let path = out_dir.join("remote-mmap.fstore");
    let t = Instant::now();
    let written = StoreWriter::write(&db, &path).expect("store write succeeds");
    let write_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let store =
        Store::open(&path, StoreOptions::with_backend(Backend::Mmap)).expect("store opens on mmap");
    let open_s = t.elapsed().as_secs_f64();
    let server = ShardServer::bind("127.0.0.1:0", Arc::new(store.into_database()))
        .expect("loopback bind succeeds");
    let handle = server.spawn().expect("shard server starts");
    let service =
        TopKService::connect(handle.addr(), ServiceConfig::default()).expect("service connects");
    let rig = Rig {
        db,
        service,
        shard: Some((handle, path)),
    };
    let bytes_per_entry = written.file_len as f64 / (n * M) as f64;
    (
        rig,
        start.elapsed().as_secs_f64(),
        [gen_s, write_s, open_s, bytes_per_entry],
    )
}

/// Serve-side request generator per workload.
fn generator(kind: Served, seed: u64) -> Box<dyn Fn(&mut Rng) -> QueryRequest + Sync> {
    let turn = AtomicUsize::new(0);
    let offset = Rng::derive(seed, 4).unit();
    match kind {
        Served::ServeZipf => {
            // 3 aggregations × 2 policies × 170 c_R values = 1020 cache
            // keys (8× the 128-entry cache), Zipf-popular in a fixed
            // shuffled order: which keys are hot is part of the workload,
            // like the corpus, and `--seed` draws the stream from it.
            // Median is left out: its cold runs take ~0.3 ms against 2-8 ms
            // for the others, and with them the median latency sat on the
            // edge between the two groups and jumped between them.
            let mut keys = Vec::new();
            for agg in [AggSpec::Min, AggSpec::Average, AggSpec::Sum] {
                for policy in [Policy::Full, Policy::NoRandom] {
                    for j in 0..170 {
                        keys.push((agg, policy, c_r(j, 170)));
                    }
                }
            }
            Rng::derive(DATA_SEED, 2).shuffle(&mut keys);
            let zipf = ZipfPicker::new(keys.len(), 1.0);
            Box::new(move |rng| {
                let (agg, policy, c_r) = keys[zipf.pick(rng)];
                let k = [5, 10, 20][rng.below(3)];
                request(agg, k, policy, c_r, 64)
            })
        }
        // Shapes in a fixed rotation keep the mix the same in every run. The
        // c_R of request i is step ⌊4096·frac(offset + i·φ)⌋ of a 4096-step
        // catalogue, from a seeded offset: repeated cache keys are rare (the
        // key ignores the batch size, so consecutive requests must differ),
        // and every run covers the catalogue, and so the planner's TA/CA
        // split, evenly.
        Served::DeadlineDegrade => Box::new(move |_| {
            let (shape, c_r) = rotation(&turn, 4, offset);
            let agg = [AggSpec::Min, AggSpec::Average][shape / 2];
            let policy = [Policy::Full, Policy::NoRandom][shape % 2];
            request(agg, 10, policy, c_r, 1)
                .with_deadline(DEADLINE)
                .with_degradation()
        }),
        Served::RemoteMmap => Box::new(move |_| {
            let (shape, c_r) = rotation(&turn, 8, offset);
            let agg = [AggSpec::Min, AggSpec::Average][shape / 4];
            let policy = [Policy::Full, Policy::NoRandom][shape / 2 % 2];
            let batch = [8, 64][shape % 2];
            request(agg, 10, policy, c_r, batch)
        }),
    }
}

/// The next `(shape, c_R)` of a rotation through `shapes` shapes.
fn rotation(turn: &AtomicUsize, shapes: usize, offset: f64) -> (usize, f64) {
    const PHI: f64 = 0.618_033_988_749_894_9;
    let i = turn.fetch_add(1, Ordering::Relaxed);
    let u = (offset + i as f64 * PHI).fract();
    (i % shapes, c_r((u * 4096.0) as usize, 4096))
}

const DEADLINE: Duration = Duration::from_millis(20);

pub fn served(kind: Served, seed: u64, seconds: f64, trace: bool, out_dir: &Path) -> Run {
    let n = if kind == Served::DeadlineDegrade {
        10_000
    } else {
        40_000
    };
    let mut setups = Vec::new();
    let mut parts = Vec::new();
    let mut kept: Option<Rig> = None;
    for _ in 0..SETUP_REPS {
        if let Some(rig) = kept.take() {
            rig.shutdown();
        }
        let (rig, s, p) = set_up(kind, n, out_dir);
        setups.push(s);
        parts.push(p);
        kept = Some(rig);
    }
    let rig = kept.expect("at least one set-up");
    let oracle = Oracle::new(&rig.db, &AGGS);
    let next = generator(kind, seed);
    let mut tracer = trace.then(|| Tracer::new(Instant::now()));
    let server_requests = || rig.shard.as_ref().map_or(0, |(h, _)| h.requests());

    let warm_s = seconds * WARM_SHARE;
    let requests_before = server_requests();
    // `(requests, submitter lag, windows of the latency phase, throughput
    // windows, saturation-phase requests)`.
    let (latency_phase, lag_ms, windows, qps, saturation) = if kind == Served::RemoteMmap {
        let (done, window) = closed_loop(
            &rig.service,
            1,
            seed,
            warm_s,
            seconds,
            &*next,
            tracer.as_mut(),
        );
        let w = split(&done, window);
        let qps = w.qps.clone();
        (done, Vec::new(), w, qps, Vec::new())
    } else {
        let open_s = seconds * OPEN_SHARE;
        let mut rng = Rng::derive(seed, 3);
        let mut t = 0.0;
        let mut schedule = Vec::new();
        loop {
            // Rates are fixed in absolute terms, so a faster program sees
            // the same offered load. deadline-degrade arrivals are evenly
            // spaced 200 ms apart, longer than its slowest request, so its
            // tail shows the deadline path rather than chance bursts.
            t += match kind {
                Served::ServeZipf => rng.exp_gap(350.0),
                _ => 1.0 / 5.0,
            };
            if t >= warm_s + open_s {
                break;
            }
            schedule.push((t, next(&mut rng)));
        }
        let (done, lag) = open_loop(&rig.service, schedule, warm_s, tracer.as_mut());
        let (sat, window) = closed_loop(
            &rig.service,
            2,
            seed ^ 0x5A7,
            0.0,
            seconds - open_s,
            &*next,
            None,
        );
        let w = split(&done, open_s);
        let qps = split(&sat, window).qps;
        (done, lag, w, qps, sat)
    };
    let requests_during = server_requests() - requests_before;
    let metrics = rig.service.metrics();

    let mut run = Run::default();
    let all: Vec<&Done> = latency_phase.iter().chain(&saturation).collect();
    run.attempted = all.len() as u64;
    let mut costs = Vec::new();
    for d in &all {
        match &d.result {
            Ok(resp) => {
                let objects = resp.objects();
                if !answer_ok(
                    &oracle,
                    &rig.db,
                    &d.req,
                    &objects,
                    resp.guarantee(),
                    resp.is_degraded(),
                ) {
                    run.wrong += 1;
                }
                costs.push(resp.cost);
            }
            Err(_) => run.failed += 1,
        }
    }
    run.failed += run.wrong;

    let measured: Vec<&Done> = latency_phase.iter().filter(|d| d.measured).collect();
    end_to_end(&mut run, median(&setups), &windows, &qps, &costs);
    if kind == Served::DeadlineDegrade {
        let overshoot: Vec<f64> = measured
            .iter()
            .filter(|d| d.result.is_ok())
            .map(|d| ms(d.latency().saturating_sub(DEADLINE)))
            .collect();
        let theta: Vec<f64> = measured
            .iter()
            .filter_map(|d| d.result.as_ref().ok())
            .map(|r| r.guarantee())
            .collect();
        run.e2e
            .push(("overshoot_p99_ms", percentile(&overshoot, 0.99), "ms"));
        run.e2e.push(("theta_mean", mean(&theta), "ratio"));
    }

    // Per-layer: what the traced run's window and replay saw.
    let gens: Vec<f64> = parts.iter().map(|p| p[0]).collect();
    run.put("workloads.gen_s", median(&gens));
    if kind == Served::RemoteMmap {
        let col = |i: usize| median(&parts.iter().map(|p| p[i]).collect::<Vec<_>>());
        run.put("store.write_s", col(1));
        run.put("store.open_s", col(2));
        run.put("store.bytes_per_entry", col(3));
        let answered = latency_phase.iter().filter(|d| d.result.is_ok()).count();
        run.put(
            "remote.requests_per_query",
            ratio(requests_during as f64, answered as f64),
        );
        run.put("remote.retries", metrics.retries as f64);
    }
    if !lag_ms.is_empty() {
        run.put("load.gen_lag_ms_p99", percentile(&lag_ms, 0.99));
    }
    serve_layer(&mut run, &measured);

    if let Some(mut t) = tracer {
        let half = |on: bool| -> Vec<f64> {
            measured
                .iter()
                .filter(|d| traced(true, d.request) == on && d.result.is_ok())
                .map(|d| ms(d.latency()))
                .collect()
        };
        run.put(
            "trace.overhead_pct",
            overhead_pct(&half(true), &half(false)),
        );
        let executed: Vec<&Done> = latency_phase
            .iter()
            .filter(|d| {
                matches!(
                    d.result.as_ref().map(|r| r.source),
                    Ok(AnswerSource::Cold | AnswerSource::WarmStarted { .. })
                )
            })
            .collect();
        let items: Vec<Item<'_>> = sample(executed.len())
            .into_iter()
            .map(|i| {
                let d = executed[i];
                let resp = d.result.as_ref().expect("executed requests answered");
                // Cold exact runs are deterministic; warm starts and
                // deadline runs depend on cache state and the clock.
                let deterministic = resp.source == AnswerSource::Cold && d.req.deadline.is_none();
                Item {
                    request: d.request,
                    req: &d.req,
                    expect: deterministic
                        .then(|| (resp.stats.sorted_total(), resp.stats.random_total())),
                }
            })
            .collect();
        let distinct = rig.service.distinctness();
        let r = match &rig.shard {
            None => {
                let mut session = Session::new(&rig.db);
                replay(&items, M, distinct, &mut session, &mut t, LOCAL)
            }
            Some((handle, _)) => {
                let mut source = RemoteSource::connect_with(
                    handle.addr(),
                    AccessPolicy::default(),
                    Duration::from_secs(5),
                )
                .expect("replay connects to the shard server");
                replay(&items, M, distinct, &mut source, &mut t, REMOTE)
            }
        };
        run.layer.extend(r.layer);
        run.wrong += r.mismatched;
        run.compared = r.compared;
        run.spans = Some(t);
    }
    rig.shutdown();
    run
}

/// `serve.*` per-layer metrics from the measured latency-phase requests.
fn serve_layer(run: &mut Run, measured: &[&Done]) {
    let submit_us: Vec<f64> = measured
        .iter()
        .map(|d| us(d.submit_end - d.submit_start))
        .collect();
    let answered: Vec<_> = measured
        .iter()
        .filter_map(|d| d.result.as_ref().ok().map(|r| (d, r)))
        .collect();
    let executed: Vec<_> = answered
        .iter()
        .filter(|(_, r)| {
            matches!(
                r.source,
                AnswerSource::Cold | AnswerSource::WarmStarted { .. }
            )
        })
        .collect();
    let queue_ms: Vec<f64> = executed
        .iter()
        .map(|(d, r)| ms(d.latency().saturating_sub(r.latency)))
        .collect();
    let exec_ms: Vec<f64> = executed.iter().map(|(_, r)| ms(r.latency)).collect();
    let n = answered.len() as f64;
    let frac = |f: &dyn Fn(&AnswerSource) -> bool| {
        ratio(
            answered.iter().filter(|(_, r)| f(&r.source)).count() as f64,
            n,
        )
    };
    run.put("serve.submit_us_p50", median(&submit_us));
    run.put("serve.submit_us_p99", percentile(&submit_us, 0.99));
    run.put("serve.queue_ms_p50", median(&queue_ms));
    run.put("serve.queue_ms_p99", percentile(&queue_ms, 0.99));
    run.put("serve.exec_ms_p50", median(&exec_ms));
    run.put("serve.exec_ms_p99", percentile(&exec_ms, 0.99));
    run.put(
        "serve.hit_frac",
        frac(&|s| matches!(s, AnswerSource::CacheHit { .. })),
    );
    run.put(
        "serve.coalesced_frac",
        frac(&|s| matches!(s, AnswerSource::Coalesced { .. })),
    );
    run.put(
        "serve.warm_frac",
        frac(&|s| matches!(s, AnswerSource::WarmStarted { .. })),
    );
    run.put(
        "serve.cold_frac",
        frac(&|s| matches!(s, AnswerSource::Cold)),
    );
    run.put(
        "serve.degraded_frac",
        ratio(
            answered.iter().filter(|(_, r)| r.is_degraded()).count() as f64,
            n,
        ),
    );
    run.put(
        "serve.rejected",
        measured
            .iter()
            .filter(|d| matches!(d.result, Err(ServeError::QueueFull { .. })))
            .count() as f64,
    );
}
