//! One query through the engine layers, as a serving worker runs it:
//! `Planner::plan_query_theta`, then `run_with` (or `execute_anytime` for
//! deadline requests) on a reused middleware and run arena.

use std::time::{Duration, Instant};

use fagin_core::planner::Planner;
use fagin_core::{AnytimeConfig, RunScratch};
use fagin_middleware::{Middleware, ObjectId};
use fagin_serve::QueryRequest;

use crate::trace::{Timed, Tracer};

/// The engine family a plan chose, for per-family core self time.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Family {
    Ta,
    Nra,
    Ca,
    Other,
}

impl Family {
    pub const MEASURED: [(Family, &'static str); 3] =
        [(Family::Ta, "ta"), (Family::Nra, "nra"), (Family::Ca, "ca")];

    pub fn of(algorithm: &str) -> Family {
        if algorithm.starts_with("TA") {
            Family::Ta
        } else if algorithm.starts_with("NRA") {
            Family::Nra
        } else if algorithm.starts_with("CA") {
            Family::Ca
        } else {
            Family::Other
        }
    }
}

/// What the benchmark keeps of one engine run (the answer is checked after
/// the timed window).
pub struct Outcome {
    pub objects: Vec<ObjectId>,
    pub sorted: u64,
    pub random: u64,
    pub cost: f64,
    pub guarantee: f64,
    pub degraded: bool,
    pub rounds: u64,
    pub bound_evals: u64,
    pub peak_buffer: usize,
    pub family: Family,
    /// Deadline requests: how long after the deadline the run returned.
    pub overrun: Option<Duration>,
}

/// Where a traced execution records its spans.
pub struct SpanSink<'t> {
    pub tracer: &'t mut Tracer,
    pub parent: u32,
    pub request: u32,
    /// Span names for middleware calls; `None` records no per-call spans.
    pub access_names: Option<[&'static str; 2]>,
}

/// Plans and runs `req` on `mw`, which the caller has reset to the
/// request's policy. With a sink, records `core.plan` and `core.run` spans,
/// and, if the sink names them, a span per middleware call under
/// `core.run`.
pub fn execute<M: Middleware>(
    req: &QueryRequest,
    lists: usize,
    distinct: bool,
    mw: &mut M,
    scratch: &mut RunScratch,
    sink: Option<SpanSink<'_>>,
) -> Result<Outcome, String> {
    let agg = req.agg.instance();
    let caps = req.capabilities(lists, distinct);
    let plan_start = Instant::now();
    let plan = Planner
        .plan_query_theta(&caps, agg, req.k, &req.costs, req.batch, None, req.theta)
        .map_err(|e| e.to_string())?;
    let run_start = Instant::now();
    let deadline = req.deadline.map(|d| run_start + d);
    let run = |mw: &mut dyn Middleware, scratch: &mut RunScratch| match deadline {
        Some(at) => {
            let cfg = AnytimeConfig::new().with_deadline(at);
            plan.execute_anytime(mw, agg, req.k, &cfg, scratch)
        }
        None => plan.algorithm.run_with(mw, agg, req.k, scratch),
    };
    let out = match sink {
        None => run(mw, scratch),
        Some(sink) => {
            let tracer = sink.tracer;
            tracer.record(
                "core.plan",
                plan_start,
                run_start,
                sink.parent,
                sink.request,
            );
            let run_id = tracer.open("core.run", sink.parent, sink.request);
            let out = match sink.access_names {
                Some(names) => run(
                    &mut Timed::new(&mut *mw, &mut *tracer, run_id, sink.request, names),
                    scratch,
                ),
                None => run(mw, scratch),
            };
            tracer.close(run_id);
            out
        }
    }
    .map_err(|e| e.to_string())?;
    let returned = Instant::now();
    Ok(Outcome {
        objects: out.items.iter().map(|i| i.object).collect(),
        sorted: out.stats.sorted_total(),
        random: out.stats.random_total(),
        cost: req.costs.cost(&out.stats),
        guarantee: out.metrics.approximation_guarantee,
        degraded: out.metrics.halt.is_interrupted(),
        rounds: out.metrics.rounds,
        bound_evals: out.metrics.bound_recomputations,
        peak_buffer: out.metrics.peak_buffer,
        family: Family::of(&plan.algorithm.name()),
        overrun: deadline.map(|at| returned.saturating_duration_since(at)),
    })
}
