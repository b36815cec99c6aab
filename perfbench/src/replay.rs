//! The traced run's replay: after the timed window, executed requests run
//! again through the planner and a timing wrapper around the access layer
//! (`Session`, or `RemoteSource` on the remote workload), which gives the
//! `core` and `middleware`/`remote` spans the per-layer numbers come from.

use fagin_core::RunScratch;
use fagin_middleware::{AccessPolicy, Middleware, Session};
use fagin_remote::RemoteSource;
use fagin_serve::QueryRequest;
use std::collections::BTreeMap;

use crate::exec::{execute, Family, Outcome, SpanSink};
use crate::trace::Tracer;
use crate::util::{median, percentile, ratio};

/// At most this many requests are replayed, evenly spaced over the
/// executed ones: a scalar NRA run makes tens of thousands of middleware
/// calls, each one span, and the record must stay small.
pub const REPLAY_MAX: usize = 32;

/// An access layer the replay can rewind between requests.
pub trait Rewind: Middleware {
    fn rewind(&mut self, policy: AccessPolicy);
}

impl Rewind for Session<'_> {
    fn rewind(&mut self, policy: AccessPolicy) {
        self.reset(policy);
    }
}

impl Rewind for RemoteSource {
    fn rewind(&mut self, policy: AccessPolicy) {
        self.reset(policy);
    }
}

/// One request to replay, with the access counts of its untraced execution
/// when they are deterministic (cold, exact-path, no deadline).
pub struct Item<'a> {
    pub request: u32,
    pub req: &'a QueryRequest,
    pub expect: Option<(u64, u64)>,
}

/// Evenly spaced indices `< n`, at most [`REPLAY_MAX`] of them.
pub fn sample(n: usize) -> Vec<usize> {
    let take = n.min(REPLAY_MAX);
    (0..take).map(|i| i * n / take).collect()
}

/// Result of a replay: per-layer metrics plus the count checks.
pub struct Replay {
    pub layer: BTreeMap<String, f64>,
    pub compared: u64,
    /// Replays that made other accesses than their untraced execution, or
    /// that failed although the untraced execution answered.
    pub mismatched: u64,
}

pub fn replay<M: Rewind>(
    items: &[Item<'_>],
    lists: usize,
    distinct: bool,
    mw: &mut M,
    tracer: &mut Tracer,
    access_names: [&'static str; 2],
) -> Replay {
    let mut scratch = RunScratch::new();
    let mut runs: Vec<(u32, u32, Outcome)> = Vec::new();
    let (mut compared, mut mismatched) = (0, 0);
    for item in items {
        mw.rewind(item.req.policy.clone());
        let root = tracer.open("replay", 0, item.request);
        let first = tracer.spans.len() as u32 + 1;
        let sink = SpanSink {
            tracer: &mut *tracer,
            parent: root,
            request: item.request,
            access_names: Some(access_names),
        };
        let result = execute(item.req, lists, distinct, mw, &mut scratch, Some(sink));
        tracer.close(root);
        match result {
            Ok(out) => {
                if let Some(expect) = item.expect {
                    compared += 1;
                    if expect != (out.sorted, out.random) {
                        mismatched += 1;
                    }
                }
                runs.push((first, tracer.spans.len() as u32, out));
            }
            Err(_) => mismatched += 1,
        }
    }
    Replay {
        layer: derive(tracer, &runs, access_names),
        compared,
        mismatched,
    }
}

/// Per-layer metrics from the replay's spans and run metrics. `runs` holds
/// each replayed run's span id range (inclusive) and outcome.
fn derive(
    tracer: &Tracer,
    runs: &[(u32, u32, Outcome)],
    access_names: [&'static str; 2],
) -> BTreeMap<String, f64> {
    let self_nanos = tracer.self_nanos();
    let mut plan_us = Vec::new();
    let mut self_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    let mut access_ms = Vec::new();
    let (mut access_ns, mut accesses, mut calls) = (0u64, 0u64, 0u64);
    let mut rtt_us = Vec::new();
    let mut overrun_ms = Vec::new();
    for (first, last, out) in runs {
        let mut run_access_ns = 0;
        for id in *first..=*last {
            let span = &tracer.spans[id as usize - 1];
            match span.name {
                "core.plan" => plan_us.push(span.nanos() as f64 / 1e3),
                "core.run" => {
                    if let Some(&(_, fam)) = Family::MEASURED.iter().find(|f| f.0 == out.family) {
                        let own = self_nanos[id as usize - 1] as f64 / 1e6;
                        self_ms.entry(fam).or_default().push(own);
                    }
                }
                name if access_names.contains(&name) => {
                    run_access_ns += span.nanos();
                    calls += 1;
                    if name.starts_with("remote.") {
                        rtt_us.push(span.nanos() as f64 / 1e3);
                    }
                }
                _ => {}
            }
        }
        access_ns += run_access_ns;
        accesses += out.sorted + out.random;
        access_ms.push(run_access_ns as f64 / 1e6);
        if let Some(o) = out.overrun {
            overrun_ms.push(o.as_secs_f64() * 1e3);
        }
    }
    let n = runs.len() as f64;
    let per_run = |f: fn(&Outcome) -> f64| ratio(runs.iter().map(|r| f(&r.2)).sum(), n);
    let mut m = BTreeMap::new();
    m.insert("core.plan_us_p50".into(), median(&plan_us));
    for (_, fam) in Family::MEASURED {
        let v = self_ms.get(fam).map(Vec::as_slice).unwrap_or(&[]);
        m.insert(format!("core.self_ms_p50.{fam}"), median(v));
        m.insert(format!("core.self_ms_p99.{fam}"), percentile(v, 0.99));
    }
    m.insert("core.rounds_per_query".into(), per_run(|o| o.rounds as f64));
    m.insert(
        "core.bound_evals_per_query".into(),
        per_run(|o| o.bound_evals as f64),
    );
    m.insert("core.peak_buffer".into(), per_run(|o| o.peak_buffer as f64));
    m.insert(
        "core.anytime_overrun_ms_p99".into(),
        percentile(&overrun_ms, 0.99),
    );
    m.insert(
        "middleware.sorted_per_query".into(),
        per_run(|o| o.sorted as f64),
    );
    m.insert(
        "middleware.random_per_query".into(),
        per_run(|o| o.random as f64),
    );
    m.insert("middleware.calls_per_query".into(), ratio(calls as f64, n));
    m.insert("middleware.access_ms_p50".into(), median(&access_ms));
    m.insert(
        "middleware.ns_per_access".into(),
        ratio(access_ns as f64, accesses as f64),
    );
    m.insert("remote.rtt_us_p50".into(), median(&rtt_us));
    m.insert("remote.rtt_us_p99".into(), percentile(&rtt_us, 0.99));
    m
}
