//! Load generation against a `TopKService`: an open loop with seeded
//! Poisson arrivals, and closed loops with a fixed client count.
//!
//! `QueryTicket` has only a blocking `wait`, so a single collector thread
//! would wait for tickets in submission (FIFO) order and timestamp a reply
//! that completes out of order late, by up to the remaining time of the
//! earlier request it is still waiting on. On serve-zipf that put cache
//! hits, answered inside `submit`, behind cold runs: on a 2-vCPU x86-64 VM
//! the measured median was ~5.8 ms against ~0.45 ms in closed loop. The
//! open loop therefore takes tickets from a queue with a pool of waiting
//! threads; they block and add no load.

use std::sync::{mpsc, Mutex};
use std::time::{Duration, Instant};

use fagin_serve::{QueryRequest, QueryResponse, QueryTicket, ServeError, TopKService};

use crate::trace::Tracer;
use crate::util::Rng;

/// One attempted request, as the client saw it.
pub struct Done {
    pub request: u32,
    pub req: QueryRequest,
    /// When the request was due (open loop) or sent (closed loop).
    pub intended: Instant,
    pub submit_start: Instant,
    pub submit_end: Instant,
    pub done: Instant,
    /// Whether it counts towards the end-to-end statistics (requests in the
    /// warm-up prefix only count towards correctness).
    pub measured: bool,
    pub result: Result<QueryResponse, ServeError>,
}

impl Done {
    pub fn latency(&self) -> Duration {
        self.done.saturating_duration_since(self.intended)
    }
}

/// Waits for a ticket and drops the bulky parts of the reply the benchmark
/// does not read (the eviction log, the rationale), so that holding every
/// reply until the check does not inflate the process's peak memory.
fn wait(ticket: Result<QueryTicket, ServeError>) -> (Instant, Result<QueryResponse, ServeError>) {
    let result = ticket.and_then(QueryTicket::wait);
    let done = Instant::now();
    let result = result.map(|mut r| {
        r.run.evicted = Vec::new();
        r.rationale = Vec::new();
        r
    });
    (done, result)
}

/// Records `request` → `serve.submit` / `serve.wait` spans for one request.
fn record_spans(tracer: &mut Tracer, d: &Done, wait_start: Instant) {
    let root = tracer.record("request", d.intended, d.done, 0, d.request);
    tracer.record(
        "serve.submit",
        d.submit_start,
        d.submit_end,
        root,
        d.request,
    );
    tracer.record("serve.wait", wait_start, d.done, root, d.request);
}

/// Whether request `id` is traced: in a traced run, alternate blocks of 8
/// requests record spans, so the untraced half measures the tracing
/// overhead in the same window. A block spans whole rotations of the
/// workloads that rotate through 4 or 8 shapes, so both halves see the
/// same mix.
pub fn traced(trace: bool, id: u32) -> bool {
    trace && (id / 8).is_multiple_of(2)
}

/// Threads waiting for open-loop replies. A reply is timestamped late only
/// while every waiter is still blocked on an earlier request.
const WAITERS: usize = 8;

/// Open loop: `schedule[i] = (offset_s, request)` is submitted at
/// `start + offset` by one submitter thread, and [`WAITERS`] threads wait
/// for the replies. Requests due before `warm_s` are not measured.
/// Returns the requests and how late the submitter ran for each (ms).
pub fn open_loop(
    service: &TopKService,
    schedule: Vec<(f64, QueryRequest)>,
    warm_s: f64,
    tracer: Option<&mut Tracer>,
) -> (Vec<Done>, Vec<f64>) {
    type Sent = (u32, QueryRequest, Instant, Instant, Instant, bool);
    let (tx, rx) = mpsc::channel::<(Sent, Result<QueryTicket, ServeError>)>();
    let rx = Mutex::new(rx);
    let start = Instant::now() + Duration::from_millis(5);
    let epoch = tracer.as_ref().map(|t| t.epoch());
    let (mut done, lag, tracers) = std::thread::scope(|s| {
        let submitter = s.spawn(move || {
            let mut lag_ms = Vec::with_capacity(schedule.len());
            for (i, (offset, req)) in schedule.into_iter().enumerate() {
                let due = start + Duration::from_secs_f64(offset);
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let submit_start = Instant::now();
                let measured = offset >= warm_s;
                if measured {
                    lag_ms.push(submit_start.saturating_duration_since(due).as_secs_f64() * 1e3);
                }
                let ticket = service.submit(req.clone());
                let submit_end = Instant::now();
                let sent = (i as u32, req, due, submit_start, submit_end, measured);
                tx.send((sent, ticket))
                    .expect("waiters outlive the submitter");
            }
            lag_ms
        });
        let waiters: Vec<_> = (0..WAITERS)
            .map(|_| {
                let rx = &rx;
                s.spawn(move || {
                    let mut tracer = epoch.map(Tracer::new);
                    let mut done = Vec::new();
                    loop {
                        // The lock is held only to take the next ticket.
                        let next = rx.lock().expect("no waiter panics holding the lock").recv();
                        let Ok((sent, ticket)) = next else { break };
                        let (request, req, intended, submit_start, submit_end, measured) = sent;
                        let wait_start = Instant::now();
                        let (done_at, result) = wait(ticket);
                        let d = Done {
                            request,
                            req,
                            intended,
                            submit_start,
                            submit_end,
                            done: done_at,
                            measured,
                            result,
                        };
                        if let Some(t) = tracer.as_mut().filter(|_| traced(true, request)) {
                            record_spans(t, &d, wait_start);
                        }
                        done.push(d);
                    }
                    (done, tracer)
                })
            })
            .collect();
        let lag = submitter.join().expect("submitter thread panicked");
        let mut done = Vec::new();
        let mut tracers = Vec::new();
        for w in waiters {
            let (d, t) = w.join().expect("waiter thread panicked");
            done.extend(d);
            tracers.extend(t);
        }
        (done, lag, tracers)
    });
    if let Some(spans) = tracer {
        for t in tracers {
            spans.absorb(t);
        }
    }
    done.sort_by_key(|d| d.request);
    (done, lag)
}

/// Closed loop: `clients` threads each send their next request when the
/// previous reply arrives, for `seconds` after a `warm_s` warm-up. Client
/// `c` draws its requests from `next(&mut rng_c)`. Returns the requests
/// and the length of the measured window in seconds.
pub fn closed_loop(
    service: &TopKService,
    clients: usize,
    seed: u64,
    warm_s: f64,
    seconds: f64,
    next: &(dyn Fn(&mut Rng) -> QueryRequest + Sync),
    tracer: Option<&mut Tracer>,
) -> (Vec<Done>, f64) {
    let start = Instant::now();
    let measure_from = start + Duration::from_secs_f64(warm_s);
    let end = measure_from + Duration::from_secs_f64(seconds);
    let trace = tracer.is_some();
    let epoch = tracer.as_ref().map_or(start, |t| t.epoch());
    let per_client: Vec<(Vec<Done>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..clients)
            .map(|c| {
                s.spawn(move || {
                    let mut rng = Rng::derive(seed, 100 + c as u64);
                    let mut tracer = Tracer::new(epoch);
                    let mut done = Vec::new();
                    let mut i = 0u32;
                    loop {
                        let intended = Instant::now();
                        if intended >= end {
                            break;
                        }
                        let request = i * clients as u32 + c as u32;
                        i += 1;
                        let req = next(&mut rng);
                        let submit_start = Instant::now();
                        let ticket = service.submit(req.clone());
                        let submit_end = Instant::now();
                        let (done_at, result) = wait(ticket);
                        let d = Done {
                            request,
                            req,
                            intended,
                            submit_start,
                            submit_end,
                            done: done_at,
                            measured: intended >= measure_from,
                            result,
                        };
                        if traced(trace, request) {
                            record_spans(&mut tracer, &d, submit_end);
                        }
                        done.push(d);
                    }
                    (done, tracer)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut all = Vec::new();
    let mut spans = tracer;
    for (done, t) in per_client {
        all.extend(done);
        if let Some(spans) = spans.as_deref_mut() {
            spans.absorb(t);
        }
    }
    all.sort_by_key(|d| d.request);
    // Measured requests were all sent before `end`; the window closes when
    // the last of them is answered.
    let last = all.iter().filter(|d| d.measured).map(|d| d.done).max();
    let measured_s = last.map_or(0.0, |t| {
        t.saturating_duration_since(measure_from).as_secs_f64()
    });
    (all, measured_s)
}
