//! `serve_small`: an open loop of small square requests through a
//! warmed `SvdService` (`submit` / `Ticket::wait`), then a saturation
//! phase that keeps a fixed number of tickets outstanding.
//!
//! Requests come in bursts of four same-signature requests over twelve
//! signatures (four sizes × f32/f64/F16), smaller sizes more often,
//! against a plan cache that holds only eight plans, so misses and
//! evictions occur.
//!
//! The end-to-end latencies and throughput come from the saturation
//! phase. The open loop's percentiles are per-layer metrics
//! (`service.open_loop.*`): on the 2-vCPU virtual machine the benchmark
//! was tuned on, the CPUs idle between arrivals, and the latency of a
//! burst that wakes them swung by 25–30 % from run to run while the
//! saturation throughput held within 8 %.

use super::{judge, setup_again, Verdict};
use crate::chain::Chain;
use crate::check::bits;
use crate::inputs::{self, Input};
use crate::report::Run;
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::Args;
use std::collections::VecDeque;
use std::time::{Duration, Instant};
use unisvd::{
    hw, Matrix, PrecisionKind, Scalar, ServiceError, Svd, SvdConfig, SvdError, SvdOutput,
    SvdService, Ticket, F16,
};

const SIZES: [usize; 4] = [48, 64, 96, 128];
/// Bursts of each size per block of the mix, per precision: 35 %, 35 %,
/// 15 % and 15 % of requests. Solve time jumps about 4× between 64 and
/// 96, so the weights keep the latency median inside the 64 class and
/// the 90th percentile inside the 96–128 classes instead of on a
/// boundary, where the percentile would flip between classes from run
/// to run.
const WEIGHTS: [usize; 4] = [7, 7, 3, 3];
/// Signatures: SIZES × {f32, f64, F16}.
const SIGS: usize = 12;
const BURST: usize = 4;
/// Open-loop arrival rate, requests per second: a fixed constant, never
/// calibrated per run. A burst arrives every 67 ms, longer than the
/// heaviest burst takes even when the host runs slow (four n=128 f64
/// solves, about 50 ms), so a heavy burst never delays the next one. At
/// 100 req/s heavy bursts overran the gap, and the queue they left made
/// the median swing between 5 and 15 ms from run to run.
const RATE: f64 = 60.0;
/// How long before a burst is due the generator stops sleeping.
const SPIN: Duration = Duration::from_millis(1);
/// Share of the run spent in the open loop; the rest saturates.
const OPEN_SHARE: f64 = 0.4;
/// Tickets kept outstanding in the saturation phase, well below
/// `QUEUE_DEPTH`, so admission never refuses and the phase measures the
/// service rather than the generator.
const WINDOW: usize = 32;
const QUEUE_DEPTH: usize = 256;
/// Resident plans: fewer than the 12-signature working set.
const CACHE_PLANS: usize = 8;
/// Distinct inputs per signature, reused in turn.
const POOL: usize = 6;

/// Seeded inputs for every signature.
struct Pools {
    f32: Vec<Vec<Input<f32>>>,
    f64: Vec<Vec<Input<f64>>>,
    f16: Vec<Vec<Input<F16>>>,
}

impl Pools {
    fn new(seed: u64) -> Self {
        let mut rng = inputs::rng(seed, 2);
        Pools {
            f32: inputs::square_pools(&SIZES, POOL, &mut rng),
            f64: inputs::square_pools(&SIZES, POOL, &mut rng),
            f16: inputs::square_pools(&SIZES, POOL, &mut rng),
        }
    }

    fn truth(&self, sig: usize, idx: usize) -> (&[f64], PrecisionKind) {
        let s = sig % SIZES.len();
        match sig / SIZES.len() {
            0 => (&self.f32[s][idx].truth, PrecisionKind::Fp32),
            1 => (&self.f64[s][idx].truth, PrecisionKind::Fp64),
            _ => (&self.f16[s][idx].truth, PrecisionKind::Fp16),
        }
    }

    /// Submits a copy of input `idx` of signature `sig`.
    fn submit(&self, svc: &SvdService, sig: usize, idx: usize) -> Result<Ticket, ServiceError> {
        let (s, cfg) = (sig % SIZES.len(), SvdConfig::default());
        match sig / SIZES.len() {
            0 => svc.submit(self.f32[s][idx].a.clone(), &cfg),
            1 => svc.submit(self.f64[s][idx].a.clone(), &cfg),
            _ => svc.submit(self.f16[s][idx].a.clone(), &cfg),
        }
    }

    /// Blocking solve of input `idx` of signature `sig` (warm-up).
    fn solve(&self, svc: &SvdService, sig: usize, idx: usize) -> Result<SvdOutput, SvdError> {
        let (s, cfg) = (sig % SIZES.len(), SvdConfig::default());
        match sig / SIZES.len() {
            0 => svc.solve(&self.f32[s][idx].a, &cfg),
            1 => svc.solve(&self.f64[s][idx].a, &cfg),
            _ => svc.solve(&self.f16[s][idx].a, &cfg),
        }
    }

    /// Whether a directly driven `SvdPlan` — and, when traced, the
    /// public stage chain — reproduce `values` bit for bit on input
    /// `idx` of signature `sig`.
    fn direct_matches(&self, sig: usize, idx: usize, values: &[f64], t: &mut Tracer) -> bool {
        let s = sig % SIZES.len();
        match sig / SIZES.len() {
            0 => direct(&self.f32[s][idx].a, values, t, sig as u64),
            1 => direct(&self.f64[s][idx].a, values, t, sig as u64),
            _ => direct(&self.f16[s][idx].a, values, t, sig as u64),
        }
    }
}

fn direct<T: Scalar>(a: &Matrix<T>, values: &[f64], t: &mut Tracer, req: u64) -> bool {
    let mut plan = t
        .span("Svd::plan", req, |_| {
            Svd::on(&hw::h100())
                .precision::<T>()
                .plan(a.rows(), a.cols())
        })
        .expect("small squares fit the H100");
    let mut out = SvdOutput::empty();
    let ok = t
        .span("SvdPlan::execute_into", req, |_| {
            plan.execute_into(a, &mut out)
        })
        .is_ok();
    let mut same = ok && bits(&out.values) == bits(values);
    if t.enabled() {
        // Decompose the request into public stage calls, a few times so
        // the small-n stage split is measured above timer noise.
        let mut chain = Chain::new(&plan);
        for _ in 0..3 {
            t.span("chain", req, |t| chain.run(a, t, req));
            same &= bits(&chain.values) == bits(values);
        }
    }
    same
}

/// One submitted request.
struct Sent {
    due: Instant,
    sig: usize,
    idx: usize,
    req: u64,
}

/// A resolved request.
struct Done {
    sent: Sent,
    done: Instant,
    res: Result<SvdOutput, SvdError>,
}

pub fn serve_small(args: &Args, run: &mut Run, t: &mut Tracer) {
    let pools = Pools::new(args.seed);
    let mut rng = inputs::rng(args.seed, 5);
    // One block of the mix: every signature, repeated by its weight.
    let block: Vec<usize> = (0..SIGS)
        .flat_map(|sig| std::iter::repeat_n(sig, WEIGHTS[sig % SIZES.len()]))
        .collect();
    // Open-loop burst signatures: back-to-back seeded shuffles of the
    // block, so the mix is exact over every block.
    let bursts = (args.seconds * OPEN_SHARE * RATE / BURST as f64)
        .round()
        .max(1.0) as usize;
    let order: Vec<usize> = (0..bursts.div_ceil(block.len()))
        .flat_map(|_| {
            inputs::permutation(block.len(), &mut rng)
                .into_iter()
                .map(|i| block[i])
        })
        .collect();

    let mut service = None;
    while setup_again(&run.setup) {
        let start = Instant::now();
        let svc = SvdService::builder(&hw::h100())
            .shards(1)
            .plans_per_shard(CACHE_PLANS)
            .queue_depth(QUEUE_DEPTH)
            .build();
        for sig in 0..SIGS {
            pools.solve(&svc, sig, 0).expect("warm-up solve");
        }
        run.setup.push(start.elapsed().as_secs_f64());
        service = Some(svc);
    }
    let svc = service.expect("at least one set-up repetition");
    let before = svc.stats();

    // Open loop: the generator submits each burst when it is due; a
    // waiter thread resolves tickets in submission order.
    let (mut submit_host, mut in_flight, mut lag_max) = (Vec::new(), Vec::new(), 0.0f64);
    let mut refused = 0u64;
    let (tx, rx) = std::sync::mpsc::channel::<(Ticket, Sent)>();
    let origin = Instant::now() + Duration::from_millis(20);
    let waiter_trace = Tracer::new(args.trace, t.origin());
    let (waiter_trace, resolved) = std::thread::scope(|scope| {
        let waiter = scope.spawn(move || {
            let mut wt = waiter_trace;
            let mut resolved = Vec::new();
            for (ticket, sent) in rx {
                let res = wt.span("Ticket::wait", sent.req, |_| ticket.wait());
                resolved.push(Done {
                    done: Instant::now(),
                    sent,
                    res,
                });
            }
            (wt, resolved)
        });
        for (b, &sig) in order.iter().take(bursts).enumerate() {
            let due = origin + Duration::from_secs_f64((b * BURST) as f64 / RATE);
            // Sleep to just before the burst is due, then yield until it
            // is: a plain sleep can wake a millisecond late, and that
            // lateness would be charged to every request's latency.
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait.saturating_sub(SPIN));
            }
            while Instant::now() < due {
                std::thread::yield_now();
            }
            lag_max = lag_max.max(due.elapsed().as_secs_f64());
            for i in 0..BURST {
                let (req, idx) = ((b * BURST + i) as u64, (b * BURST + i) % POOL);
                if t.enabled() {
                    in_flight.push(
                        t.span("SvdService::stats", req, |_| svc.stats())
                            .queue
                            .in_flight as f64,
                    );
                }
                let sent = Instant::now();
                let res = t.span("SvdService::submit", req, |_| pools.submit(&svc, sig, idx));
                submit_host.push(sent.elapsed().as_secs_f64());
                match res {
                    Ok(ticket) => tx
                        .send((ticket, Sent { due, sig, idx, req }))
                        .expect("the waiter outlives the generator"),
                    Err(_) => refused += 1,
                }
            }
        }
        drop(tx);
        waiter.join().expect("waiter thread")
    });
    t.absorb(waiter_trace);

    // Each signature's first served output (input index and values) must
    // match a directly driven plan bit for bit.
    let mut first: Vec<Option<(usize, Vec<f64>)>> = vec![None; SIGS];
    let mut score =
        |run: &mut Run, t: &mut Tracer, sig, idx, req, res: &Result<SvdOutput, SvdError>| {
            let (truth, kind) = pools.truth(sig, idx);
            let verdict = judge(run, res.as_ref(), truth, kind, true, false);
            if let (Verdict::Ok, Ok(out)) = (verdict, res) {
                if t.enabled() {
                    let _ = t.span("SvdOutput::verify", req, |_| out.verify());
                }
                first[sig].get_or_insert_with(|| (idx, out.values.clone()));
            }
            verdict == Verdict::Ok
        };
    let mut open_latency = Vec::new();
    for d in &resolved {
        open_latency.push(d.done.duration_since(d.sent.due).as_secs_f64());
        score(run, t, d.sent.sig, d.sent.idx, d.sent.req, &d.res);
    }
    for _ in 0..refused {
        run.outcome(false, false);
    }

    // Saturation: keep WINDOW tickets outstanding for the rest of the
    // run, bursts cycling through one fixed shuffle of the block (the
    // same in every run, so the phase ends in the same cache state).
    let cycle: Vec<usize> = inputs::permutation(block.len(), &mut inputs::rng(0, 7))
        .into_iter()
        .map(|i| block[i])
        .collect();
    let sat_seconds = args.seconds * (1.0 - OPEN_SHARE);
    let mut window: VecDeque<(Ticket, Instant, usize, usize, u64)> = VecDeque::new();
    let mut req = resolved.len() as u64 + refused;
    let sat_start = Instant::now();
    let mut last_done = sat_start;
    let mut r = 0usize;
    loop {
        while window.len() < WINDOW && sat_start.elapsed().as_secs_f64() < sat_seconds {
            let (sig, idx) = (cycle[(r / BURST) % cycle.len()], r % POOL);
            let sent = Instant::now();
            let res = t.span("SvdService::submit", req, |_| pools.submit(&svc, sig, idx));
            match res {
                Ok(ticket) => window.push_back((ticket, sent, sig, idx, req)),
                Err(_) => run.outcome(false, false),
            }
            r += 1;
            req += 1;
        }
        let Some((ticket, sent, sig, idx, id)) = window.pop_front() else {
            break;
        };
        let res = t.span("Ticket::wait", id, |_| ticket.wait());
        last_done = Instant::now();
        // A request is due when its window slot frees: the closed-loop
        // latency a caller with 32 requests in flight sees.
        run.latency
            .push(last_done.duration_since(sent).as_secs_f64());
        run.round_per_op
            .push(last_done.duration_since(sent).as_secs_f64());
        if score(run, t, sig, idx, id, &res) {
            run.tput_ops += 1;
        }
    }
    run.tput_wall = last_done.duration_since(sat_start).as_secs_f64();

    // Cool-down: two passes of one request per signature, one at a time,
    // in a fixed order. Every request of the second pass misses the
    // 8-plan cache, so the run ends with the same freshly built resident
    // plans whatever the timing of the phases before.
    for sig in (0..2 * SIGS).map(|i| i % SIGS) {
        let res = pools
            .submit(&svc, sig, 0)
            .map_err(SvdError::from)
            .and_then(Ticket::wait);
        score(run, t, sig, 0, req, &res);
    }
    let after = t.span("SvdService::stats", req, |_| svc.stats());
    run.device_bytes = after.cache.resident_bytes as f64;
    for (sig, slot) in first.iter().enumerate() {
        // Every signature is served at least once, in the cool-down.
        let same = match slot {
            Some((idx, values)) => pools.direct_matches(sig, *idx, values, t),
            None => false,
        };
        if !same {
            run.failed += 1;
        }
    }

    if args.trace {
        let (q0, q1) = (before.queue, after.queue);
        let (c0, c1) = (before.cache, after.cache);
        let submitted = (q1.submitted - q0.submitted).max(1) as f64;
        let lookups = ((c1.hits - c0.hits) + (c1.misses - c0.misses)).max(1) as f64;
        run.layer("service.submit.host_p50_s", quantile(&submit_host, 0.5));
        run.layer("service.submit.host_p90_s", quantile(&submit_host, 0.9));
        run.layer("service.queue.in_flight_p90", quantile(&in_flight, 0.9));
        run.layer("service.queue.batches", (q1.batches - q0.batches) as f64);
        run.layer(
            "service.queue.coalesce_ratio",
            (q1.coalesced - q0.coalesced) as f64 / submitted,
        );
        run.layer("service.queue.rejected", (q1.rejected - q0.rejected) as f64);
        run.layer("service.queue.shed", (q1.shed - q0.shed) as f64);
        run.layer(
            "service.cache.hit_ratio",
            (c1.hits - c0.hits) as f64 / lookups,
        );
        run.layer("service.cache.misses", (c1.misses - c0.misses) as f64);
        run.layer(
            "service.cache.evictions",
            (c1.evictions - c0.evictions) as f64,
        );
        run.layer("bench.generator_lag_max_s", lag_max);
        run.layer(
            "service.open_loop.latency_p50_s",
            quantile(&open_latency, 0.5),
        );
        run.layer(
            "service.open_loop.latency_p90_s",
            quantile(&open_latency, 0.9),
        );
    }
}
