//! `fleet_faults`: one caller rotates blocking `solve`, `solve_batch`
//! groups and `submit`/`wait` through a two-device fleet whose H100 runs
//! a seeded fault schedule, with retries and output verification on.
//!
//! `SvdFleet` has no batch entry point, so the batch path calls
//! `solve_batch` on the fleet's H100 backend (`SvdFleet::backend(0)`),
//! the faulted device, which supports every precision in the mix.

use super::{judge, setup_again, Verdict};
use crate::inputs::{self, Input};
use crate::report::Run;
use crate::stats::quantile;
use crate::trace::Tracer;
use crate::Args;
use std::time::Instant;
use unisvd::{
    hw, DeviceHealth, FaultPlan, Matrix, Scalar, SvdConfig, SvdError, SvdFleet, SvdOutput,
};

const SIZES: [usize; 3] = [32, 48, 64];
/// Requests per path per round; also the `solve_batch` group size.
const GROUP: usize = 8;
/// Distinct inputs per signature: rounds take consecutive groups.
const POOL: usize = 16 * GROUP;
/// Entry points per round, in order: `solve`, `solve_batch`, `submit`.
const PATHS: usize = 3;

/// `fig_chaos`'s seeded schedule: ~4% transfer corruption, rare kernel
/// stalls, occasional transient allocation failures.
fn chaos() -> FaultPlan {
    FaultPlan::seeded(0xC4A0_5EED)
        .corrupt_rate(0.04)
        .stall_rate(0.001)
        .alloc_fail_rate(0.01)
}

fn build_fleet() -> SvdFleet {
    SvdFleet::builder()
        .device(hw::h100().with_faults(chaos()))
        .device(hw::m1_pro())
        .retry(2)
        .verify_outputs(true)
        .build()
}

/// Per-path and per-error tallies.
#[derive(Default)]
struct Tally {
    attempted: [u64; PATHS],
    errors: [u64; PATHS],
    host: [Vec<f64>; 2],
    device_fault: u64,
    timeout: u64,
    trips: u64,
    health: [Option<DeviceHealth>; 2],
}

impl Tally {
    fn record(&mut self, path: usize, verdict: Verdict, res: Result<&SvdOutput, &SvdError>) {
        self.attempted[path] += 1;
        self.errors[path] += u64::from(verdict != Verdict::Ok);
        match res {
            Err(SvdError::DeviceFault(_)) => self.device_fault += 1,
            Err(SvdError::Timeout { .. }) => self.timeout += 1,
            _ => {}
        }
    }

    /// Counts breaker trips: a device seen tripped after being seen in
    /// any other state.
    fn poll_health(&mut self, fleet: &SvdFleet, t: &mut Tracer, req: u64) {
        for d in 0..2 {
            let h = t.span("SvdFleet::device_health", req, |_| fleet.device_health(d));
            if h == DeviceHealth::Tripped && self.health[d] != Some(DeviceHealth::Tripped) {
                self.trips += 1;
            }
            self.health[d] = Some(h);
        }
    }
}

/// One round on one signature: each path serves GROUP requests.
/// Returns the host seconds the round's calls took.
fn round<T: Scalar>(
    fleet: &SvdFleet,
    pool: &[Input<T>],
    run: &mut Run,
    tally: &mut Tally,
    t: &mut Tracer,
    req: &mut u64,
) -> f64 {
    let cfg = SvdConfig::default();
    let mut busy = 0.0;
    let mut score = |run: &mut Run,
                     t: &mut Tracer,
                     path,
                     res: Result<&SvdOutput, &SvdError>,
                     input: &Input<T>,
                     id| {
        let verdict = judge(run, res, &input.truth, T::KIND, true, true);
        tally.record(path, verdict, res);
        if let (Verdict::Ok, Ok(out)) = (verdict, res) {
            if t.enabled() {
                let _ = t.span("SvdOutput::verify", id, |_| out.verify());
            }
        }
        verdict == Verdict::Ok
    };
    let mut ok = 0u64;

    // Blocking solves.
    let mut solve_host = Vec::new();
    for input in pool {
        let start = Instant::now();
        let res = t.span("SvdFleet::solve", *req, |_| fleet.solve(&input.a, &cfg));
        let wall = start.elapsed().as_secs_f64();
        busy += wall;
        solve_host.push(wall);
        run.latency.push(wall);
        ok += u64::from(score(run, t, 0, res.as_ref(), input, *req));
        *req += 1;
    }

    // One batch through the faulted backend.
    let batch: Vec<Matrix<T>> = pool.iter().map(|i| i.a.clone()).collect();
    let start = Instant::now();
    let outs = t.span("SvdService::solve_batch", *req, |_| {
        fleet.backend(0).solve_batch(&batch, &cfg)
    });
    let wall = start.elapsed().as_secs_f64();
    busy += wall;
    let batch_host = wall;
    for (res, input) in outs.iter().zip(pool) {
        run.latency.push(wall);
        ok += u64::from(score(run, t, 1, res.as_ref(), input, *req));
        *req += 1;
    }

    // Submit the group, then wait for each ticket.
    let start = Instant::now();
    let first = *req;
    let tickets: Vec<_> = pool
        .iter()
        .map(|input| {
            let r = t.span("SvdFleet::submit", *req, |_| {
                fleet.submit(input.a.clone(), &cfg)
            });
            *req += 1;
            r
        })
        .collect();
    for (i, (ticket, input)) in tickets.into_iter().zip(pool).enumerate() {
        let id = first + i as u64;
        let res = match ticket {
            Ok(ticket) => t.span("Ticket::wait", id, |_| ticket.wait()),
            Err(e) => Err(SvdError::from(e)),
        };
        run.latency.push(start.elapsed().as_secs_f64());
        ok += u64::from(score(run, t, 2, res.as_ref(), input, id));
    }
    busy += start.elapsed().as_secs_f64();
    run.tput_ops += ok;
    tally.host[0].extend(solve_host);
    tally.host[1].push(batch_host);
    busy
}

pub fn fleet_faults(args: &Args, run: &mut Run, t: &mut Tracer) {
    let mut rng = inputs::rng(args.seed, 6);
    let f32s = inputs::square_pools::<f32>(&SIZES, POOL, &mut rng);
    let f64s = inputs::square_pools::<f64>(&SIZES, POOL, &mut rng);
    let sigs = 2 * SIZES.len();

    let mut fleet = None;
    while setup_again(&run.setup) {
        let start = Instant::now();
        let f = build_fleet();
        let cfg = SvdConfig::default();
        for s in 0..SIZES.len() {
            // A warm-up solve may meet the fault schedule; retries absorb
            // most of it and a failed warm-up is harmless.
            let _ = f.solve(&f32s[s][0].a, &cfg);
            let _ = f.solve(&f64s[s][0].a, &cfg);
        }
        run.setup.push(start.elapsed().as_secs_f64());
        fleet = Some(f);
    }
    let fleet = fleet.expect("at least one set-up repetition");

    let mut tally = Tally::default();
    let (mut busy, mut req, mut r) = (0.0, 0u64, 0usize);
    let mut order = Vec::new();
    let measuring = Instant::now();
    while measuring.elapsed().as_secs_f64() < args.seconds {
        if r % sigs == 0 {
            order = inputs::permutation(sigs, &mut rng);
        }
        let sig = order[r % sigs];
        let s = sig % SIZES.len();
        let g0 = (r / sigs) % (POOL / GROUP) * GROUP;
        let g = g0..g0 + GROUP;
        let wall = if sig < SIZES.len() {
            round(&fleet, &f32s[s][g], run, &mut tally, t, &mut req)
        } else {
            round(&fleet, &f64s[s][g], run, &mut tally, t, &mut req)
        };
        busy += wall;
        run.round_per_op.push(wall / (PATHS * GROUP) as f64);
        if t.enabled() {
            tally.poll_health(&fleet, t, req);
        }
        r += 1;
    }
    run.tput_wall = busy;

    let stats = t.span("SvdFleet::stats", req, |_| fleet.stats());
    run.device_bytes = stats.total.cache.resident_bytes as f64;
    if args.trace {
        let served: Vec<f64> = stats
            .per_device
            .iter()
            .map(|d| (d.stats.cache.hits + d.stats.cache.misses) as f64)
            .collect();
        let total = served.iter().sum::<f64>().max(1.0);
        run.layer("fleet.served_share.dev0", served[0] / total);
        run.layer("fleet.served_share.dev1", served[1] / total);
        run.layer("fleet.breaker_trips", tally.trips as f64);
        run.layer("fleet.errors.device_fault", tally.device_fault as f64);
        run.layer("fleet.errors.timeout", tally.timeout as f64);
        let submit_host = t.durations("SvdFleet::submit");
        run.layer("service.submit.host_p50_s", quantile(&submit_host, 0.5));
        run.layer("service.submit.host_p90_s", quantile(&submit_host, 0.9));
        run.layer("service.solve.host_p50_s", quantile(&tally.host[0], 0.5));
        run.layer(
            "service.solve_batch.host_p50_s",
            quantile(&tally.host[1], 0.5),
        );
        for (path, name) in [
            "service.solve.error_rate",
            "service.solve_batch.error_rate",
            "service.submit.error_rate",
        ]
        .iter()
        .enumerate()
        {
            run.layer(
                name,
                tally.errors[path] as f64 / tally.attempted[path].max(1) as f64,
            );
        }
        let q = stats.total.queue;
        run.layer("service.queue.batches", q.batches as f64);
        run.layer(
            "service.queue.coalesce_ratio",
            q.coalesced as f64 / q.submitted.max(1) as f64,
        );
        run.layer("service.queue.rejected", q.rejected as f64);
        run.layer("service.queue.shed", q.shed as f64);
        let c = stats.total.cache;
        run.layer(
            "service.cache.hit_ratio",
            c.hits as f64 / (c.hits + c.misses).max(1) as f64,
        );
        run.layer("service.cache.misses", c.misses as f64);
        run.layer("service.cache.evictions", c.evictions as f64);
    }
}
