//! `lora_vectors`: one caller runs planned solves with singular vectors
//! on tall LoRA-update shapes, alternating thin and top-k factors. Host
//! QR, rotation logging and reverse replay do most of the work here.

use super::{judge, setup_again, Verdict};
use crate::chain::Chain;
use crate::check::{bits, vectors_ok};
use crate::inputs::{self, Input};
use crate::report::Run;
use crate::stats::mean;
use crate::trace::Tracer;
use crate::Args;
use std::time::Instant;
use unisvd::{hw, PrecisionKind, Svd, SvdOutput, SvdPlan, Want};

const SHAPES: [(usize, usize); 2] = [(2048, 256), (4096, 256)];
/// Thin factors, then the top n/8 triplets.
const WANTS: [Want; 2] = [Want::Thin, Want::TopK(256 / 8)];
/// Distinct inputs per shape, reused in turn.
const POOL: usize = 8;

fn plan(shape: (usize, usize), want: Want) -> SvdPlan<f32> {
    Svd::on(&hw::h100())
        .precision::<f32>()
        .vectors(want)
        .plan(shape.0, shape.1)
        .expect("LoRA shapes fit the H100")
}

pub fn lora_vectors(args: &Args, run: &mut Run, t: &mut Tracer) {
    let mut rng = inputs::rng(args.seed, 3);
    let pools: Vec<Vec<Input<f32>>> = SHAPES
        .iter()
        .map(|&(m, n)| (0..POOL).map(|_| inputs::tall(m, n, &mut rng)).collect())
        .collect();

    let mut out = SvdOutput::empty();
    let mut plans = Vec::new();
    while setup_again(&run.setup) {
        let start = Instant::now();
        plans.clear();
        for (si, &shape) in SHAPES.iter().enumerate() {
            for want in WANTS {
                let mut p = t.span("Svd::plan", 0, |_| plan(shape, want));
                p.execute_into(&pools[si][0].a, &mut out)
                    .expect("warm-up solve");
                plans.push(p);
            }
        }
        run.setup.push(start.elapsed().as_secs_f64());
    }
    // Traced runs compare each solve with a values-only plan of the same
    // shape and with the public stage chain.
    let mut reference: Vec<(SvdPlan<f32>, Chain<f32>)> = if args.trace {
        SHAPES
            .iter()
            .map(|&shape| {
                let p = t.span("Svd::plan", 0, |_| plan(shape, Want::None));
                let c = Chain::new(&p);
                (p, c)
            })
            .collect()
    } else {
        Vec::new()
    };
    let mut values_only = SvdOutput::empty();
    let mut vector_cost = Vec::new();

    let mut probe_rng = inputs::rng(args.seed, 4);
    let (mut busy, mut req, mut round) = (0.0, 0u64, 0usize);
    let measuring = Instant::now();
    while measuring.elapsed().as_secs_f64() < args.seconds {
        let mut round_busy = 0.0;
        for (pi, p) in plans.iter_mut().enumerate() {
            let si = pi / WANTS.len();
            let input = &pools[si][round % POOL];
            let start = Instant::now();
            let res = t.span("SvdPlan::execute_into", req, |_| {
                p.execute_into(&input.a, &mut out)
            });
            let wall = start.elapsed().as_secs_f64();
            round_busy += wall;
            run.latency.push(wall);
            let mut extra_ok = res.is_ok()
                && vectors_ok(
                    &out,
                    &input.a.cast::<f64>(),
                    PrecisionKind::Fp32,
                    &mut probe_rng,
                );
            if let Some((vplan, chain)) = reference.get_mut(si) {
                let start = Instant::now();
                let vres = t.span("SvdPlan::execute_into[values]", req, |_| {
                    vplan.execute_into(&input.a, &mut values_only)
                });
                vector_cost.push(wall - start.elapsed().as_secs_f64());
                t.span("chain", req, |t| chain.run(&input.a, t, req));
                let k = out.values.len();
                extra_ok &= vres.is_ok()
                    && bits(&chain.values) == bits(&values_only.values)
                    && values_only.values.len() >= k
                    && bits(&values_only.values[..k]) == bits(&out.values);
                let _ = t.span("SvdOutput::verify", req, |_| out.verify());
            }
            let verdict = judge(
                run,
                res.as_ref().map(|_| &out),
                &input.truth,
                PrecisionKind::Fp32,
                extra_ok,
                false,
            );
            run.tput_ops += u64::from(verdict == Verdict::Ok);
            req += 1;
        }
        busy += round_busy;
        run.round_per_op.push(round_busy / plans.len() as f64);
        round += 1;
    }
    run.tput_wall = busy;
    run.device_bytes = plans.iter().map(|p| p.device_bytes() as f64).sum();
    if args.trace {
        run.layer("core.vectors.host_s", mean(&vector_cost));
    }
}
