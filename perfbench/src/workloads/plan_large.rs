//! `plan_large`: one caller reuses one f32 `SvdPlan` for values-only
//! solves of seeded 1024×1024 matrices — the paper's headline size, and
//! the only workload where stage 1 and stage 2 each do about half the
//! work.

use super::{judge, setup_again};
use crate::chain::Chain;
use crate::check::bits;
use crate::inputs::{self, Input};
use crate::report::Run;
use crate::trace::Tracer;
use crate::Args;
use std::time::Instant;
use unisvd::{hw, PrecisionKind, Svd, SvdOutput};

const N: usize = 1024;
/// Distinct inputs, reused in turn.
const POOL: usize = 4;

pub fn plan_large(args: &Args, run: &mut Run, t: &mut Tracer) {
    let mut rng = inputs::rng(args.seed, 1);
    let pool: Vec<Input<f32>> = inputs::square_family(N, POOL, &mut rng);

    let mut out = SvdOutput::empty();
    let mut plan = None;
    while setup_again(&run.setup) {
        let rep = run.setup.len();
        let start = Instant::now();
        let mut p = t
            .span("Svd::plan", 0, |_| {
                Svd::on(&hw::h100()).precision::<f32>().plan(N, N)
            })
            .expect("a 1024² f32 plan fits the H100");
        p.execute_into(&pool[rep % POOL].a, &mut out)
            .expect("warm-up solve");
        run.setup.push(start.elapsed().as_secs_f64());
        plan = Some(p);
    }
    let mut plan = plan.expect("at least one set-up repetition");
    // Traced runs also replay each solve through the public stage chain.
    let mut chain = args.trace.then(|| Chain::new(&plan));

    let mut busy = 0.0;
    let mut req = 0u64;
    let measuring = Instant::now();
    while measuring.elapsed().as_secs_f64() < args.seconds {
        let input = &pool[req as usize % POOL];
        let start = Instant::now();
        let res = t.span("SvdPlan::execute_into", req, |_| {
            plan.execute_into(&input.a, &mut out)
        });
        let wall = start.elapsed().as_secs_f64();
        busy += wall;
        run.round_per_op.push(wall);
        run.latency.push(wall);
        let mut same_bits = true;
        if let Some(chain) = chain.as_mut() {
            t.span("chain", req, |t| chain.run(&input.a, t, req));
            same_bits = bits(&chain.values) == bits(&out.values);
            let _ = t.span("SvdOutput::verify", req, |_| out.verify());
        }
        let verdict = judge(
            run,
            res.as_ref().map(|_| &out),
            &input.truth,
            PrecisionKind::Fp32,
            same_bits,
            false,
        );
        run.tput_ops += u64::from(verdict == super::Verdict::Ok);
        req += 1;
    }
    run.tput_wall = busy;
    run.device_bytes = plan.device_bytes() as f64;
}
