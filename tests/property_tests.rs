//! Property-based tests (proptest) on the core invariants of the
//! reproduction: singular value correctness, stage invariants, and the
//! scalar/precision substrate.

use proptest::prelude::*;
use unisvd::reference::sv_relative_error;
use unisvd::{
    bdsqr, bisect, hw, jacobi_svdvals, svdvals, svdvals_batched, svdvals_with, Bidiagonal, Device,
    Matrix, OocMode, OutOfCore, Scalar, Svd, SvdConfig, SvdFleet, SvdService, Want, F16,
};

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// Solves one random `m × n` matrix through every core numeric entry
/// point and asserts they all return the same bits: the one-shot
/// `svdvals_with`, a plan's `execute`, both entries of an
/// `execute_batch` over the matrix twice, the mixed-shape path of
/// `svdvals_batched` (a differently-shaped companion rules out the
/// uniform plan path), `SvdService::solve`, both entries of a
/// `solve_batch` over the matrix twice, `submit(..).wait()`, a one-device
/// `SvdFleet`'s `solve` and `submit(..).wait()`, and an out-of-core
/// streaming plan's `execute`.
fn entry_points_agree<T: Scalar>(m: usize, n: usize, seed: u64) {
    use rand::{rngs::StdRng, SeedableRng};
    let mut rng = StdRng::seed_from_u64(seed);
    let a = unisvd::testmat::random_general::<T, _>(m, n, &mut rng);
    let companion = unisvd::testmat::random_general::<T, _>(m + 1, n, &mut rng);
    let h = hw::h100();
    let cfg = SvdConfig::default();
    let want = bits(
        &svdvals_with(&a, &Device::numeric(h.clone()), &cfg)
            .unwrap()
            .values,
    );
    let mut plan = Svd::on(&h).precision::<T>().config(cfg).plan(m, n).unwrap();
    let ctx = format!("{m}x{n} {:?}", T::KIND);
    assert_eq!(
        bits(&plan.execute(&a).unwrap().values),
        want,
        "execute {ctx}"
    );
    for (i, out) in plan
        .execute_batch(&[a.clone(), a.clone()])
        .iter()
        .enumerate()
    {
        assert_eq!(
            bits(&out.as_ref().unwrap().values),
            want,
            "execute_batch[{i}] {ctx}"
        );
    }
    let mixed = svdvals_batched(&[a.clone(), companion], &h, &cfg);
    assert_eq!(
        bits(mixed[0].as_ref().unwrap()),
        want,
        "svdvals_batched {ctx}"
    );
    let service = SvdService::builder(&h).build();
    assert_eq!(
        bits(&service.solve(&a, &cfg).unwrap().values),
        want,
        "service.solve {ctx}"
    );
    for (i, out) in service
        .solve_batch(&[a.clone(), a.clone()], &cfg)
        .iter()
        .enumerate()
    {
        assert_eq!(
            bits(&out.as_ref().unwrap().values),
            want,
            "service.solve_batch[{i}] {ctx}"
        );
    }
    assert_eq!(
        bits(
            &service
                .submit(a.clone(), &cfg)
                .unwrap()
                .wait()
                .unwrap()
                .values
        ),
        want,
        "service.submit {ctx}"
    );
    let fleet = SvdFleet::new(std::slice::from_ref(&h));
    assert_eq!(
        bits(&fleet.solve(&a, &cfg).unwrap().values),
        want,
        "fleet.solve {ctx}"
    );
    assert_eq!(
        bits(
            &fleet
                .submit(a.clone(), &cfg)
                .unwrap()
                .wait()
                .unwrap()
                .values
        ),
        want,
        "fleet.submit {ctx}"
    );
    let mut streaming = OutOfCore::on(&h)
        .precision::<T>()
        .config(cfg)
        .mode(OocMode::Streaming)
        .plan(m, n)
        .unwrap();
    assert_eq!(
        bits(&streaming.execute(&a).unwrap().values),
        want,
        "oocore streaming {ctx}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The unified pipeline agrees with the Jacobi oracle on arbitrary
    /// small matrices (entries in [-1, 1], any size 2..=40).
    #[test]
    fn unified_agrees_with_jacobi(
        n in 2usize..40,
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
        let dev = Device::numeric(hw::h100());
        let s1 = svdvals(&a, &dev).unwrap();
        let s2 = jacobi_svdvals(&a);
        let err = sv_relative_error(&s1, &s2);
        prop_assert!(err < 1e-10, "n={n} err={err:.2e}");
    }

    /// bdsqr and bisection agree on arbitrary bidiagonals, including
    /// zeros and sign flips.
    #[test]
    fn bidiagonal_solvers_agree(
        d in prop::collection::vec(-2.0f64..2.0, 1..60),
        seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let n = d.len();
        let mut e: Vec<f64> = (0..n.saturating_sub(1)).map(|_| rng.gen_range(-2.0..2.0)).collect();
        // Sprinkle exact zeros to exercise splitting.
        if n > 4 {
            e[n / 2 - 1] = 0.0;
        }
        let bi = Bidiagonal::new(d, e);
        let s1 = bdsqr(&bi).unwrap();
        let s2 = bisect(&bi);
        for i in 0..n {
            prop_assert!(
                (s1[i] - s2[i]).abs() < 1e-9 * (1.0 + s2[0]),
                "σ[{i}]: {} vs {}", s1[i], s2[i]
            );
        }
    }

    /// Σσ² = ‖B‖²_F for the bidiagonal solver (exact invariant of
    /// orthogonal iterations).
    #[test]
    fn bdsqr_preserves_frobenius(
        d in prop::collection::vec(-3.0f64..3.0, 2..50),
        e_seed in any::<u64>(),
    ) {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(e_seed);
        let n = d.len();
        let e: Vec<f64> = (0..n - 1).map(|_| rng.gen_range(-3.0..3.0)).collect();
        let bi = Bidiagonal::new(d, e);
        let fro2 = bi.fro_norm().powi(2);
        let sv = bdsqr(&bi).unwrap();
        let sum: f64 = sv.iter().map(|s| s * s).sum();
        prop_assert!(((sum - fro2) / fro2.max(1e-30)).abs() < 1e-11);
    }

    /// Singular values are invariant under transposition (exercises the
    /// lazy-transpose path end to end).
    #[test]
    fn transpose_invariance(n in 4usize..32, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
        let at = a.transposed();
        let dev = Device::numeric(hw::h100());
        let s1 = svdvals(&a, &dev).unwrap();
        let s2 = svdvals(&at, &dev).unwrap();
        for i in 0..n {
            prop_assert!((s1[i] - s2[i]).abs() < 1e-11);
        }
    }

    /// F16 round trip: every f32 value representable in f16 survives a
    /// store/load cycle exactly; every conversion is monotone.
    #[test]
    fn f16_conversion_properties(bits in any::<u16>(), x in -1e5f32..1e5, y in -1e5f32..1e5) {
        let h = F16::from_bits(bits);
        if !h.is_nan() {
            prop_assert_eq!(F16::from_f32(h.to_f32()).to_bits(), bits);
        }
        // Monotonicity of rounding.
        if x <= y {
            let (hx, hy) = (F16::from_f32(x), F16::from_f32(y));
            if !hx.is_nan() && !hy.is_nan() {
                prop_assert!(hx <= hy, "monotonicity violated: {x} -> {hx:?}, {y} -> {hy:?}");
            }
        }
        // Rounding is faithful: |h - x| <= ulp.
        let h = F16::from_f32(x);
        if h.is_finite() {
            let err = (h.to_f32() - x).abs();
            let ulp = (x.abs() * F16::EPSILON.to_f32()).max(f32::MIN_POSITIVE);
            prop_assert!(err <= ulp, "|{h:?} - {x}| = {err} > ulp {ulp}");
        }
    }

    /// Truncated mode: for every solver, `TopK(k)` values are the
    /// bit-for-bit prefix of the full descending value list — truncation
    /// must never perturb what it keeps.
    #[test]
    fn topk_values_are_bitwise_prefix(
        n in 4usize..28,
        seed in any::<u64>(),
        kfrac in 1usize..=4,
    ) {
        use rand::{rngs::StdRng, SeedableRng};
        use unisvd::Stage3Solver;
        let mut rng = StdRng::seed_from_u64(seed);
        let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
        let dev = Device::numeric(hw::h100());
        let k = (n * kfrac / 4).max(1);
        for solver in [Stage3Solver::Bdsqr, Stage3Solver::Dqds, Stage3Solver::Bisect] {
            let full = svdvals_with(&a, &dev, &SvdConfig { solver, ..SvdConfig::default() })
                .unwrap();
            let cfg = SvdConfig { solver, vectors: Want::TopK(k), ..SvdConfig::default() };
            let top = svdvals_with(&a, &dev, &cfg).unwrap();
            prop_assert_eq!(top.values.len(), k);
            for i in 0..k {
                prop_assert_eq!(
                    top.values[i].to_bits(), full.values[i].to_bits(),
                    "{:?}: σ[{}] diverged: {} vs {}", solver, i, top.values[i], full.values[i]
                );
            }
        }
    }

    /// `TopK(min(m, n))` is exactly `Thin`: same values, same `U`, same
    /// `Vᵀ`, bit for bit.
    #[test]
    fn topk_full_rank_equals_thin(n in 4usize..24, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
        let dev = Device::numeric(hw::h100());
        let thin = svdvals_with(&a, &dev, &SvdConfig {
            vectors: Want::Thin, ..SvdConfig::default()
        }).unwrap();
        let topn = svdvals_with(&a, &dev, &SvdConfig {
            vectors: Want::TopK(n), ..SvdConfig::default()
        }).unwrap();
        prop_assert_eq!(thin.values.len(), topn.values.len());
        for i in 0..n {
            prop_assert_eq!(thin.values[i].to_bits(), topn.values[i].to_bits());
        }
        let (tu, ku) = (thin.u.unwrap(), topn.u.unwrap());
        let (tv, kv) = (thin.vt.unwrap(), topn.vt.unwrap());
        prop_assert_eq!((tu.rows(), tu.cols()), (ku.rows(), ku.cols()));
        for j in 0..tu.cols() {
            for i in 0..tu.rows() {
                prop_assert_eq!(tu[(i, j)].to_bits(), ku[(i, j)].to_bits());
            }
        }
        for j in 0..tv.cols() {
            for i in 0..tv.rows() {
                prop_assert_eq!(tv[(i, j)].to_bits(), kv[(i, j)].to_bits());
            }
        }
    }

    /// Requesting vectors must not change the values: bit-identical to a
    /// values-only solve (the logging hooks add no arithmetic).
    #[test]
    fn vectors_do_not_perturb_values(n in 4usize..24, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
        let dev = Device::numeric(hw::h100());
        let plain = svdvals_with(&a, &dev, &SvdConfig::default()).unwrap();
        let with_v = svdvals_with(&a, &dev, &SvdConfig {
            vectors: Want::Thin, ..SvdConfig::default()
        }).unwrap();
        for i in 0..n {
            prop_assert_eq!(plain.values[i].to_bits(), with_v.values[i].to_bits());
        }
    }

    /// A `MemoryLedger` with an attached fault injector stays exactly
    /// balanced through arbitrary interleavings of reservations,
    /// releases, injected transient allocation failures, retries, and a
    /// mid-sequence device death: a refused reservation charges
    /// nothing, so releasing every accepted one must return the ledger
    /// to zero.
    #[test]
    fn ledger_balances_under_injected_faults(
        seed in any::<u64>(),
        fail_rate in 0.0f64..0.9,
        sizes in prop::collection::vec(1u64..4096, 1..80),
        death_at in 0u64..120,
    ) {
        use unisvd::{FaultInjector, FaultPlan, MemoryLedger};
        let mut plan = FaultPlan::seeded(seed).alloc_fail_rate(fail_rate);
        // Kill the device mid-sequence on some runs; past-the-end
        // values leave it alive the whole way.
        if death_at < 60 {
            plan = plan.death_after(death_at);
        }
        let ledger = MemoryLedger::new(1 << 20)
            .with_fault_injector(FaultInjector::new(plan, "proptest"));
        let mut held: Vec<u64> = Vec::new();
        let mut accepted = 0u64;
        for (i, &bytes) in sizes.iter().enumerate() {
            // First attempt, then one bounded retry on refusal — the
            // serving layer's recovery shape in miniature.
            let ok = ledger.try_reserve(bytes) || ledger.try_reserve(bytes);
            if ok {
                held.push(bytes);
                accepted += bytes;
            }
            prop_assert_eq!(ledger.used(), accepted, "drift after op {}", i);
            // Interleave releases so the books move both ways.
            if i % 3 == 2 {
                if let Some(b) = held.pop() {
                    ledger.release(b);
                    accepted -= b;
                }
            }
        }
        prop_assert_eq!(ledger.used(), accepted);
        for b in held.drain(..) {
            ledger.release(b);
        }
        prop_assert_eq!(ledger.used(), 0, "ledger must drain to zero");
    }

    /// A service on a chaotic device — transient alloc failures and
    /// upload corruption, with bounded retries — keeps its plan-cache
    /// ledger in balance at quiescence no matter the schedule.
    #[test]
    fn service_ledger_balances_under_chaos(
        seed in any::<u64>(),
        shapes in prop::collection::vec(8usize..24, 1..8),
    ) {
        use unisvd::{FaultPlan, Matrix, SvdService};
        let chaotic = hw::h100().with_faults(
            FaultPlan::seeded(seed)
                .corrupt_rate(0.10)
                .alloc_fail_rate(0.15),
        );
        let service = SvdService::builder(&chaotic).retry(2).build();
        let cfg = SvdConfig::default();
        for &n in &shapes {
            // Faulted solves may fail even after retries; accounting
            // must hold either way.
            let _ = service.solve(&Matrix::<f32>::identity(n), &cfg);
        }
        prop_assert!(service.ledger_in_balance(), "books drifted");
    }

    /// Every core numeric entry point returns bit-identical values on
    /// square, tall, wide and non-tile-multiple shapes, in f32 and f64.
    #[test]
    fn entry_points_agree_bitwise(m in 4usize..40, n in 4usize..40, seed in any::<u64>()) {
        entry_points_agree::<f32>(m, n, seed);
        entry_points_agree::<f64>(m, n, seed);
    }

    /// Matrix scaling: σ(cA) = |c|·σ(A).
    #[test]
    fn scaling_property(n in 4usize..24, c in 0.1f64..8.0, seed in any::<u64>()) {
        use rand::{rngs::StdRng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(seed);
        let a = unisvd::testmat::random_general::<f64, _>(n, n, &mut rng);
        let ca = Matrix::from_fn(n, n, |i, j| c * a[(i, j)]);
        let dev = Device::numeric(hw::h100());
        let s1 = svdvals(&a, &dev).unwrap();
        let s2 = svdvals(&ca, &dev).unwrap();
        for i in 0..n {
            prop_assert!((s2[i] - c * s1[i]).abs() < 1e-10 * (1.0 + c * s1[0]));
        }
    }
}
