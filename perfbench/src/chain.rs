//! A planned solve re-run as a chain of the library's public stage
//! functions, so each stage can be timed from outside the library.
//!
//! The chain mirrors `SvdPlan::execute_into` for a values-only,
//! `Bdsqr` plan: rescale, optional host QR of tall/wide inputs, stage the
//! padded operand, `Device::upload_into`, `band_diag` (stage 1),
//! `extract_band_into`, `band_to_bidiagonal_into` (stage 2) and
//! `bdsqr_into` (stage 3). Callers compare its values bit for bit with
//! the plan's.

use crate::trace::Tracer;
use unisvd::{
    band_to_bidiagonal_into, bdsqr_into, reference, BandMatrix, Bidiagonal, Device, GlobalBuffer,
    HyperParams, Matrix, Real, Scalar, Stage3Solver, Stage3Workspace, SvdPlan, Want,
};
use unisvd_core::{band_diag, extract_band_into};

pub struct Chain<T: Scalar> {
    dev: Device,
    buf: GlobalBuffer<T>,
    tau: GlobalBuffer<T>,
    staging: Vec<T>,
    band: BandMatrix<T::Accum>,
    bi: Bidiagonal<T::Accum>,
    s3: Stage3Workspace<T::Accum>,
    qr_tau: Vec<f64>,
    params: HyperParams,
    padded: usize,
    fused: bool,
    rescale: bool,
    /// Singular values of the last run, descending.
    pub values: Vec<f64>,
}

impl<T: Scalar> Chain<T> {
    /// A chain with the geometry and configuration of `plan`, on a fresh
    /// fault-free device of the same hardware.
    pub fn new(plan: &SvdPlan<T>) -> Self {
        let cfg = plan.config();
        assert!(
            cfg.solver == Stage3Solver::Bdsqr && cfg.vectors == Want::None,
            "the stage chain mirrors values-only bdsqr plans"
        );
        let mut hw = plan.device().hw().clone();
        hw.fault = None;
        let dev = Device::numeric(hw);
        let (params, padded) = (plan.params(), plan.padded_n());
        Chain {
            buf: dev.alloc(padded * padded),
            tau: dev.alloc(padded),
            dev,
            staging: vec![T::zero(); padded * padded],
            band: BandMatrix::zeros(padded, 1, params.tilesize + 1),
            bi: Bidiagonal::new(Vec::new(), Vec::new()),
            s3: Stage3Workspace::default(),
            qr_tau: Vec::new(),
            params,
            padded,
            fused: cfg.fused,
            rescale: cfg.rescale,
            values: Vec::new(),
        }
    }

    /// Runs the chain on `a`, one span per public call. Panics if stage
    /// 3 fails to converge (the benchmark's inputs always converge).
    pub fn run(&mut self, a: &Matrix<T>, t: &mut Tracer, req: u64) {
        let (rows, cols, p) = (a.rows(), a.cols(), self.padded);
        let m = a.max_abs();
        let scale = if self.rescale && m > 0.0 && !(0.25..=4.0).contains(&m) {
            m
        } else {
            1.0
        };
        if rows >= 2 * cols || cols >= 2 * rows {
            // Tall (or wide, on the transpose): σ(A) = σ(R) of a host QR.
            let tall = rows >= 2 * cols;
            let (qm, qn) = if tall { (rows, cols) } else { (cols, rows) };
            let mut qr = Matrix::<f64>::from_fn(qm, qn, |i, j| {
                let v = if tall { a[(i, j)] } else { a[(j, i)] };
                v.to_f64() / scale
            });
            let qr_tau = &mut self.qr_tau;
            t.span("reference::householder_qr_into", req, |_| {
                reference::householder_qr_into(&mut qr, qr_tau)
            });
            for j in 0..qn {
                for i in 0..=j {
                    self.staging[j * p + i] = T::from_f64(qr[(i, j)]);
                }
            }
        } else {
            for j in 0..cols {
                for i in 0..rows {
                    self.staging[j * p + i] = T::from_f64(a[(i, j)].to_f64() / scale);
                }
            }
        }
        let Chain {
            dev,
            buf,
            tau,
            staging,
            band,
            bi,
            s3,
            params,
            fused,
            ..
        } = self;
        dev.reset();
        t.span("Device::upload_into", req, |_| {
            dev.upload_into(staging, buf)
        });
        tau.fill(T::zero());
        t.span("band_diag", req, |_| {
            band_diag(dev, buf, tau, p, params, *fused)
        });
        t.span("extract_band_into", req, |_| {
            extract_band_into::<T>(dev, buf, p, params.tilesize, band)
        });
        t.span("band_to_bidiagonal_into", req, |_| {
            band_to_bidiagonal_into(dev, band, params.tilesize, T::KIND, params.tilesize, bi)
        });
        t.span("bdsqr_into", req, |_| bdsqr_into(bi, s3))
            .expect("benchmark inputs converge in stage 3");
        self.values.clear();
        self.values
            .extend(self.s3.values().iter().map(|x| x.to_f64() * scale));
        self.values.truncate(rows.min(cols));
    }
}
