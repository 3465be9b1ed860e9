//! Metric assembly and the result line.

use crate::stats::{mean, median, peak_rss_bytes, quantile};
use crate::trace::{cost_per_span, Tracer};
use std::collections::BTreeMap;
use unisvd::KernelClass;

/// Every end-to-end metric: name and unit, in print order.
pub const END_TO_END: [(&str, &str); 10] = [
    ("setup_s", "s"),
    ("solve_p50_s", "s"),
    ("throughput_ops_per_s", "1/s"),
    ("sim_device_s_per_solve", "s"),
    ("latency_p50_s", "s"),
    ("latency_p90_s", "s"),
    ("success_ratio", "ratio"),
    ("accuracy_ratio_max", "ratio"),
    ("device_bytes", "bytes"),
    ("peak_rss_bytes", "bytes"),
];

/// Every per-layer metric: name and unit. A layer a workload does not
/// reach reads 0 there.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("core.band2bi.host_s", "s"),
    ("core.band_diag.host_s", "s"),
    ("core.extract_band.host_s", "s"),
    ("core.stage3.host_s", "s"),
    ("core.vectors.host_s", "s"),
    ("core.host_qr.host_s", "s"),
    ("core.verify.host_s", "s"),
    ("core.plan.build_s", "s"),
    ("gpu.upload.host_s", "s"),
    ("gpu.sim.stage1_s", "s"),
    ("gpu.sim.stage2_s", "s"),
    ("gpu.sim.stage3_s", "s"),
    ("gpu.sim.transfer_s", "s"),
    ("gpu.sim.other_s", "s"),
    ("gpu.launches", "count"),
    ("gpu.flops", "flop"),
    ("gpu.bytes", "bytes"),
    ("service.open_loop.latency_p50_s", "s"),
    ("service.open_loop.latency_p90_s", "s"),
    ("service.submit.host_p50_s", "s"),
    ("service.submit.host_p90_s", "s"),
    ("service.queue.in_flight_p90", "count"),
    ("service.queue.batches", "count"),
    ("service.queue.coalesce_ratio", "ratio"),
    ("service.queue.rejected", "count"),
    ("service.queue.shed", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.cache.misses", "count"),
    ("service.cache.evictions", "count"),
    ("service.solve.host_p50_s", "s"),
    ("service.solve_batch.host_p50_s", "s"),
    ("service.solve.error_rate", "ratio"),
    ("service.solve_batch.error_rate", "ratio"),
    ("service.submit.error_rate", "ratio"),
    ("fleet.served_share.dev0", "ratio"),
    ("fleet.served_share.dev1", "ratio"),
    ("fleet.breaker_trips", "count"),
    ("fleet.errors.device_fault", "count"),
    ("fleet.errors.timeout", "count"),
    ("bench.generator_lag_max_s", "s"),
    ("bench.trace_overhead", "ratio"),
];

/// What one workload run measured.
#[derive(Default)]
pub struct Run {
    /// Seconds of each set-up repetition (plans, services, fleets and
    /// warm-up; never input generation).
    pub setup: Vec<f64>,
    /// Host seconds per operation of each round (a round's wall over its
    /// operation count).
    pub round_per_op: Vec<f64>,
    /// Seconds from each request's scheduled arrival to its result.
    pub latency: Vec<f64>,
    /// Operations attempted, succeeded with checked output, and failed a
    /// check (wrong values or an untyped error).
    pub attempted: u64,
    pub ok: u64,
    pub failed: u64,
    /// Checked completions and the wall they took, for throughput.
    pub tput_ops: u64,
    pub tput_wall: f64,
    /// Simulated device seconds summed over successful solves.
    pub sim_s: f64,
    pub sim_n: u64,
    /// Cost-model totals over the same solves: stage 1, stage 2,
    /// stage 3, transfer and other seconds, then launches, flops, bytes.
    pub sim_parts: [f64; 8],
    /// Worst value error over tolerance.
    pub acc_max: f64,
    /// Simulated device bytes held at the end of the run.
    pub device_bytes: f64,
    /// Per-layer values set by the workload (traced runs only).
    pub layers: BTreeMap<&'static str, f64>,
}

impl Run {
    /// Records one checked operation result.
    pub fn outcome(&mut self, ok: bool, check_failed: bool) {
        self.attempted += 1;
        self.ok += u64::from(ok);
        self.failed += u64::from(check_failed);
    }

    /// Adds the simulated cost of one successful solve.
    pub fn sim(&mut self, summary: &unisvd::TraceSummary) {
        self.sim_s += summary.total_seconds();
        self.sim_n += 1;
        for (class, t) in &summary.by_class {
            let slot = match class {
                KernelClass::PanelFactorization | KernelClass::TrailingUpdate => 0,
                KernelClass::BandToBidiagonal => 1,
                KernelClass::BidiagonalSvd => 2,
                KernelClass::Transfer => 3,
                KernelClass::Other => 4,
            };
            self.sim_parts[slot] += t.seconds;
            self.sim_parts[5] += t.launches as f64;
            self.sim_parts[6] += t.flops;
            self.sim_parts[7] += t.bytes;
        }
    }

    /// Per-solve means of the cost-model totals, as `gpu.*` layers.
    pub fn sim_layers(&mut self) {
        const NAMES: [&str; 8] = [
            "gpu.sim.stage1_s",
            "gpu.sim.stage2_s",
            "gpu.sim.stage3_s",
            "gpu.sim.transfer_s",
            "gpu.sim.other_s",
            "gpu.launches",
            "gpu.flops",
            "gpu.bytes",
        ];
        let n = self.sim_n.max(1) as f64;
        for (name, total) in NAMES.iter().zip(self.sim_parts) {
            self.layer(name, total / n);
        }
    }

    /// Per-layer host times from the spans of a traced run: the mean
    /// duration of each public call, and the tracing overhead.
    pub fn span_layers(&mut self, t: &Tracer) {
        const CALLS: [(&str, &str); 8] = [
            ("core.band_diag.host_s", "band_diag"),
            ("core.extract_band.host_s", "extract_band_into"),
            ("core.band2bi.host_s", "band_to_bidiagonal_into"),
            ("core.stage3.host_s", "bdsqr_into"),
            ("core.host_qr.host_s", "reference::householder_qr_into"),
            ("core.verify.host_s", "SvdOutput::verify"),
            ("core.plan.build_s", "Svd::plan"),
            ("gpu.upload.host_s", "Device::upload_into"),
        ];
        for (metric, call) in CALLS {
            self.layer(metric, mean(&t.durations(call)));
        }
        let spans = t.spans();
        let first = spans.iter().map(|s| s.start).fold(f64::INFINITY, f64::min);
        let last = spans.iter().map(|s| s.end).fold(0.0, f64::max);
        let overhead = spans.len() as f64 * cost_per_span() / (last - first).max(1e-9);
        self.layer("bench.trace_overhead", overhead);
    }

    pub fn accuracy(&mut self, ratio: f64) {
        self.acc_max = self.acc_max.max(ratio);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.layers.insert(name, value);
    }

    fn end_to_end(&self) -> BTreeMap<&'static str, f64> {
        let per = |n: u64| n.max(1) as f64;
        BTreeMap::from([
            ("setup_s", median(&self.setup)),
            ("solve_p50_s", median(&self.round_per_op)),
            (
                "throughput_ops_per_s",
                self.tput_ops as f64 / self.tput_wall.max(1e-9),
            ),
            ("sim_device_s_per_solve", self.sim_s / per(self.sim_n)),
            ("latency_p50_s", quantile(&self.latency, 0.5)),
            ("latency_p90_s", quantile(&self.latency, 0.9)),
            ("success_ratio", self.ok as f64 / per(self.attempted)),
            ("accuracy_ratio_max", self.acc_max),
            ("device_bytes", self.device_bytes),
            ("peak_rss_bytes", peak_rss_bytes()),
        ])
    }

    /// The result line: end-to-end metrics untraced, per-layer traced.
    pub fn result_json(&self, traced: bool) -> String {
        let (values, names): (BTreeMap<&str, f64>, &[(&str, &str)]) = if traced {
            (self.layers.clone(), &PER_LAYER)
        } else {
            (self.end_to_end(), &END_TO_END)
        };
        let metrics: Vec<String> = names
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                let v = if v.is_finite() { v } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}
