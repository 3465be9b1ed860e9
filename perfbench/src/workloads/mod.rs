//! The four workloads. Each builds its inputs from the seed before any
//! timing, sets up (timed, several times), then measures for the
//! requested seconds, checking every output.

mod fleet_faults;
mod lora_vectors;
mod plan_large;
mod serve_small;

pub use fleet_faults::fleet_faults;
pub use lora_vectors::lora_vectors;
pub use plan_large::plan_large;
pub use serve_small::serve_small;

use crate::check;
use crate::report::Run;
use unisvd::{PrecisionKind, SvdError, SvdOutput};

/// Whether set-up should run again after the repetitions timed in
/// `done`: at least 3 times, and up to 25 while they took under a
/// second in all. `setup_s` is their median, so a cheap set-up is
/// sampled often enough to be steady.
fn setup_again(done: &[f64]) -> bool {
    done.len() < 3 || (done.len() < 25 && done.iter().sum::<f64>() < 1.0)
}

/// How one operation ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Verdict {
    /// Values within tolerance (and every extra check passed).
    Ok,
    /// A typed fault, timeout or refusal the workload provokes on
    /// purpose (only `fleet_faults` injects faults).
    Typed,
    /// Wrong output, or an error the workload cannot provoke.
    Wrong,
}

/// Scores one result: checks its values against the known spectrum and
/// records the outcome. `extra_ok` carries the caller's further checks
/// (bit identity, vectors); `faults_expected` admits typed errors.
fn judge(
    run: &mut Run,
    res: Result<&SvdOutput, &SvdError>,
    truth: &[f64],
    kind: PrecisionKind,
    extra_ok: bool,
    faults_expected: bool,
) -> Verdict {
    let verdict =
        match res {
            Ok(out) => {
                let ratio = check::value_ratio(&out.values, truth, kind);
                run.accuracy(ratio);
                if ratio <= 1.0 && extra_ok {
                    run.sim(&out.summary);
                    Verdict::Ok
                } else {
                    Verdict::Wrong
                }
            }
            Err(
                SvdError::DeviceFault(_) | SvdError::Timeout { .. } | SvdError::Rejected { .. },
            ) if faults_expected => Verdict::Typed,
            Err(_) => Verdict::Wrong,
        };
    run.outcome(verdict == Verdict::Ok, verdict == Verdict::Wrong);
    verdict
}
