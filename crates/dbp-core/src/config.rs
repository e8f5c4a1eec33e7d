//! A run's knobs beyond its algorithm and input: seeded bin crashes with a
//! retry policy ([`crate::failure`]) and a recourse budget
//! ([`crate::recourse`]), plus the one parser of their command-line flags.

use core::fmt;

use crate::failure::{FailurePlan, RetryPolicy};
use crate::recourse::{RecourseBudget, RecourseParseError};
use crate::time::Dur;

/// What a run does besides placing items. The default (no crashes,
/// immediate retry, no recourse) is the paper's model, bit-identical to a
/// build without either layer.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimConfig {
    /// When bins crash.
    pub failures: FailurePlan,
    /// How long a displaced item waits before it is re-admitted.
    pub retry: RetryPolicy,
    /// How many voluntary migrations the algorithm may make.
    pub recourse: RecourseBudget,
}

/// The command-line flags [`SimConfig::from_flags`] parses.
pub const SIM_FLAGS: [&str; 4] = ["--fail-rate", "--fail-seed", "--retry", "--recourse"];

impl SimConfig {
    /// Crashes per `failures`, re-admission under `retry`, no recourse.
    pub fn crashing(failures: FailurePlan, retry: RetryPolicy) -> SimConfig {
        SimConfig {
            failures,
            retry,
            ..SimConfig::default()
        }
    }

    /// No crashes; the algorithm may migrate items within `recourse`.
    pub fn repacking(recourse: RecourseBudget) -> SimConfig {
        SimConfig {
            recourse,
            ..SimConfig::default()
        }
    }

    /// Parses [`SIM_FLAGS`] from `(flag, value)` pairs in command-line order
    /// (`None`: the flag ended the line without its value; a later flag
    /// wins). A `--fail-rate` above 0 seeds crashes from `--fail-seed`
    /// (default `seed`), with doom delays bounded by `mtbf`. Every value is
    /// checked before [`FailurePlan::seeded`] runs, so none reaches its
    /// asserts.
    pub fn from_flags<'a>(
        flags: impl IntoIterator<Item = (&'a str, Option<&'a str>)>,
        seed: u64,
        mtbf: Dur,
    ) -> Result<SimConfig, SimFlagError> {
        if mtbf.is_zero() {
            return Err(SimFlagError::ZeroMtbf);
        }
        let (mut rate, mut seed, mut cfg) = (0.0, seed, SimConfig::default());
        for (flag, value) in flags {
            let raw = match value {
                _ if !SIM_FLAGS.contains(&flag) => return Err(SimFlagError::Unknown(flag.into())),
                None => return Err(SimFlagError::Missing(flag.into())),
                Some(raw) => raw,
            };
            let bad = || SimFlagError::Bad(flag.into(), raw.into());
            match flag {
                "--fail-rate" => {
                    let r = raw.parse().ok().filter(|r| (0.0..=1.0).contains(r));
                    rate = r.ok_or_else(bad)?;
                }
                "--fail-seed" => seed = raw.parse().map_err(|_| bad())?,
                "--retry" => cfg.retry = RetryPolicy::parse(raw).ok_or_else(bad)?,
                _ => {
                    let budget = RecourseBudget::parse(raw);
                    cfg.recourse = budget.map_err(|e| SimFlagError::Recourse(raw.into(), e))?;
                }
            }
        }
        // A zero rate is the empty plan by construction.
        cfg.failures = FailurePlan::seeded(rate, seed, mtbf);
        Ok(cfg)
    }
}

/// Why [`SimConfig::from_flags`] rejected its input. `Display` gives the
/// message the command-line tools print before exiting with status 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimFlagError {
    /// The flag ended the command line without its value.
    Missing(String),
    /// The flag's value does not parse, or is a `--fail-rate` outside
    /// `[0, 1]` (NaN included): `(flag, value)`.
    Bad(String, String),
    /// The `--recourse` value is not a budget: `(value, why)`.
    Recourse(String, RecourseParseError),
    /// The crash-delay bound is zero ticks.
    ZeroMtbf,
    /// The flag is not one of [`SIM_FLAGS`].
    Unknown(String),
}

impl fmt::Display for SimFlagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        const RETRY: &str = "immediate|fixed=<ticks>|exp=<ticks>";
        const RECOURSE: &str = "none|epoch=<k>|amortized=<earn>[/<burst>]|unlimited";
        const RATE: &str = "a probability in [0, 1]";
        match self {
            SimFlagError::Missing(flag) => match flag.as_str() {
                "--fail-rate" => write!(f, "{flag} requires {RATE}"),
                "--fail-seed" => write!(f, "{flag} requires an integer"),
                "--retry" => write!(f, "{flag} requires {RETRY}"),
                _ => write!(f, "{flag} requires {RECOURSE}"),
            },
            SimFlagError::Bad(flag, v) => match flag.as_str() {
                "--fail-rate" => write!(f, "bad fail rate '{v}' (expected {RATE})"),
                "--fail-seed" => write!(f, "bad fail seed '{v}' (expected u64)"),
                _ => write!(f, "bad retry policy '{v}' ({RETRY})"),
            },
            SimFlagError::Recourse(v, e) => {
                write!(f, "bad recourse budget '{v}': {e} ({RECOURSE})")
            }
            SimFlagError::ZeroMtbf => f.write_str("bad fail mtbf '0' (expected ticks ≥ 1)"),
            SimFlagError::Unknown(flag) => write!(f, "unknown flag `{flag}`"),
        }
    }
}

impl std::error::Error for SimFlagError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(flags: &[(&str, Option<&str>)]) -> Result<SimConfig, SimFlagError> {
        SimConfig::from_flags(flags.iter().copied(), 4242, Dur(100))
    }

    #[test]
    fn every_flag_lands_in_its_field() {
        let cfg = parse(&[
            ("--fail-seed", Some("9")),
            ("--fail-rate", Some("0.25")),
            ("--retry", Some("exp=2")),
            ("--recourse", Some("epoch=3")),
        ])
        .unwrap();
        assert_eq!(cfg.failures, FailurePlan::seeded(0.25, 9, Dur(100)));
        assert_eq!(cfg.retry, RetryPolicy::Exponential { base: Dur(2) });
        assert_eq!(cfg.recourse, RecourseBudget::per_epoch(3));
        // The default seed applies when no --fail-seed is given.
        let cfg = parse(&[("--fail-rate", Some("1"))]).unwrap();
        assert_eq!(cfg.failures, FailurePlan::seeded(1.0, 4242, Dur(100)));
    }

    #[test]
    fn rejected_values_name_the_flag() {
        let cases = [
            ("--fail-rate", Some("1.5"), "bad fail rate '1.5'"),
            ("--fail-rate", Some("inf"), "bad fail rate 'inf'"),
            ("--fail-seed", Some("-1"), "bad fail seed '-1'"),
            ("--retry", Some("never"), "bad retry policy 'never'"),
            ("--recourse", Some("lots"), "bad recourse budget 'lots'"),
            ("--retry", None, "--retry requires immediate"),
            ("--threads", Some("2"), "unknown flag `--threads`"),
        ];
        for (flag, value, msg) in cases {
            let err = parse(&[(flag, value)]).unwrap_err().to_string();
            assert!(err.starts_with(msg), "{flag} {value:?}: {err}");
        }
        let zero = SimConfig::from_flags([], 0, Dur::ZERO).unwrap_err();
        assert_eq!(zero, SimFlagError::ZeroMtbf);
        let err = parse(&[("--fail-rate", Some("nan"))]).unwrap_err();
        assert_eq!(err, SimFlagError::Bad("--fail-rate".into(), "nan".into()));
    }
}
