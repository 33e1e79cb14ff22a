//! Command-line arguments shared by `orbench` and `orbench-trace`.

use crate::traced::Reference;
use crate::workload::{Params, Workload};

/// The default seed (the library's own default campaign seed).
pub const DEFAULT_SEED: u64 = 0xD5A1_2019;

/// Parsed arguments of one invocation.
#[derive(Debug, Clone, PartialEq)]
pub struct Args {
    /// `--workload NAME`; `None` runs all four, one after another.
    pub workload: Option<Workload>,
    /// `--seed N` (decimal or `0x` hex).
    pub seed: u64,
    /// `--seconds N`: how long a timed run keeps starting children.
    pub seconds: f64,
    /// `--trace 0|1`: timed run, or traced run.
    pub trace: bool,
    /// `--smoke`: the shrunk sizes of the harness tests.
    pub smoke: bool,
    /// `--cold`: child mode of a timed run — the workload's operation
    /// once, reported on a `cold:` line.
    pub cold: bool,
    /// `--reference WALL,CPU,EVENTS,SPREAD` (traced binary only): the
    /// untraced reps `orbench` measured on the system allocator.
    pub reference: Option<Reference>,
}

impl Args {
    /// The flags that parse back to `self`: how one `orbench` process
    /// hands its invocation, or a variation of it, to a child.
    pub fn to_flags(&self) -> Vec<String> {
        let mut flags = Vec::new();
        let mut flag = |name: &str, value: String| flags.extend([name.to_owned(), value]);
        if let Some(workload) = self.workload {
            flag("--workload", workload.name().to_owned());
        }
        flag("--seed", self.seed.to_string());
        flag("--seconds", self.seconds.to_string());
        flag("--trace", u8::from(self.trace).to_string());
        if let Some(reference) = &self.reference {
            flag(
                "--reference",
                format!(
                    "{},{},{},{}",
                    reference.wall_s, reference.cpu_s, reference.events, reference.rep_spread
                ),
            );
        }
        if self.smoke {
            flags.push("--smoke".to_owned());
        }
        if self.cold {
            flags.push("--cold".to_owned());
        }
        flags
    }

    /// The sizes this invocation runs at.
    pub fn params(&self) -> Params {
        if self.smoke {
            Params::smoke()
        } else {
            Params::frozen()
        }
    }
}

fn parse_reference(text: &str) -> Option<Reference> {
    let mut parts = text.split(',');
    let reference = Reference {
        wall_s: parts.next()?.parse().ok()?,
        cpu_s: parts.next()?.parse().ok()?,
        events: parts.next()?.parse().ok()?,
        rep_spread: parts.next()?.parse().ok()?,
    };
    parts.next().is_none().then_some(reference)
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x").or_else(|| text.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

/// Parses `args` (without the program name).
///
/// # Errors
///
/// Returns a usage message naming the first unknown flag, missing value
/// or unparsable value.
pub fn parse(args: &[String]) -> Result<Args, String> {
    let mut parsed = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: 20.0,
        trace: false,
        smoke: false,
        cold: false,
        reference: None,
    };
    let mut iter = args.iter();
    while let Some(flag) = iter.next() {
        match flag.as_str() {
            "--smoke" => {
                parsed.smoke = true;
                continue;
            }
            "--cold" => {
                parsed.cold = true;
                continue;
            }
            _ => {}
        }
        let value = iter.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let invalid = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => {
                parsed.workload = Some(Workload::from_name(value).ok_or_else(|| {
                    let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
                    format!("unknown workload `{value}` (one of: {})", names.join(", "))
                })?);
            }
            "--seed" => parsed.seed = parse_seed(value).ok_or_else(invalid)?,
            "--seconds" => {
                parsed.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(invalid)?;
            }
            "--trace" => {
                parsed.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(invalid()),
                };
            }
            "--reference" => parsed.reference = Some(parse_reference(value).ok_or_else(invalid)?),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if parsed.cold && parsed.workload.is_none() {
        return Err("--cold needs --workload".to_owned());
    }
    Ok(parsed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(text: &str) -> Vec<String> {
        text.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let parsed = parse(&args(
            "--workload scan-sparse --seed 17 --seconds 20 --trace 1",
        ))
        .unwrap();
        assert_eq!(parsed.workload, Some(Workload::ScanSparse));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (17, 20.0, true)
        );
        assert!(!parsed.smoke);
        assert_eq!(parsed.params(), Params::frozen());
    }

    #[test]
    fn flags_round_trip() {
        let full = Args {
            workload: Some(Workload::ServeEpochs),
            seed: u64::MAX,
            seconds: 0.5,
            trace: true,
            smoke: true,
            cold: true,
            reference: Some(Reference {
                wall_s: 0.881853,
                cpu_s: 0.875,
                events: 733_655,
                rep_spread: 0.0625,
            }),
        };
        assert_eq!(parse(&full.to_flags()).unwrap(), full);
        let bare = parse(&[]).unwrap();
        assert_eq!(parse(&bare.to_flags()).unwrap(), bare);
    }

    #[test]
    fn defaults_and_hex_seed() {
        let parsed = parse(&[]).unwrap();
        assert_eq!(
            (parsed.workload, parsed.seed, parsed.trace),
            (None, DEFAULT_SEED, false)
        );
        assert_eq!(
            parse(&args("--seed 0xD5A12019")).unwrap().seed,
            DEFAULT_SEED
        );
        assert_eq!(parse(&args("--smoke")).unwrap().params(), Params::smoke());
    }

    #[test]
    fn mistakes_are_refused_loudly() {
        assert!(parse(&args("--workload scan"))
            .unwrap_err()
            .contains("scan-dense-2sh"));
        assert!(parse(&args("--trace 2")).unwrap_err().contains("--trace"));
        assert!(parse(&args("--seconds -1")).is_err());
        assert!(parse(&args("--seed"))
            .unwrap_err()
            .contains("needs a value"));
        assert!(parse(&args("--frobnicate 1"))
            .unwrap_err()
            .contains("unknown flag"));
        assert!(parse(&args("--cold")).unwrap_err().contains("--workload"));
        assert!(parse(&args("--reference 1,2,3")).is_err());
        assert!(parse(&args("--reference 1,2,3,4,5")).is_err());
    }
}
