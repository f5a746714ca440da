//! Argument parsing for the `tcp` CLI driver (no external parser crates —
//! flags are simple `--key value` pairs, and each command names the keys
//! it accepts through [`Flags::only`]).

use std::collections::BTreeMap;
use std::sync::Arc;

use tcp_core::conflict::ResolutionMode;
use tcp_core::policy::{DetRa, DetRw, GracePolicy, HandTuned, NoDelay};
use tcp_core::randomized::{Hybrid, RandRa, RandRaMean, RandRw, RandRwMean, RandRwUniform};
use tcp_workloads::programs::{
    BimodalWorkload, ListWorkload, QueueWorkload, SkewedTxAppWorkload, StackWorkload,
    TxAppWorkload, WorkloadGen,
};

/// Parsed `--key value` flags (keys stored without the `--`; `None` for a
/// bare `--key`).
#[derive(Debug, Default, Clone)]
pub struct Flags {
    map: BTreeMap<String, Option<String>>,
}

impl Flags {
    /// Parse a flat argument list. Flags look like `--key value`; a flag
    /// followed by another flag (or nothing) gets the value `"true"`.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut i = 0;
        while i < args.len() {
            let a = &args[i];
            let Some(key) = a.strip_prefix("--") else {
                return Err(format!("unexpected positional argument: {a}"));
            };
            if key.is_empty() {
                return Err("empty flag name".into());
            }
            let value = match args.get(i + 1) {
                Some(v) if !v.starts_with("--") => {
                    i += 1;
                    Some(v.clone())
                }
                _ => None,
            };
            map.insert(key.to_string(), value);
            i += 1;
        }
        Ok(Self { map })
    }

    /// `self`, or an error naming the first flag not in `known`: a
    /// misspelt flag must stop the command, not run it on its defaults.
    /// A `known` entry `"key <what>"` takes a free-form value, so a bare
    /// `--key` is an error too instead of the value `"true"`.
    pub fn only(self, known: &[&str]) -> Result<Self, String> {
        // "trace <path>" → ("trace", "<path>"); "quick" → ("quick", "").
        let specs: Vec<(&str, &str)> = known
            .iter()
            .map(|s| s.split_once(' ').unwrap_or((s, "")))
            .collect();
        let names: Vec<&str> = specs.iter().map(|&(k, _)| k).collect();
        if let Some(k) = self.map.keys().find(|k| !names.contains(&k.as_str())) {
            return Err(if names.is_empty() {
                format!("unknown flag --{k} (takes no flags)")
            } else {
                format!("unknown flag --{k}; one of: --{}", names.join(", --"))
            });
        }
        match specs
            .iter()
            .find(|&&(k, what)| !what.is_empty() && self.map.get(k) == Some(&None))
        {
            Some((k, what)) => Err(format!("--{k}: missing {what}")),
            None => Ok(self),
        }
    }

    /// `--key`'s value; a bare `--key` reads as `"true"`.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.map.get(key).map(|v| v.as_deref().unwrap_or("true"))
    }

    /// `--key`'s value through `parse`, `None` when the flag is absent.
    /// The one place flag values are converted: an error comes back
    /// prefixed with the flag, so whatever `parse` objects to, the message
    /// names where the value came from.
    pub fn parsed<T>(
        &self,
        key: &str,
        parse: impl FnOnce(&str) -> Result<T, String>,
    ) -> Result<Option<T>, String> {
        self.get(key)
            .map(|v| parse(v).map_err(|e| format!("--{key}: {e}")))
            .transpose()
    }

    pub fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.parsed(key, number)?.unwrap_or(default))
    }

    pub fn flag(&self, key: &str) -> bool {
        matches!(self.get(key), Some("true") | Some("1") | Some("yes"))
    }
}

/// Parse one number; the error quotes the offending text.
pub fn number<T: std::str::FromStr>(v: &str) -> Result<T, String> {
    v.parse().map_err(|_| format!("cannot parse '{v}'"))
}

/// Known policy names, for `tcp list` and error messages.
pub const POLICY_NAMES: &[&str] = &[
    "no-delay",
    "no-delay-ra",
    "tuned",
    "det",
    "det-ra",
    "rand-rw",
    "rand-rw-uniform",
    "rand-ra",
    "rand-rw-mean",
    "rand-ra-mean",
    "hybrid",
];

/// `x`, or an error naming `--flag` unless it is finite and `ok`: a
/// value the constructor it feeds would assert on.
fn finite(flag: &str, x: f64, want: &str, ok: bool) -> Result<f64, String> {
    if x.is_finite() && ok {
        Ok(x)
    } else {
        Err(format!("--{flag}: must be finite and {want}, got {x}"))
    }
}

/// Build a policy from its CLI name. `mu` (`--mu`) feeds the mean-aware
/// variants; `delay` (`--delay`) feeds `tuned`.
pub fn make_policy(name: &str, mu: f64, delay: f64) -> Result<Arc<dyn GracePolicy>, String> {
    let mean = || finite("mu", mu, "> 0", mu > 0.0);
    Ok(match name {
        "no-delay" => Arc::new(NoDelay::requestor_wins()),
        "no-delay-ra" => Arc::new(NoDelay::requestor_aborts()),
        "tuned" => {
            let delay = finite("delay", delay, ">= 0", delay >= 0.0)?;
            Arc::new(HandTuned::new(ResolutionMode::RequestorWins, delay))
        }
        "det" => Arc::new(DetRw),
        "det-ra" => Arc::new(DetRa),
        "rand-rw" => Arc::new(RandRw),
        "rand-rw-uniform" => Arc::new(RandRwUniform),
        "rand-ra" => Arc::new(RandRa),
        "rand-rw-mean" => Arc::new(RandRwMean::new(mean()?)),
        "rand-ra-mean" => Arc::new(RandRaMean::new(mean()?)),
        "hybrid" => Arc::new(Hybrid::new(Some(mean()?))),
        other => {
            return Err(format!(
                "unknown policy '{other}'; one of: {}",
                POLICY_NAMES.join(", ")
            ))
        }
    })
}

/// Known workload names.
pub const WORKLOAD_NAMES: &[&str] = &["stack", "queue", "txapp", "bimodal", "list", "txapp-skewed"];

/// Build a simulator workload from its CLI name. `skew` (`--skew`) feeds
/// `txapp-skewed`.
pub fn make_workload(name: &str, skew: f64) -> Result<Arc<dyn WorkloadGen>, String> {
    Ok(match name {
        "stack" => Arc::new(StackWorkload::default()),
        "queue" => Arc::new(QueueWorkload::default()),
        "txapp" => Arc::new(TxAppWorkload::default()),
        "bimodal" => Arc::new(BimodalWorkload::default()),
        "list" => Arc::new(ListWorkload::default()),
        "txapp-skewed" => {
            let theta = finite("skew", skew, ">= 0", skew >= 0.0)?;
            Arc::new(SkewedTxAppWorkload::new(64, theta))
        }
        other => {
            return Err(format!(
                "unknown workload '{other}'; one of: {}",
                WORKLOAD_NAMES.join(", ")
            ))
        }
    })
}

/// Parse a resolution mode.
pub fn make_mode(name: &str) -> Result<ResolutionMode, String> {
    match name {
        "rw" | "requestor-wins" => Ok(ResolutionMode::RequestorWins),
        "ra" | "requestor-aborts" => Ok(ResolutionMode::RequestorAborts),
        other => Err(format!("unknown mode '{other}' (rw | ra)")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parse_key_values_and_bare_flags() {
        let f = Flags::parse(&args("--threads 8 --chain-aware --seed 42")).unwrap();
        assert_eq!(f.num::<usize>("threads", 1).unwrap(), 8);
        assert!(f.flag("chain-aware"));
        assert_eq!(f.num::<u64>("seed", 0).unwrap(), 42);
        assert_eq!(f.num::<u64>("horizon", 777).unwrap(), 777); // default
        assert!(!f.flag("quick"));
        // A "key <what>" entry of `only` takes a value and refuses a bare
        // flag, which would otherwise read as "true".
        let known = ["quick", "trace <path>"];
        let f = Flags::parse(&args("--quick --trace t.json")).unwrap();
        assert_eq!(f.only(&known).unwrap().get("trace"), Some("t.json"));
        let bare = Flags::parse(&args("--trace --quick")).unwrap();
        assert_eq!(bare.only(&known).unwrap_err(), "--trace: missing <path>");
    }

    #[test]
    fn parse_rejects_positionals_and_bad_numbers() {
        assert!(Flags::parse(&args("stack --threads 8")).is_err());
        let f = Flags::parse(&args("--threads eight")).unwrap();
        assert!(f.num::<usize>("threads", 1).is_err());
    }

    #[test]
    fn parse_errors_name_the_flag_and_quote_the_value() {
        let f = Flags::parse(&args("--theta 0.6,x --slo-us abc --policy nope")).unwrap();
        let list = |l: &str| {
            l.split(',')
                .map(number::<f64>)
                .collect::<Result<Vec<_>, _>>()
        };
        assert_eq!(
            f.parsed("theta", list).unwrap_err(),
            "--theta: cannot parse 'x'"
        );
        assert_eq!(
            f.num::<u64>("slo-us", 200).unwrap_err(),
            "--slo-us: cannot parse 'abc'"
        );
        let err = f
            .parsed("policy", |n| make_policy(n, 2_000.0, 100.0))
            .err()
            .expect("unknown policy");
        assert!(
            err.starts_with("--policy: unknown policy 'nope'; one of: "),
            "{err}"
        );
        for name in POLICY_NAMES {
            assert!(err.contains(name), "{err} must list {name}");
        }
        assert_eq!(f.parsed("steal", number::<u64>), Ok(None));
    }

    #[test]
    fn all_policy_names_construct() {
        for name in POLICY_NAMES {
            let p = make_policy(name, 500.0, 100.0).unwrap();
            assert!(!p.name().is_empty());
        }
        assert!(make_policy("bogus", 1.0, 1.0).is_err());
    }

    #[test]
    fn all_workload_names_construct() {
        for name in WORKLOAD_NAMES {
            let w = make_workload(name, 0.9).unwrap();
            assert!(!w.name().is_empty());
        }
        assert!(make_workload("bogus", 0.0).is_err());
    }

    #[test]
    fn modes_parse() {
        assert_eq!(make_mode("rw").unwrap(), ResolutionMode::RequestorWins);
        assert_eq!(
            make_mode("requestor-aborts").unwrap(),
            ResolutionMode::RequestorAborts
        );
        assert!(make_mode("xx").is_err());
    }
}
