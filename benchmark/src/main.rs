//! The repo benchmark. It touches no program code: every layer is measured
//! from outside, by timing calls into its public functions and by reading
//! the `EngineStats` those functions return. See `benchmark/README.md`.

mod compare;
mod host;
mod json;
mod manifest;
mod probe;
mod round;
mod run;
mod serve;
mod sim;
mod stats;
mod stm;
mod trace;

use std::process::ExitCode;

const USAGE: &str = "tcp-benchmark — end-to-end and per-layer benchmark
  tcp-benchmark run [--seed N] [--seconds S] [--only W | --workload W]
                    [--trace 0|1] [--quick] [--out PATH]
      no --trace : timed rounds + traced pass + probes, as a table;
                   results to benchmark/out/results.json (or --out)
      --trace 0  : timed rounds of one workload; last line = result JSON
                   with the end-to-end metrics
      --trace 1  : per-layer pass of one workload; last line = result JSON
                   with the per-layer metrics
      --quick    : 1 round x 0.3 s, checks still on
  tcp-benchmark probe [--seed N] [--quick]
  tcp-benchmark compare A.json B.json
run from the repository root; exit code 1 = a check failed / a metric got worse";

fn parse_run(args: &[String]) -> Result<run::Options, String> {
    let manifest = manifest::Manifest::load();
    let mut opts = run::Options {
        seed: 42,
        seconds: manifest.run_seconds,
        only: None,
        trace: None,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{flag} needs a value"))
                .cloned()
        };
        match flag.as_str() {
            "--seed" => {
                opts.seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                opts.seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 60.0)
                    .ok_or("--seconds takes a number in (0, 60]")?;
            }
            "--only" | "--workload" => opts.only = Some(value()?),
            "--trace" => {
                opts.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            "--quick" => opts.quick = true,
            "--out" => opts.out = Some(value()?.into()),
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(opts)
}

fn dispatch(args: &[String]) -> Result<bool, String> {
    match args.first().map(String::as_str) {
        Some("run") => run::run(&parse_run(&args[1..])?),
        Some("probe") => {
            run::probe(&parse_run(&args[1..])?);
            Ok(true)
        }
        Some("compare") => match &args[1..] {
            [a, b] => compare::compare(a, b),
            _ => Err("compare takes two results files".into()),
        },
        Some("help" | "--help" | "-h") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => Err("expected a subcommand: run, probe or compare".into()),
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match dispatch(&args) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            ExitCode::from(2)
        }
    }
}
