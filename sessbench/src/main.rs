//! Command line of the session benchmark.
//!
//! ```text
//! sessbench --workload <mixed-pooled|light-partition|settle-later>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints the host diagnostics and every failed check on standard
//! error, and the result as the last line of standard output. Exits 1
//! when a check failed and 2 on a usage error.

use sessbench::{run, Config};
use std::process::ExitCode;

fn parse(args: &[String]) -> Result<Config, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}: {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    sessbench::workload::Workload::parse(value)
                        .ok_or_else(|| bad("unknown workload"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("not a u64"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("not a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("must be in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("must be 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Config::new(
        workload.ok_or("--workload is required")?,
        seed.ok_or("--seed is required")?,
        seconds.ok_or("--seconds is required")?,
        trace.unwrap_or(false),
    ))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cfg = match parse(&args) {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("sessbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&cfg);
    eprintln!("sessbench diagnostics: {}", outcome.diagnostics_json());
    eprintln!("sessbench timed (wall ms, cpu ms): {:?}", outcome.pass_ms);
    eprintln!("sessbench exact: {}", outcome.fingerprint);
    for p in &outcome.problems {
        eprintln!("sessbench CHECK FAILED: {p}");
    }
    println!("{}", outcome.to_json());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
