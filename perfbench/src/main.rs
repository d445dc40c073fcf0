//! Command-line entry point of the repository benchmark:
//!
//! ```text
//! wnrs-perfbench --workload <whynot-mem|whynot-paged|serve-writes> --seed <n>
//!                --seconds <s> --trace <0|1> [--smoke] [--untraced-ops-s <x>]
//!                [--work-dir <dir>]
//! ```
//!
//! Prints progress on standard error, then on standard output a
//! `counts {...}` line of deterministic counts and, last, the result
//! line. `perfbench/run.py` builds this binary and runs it.

use std::path::PathBuf;
use std::process::ExitCode;

use wnrs_perfbench::{run, Config, Workload};

fn parse() -> Result<Config, String> {
    let mut cfg = Config {
        workload: Workload::WhynotMem,
        seed: 0,
        seconds: 10,
        trace: false,
        smoke: false,
        untraced_ops_s: None,
        work_dir: PathBuf::from(".bench_work"),
    };
    let mut workload = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        if flag == "--smoke" {
            cfg.smoke = true;
            continue;
        }
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or_else(|| bad("unknown workload"))?);
            }
            "--seed" => cfg.seed = value.parse().map_err(|_| bad("expected an integer"))?,
            "--seconds" => {
                cfg.seconds = value.parse().map_err(|_| bad("expected an integer"))?;
                if cfg.seconds == 0 {
                    return Err(bad("must be positive"));
                }
            }
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("expected 0 or 1")),
                }
            }
            "--untraced-ops-s" => {
                cfg.untraced_ops_s = Some(value.parse().map_err(|_| bad("expected a number"))?);
            }
            "--work-dir" => cfg.work_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    cfg.workload = workload.ok_or("--workload is required")?;
    Ok(cfg)
}

fn main() -> ExitCode {
    let cfg = match parse() {
        Ok(cfg) => cfg,
        Err(e) => {
            eprintln!("wnrs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    eprintln!(
        "wnrs-perfbench: {} seed {} seconds {} trace {}{}",
        cfg.workload.name(),
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.smoke { " (smoke)" } else { "" }
    );
    match run(&cfg) {
        Ok(out) => {
            println!("counts {}", out.counts_json());
            println!("{}", out.result_json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("wnrs-perfbench: {}: {e}", cfg.workload.name());
            ExitCode::FAILURE
        }
    }
}
