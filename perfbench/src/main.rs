//! Command line of the repository benchmark.
//!
//! ```text
//! mctop-perfbench --workload <infer|infer-mesh|serve|runtime> --seed <n>
//!                 --seconds <s> --trace <0|1>
//! mctop-perfbench --self-check <runs> [--workload <name>] [--seconds <s>] [--seed <first>]
//! ```
//!
//! A run prints one line per metric, then a JSON result line. The
//! self-check repeats each workload and prints each end-to-end metric's
//! run-to-run spread next to its bound.

use std::process::ExitCode;
use std::time::Duration;

use mctop_perfbench::{
    run_traced,
    run_untraced,
    selfcheck,
    Cfg,
    Size,
    Workload, //
};

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    self_check: Option<usize>,
}

fn parse() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        self_check: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} takes a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: `{value}` is not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload =
                    Some(Workload::from_name(&value).ok_or(format!("unknown workload `{value}`"))?);
            }
            "--seed" => args.seed = num()?,
            "--seconds" => args.seconds = num()?.max(1),
            "--trace" => args.trace = num()? != 0,
            "--self-check" => args.self_check = Some(num()?.max(2) as usize),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if let Some(runs) = args.self_check {
        return match selfcheck::run(args.workload, runs, args.seconds, args.seed) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(1)
            }
        };
    }
    let Some(workload) = args.workload else {
        eprintln!("perfbench: --workload is required");
        return ExitCode::from(2);
    };
    let cfg = Cfg {
        seed: args.seed,
        window: Duration::from_secs(args.seconds),
        size: Size::Full,
    };
    let result = if args.trace {
        run_traced(workload, &cfg)
    } else {
        run_untraced(workload, &cfg)
    };
    match result {
        Ok(report) => {
            print!("{}", report.text());
            println!("{}", report.json());
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::from(1)
        }
    }
}
