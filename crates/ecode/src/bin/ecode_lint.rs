//! `ecode-lint` — run the static filter verifier from the command line.
//!
//! Reads an E-code filter (from a file or stdin), lints it, certifies
//! its worst-case cost, and prints the admission verdict a d-mon would
//! reach at deploy time.
//!
//! ```text
//! ecode-lint [--env NAME,NAME,...] [--budget N] [FILE|-]
//! ```
//!
//! With no `--env` the standard d-proc metric environment is assumed
//! (`LOADAVG,FREEMEM,DISKUSAGE,NET_AVAIL,CACHE_MISS`). Exit status: 0
//! when the filter would be admitted, 1 when the verifier rejects it,
//! 2 on compile errors or bad usage.

use std::io::Read;
use std::process::ExitCode;

use ecode::{lint_report, vm, EnvSpec};

const USAGE: &str = "usage: ecode-lint [--env NAME,NAME,...] [--budget N] [FILE|-]";

/// Metric names every d-mon exports by default (mirrors
/// `dproc::modules::standard_modules`).
const STANDARD_ENV: &str = "LOADAVG,FREEMEM,DISKUSAGE,NET_AVAIL,CACHE_MISS";

fn main() -> ExitCode {
    match run(std::env::args().skip(1).collect()) {
        Ok(admitted) => {
            if admitted {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(msg) => {
            eprintln!("ecode-lint: {msg}");
            ExitCode::from(2)
        }
    }
}

fn run(args: Vec<String>) -> Result<bool, String> {
    let mut env_names = STANDARD_ENV.to_string();
    let mut budget = vm::DEFAULT_BUDGET;
    let mut input: Option<String> = None;

    let mut it = args.into_iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--env" => {
                env_names = it
                    .next()
                    .ok_or_else(|| format!("--env needs a value\n{USAGE}"))?;
            }
            "--budget" => {
                let v = it
                    .next()
                    .ok_or_else(|| format!("--budget needs a value\n{USAGE}"))?;
                budget = v
                    .parse()
                    .map_err(|_| format!("bad budget {v:?}\n{USAGE}"))?;
            }
            "--help" | "-h" => return Err(USAGE.to_string()),
            _ if input.is_none() => input = Some(arg),
            _ => return Err(format!("unexpected argument {arg:?}\n{USAGE}")),
        }
    }

    let source = match input.as_deref() {
        None | Some("-") => {
            let mut buf = String::new();
            std::io::stdin()
                .read_to_string(&mut buf)
                .map_err(|e| format!("reading stdin: {e}"))?;
            buf
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?,
    };

    let env = EnvSpec::new(
        env_names
            .split(',')
            .map(str::trim)
            .filter(|s| !s.is_empty()),
    );
    let (report, admitted) =
        lint_report(&source, &env, budget).map_err(|e| format!("compile error: {e}"))?;
    println!("{report}");
    Ok(admitted)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn report(source: &str) -> (String, bool) {
        lint_report(source, &EnvSpec::new(["LOADAVG"]), vm::DEFAULT_BUDGET).unwrap()
    }

    #[test]
    fn report_for_admissible_filter() {
        let (r, admitted) = report("{ output[0] = input[LOADAVG]; }");
        assert!(admitted);
        assert!(r.contains("cost: at most"));
        assert!(r.contains("reads: LOADAVG"));
        assert!(r.contains("emits: yes"));
        assert!(r.contains("verdict: admitted"));
    }

    #[test]
    fn report_for_unbounded_filter() {
        let (r, admitted) = report("{ while (1) { } }");
        assert!(!admitted);
        assert!(r.contains("cost: unbounded"));
        assert!(r.contains("verdict: rejected"));
    }
}
