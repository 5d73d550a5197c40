//! detlint CLI.
//!
//! ```text
//! cargo run -p detlint -- --check            # CI gate: fail on any error
//! cargo run -p detlint --                    # report everything, exit 0
//! ```
//!
//! Option: `--root <dir>` (default: nearest ancestor with a `Cargo.toml`
//! containing `[workspace]`, else cwd).

// detlint is a terminal tool; printing is its job.
#![allow(clippy::print_stdout, clippy::print_stderr)]

use std::path::PathBuf;
use std::process::ExitCode;

use detlint::Severity;

struct Opts {
    check: bool,
    root: Option<PathBuf>,
}

fn parse_args() -> Result<Opts, String> {
    let mut opts = Opts {
        check: false,
        root: None,
    };
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--check" => opts.check = true,
            "--root" => {
                opts.root = Some(PathBuf::from(
                    args.next().ok_or("--root needs a directory")?,
                ));
            }
            "--help" | "-h" => {
                println!(
                    "detlint — replay-safety lint for shard-context code\n\n\
                     USAGE: detlint [--check] [--root <dir>]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    Ok(opts)
}

/// Nearest ancestor directory whose Cargo.toml declares `[workspace]`.
fn find_root() -> PathBuf {
    let mut dir = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    loop {
        let manifest = dir.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return dir;
            }
        }
        if !dir.pop() {
            return std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
        }
    }
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("detlint: {e}");
            return ExitCode::from(2);
        }
    };
    let root = opts.root.unwrap_or_else(find_root);
    let report = match detlint::run_scan(&root) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("detlint: scan failed: {e}");
            return ExitCode::from(2);
        }
    };

    for f in &report.fresh {
        println!("{}", f.render());
    }
    let warnings = report
        .fresh
        .iter()
        .filter(|f| f.severity == Severity::Warning)
        .count();
    let errors = report.fresh_errors();
    println!(
        "detlint: {} files, {} fns scanned; {errors} error(s), {warnings} warning(s)",
        report.files_scanned, report.fns_scanned
    );

    if opts.check && errors > 0 {
        eprintln!(
            "detlint: --check failed ({errors} error(s)); fix them or \
             `// detlint: allow(<rule>) <reason>` them"
        );
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
