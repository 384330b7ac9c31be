//! The `mlake-lint` CLI.
//!
//! ```text
//! mlake-lint <root>...
//! ```
//!
//! Scans every `.rs` file under the given roots (relative to the current
//! directory), runs the five per-file passes plus the three whole-program
//! passes, and prints the findings (with their call chains), the lock-rank
//! table reconstructed from `// lock-order:` annotations, and one summary
//! line. Exit codes: 0 = no findings, 1 = findings, 2 = usage/IO error.

use mlake_lint::lint_tree;
use std::path::Path;
use std::process::ExitCode;

fn run() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Some(flag) = args.iter().find(|a| a.starts_with('-')) {
        return Err(format!("unknown flag: {flag}"));
    }
    if args.is_empty() {
        return Err("usage: mlake-lint <root>...".into());
    }
    let roots: Vec<&Path> = args.iter().map(Path::new).collect();
    let report = lint_tree(Path::new("."), &roots).map_err(|e| format!("scan failed: {e}"))?;

    for f in &report.findings {
        println!("{f}");
        for (i, hop) in f.chain.iter().enumerate() {
            println!("    {}{hop}", if i == 0 { "chain: " } else { "  → " });
        }
    }
    println!("rank  name                  acquisition sites");
    for (rank, (names, count)) in &report.ranks {
        let name = names.iter().cloned().collect::<Vec<_>>().join(", ");
        println!("{rank:>4}  {name:<20}  {count}");
    }
    println!("mlake-lint: {} findings", report.findings.len());
    Ok(report.findings.is_empty())
}

fn main() -> ExitCode {
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(msg) => {
            eprintln!("mlake-lint: {msg}");
            ExitCode::from(2)
        }
    }
}
