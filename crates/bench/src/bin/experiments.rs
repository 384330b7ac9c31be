//! Experiment driver: regenerates every table in EXPERIMENTS.md.
//!
//! ```text
//! cargo run -p mlake-bench --bin experiments --release -- all
//! cargo run -p mlake-bench --bin experiments --release -- e1 e5
//! cargo run -p mlake-bench --bin experiments --release -- --quick all
//! ```

use mlake_bench::exp;

/// The flags `experiments` understands.
const FLAGS: [&str; 1] = ["--quick"];

/// Splits the arguments into the `--quick` switch and the ids to run (every
/// id when none, or `all`, is named). A flag outside [`FLAGS`] is an error,
/// so a misspelt `--quick` cannot start the full-size run.
fn parse_args(args: &[String]) -> Result<(bool, Vec<&str>), String> {
    let (flags, requested): (Vec<&str>, Vec<&str>) =
        args.iter().map(String::as_str).partition(|a| a.starts_with("--"));
    let unknown: Vec<&str> = flags.iter().copied().filter(|f| !FLAGS.contains(f)).collect();
    if !unknown.is_empty() {
        return Err(format!(
            "unknown flag(s): {} (known: {})",
            unknown.join(", "),
            FLAGS.join(", ")
        ));
    }
    let ids = if requested.is_empty() || requested.contains(&"all") {
        exp::ALL.to_vec()
    } else {
        requested
    };
    Ok((flags.contains(&"--quick"), ids))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (quick, ids) = parse_args(&args).unwrap_or_else(|msg| {
        eprintln!("{msg}");
        std::process::exit(2);
    });
    let mut unknown = Vec::new();
    for id in ids {
        match exp::run(id, quick) {
            Some(tables) => {
                for table in tables {
                    table.print();
                }
            }
            None => unknown.push(id.to_string()),
        }
    }
    if !unknown.is_empty() {
        eprintln!(
            "unknown experiment id(s): {} (known: {})",
            unknown.join(", "),
            exp::ALL.join(", ")
        );
        std::process::exit(2);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<(bool, Vec<String>), String> {
        let args: Vec<String> = args.iter().map(|a| a.to_string()).collect();
        parse_args(&args).map(|(quick, ids)| (quick, ids.into_iter().map(String::from).collect()))
    }

    fn owned(ids: &[&str]) -> Vec<String> {
        ids.iter().map(|id| id.to_string()).collect()
    }

    #[test]
    fn ids_and_quick_flag() {
        assert_eq!(parse(&[]), Ok((false, owned(&exp::ALL))));
        assert_eq!(parse(&["--quick", "all"]), Ok((true, owned(&exp::ALL))));
        assert_eq!(parse(&["e8", "--quick"]), Ok((true, owned(&["e8"]))));
        assert_eq!(parse(&["e1", "e5"]), Ok((false, owned(&["e1", "e5"]))));
        // Unknown ids pass through; the run loop reports them.
        assert_eq!(parse(&["nosuch"]), Ok((false, owned(&["nosuch"]))));
    }

    #[test]
    fn unknown_flags_are_rejected() {
        let err = parse(&["--quik", "e8"]).unwrap_err();
        assert_eq!(err, "unknown flag(s): --quik (known: --quick)");
        let err = parse(&["--quick", "--fast", "--full", "all"]).unwrap_err();
        assert!(err.starts_with("unknown flag(s): --fast, --full "), "{err}");
    }
}
