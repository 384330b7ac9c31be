//! Experiment implementations, one module per EXPERIMENTS.md entry.

pub mod e1_versioning;
pub mod e2_search;
pub mod e3_attribution;
pub mod e4_benchmarking;
pub mod e5_index;
pub mod e6_weightspace;
pub mod e7_doccards;
pub mod e8_audit;
pub mod e9_membership;
pub mod e10_query;
pub mod e11_textsearch;
pub mod f1_viewpoints;

use crate::table::Table;
use std::time::Duration;

/// Runs an experiment by id ("e1".."e11", "f1"), returning its tables.
/// `quick` shrinks workloads for tests/CI.
pub fn run(id: &str, quick: bool) -> Option<Vec<Table>> {
    match id {
        "e1" => Some(e1_versioning::run(quick)),
        "e2" => Some(e2_search::run(quick)),
        "e3" => Some(e3_attribution::run(quick)),
        "e4" => Some(e4_benchmarking::run(quick)),
        "e5" => Some(e5_index::run(quick)),
        "e6" => Some(e6_weightspace::run(quick)),
        "e7" => Some(e7_doccards::run(quick)),
        "e8" => Some(e8_audit::run(quick)),
        "e9" => Some(e9_membership::run(quick)),
        "e10" => Some(e10_query::run(quick)),
        "e11" => Some(e11_textsearch::run(quick)),
        "f1" => Some(f1_viewpoints::run(quick)),
        _ => None,
    }
}

/// All experiment ids in order.
pub const ALL: [&str; 12] = [
    "e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "e11", "f1",
];

/// Median of `reps` readings of `timed`, each of which times its own work
/// (so setup it does first stays off the clock).
pub(crate) fn median_time(reps: usize, mut timed: impl FnMut() -> Duration) -> Duration {
    let mut readings: Vec<Duration> = (0..reps.max(1)).map(|_| timed()).collect();
    readings.sort_unstable();
    readings[readings.len() / 2]
}

/// The experiment goldens under `tests/fixtures/`: the untimed render of
/// `experiments --quick all` (`experiments-quick.txt`) and of
/// `experiments all` (`experiments-full.txt`), one `# <id>` line per
/// experiment followed by that experiment's tables as printed, minus their
/// timing cells. Each experiment's unit test checks its own quick section;
/// one release-only test checks every full section.
#[cfg(test)]
pub(crate) mod golden {
    use super::ALL;
    use crate::table::Table;

    /// A golden: its file name and its text.
    type Golden = (&'static str, &'static str);

    const QUICK: Golden =
        ("experiments-quick.txt", include_str!("../../tests/fixtures/experiments-quick.txt"));
    const FULL: Golden =
        ("experiments-full.txt", include_str!("../../tests/fixtures/experiments-full.txt"));

    /// `id`'s section of `golden`, one entry per line.
    fn section(golden: &'static str, id: &str) -> Vec<&'static str> {
        let header = format!("# {id}");
        golden
            .lines()
            .skip_while(|l| *l != header)
            .skip(1)
            .take_while(|l| !l.starts_with("# "))
            .collect()
    }

    /// Panics unless `tables` — a run of experiment `id` — render, untimed,
    /// to its section of `golden`; the message names the first differing
    /// line and the table it sits in.
    fn assert_section((name, golden): Golden, id: &str, tables: &[Table]) {
        let got: String = tables
            .iter()
            .map(Table::render_untimed)
            .filter(|r| !r.is_empty())
            .map(|r| r + "\n")
            .collect();
        let got: Vec<&str> = got.lines().collect();
        let want = section(golden, id);
        if got == want {
            return;
        }
        let first = got
            .iter()
            .zip(&want)
            .position(|(g, w)| g != w)
            .unwrap_or(got.len().min(want.len()));
        let table = want[..(first + 1).min(want.len())]
            .iter()
            .rev()
            .find_map(|l| l.strip_prefix("== ")?.strip_suffix(" =="))
            .unwrap_or("(before the first table)");
        panic!(
            "experiment {id} diverged from tests/fixtures/{name} at line {} of its section, in \
             table '{table}':\n  got  {:?}\n  want {:?}\nsection as rendered:\n{}",
            first + 1,
            got.get(first),
            want.get(first),
            got.join("\n")
        );
    }

    /// [`assert_section`] against the quick-run golden.
    pub(crate) fn assert_quick(id: &str, tables: &[Table]) {
        assert_section(QUICK, id, tables);
    }

    #[test]
    fn one_section_per_experiment() {
        for (name, golden) in [QUICK, FULL] {
            let ids: Vec<&str> = golden.lines().filter_map(|l| l.strip_prefix("# ")).collect();
            assert_eq!(ids, ALL, "{name}");
        }
    }

    #[test]
    #[ignore = "full-size run (50 k-vector index builds); release only: \
                cargo test -p mlake-bench --lib --release -- --ignored full_run"]
    fn full_run_matches_golden() {
        for id in ALL {
            let tables = super::run(id, false).expect("every id in ALL runs");
            assert_section(FULL, id, &tables);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_time_takes_the_middle_reading() {
        let mut readings = [5u64, 1, 3].into_iter().map(Duration::from_millis);
        assert_eq!(median_time(3, || readings.next().unwrap()), Duration::from_millis(3));
    }
}
