//! Minimal fixed-width table rendering for experiment output.

/// A printable results table.
///
/// Cells that are wall-clock readings are marked — whole columns, a title
/// suffix, or (for observability readouts) the whole table — so that
/// [`Table::render_untimed`] can leave them out: what remains is a
/// function of the seeds alone, which the quick-run golden pins.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Table {
    /// Table title (experiment id + description), without timings.
    pub title: String,
    /// The title as printed when it carries a timing (E3's LOO cost).
    timed_title: Option<String>,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells (each row must match `headers.len()`).
    pub rows: Vec<Vec<String>>,
    /// Per column: true when its cells are wall-clock readings.
    timing: Vec<bool>,
}

impl Table {
    /// Creates an empty table with headers.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Table {
        Table {
            title: title.into(),
            timed_title: None,
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
            timing: vec![false; headers.len()],
        }
    }

    /// Marks the named columns as timings; panics on a name that is not a
    /// header.
    pub fn timing(mut self, columns: &[&str]) -> Table {
        for name in columns {
            let col = self
                .headers
                .iter()
                .position(|h| h == name)
                .unwrap_or_else(|| panic!("no column {name:?} in '{}'", self.title));
            self.timing[col] = true;
        }
        self
    }

    /// Marks every column as a timing: the untimed render omits the table.
    pub fn all_timing(mut self) -> Table {
        self.timing.fill(true);
        self
    }

    /// Sets the title printed with timings; `title` stays the untimed one.
    pub fn timed_title(mut self, title: String) -> Table {
        self.timed_title = Some(title);
        self
    }

    /// Appends a row; panics in debug builds on arity mismatch.
    pub fn row(&mut self, cells: Vec<String>) {
        debug_assert_eq!(cells.len(), self.headers.len(), "row arity");
        self.rows.push(cells);
    }

    /// Renders the table with aligned columns.
    pub fn render(&self) -> String {
        let title = self.timed_title.as_deref().unwrap_or(&self.title);
        self.render_columns(title, |_| true)
    }

    /// Renders the table without its timing cells, column widths computed
    /// from what is left; empty when every column is a timing.
    pub fn render_untimed(&self) -> String {
        if self.timing.iter().all(|&t| t) {
            return String::new();
        }
        self.render_columns(&self.title, |col| !self.timing[col])
    }

    /// Prints to stdout.
    pub fn print(&self) {
        println!("{}", self.render());
    }

    fn render_columns(&self, title: &str, keep: impl Fn(usize) -> bool) -> String {
        let cols: Vec<usize> = (0..self.headers.len()).filter(|&col| keep(col)).collect();
        let mut widths: Vec<usize> = cols.iter().map(|&col| self.headers[col].len()).collect();
        for row in &self.rows {
            for (w, &col) in widths.iter_mut().zip(&cols) {
                *w = (*w).max(row[col].len());
            }
        }
        let fmt_row = |cells: &[String]| -> String {
            cols.iter()
                .zip(&widths)
                .map(|(&col, w)| format!("{:<w$}", cells[col]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        let mut out = format!("== {title} ==\n");
        out.push_str(&fmt_row(&self.headers));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row));
            out.push('\n');
        }
        out
    }
}

/// Formats a float with three decimals.
pub fn f3(x: f32) -> String {
    format!("{x:.3}")
}

/// Formats a duration in milliseconds with two decimals.
pub fn ms(d: std::time::Duration) -> String {
    format!("{:.2}ms", d.as_secs_f64() * 1e3)
}

/// Formats a nanosecond reading with an adaptive unit (ns/µs/ms/s).
pub fn ns(nanos: u64) -> String {
    let n = nanos as f64;
    if n < 1e3 {
        format!("{nanos}ns")
    } else if n < 1e6 {
        format!("{:.2}µs", n / 1e3)
    } else if n < 1e9 {
        format!("{:.2}ms", n / 1e6)
    } else {
        format!("{:.2}s", n / 1e9)
    }
}

/// Renders an observability [`mlake_obs::MetricsSnapshot`] as two tables:
/// latency histograms (count/mean/p50/p95/p99/max) and counters (gauges
/// fold in as `value (peak)` rows). Empty sections are omitted. Both are
/// timings as a whole: span latencies, steal counts and busy time vary run
/// to run, and neither table exists under `MLAKE_OBS=off`.
pub fn metrics_tables(title_prefix: &str, snap: &mlake_obs::MetricsSnapshot) -> Vec<Table> {
    let mut out = Vec::new();
    if !snap.histograms.is_empty() {
        let mut t = Table::new(
            format!("{title_prefix}: span latencies"),
            &["span", "count", "mean", "p50", "p95", "p99", "max"],
        )
        .all_timing();
        for h in &snap.histograms {
            t.row(vec![
                h.name.clone(),
                h.count.to_string(),
                ns(h.mean_ns),
                ns(h.p50_ns),
                ns(h.p95_ns),
                ns(h.p99_ns),
                ns(h.max_ns),
            ]);
        }
        out.push(t);
    }
    if !snap.counters.is_empty() || !snap.gauges.is_empty() {
        let mut t =
            Table::new(format!("{title_prefix}: counters"), &["metric", "value"]).all_timing();
        for (name, v) in &snap.counters {
            t.row(vec![name.clone(), v.to_string()]);
        }
        for (name, v, peak) in &snap.gauges {
            t.row(vec![name.clone(), format!("{v} (peak {peak})")]);
        }
        out.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_aligned() {
        let mut t = Table::new("T1: demo", &["method", "f1"]);
        t.row(vec!["ours".into(), "0.91".into()]);
        t.row(vec!["baseline-long-name".into(), "0.12".into()]);
        let r = t.render();
        assert!(r.contains("== T1: demo =="));
        assert!(r.contains("method"));
        assert!(r.lines().count() >= 5);
        // Columns aligned: both data lines have 'f1' column at same offset.
        let lines: Vec<&str> = r.lines().collect();
        let col = lines[1].find("f1").unwrap();
        assert!(lines[3].len() > col);
    }

    #[test]
    fn untimed_render_drops_timing_cells() {
        let mut t = Table::new("T2: demo", &["method", "cost", "f1"])
            .timing(&["cost"])
            .timed_title("T2: demo (total 1234.56ms)".into());
        t.row(vec!["ours".into(), "1234.56ms".into(), "0.91".into()]);
        assert!(t.render().starts_with("== T2: demo (total 1234.56ms) =="));
        assert_eq!(
            t.render_untimed(),
            "== T2: demo ==\nmethod  f1  \n------------\nours    0.91\n"
        );
        assert_eq!(t.clone().all_timing().render_untimed(), "");
    }

    #[test]
    fn helpers() {
        assert_eq!(f3(0.12345), "0.123");
        assert!(ms(std::time::Duration::from_millis(5)).starts_with("5.00"));
    }
}
