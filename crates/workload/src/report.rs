//! Plain-text tables for the CLI and the `bench` binary.

use crate::experiment::ExperimentResult;

/// Renders a table with the given header and rows, column widths fitted
/// to content.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let columns = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(columns) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::new();
    let write_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate().take(columns) {
            if i > 0 {
                out.push_str("  ");
            }
            out.push_str(&format!("{cell:>width$}", width = widths[i]));
        }
        out.push('\n');
    };
    write_row(
        &mut out,
        &headers.iter().map(|s| s.to_string()).collect::<Vec<_>>(),
    );
    let total: usize = widths.iter().sum::<usize>() + 2 * (columns - 1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        write_row(&mut out, row);
    }
    out
}

/// A standard figure row: system, x-axis value, and the three panel
/// metrics.
pub fn figure_row(x_label: &str, result: &ExperimentResult) -> Vec<String> {
    vec![
        result.config.system.label().to_owned(),
        x_label.to_owned(),
        format!("{:.1}", result.throughput_tps),
        latency_cell(result.avg_latency_secs),
        result.successful.to_string(),
        result.failed.to_string(),
    ]
}

/// Formats an optional latency (seconds) as a table cell: three
/// decimals, or `n/a` for runs that committed nothing.
pub fn latency_cell(latency: Option<f64>) -> String {
    match latency {
        Some(secs) => format!("{secs:.3}"),
        None => "n/a".to_owned(),
    }
}

/// Header matching [`figure_row`].
pub fn figure_headers() -> [&'static str; 6] {
    [
        "system",
        "x",
        "throughput(tps)",
        "avg-latency(s)",
        "successful",
        "failed",
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_alignment() {
        let out = render_table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "100".into()],
            ],
        );
        let lines: Vec<&str> = out.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("name"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // All rows have equal rendered width.
        assert_eq!(lines[2].len(), lines[3].len());
    }

    #[test]
    fn empty_rows_ok() {
        let out = render_table(&["a"], &[]);
        assert!(out.contains('a'));
    }

    #[test]
    fn latency_cell_of_nothing_committed_is_na() {
        assert_eq!(latency_cell(None), "n/a");
    }

    #[test]
    fn figure_headers_match_row_len() {
        assert_eq!(figure_headers().len(), 6);
    }
}
