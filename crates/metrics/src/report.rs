//! Plain-text table rendering for examples, benches and EXPERIMENTS.md
//! regeneration.

/// Renders rows as an aligned monospace table with a header rule.
///
/// Columns are right-aligned when every body cell in them parses as a
/// number (typical for measurement columns), left-aligned otherwise.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let n_cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(n_cols) {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let numeric: Vec<bool> = (0..n_cols)
        .map(|i| {
            !rows.is_empty()
                && rows.iter().all(|r| {
                    r.get(i)
                        .map(|c| c.trim().parse::<f64>().is_ok() || c.trim().is_empty())
                        .unwrap_or(true)
                })
        })
        .collect();
    let mut out = String::new();
    let fmt_row = |cells: Vec<String>, widths: &[usize], numeric: &[bool]| -> String {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                line.push_str("  ");
            }
            if numeric[i] {
                line.push_str(&format!("{:>width$}", cell, width = widths[i]));
            } else {
                line.push_str(&format!("{:<width$}", cell, width = widths[i]));
            }
        }
        line.trim_end().to_string()
    };
    out.push_str(&fmt_row(
        headers.iter().map(|s| s.to_string()).collect(),
        &widths,
        &vec![false; n_cols],
    ));
    out.push('\n');
    out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (n_cols - 1)));
    out.push('\n');
    for row in rows {
        let mut cells = row.clone();
        cells.resize(n_cols, String::new());
        out.push_str(&fmt_row(cells, &widths, &numeric));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rows() -> Vec<Vec<String>> {
        vec![
            vec!["site0".into(), "100".into(), "25".into()],
            vec!["site1".into(), "4000".into(), "3".into()],
        ]
    }

    #[test]
    fn table_aligns_columns() {
        let t = render_table(&["site", "updates", "corr"], &rows());
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[0].starts_with("site"));
        assert!(lines[1].chars().all(|c| c == '-'));
        // Numeric columns right-aligned: "100" padded to width of "updates".
        assert!(lines[2].contains("    100"), "got: {:?}", lines[2]);
        assert!(lines[3].contains("   4000"), "got: {:?}", lines[3]);
        // Text column left-aligned.
        assert!(lines[2].starts_with("site0"));
    }

    #[test]
    fn table_handles_short_rows_and_empty() {
        let t = render_table(&["a", "b"], &[vec!["x".into()]]);
        assert!(t.contains('x'));
        let empty = render_table(&["a"], &[]);
        assert_eq!(empty.lines().count(), 2);
    }
}
