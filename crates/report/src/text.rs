//! Aligned plain-text rendering (the stdout form of `pmt figure`).

use crate::figure::Figure;

/// Render `figure` as a header line, an aligned column table and the
/// footnotes.
pub(crate) fn render(figure: &Figure) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{} — {}\n",
        figure.meta.paper_ref, figure.meta.title
    ));
    let (columns, rows) = figure.data_columns();
    out.push_str(&aligned(&columns, &rows));
    for note in &figure.meta.notes {
        out.push_str(&format!("  {note}\n"));
    }
    out
}

/// Align a header + rows grid on column widths: first column
/// left-aligned (names), the rest right-aligned (numbers).
fn aligned(columns: &[String], rows: &[Vec<String>]) -> String {
    let ncols = columns.len();
    let mut widths: Vec<usize> = columns.iter().map(|c| c.chars().count()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate().take(ncols) {
            widths[i] = widths[i].max(cell.chars().count());
        }
    }
    let mut out = String::new();
    let mut push_row = |cells: &[String]| {
        let mut line = String::new();
        for (i, cell) in cells.iter().enumerate().take(ncols) {
            if i > 0 {
                line.push_str("  ");
            }
            let pad = widths[i].saturating_sub(cell.chars().count());
            if i == 0 {
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            } else {
                line.push_str(&" ".repeat(pad));
                line.push_str(cell);
            }
        }
        out.push_str(line.trim_end());
        out.push('\n');
    };
    push_row(columns);
    for row in rows {
        push_row(row);
    }
    out
}
