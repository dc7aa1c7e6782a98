//! Markdown rendering: one section per figure.

use crate::figure::Figure;

/// Render a figure as a Markdown section. Charts get an image reference
/// to `figures/<id>.svg` (the path the generated report writes them
/// under) and their data table folds into a `<details>` block; tables
/// show their data inline.
pub(crate) fn render(figure: &Figure) -> String {
    let with_image = figure.is_chart();
    let mut out = String::new();
    out.push_str(&format!(
        "### {} — {}\n\n",
        figure.meta.paper_ref, figure.meta.title
    ));
    if with_image {
        out.push_str(&format!(
            "![{}](figures/{}.svg)\n\n",
            escape(&figure.meta.paper_ref),
            figure.meta.id
        ));
    }
    let (columns, rows) = figure.data_columns();
    let table = pipe_table(&columns, &rows);
    if with_image {
        out.push_str("<details><summary>data</summary>\n\n");
        out.push_str(&table);
        out.push_str("\n</details>\n\n");
    } else {
        out.push_str(&table);
        out.push('\n');
    }
    for note in &figure.meta.notes {
        out.push_str(&format!("> {}\n", escape(note)));
    }
    if !figure.meta.notes.is_empty() {
        out.push('\n');
    }
    if !figure.meta.command.is_empty() {
        out.push_str(&format!(
            "*Regenerate: `cargo run --release --bin {}`*\n\n",
            figure.meta.command
        ));
    }
    out
}

/// A GitHub-flavoured pipe table; first column left-aligned, the rest
/// right-aligned.
pub(crate) fn pipe_table(columns: &[String], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push('|');
    for c in columns {
        out.push_str(&format!(" {} |", escape(c)));
    }
    out.push('\n');
    out.push('|');
    for (i, _) in columns.iter().enumerate() {
        out.push_str(if i == 0 { ":--|" } else { "--:|" });
    }
    out.push('\n');
    for row in rows {
        out.push('|');
        for cell in row.iter().take(columns.len()) {
            out.push_str(&format!(" {} |", escape(cell)));
        }
        out.push('\n');
    }
    out
}

/// Escape the characters that would break a pipe table or read as
/// formatting.
pub(crate) fn escape(s: &str) -> String {
    s.replace('|', "\\|")
}
