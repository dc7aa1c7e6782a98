//! The shared figure output path.
//!
//! Every experiment builds [`Figure`] values (see [`crate::figures`])
//! and `pmt figure` hands them to [`emit`] instead of free-form
//! `println!`. The default render target is the aligned-text form on
//! stdout — what `--smoke` CI greps — and setting `PMT_REPORT_DIR`
//! additionally drops the deterministic SVG (charts) and Markdown forms
//! into that directory, which is how ad-hoc runs feed
//! `docs/REPRODUCTION.md` material without going through `pmt report`.

use pmt_report::Figure;

/// Render `figure` to stdout (text form), plus SVG/Markdown files under
/// `$PMT_REPORT_DIR` when set.
pub fn emit(figure: &Figure) {
    print!("{}", figure.render_text());
    println!();
    if let Ok(dir) = std::env::var("PMT_REPORT_DIR") {
        if let Err(e) = write_artifacts(figure, &dir) {
            eprintln!("warning: PMT_REPORT_DIR={dir}: {e}");
        }
    }
}

/// Emit a sequence of figures in order.
pub fn emit_all(figures: &[Figure]) {
    for figure in figures {
        emit(figure);
    }
}

fn write_artifacts(figure: &Figure, dir: &str) -> Result<(), String> {
    let dir = std::path::Path::new(dir);
    std::fs::create_dir_all(dir).map_err(|e| e.to_string())?;
    if figure.is_chart() {
        std::fs::write(
            dir.join(format!("{}.svg", figure.meta.id)),
            figure.render_svg(),
        )
        .map_err(|e| e.to_string())?;
    }
    std::fs::write(
        dir.join(format!("{}.md", figure.meta.id)),
        figure.render_markdown_data_only(),
    )
    .map_err(|e| e.to_string())?;
    Ok(())
}
