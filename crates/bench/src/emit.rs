//! The shared figure output path.
//!
//! Every experiment builds [`Figure`] values (see [`crate::figures`])
//! and `pmt figure` hands them to [`emit`] instead of free-form
//! `println!`: the aligned-text form on stdout, which is what `--smoke`
//! CI greps. The SVG and Markdown forms are written only by `pmt report`
//! ([`crate::report_gen::write`]).

use pmt_report::Figure;

/// Render `figure` to stdout (text form).
pub fn emit(figure: &Figure) {
    print!("{}", figure.render_text());
    println!();
}

/// Emit a sequence of figures in order.
pub fn emit_all(figures: &[Figure]) {
    for figure in figures {
        emit(figure);
    }
}
