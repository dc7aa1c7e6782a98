//! Deterministic figure rendering — the publication layer of the
//! reproduction (thesis Ch 6–7 are, above all, figures and tables).
//!
//! Every experiment in the workspace reduces to one of four figure
//! shapes: bar charts (CPI and power stacks, Figs 6.1/6.7), scatter
//! plots with an optional overlay polyline (Pareto frontiers and the
//! entropy fit, Figs 7.4/3.9), line charts (DVFS and phase curves,
//! Figs 7.3/6.14), and tables (the error breakdowns of Tables 6.1–7.1).
//! This crate gives those shapes a small typed data model ([`Figure`])
//! and three renderers that consume it:
//!
//! * [`Figure::render_text`] — aligned plain text, the stdout of
//!   `pmt figure` (so `--smoke` CI output stays greppable),
//! * [`Figure::render_markdown`] — a Markdown section with the data as a
//!   pipe table, used to assemble `docs/REPRODUCTION.md`,
//! * [`Figure::render_svg`] — hand-rolled SVG with a fixed `viewBox` and
//!   the stable float formatting of [`fmt`], so repeated runs are
//!   **bit-identical** (golden-snapshot tested).
//!
//! The crate is deliberately dependency-free: no plotting library, no
//! serde — plain string building only — so rendering can never introduce
//! nondeterminism or platform drift into checked-in artifacts.
//!
//! [`Report`] assembles many figures into a single chaptered document
//! (the regenerable `docs/REPRODUCTION.md`), and [`FigureMeta`] carries
//! the paper-reference metadata from which `docs/PAPER_MAP.md` is
//! generated.

pub mod fmt;

mod figure;
mod markdown;
mod report;
mod svg;
mod text;

pub use figure::{
    BarChart, Figure, FigureKind, FigureMeta, LineChart, LineSeries, ScatterPlot, ScatterSeries,
    Series, Table,
};
pub use report::{Chapter, Report};
