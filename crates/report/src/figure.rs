//! The typed figure data model.

/// Everything a figure needs besides its data: identity, paper
/// reference, provenance. `docs/PAPER_MAP.md` and every renderer header
/// are generated from this.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FigureMeta {
    /// Stable identifier used for filenames (`fig6_1`, `fig7_4_bzip2`).
    pub id: String,
    /// The paper/thesis reference this reproduces (`Fig 6.1`, `Table 7.1`).
    pub paper_ref: String,
    /// One-line title (the thesis caption, condensed).
    pub title: String,
    /// The `pmt` command that regenerates this figure, written as the
    /// arguments the Markdown form puts after `cargo run --release --bin`
    /// (`pmt -- figure fig6_1_cpi_stacks`).
    pub command: String,
    /// Free-form footnotes: suite means, the thesis' reference numbers, …
    pub notes: Vec<String>,
}

impl FigureMeta {
    /// Construct the identity triple; provenance is filled by the
    /// builders ([`Figure::command`], [`Figure::note`]).
    pub fn new(id: &str, paper_ref: &str, title: &str) -> FigureMeta {
        FigureMeta {
            id: id.into(),
            paper_ref: paper_ref.into(),
            title: title.into(),
            command: String::new(),
            notes: Vec::new(),
        }
    }
}

/// One named series of per-category values (bar charts).
#[derive(Clone, Debug, PartialEq)]
pub struct Series {
    /// Legend label.
    pub name: String,
    /// One value per category, `categories.len()` long.
    pub values: Vec<f64>,
}

/// Bar chart: one bar group per category. `stacked` bars segment within
/// one column (CPI/power stacks); grouped bars sit side by side.
#[derive(Clone, Debug, PartialEq)]
pub struct BarChart {
    /// X-axis category labels (typically the 29 workloads).
    pub categories: Vec<String>,
    /// One or more series, each `categories.len()` values.
    pub series: Vec<Series>,
    /// Stack the series within each category instead of grouping.
    pub stacked: bool,
    /// Y-axis label.
    pub y_label: String,
    /// Decimals used when the values appear in text/Markdown tables.
    pub decimals: usize,
}

/// One named polyline (line charts, scatter overlays).
#[derive(Clone, Debug, PartialEq)]
pub struct LineSeries {
    /// Legend label.
    pub name: String,
    /// `(x, y)` points in drawing order.
    pub points: Vec<(f64, f64)>,
}

/// Line chart: shared x axis, one polyline per series.
#[derive(Clone, Debug, PartialEq)]
pub struct LineChart {
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The polylines.
    pub series: Vec<LineSeries>,
    /// Scale x logarithmically (instruction budgets, ED²P sweeps).
    pub log_x: bool,
    /// Decimals used when the values appear in text/Markdown tables.
    pub decimals: usize,
}

/// One named point cloud.
#[derive(Clone, Debug, PartialEq)]
pub struct ScatterSeries {
    /// Legend label.
    pub name: String,
    /// The points.
    pub points: Vec<(f64, f64)>,
}

/// Scatter plot with an optional overlay polyline (a Pareto front, a
/// regression line).
#[derive(Clone, Debug, PartialEq)]
pub struct ScatterPlot {
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The point clouds.
    pub series: Vec<ScatterSeries>,
    /// Overlay polyline, drawn dashed over the points.
    pub overlay: Option<LineSeries>,
    /// Decimals used when the values appear in text/Markdown tables.
    pub decimals: usize,
}

/// Pre-formatted table. Producers format cells through [`crate::fmt`] so
/// every renderer shows the same digits.
#[derive(Clone, Debug, PartialEq)]
pub struct Table {
    /// Column headers.
    pub columns: Vec<String>,
    /// Rows; each `columns.len()` cells.
    pub rows: Vec<Vec<String>>,
}

/// The four figure shapes of the thesis.
#[derive(Clone, Debug, PartialEq)]
pub enum FigureKind {
    /// Grouped or stacked bars.
    Bar(BarChart),
    /// Polylines over a shared axis.
    Line(LineChart),
    /// Point clouds plus an optional overlay (fit line, Pareto front).
    Scatter(ScatterPlot),
    /// A pre-formatted table.
    Table(Table),
}

/// One figure: metadata plus data. Renderers never look anywhere else,
/// so a `Figure` value fully determines all three output forms.
#[derive(Clone, Debug, PartialEq)]
pub struct Figure {
    /// Identity and provenance.
    pub meta: FigureMeta,
    /// The data.
    pub kind: FigureKind,
}

impl Figure {
    /// A bar chart figure.
    pub fn bar(id: &str, paper_ref: &str, title: &str, chart: BarChart) -> Figure {
        Figure {
            meta: FigureMeta::new(id, paper_ref, title),
            kind: FigureKind::Bar(chart),
        }
    }

    /// A line chart figure.
    pub fn line(id: &str, paper_ref: &str, title: &str, chart: LineChart) -> Figure {
        Figure {
            meta: FigureMeta::new(id, paper_ref, title),
            kind: FigureKind::Line(chart),
        }
    }

    /// A scatter plot figure.
    pub fn scatter(id: &str, paper_ref: &str, title: &str, plot: ScatterPlot) -> Figure {
        Figure {
            meta: FigureMeta::new(id, paper_ref, title),
            kind: FigureKind::Scatter(plot),
        }
    }

    /// A table figure.
    pub fn table(id: &str, paper_ref: &str, title: &str, table: Table) -> Figure {
        Figure {
            meta: FigureMeta::new(id, paper_ref, title),
            kind: FigureKind::Table(table),
        }
    }

    /// Attach a footnote (suite mean, the thesis' reference numbers…).
    pub fn note(mut self, note: impl Into<String>) -> Figure {
        self.meta.notes.push(note.into());
        self
    }

    /// Record the `pmt` command that regenerates this figure (see
    /// [`FigureMeta::command`]).
    pub fn command(mut self, command: &str) -> Figure {
        self.meta.command = command.into();
        self
    }

    /// Whether the figure has a chart form (and therefore an SVG file in
    /// the generated report) — tables render as Markdown only.
    pub fn is_chart(&self) -> bool {
        !matches!(self.kind, FigureKind::Table(_))
    }

    /// Aligned plain text — the stdout form.
    pub fn render_text(&self) -> String {
        crate::text::render(self)
    }

    /// A Markdown section (heading, image reference for charts, data
    /// table, footnotes).
    pub fn render_markdown(&self) -> String {
        crate::markdown::render(self)
    }

    /// Deterministic hand-rolled SVG (fixed viewBox, stable floats).
    pub fn render_svg(&self) -> String {
        crate::svg::render(self)
    }

    /// The data rendered as a Markdown pipe table (shared by the
    /// Markdown renderer and `<details>` blocks).
    pub(crate) fn data_columns(&self) -> (Vec<String>, Vec<Vec<String>>) {
        match &self.kind {
            FigureKind::Table(t) => (t.columns.clone(), t.rows.clone()),
            FigureKind::Bar(b) => {
                let mut columns = vec![String::new()];
                columns.extend(b.series.iter().map(|s| s.name.clone()));
                let rows = b
                    .categories
                    .iter()
                    .enumerate()
                    .map(|(i, cat)| {
                        let mut row = vec![cat.clone()];
                        row.extend(
                            b.series
                                .iter()
                                .map(|s| crate::fmt::auto(s.values[i], b.decimals)),
                        );
                        row
                    })
                    .collect();
                (columns, rows)
            }
            FigureKind::Line(l) => {
                let mut columns = vec![l.x_label.clone()];
                columns.extend(l.series.iter().map(|s| s.name.clone()));
                // Union of x values across series, in first-seen order
                // (series over a shared grid stay one row per x).
                let mut xs: Vec<f64> = Vec::new();
                for s in &l.series {
                    for &(x, _) in &s.points {
                        if !xs.contains(&x) {
                            xs.push(x);
                        }
                    }
                }
                let rows = xs
                    .iter()
                    .map(|&x| {
                        let mut row = vec![crate::fmt::auto(x, l.decimals)];
                        for s in &l.series {
                            row.push(match s.points.iter().find(|(px, _)| *px == x) {
                                Some((_, y)) => crate::fmt::auto(*y, l.decimals),
                                None => String::new(),
                            });
                        }
                        row
                    })
                    .collect();
                (columns, rows)
            }
            FigureKind::Scatter(p) => {
                let columns = vec!["series".to_string(), p.x_label.clone(), p.y_label.clone()];
                let mut rows = Vec::new();
                for s in &p.series {
                    for &(x, y) in &s.points {
                        rows.push(vec![
                            s.name.clone(),
                            crate::fmt::auto(x, p.decimals),
                            crate::fmt::auto(y, p.decimals),
                        ]);
                    }
                }
                (columns, rows)
            }
        }
    }
}
