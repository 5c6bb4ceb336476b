//! The one report spine every experiment prints and persists through.
//!
//! An experiment declares a [`Report`] once — heading, summary lines, meta
//! key–values, and one [`Column`] list that says, per column, what the
//! console table shows and what the JSON row records — and both outputs
//! derive from that declaration: [`Report::to_text`] is the table recorded
//! in EXPERIMENTS.md, [`Report::to_json`] the `BENCH_<name>.json` document
//! CI compares against the baselines committed at the repository root.
//! JSON is hand-rendered (the workspace carries no serde) and, for the
//! simulated experiments, a pure function of the source.

use securecloud_telemetry::export::json_escape;
use securecloud_telemetry::Telemetry;
use std::fmt::Write as _;
use std::path::Path;

/// What `repro` hands every experiment: its parsed command line and the
/// run's shared telemetry bundle.
#[derive(Debug, Clone, Copy)]
pub struct Ctx<'a> {
    /// Run the reduced, CI-sized workload (same code paths).
    pub smoke: bool,
    /// Worker threads the sweeps may fan out on (results never depend on it).
    pub jobs: usize,
    /// The bundle exported under `target/telemetry/` when the run ends.
    pub telemetry: &'a Telemetry,
}

impl Ctx<'_> {
    /// The sizing for this run: `smoke` under `--smoke`, `full` otherwise.
    pub fn pick<T>(&self, smoke: T, full: T) -> T {
        if self.smoke {
            smoke
        } else {
            full
        }
    }
}

/// One typed value of a report row or meta entry.
#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    /// A count.
    Int(u64),
    /// A float rendered with this many decimals.
    Fixed(f64, usize),
    /// A [`Cell::Fixed`] whose table rendering carries a unit suffix (`x`,
    /// `%`); the JSON records the bare number.
    Unit(f64, usize, &'static str),
    /// Free text: left-aligned in the table, escaped in JSON.
    Str(String),
    /// A digest: bare hex in the table, a zero-padded 16-digit hex string
    /// in JSON so consumers never round it through a double.
    Hex(u64),
    /// No value: `-` in the table, key omitted from the JSON object.
    Absent,
    /// A nested JSON array.
    List(Vec<Cell>),
    /// A nested JSON object.
    Map(Vec<(&'static str, Cell)>),
}

impl From<u64> for Cell {
    fn from(value: u64) -> Self {
        Cell::Int(value)
    }
}

impl From<u32> for Cell {
    fn from(value: u32) -> Self {
        Cell::Int(u64::from(value))
    }
}

impl From<usize> for Cell {
    fn from(value: usize) -> Self {
        Cell::Int(value as u64)
    }
}

impl From<&str> for Cell {
    fn from(value: &str) -> Self {
        Cell::Str(value.to_string())
    }
}

impl Cell {
    fn text(&self) -> String {
        match self {
            Cell::Int(v) => v.to_string(),
            Cell::Fixed(v, decimals) => format!("{v:.decimals$}"),
            Cell::Unit(v, decimals, unit) => format!("{v:.decimals$}{unit}"),
            Cell::Str(s) => s.clone(),
            Cell::Hex(v) => format!("{v:x}"),
            Cell::Absent => "-".to_string(),
            Cell::List(_) | Cell::Map(_) => self.json().unwrap_or_default(),
        }
    }

    fn json(&self) -> Option<String> {
        Some(match self {
            Cell::Int(v) => v.to_string(),
            Cell::Fixed(v, decimals) | Cell::Unit(v, decimals, _) => format!("{v:.decimals$}"),
            Cell::Str(s) => format!("\"{}\"", json_escape(s)),
            Cell::Hex(v) => format!("\"{v:016x}\""),
            Cell::Absent => return None,
            Cell::List(items) => {
                let items: Vec<String> = items.iter().filter_map(Cell::json).collect();
                format!("[{}]", items.join(", "))
            }
            Cell::Map(fields) => json_object(fields.iter().map(|(key, cell)| (*key, cell))),
        })
    }
}

/// `{"key": value, ...}` over the fields that have a value.
fn json_object<'a>(fields: impl Iterator<Item = (&'a str, &'a Cell)>) -> String {
    let fields: Vec<String> = fields
        .filter_map(|(key, cell)| Some(format!("\"{key}\": {}", cell.json()?)))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// Where a column appears; either side may be missing.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Shown {
    /// The console table: header and column width.
    table: Option<(&'static str, usize)>,
    /// The JSON row object: key.
    key: Option<String>,
}

/// One column of a report: where it appears and how to read its cell off a
/// sweep point.
pub struct Column<P> {
    shown: Shown,
    cell: fn(&P) -> Cell,
}

impl<P> Column<P> {
    fn at(table: Option<(&'static str, usize)>, key: Option<String>, cell: fn(&P) -> Cell) -> Self {
        let shown = Shown { table, key };
        Column { shown, cell }
    }

    /// A column in both outputs under one name: `header` over a
    /// `width`-wide table column, and its slug (`"native us/p"` →
    /// `native_us_p`) as the JSON key.
    pub fn new(header: &'static str, width: usize, cell: fn(&P) -> Cell) -> Self {
        let words = header.split(|c: char| !c.is_ascii_alphanumeric());
        let words: Vec<&str> = words.filter(|word| !word.is_empty()).collect();
        let slug = words.join("_").to_lowercase();
        Self::at(Some((header, width)), Some(slug), cell)
    }

    /// A column in both outputs whose JSON key is pinned by a committed
    /// baseline rather than derived from the header.
    pub fn keyed(header: &'static str, width: usize, key: &str, cell: fn(&P) -> Cell) -> Self {
        Self::at(Some((header, width)), Some(key.to_string()), cell)
    }

    /// A column only the console table shows (a derived or re-scaled view
    /// of values the JSON records under other keys).
    pub fn table(header: &'static str, width: usize, cell: fn(&P) -> Cell) -> Self {
        Self::at(Some((header, width)), None, cell)
    }

    /// A column only the JSON records.
    pub fn json(key: &str, cell: fn(&P) -> Cell) -> Self {
        Self::at(None, Some(key.to_string()), cell)
    }
}

/// One experiment's result, declared once and rendered twice.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Report {
    /// The JSON `"bench"` field and the `BENCH_<bench>.json` file stem.
    pub bench: &'static str,
    /// Set on a rerun of the same bench under another configuration: the
    /// JSON keeps `"bench"`, the file becomes `BENCH_<bench>_<variant>.json`
    /// so it cannot overwrite the primary report.
    pub variant: Option<&'static str>,
    /// The title and parenthesised notes printed above everything else.
    pub heading: &'static str,
    /// Lines printed between the heading and the table (workload echo).
    pub summary: String,
    /// Top-level JSON fields written before `"results"`.
    pub meta: Vec<(&'static str, Cell)>,
    /// The declared columns, and per point one cell per column.
    pub(crate) columns: Vec<Shown>,
    pub(crate) rows: Vec<Vec<Cell>>,
    /// Lines printed under the table (derived headline numbers).
    pub footer: String,
    /// Text artifacts written beside the JSON: `(label, file name, content)`,
    /// announced as `<label> report: <path>`.
    pub attachments: Vec<(&'static str, &'static str, String)>,
    /// Print the written files' paths under the table. Set by the
    /// experiments whose console output has always named its JSON report;
    /// the rest gain the file with their recorded stdout unchanged.
    pub announce: bool,
}

impl Report {
    /// A report for `bench` under `heading` whose rows are the one column
    /// list evaluated over `points`, in order. The other fields start empty;
    /// experiments that need them fill them in with struct-update syntax.
    #[must_use]
    pub fn new<P, const N: usize>(
        bench: &'static str,
        heading: &'static str,
        points: &[P],
        columns: [Column<P>; N],
    ) -> Self {
        let row = |point| columns.iter().map(|column| (column.cell)(point)).collect();
        Report {
            bench,
            heading,
            rows: points.iter().map(row).collect(),
            columns: columns.map(|column| column.shown).into(),
            ..Report::default()
        }
    }

    /// One console line: each cell padded to its column's width (text to
    /// the left, everything else to the right), columns one space apart,
    /// trailing padding dropped.
    fn line(&self, cells: impl Iterator<Item = String>) -> String {
        let mut line = String::new();
        for (i, text) in cells.enumerate() {
            let Some((_, width)) = self.columns[i].table else {
                continue;
            };
            let _ = match self.rows.first().map(|row| &row[i]) {
                Some(Cell::Str(_)) => write!(line, "{text:<width$} "),
                _ => write!(line, "{text:>width$} "),
            };
        }
        format!("{}\n", line.trim_end())
    }

    /// The console rendering: heading, summary, the table over the columns
    /// that have a header, and footer, each followed by a blank line.
    #[must_use]
    pub fn to_text(&self) -> String {
        let mut out = format!("{}\n\n", self.heading);
        if !self.summary.is_empty() {
            let _ = write!(out, "{}\n\n", self.summary);
        }
        if self.columns.iter().any(|column| column.table.is_some()) {
            let headers = self
                .columns
                .iter()
                .map(|c| c.table.map_or("", |(header, _)| header));
            out += &self.line(headers.map(str::to_string));
            for row in &self.rows {
                out += &self.line(row.iter().map(Cell::text));
            }
            out.push('\n');
        }
        if !self.footer.is_empty() {
            let _ = write!(out, "{}\n\n", self.footer);
        }
        out
    }

    /// The JSON rendering: `bench`, the meta fields, and one `results`
    /// object per row over the columns that have a key.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = format!("{{\n  \"bench\": \"{}\",\n", self.bench);
        for (key, value) in &self.meta {
            if let Some(value) = value.json() {
                let _ = writeln!(out, "  \"{key}\": {value},");
            }
        }
        out.push_str("  \"results\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let keyed = self.columns.iter().zip(row);
            let fields = keyed.filter_map(|(column, cell)| Some((column.key.as_deref()?, cell)));
            let comma = if i + 1 < self.rows.len() { "," } else { "" };
            let _ = writeln!(out, "    {}{comma}", json_object(fields));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Prints the table, then writes `BENCH_<bench>[_<variant>].json` and
    /// every attachment into `dir` (created if missing), naming each file
    /// written if [`Report::announce`] is set. A failed write is a warning,
    /// not a failed run.
    pub fn emit(&self, dir: &Path) {
        print!("{}", self.to_text());
        let (label, stem) = match self.variant {
            Some(variant) => (
                format!("{} ({variant}) bench", self.bench),
                format!("{}_{variant}", self.bench),
            ),
            None => (format!("{} bench", self.bench), self.bench.to_string()),
        };
        let mut files = vec![(label, format!("BENCH_{stem}.json"), self.to_json())];
        for (label, file, content) in &self.attachments {
            files.push(((*label).to_string(), (*file).to_string(), content.clone()));
        }
        for (label, file, content) in files {
            let path = dir.join(file);
            match std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, content)) {
                Ok(()) if self.announce => println!("{label} report: {}", path.display()),
                Ok(()) => {}
                Err(err) => eprintln!("warning: {label} report not written: {err}"),
            }
        }
        if self.announce {
            println!();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::Cell::{Absent, Fixed, Hex, List, Map, Str, Unit};
    use super::*;

    struct Point {
        name: &'static str,
        count: u64,
        rate: f64,
        digest: Option<u64>,
        epochs: Vec<u64>,
    }

    /// One report exercising every cell kind and every column placement.
    fn sample() -> Report {
        let points = [
            Point {
                name: "plain",
                count: 7,
                rate: 12.345,
                digest: Some(0xbeef),
                epochs: vec![1, 2],
            },
            Point {
                name: "say \"hi\"\\",
                count: 1200,
                rate: 0.5,
                digest: None,
                epochs: vec![],
            },
        ];
        let report = Report::new(
            "sample",
            "== sample ==\n(a note)",
            &points,
            [
                Column::new("name", 12, |p| p.name.into()),
                Column::keyed("n", 5, "count", |p| p.count.into()),
                Column::table("rate", 7, |p| Unit(p.rate, 1, "x")),
                Column::json("rate", |p| Fixed(p.rate, 2)),
                Column::new("digest", 6, |p| p.digest.map_or(Absent, Hex)),
                Column::json("epochs", |p| {
                    List(p.epochs.iter().map(|&e| e.into()).collect())
                }),
            ],
        );
        Report {
            summary: "2 points".to_string(),
            meta: vec![
                ("points", 2usize.into()),
                (
                    "config",
                    Map(vec![("label", Str("a\tb".into())), ("skipped", Absent)]),
                ),
            ],
            footer: "done".to_string(),
            ..report
        }
    }

    #[test]
    fn one_declaration_renders_exact_text_and_exact_json() {
        let report = sample();
        assert_eq!(
            report.to_text(),
            "== sample ==\n\
             (a note)\n\
             \n\
             2 points\n\
             \n\
             name             n    rate digest\n\
             plain            7   12.3x   beef\n\
             say \"hi\"\\     1200    0.5x      -\n\
             \n\
             done\n\
             \n"
        );
        assert_eq!(
            report.to_json(),
            "{\n  \"bench\": \"sample\",\n  \"points\": 2,\n  \"config\": {\"label\": \"a\\tb\"},\n  \"results\": [\n    \
             {\"name\": \"plain\", \"count\": 7, \"rate\": 12.35, \"digest\": \"000000000000beef\", \"epochs\": [1, 2]},\n    \
             {\"name\": \"say \\\"hi\\\"\\\\\", \"count\": 1200, \"rate\": 0.50, \"epochs\": []}\n  \
             ]\n}\n"
        );
    }

    #[test]
    fn a_report_without_table_columns_or_rows_prints_no_table() {
        let json_only = Report::new(
            "quiet",
            "== quiet ==",
            &[3u64],
            [Column::json("n", |&n| n.into())],
        );
        assert_eq!(json_only.to_text(), "== quiet ==\n\n");
        let empty = Report::new(
            "empty",
            "== empty ==",
            &[0u64; 0],
            [Column::new("n", 3, |&n| n.into())],
        );
        assert_eq!(empty.to_text(), "== empty ==\n\n  n\n\n");
        assert_eq!(
            empty.to_json(),
            "{\n  \"bench\": \"empty\",\n  \"results\": [\n  ]\n}\n"
        );
    }

    #[test]
    fn header_slugs_become_json_keys() {
        let report = Report::new(
            "slug",
            "",
            &[1u64],
            [
                Column::new("native us/p", 11, |&n| n.into()),
                Column::new("DB MiB", 6, |&n| n.into()),
                Column::new("p99 us", 6, |&n| n.into()),
            ],
        );
        let json = report.to_json();
        assert!(
            json.contains("{\"native_us_p\": 1, \"db_mib\": 1, \"p99_us\": 1}"),
            "{json}"
        );
    }

    #[test]
    fn a_variant_gets_its_own_file_and_every_file_is_written() {
        let dir = std::env::temp_dir().join(format!("securecloud-report-{}", std::process::id()));
        let primary = sample();
        let rerun = Report {
            variant: Some("switchless"),
            attachments: vec![("side", "side.txt", "side text\n".to_string())],
            ..sample()
        };
        primary.emit(&dir);
        rerun.emit(&dir);
        let read = |file: &str| std::fs::read_to_string(dir.join(file)).expect("file written");
        assert_eq!(read("BENCH_sample.json"), primary.to_json());
        assert_eq!(read("BENCH_sample_switchless.json"), rerun.to_json());
        assert_eq!(read("side.txt"), "side text\n");
        std::fs::remove_dir_all(&dir).expect("scratch directory removed");
    }
}
