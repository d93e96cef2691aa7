//! Aligned-table printing for experiment binaries.

use std::fmt::Write as _;

use bfly_json::push_json_str;

/// A simple aligned text table with a title and caption.
pub struct Table {
    title: String,
    headers: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with column headers.
    pub fn new(title: &str, headers: &[&str]) -> Table {
        Table {
            title: title.to_string(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn row(&mut self, cells: Vec<String>) {
        assert_eq!(cells.len(), self.headers.len());
        self.rows.push(cells);
    }

    /// The table title.
    pub fn title(&self) -> &str {
        &self.title
    }

    /// Render to a string.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.headers.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        // Header + separator + rows, each line `sum(widths) + 2*(cols-1)`
        // wide: size the buffer once and write cells in place instead of
        // allocating a String per cell and joining per line.
        let line_w: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
        let mut out =
            String::with_capacity(self.title.len() + 8 + (self.rows.len() + 2) * (line_w + 1));
        let _ = writeln!(out, "== {} ==", self.title);
        let write_line = |out: &mut String, cells: &[String]| {
            for (i, c) in cells.iter().enumerate() {
                if i > 0 {
                    out.push_str("  ");
                }
                let _ = write!(out, "{:>w$}", c, w = widths[i]);
            }
            out.push('\n');
        };
        write_line(&mut out, &self.headers);
        for _ in 0..line_w {
            out.push('-');
        }
        out.push('\n');
        for r in &self.rows {
            write_line(&mut out, r);
        }
        out
    }

    /// Render as a JSON object (`{"title": ..., "headers": [...],
    /// "rows": [[...], ...]}`), for the machine-readable perf reports in
    /// [`crate::report`]. All cells are emitted as JSON strings; no
    /// external serializer is involved (dependency policy, DESIGN.md §7).
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\"title\":");
        push_json_str(&mut out, &self.title);
        out.push_str(",\"headers\":[");
        for (i, h) in self.headers.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            push_json_str(&mut out, h);
        }
        out.push_str("],\"rows\":[");
        for (i, r) in self.rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('[');
            for (j, c) in r.iter().enumerate() {
                if j > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, c);
            }
            out.push(']');
        }
        out.push_str("]}");
        out
    }

    /// Print to stdout.
    pub fn print(&self) {
        print!("{}", self.render());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_aligns_columns() {
        let mut t = Table::new("demo", &["a", "long-header"]);
        t.row(vec!["xxxx".into(), "1".into()]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(lines[0], "== demo ==");
        assert_eq!(lines[1], "   a  long-header");
        assert_eq!(lines[2], "-".repeat("   a  long-header".len()));
        assert_eq!(lines[3], "xxxx            1");
    }

    #[test]
    fn to_json_escapes_and_round_trips_shape() {
        let mut t = Table::new("q\"uote\nline", &["h1", "h2"]);
        t.row(vec!["a\\b".into(), "2".into()]);
        let j = t.to_json();
        assert_eq!(
            j,
            "{\"title\":\"q\\\"uote\\nline\",\"headers\":[\"h1\",\"h2\"],\
             \"rows\":[[\"a\\\\b\",\"2\"]]}"
        );
    }
}
