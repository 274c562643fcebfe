//! Plain-text tables for the experiment harness, and the one JSON string
//! escaper every hand-rolled artifact emitter shares.

use std::fmt;

/// A printable experiment table (rendered as GitHub-flavoured markdown).
#[derive(Debug, Clone)]
pub struct Table {
    /// Title line.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows of cells.
    pub rows: Vec<Vec<String>>,
}

impl Table {
    /// Creates an empty table.
    pub fn new(title: impl Into<String>, headers: &[&str]) -> Self {
        Table {
            title: title.into(),
            headers: headers.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Appends a row.
    ///
    /// # Panics
    ///
    /// Panics if the arity doesn't match the headers.
    pub fn row(&mut self, cells: Vec<String>) -> &mut Self {
        assert_eq!(cells.len(), self.headers.len(), "row arity mismatch");
        self.rows.push(cells);
        self
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "\n## {}\n", self.title)?;
        let mut widths: Vec<usize> = self.headers.iter().map(String::len).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let render = |cells: &[String], f: &mut fmt::Formatter<'_>| -> fmt::Result {
            write!(f, "|")?;
            for (c, w) in cells.iter().zip(&widths) {
                write!(f, " {c:w$} |")?;
            }
            writeln!(f)
        };
        render(&self.headers, f)?;
        write!(f, "|")?;
        for w in &widths {
            write!(f, "{:-<1$}|", "", w + 2)?;
        }
        writeln!(f)?;
        for row in &self.rows {
            render(row, f)?;
        }
        Ok(())
    }
}

/// Formats a float with 4 significant decimals.
pub fn f4(v: f64) -> String {
    format!("{v:.4}")
}

/// Escapes `s` for the inside of a JSON string literal: `"` and `\` get a
/// backslash, control characters below U+0020 become `\uXXXX`. The offline
/// serde shim does not serialize, so a conformance report's JSON and
/// `FRONTIER.json` are formatted by hand and both quote through here.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_markdown() {
        let mut t = Table::new("Demo", &["a", "bb"]);
        t.row(vec!["1".into(), "2".into()]);
        let s = t.to_string();
        assert!(s.contains("## Demo"));
        assert!(s.contains("| a | bb |"));
        assert!(s.contains("| 1 | 2  |"));
        assert!(s.contains("|---|"));
    }

    #[test]
    #[should_panic(expected = "row arity")]
    fn arity_checked() {
        let mut t = Table::new("x", &["a"]);
        t.row(vec!["1".into(), "2".into()]);
    }

    #[test]
    fn helpers() {
        assert_eq!(f4(1.0 / 3.0), "0.3333");
    }

    #[test]
    fn json_escape_quotes_backslashes_and_controls() {
        assert_eq!(json_escape("a\"b\\c"), "a\\\"b\\\\c");
        assert_eq!(json_escape("x\ny\t\u{1}"), "x\\u000ay\\u0009\\u0001");
        assert_eq!(json_escape("n > 4k+4t ✓"), "n > 4k+4t ✓");
    }
}
