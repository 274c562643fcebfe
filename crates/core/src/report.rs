//! Plain-text tables for the experiment harness, and the one JSON writer
//! both artifacts render through: the conformance report
//! ([`ConformanceReport::to_json`](crate::adversary::ConformanceReport::to_json))
//! and `FRONTIER.json`
//! ([`FrontierAtlas::to_json`](crate::frontier::FrontierAtlas::to_json)).
//! The offline serde shim does not serialize, so the writer is hand-rolled:
//! values render through `ToJson` (strings quoted by one escaper, every
//! float in one exact form), and the `object!` macro and `block` place
//! every brace, comma and line break.

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

/// Rendered JSON text, which [`ToJson`] passes through unquoted.
pub(crate) struct Json(pub(crate) String);

/// A value with one JSON rendering.
pub(crate) trait ToJson {
    /// The value as JSON text.
    fn json(&self) -> String;
}

impl ToJson for Json {
    fn json(&self) -> String {
        self.0.clone()
    }
}

/// A string literal: `"` and `\` get a backslash, control characters
/// below U+0020 become `\uXXXX`.
impl ToJson for str {
    fn json(&self) -> String {
        let mut out = String::from('"');
        for c in self.chars() {
            match c {
                '"' | '\\' => out.extend(['\\', c]),
                c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
                c => out.push(c),
            }
        }
        out + "\""
    }
}

impl ToJson for String {
    fn json(&self) -> String {
        self.as_str().json()
    }
}

/// The one float form: six decimals to read and the exact `f64::to_bits`
/// hex, so equal text means bit-identical floats.
impl ToJson for f64 {
    fn json(&self) -> String {
        format!(
            "{{ \"val\": {self:.6}, \"bits\": \"0x{:016x}\" }}",
            self.to_bits()
        )
    }
}

macro_rules! display_json {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn json(&self) -> String {
                self.to_string()
            }
        }
    )*};
}
display_json!(bool, i64, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn json(&self) -> String {
        self.as_ref().map_or_else(|| "null".to_string(), T::json)
    }
}

/// A one-line array: `[a, b]`.
impl<T: ToJson> ToJson for [T] {
    fn json(&self) -> String {
        format!(
            "[{}]",
            self.iter().map(T::json).collect::<Vec<_>>().join(", ")
        )
    }
}

/// An object, its `"key": value` members in order. `object!(indent; …)`
/// is `{ … }`: a `;` between members ends a line of the layout, and each
/// later line starts at `indent` spaces. `object!(document; …)` is the
/// top-level object, its lines at two spaces between a `{` line and a
/// `}` line.
macro_rules! object {
    (document; $($members:tt)+) => {
        format!("{{\n  {}\n}}\n", $crate::report::object!(@members 2; $($members)+))
    };
    (@members $indent:expr; $($($key:literal: $value:expr),+);+) => {{
        #[allow(unused_imports)]
        use $crate::report::ToJson as _;
        [$([$(format!("{}: {}", $key.json(), $value.json())),+].join(", ")),+]
            .join(&format!(",\n{}", " ".repeat($indent)))
    }};
    ($indent:expr; $($members:tt)+) => {
        $crate::report::Json(format!(
            "{{ {} }}",
            $crate::report::object!(@members $indent; $($members)+)
        ))
    };
}
pub(crate) use object;

/// An array with one item per line at `indent + 2` spaces, closed at
/// `indent`.
pub(crate) fn block(indent: usize, items: impl IntoIterator<Item = Json>) -> Json {
    let pad = " ".repeat(indent);
    let items: Vec<String> = items
        .into_iter()
        .map(|i| format!("\n{pad}  {}", i.0))
        .collect();
    Json(format!("[{}\n{pad}]", items.join(",")))
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
    fn json_strings_quote_backslashes_and_controls() {
        assert_eq!("a\"b\\c".json(), "\"a\\\"b\\\\c\"");
        assert_eq!("x\ny\t\u{1}".json(), "\"x\\u000ay\\u0009\\u0001\"");
        assert_eq!("n > 4k+4t ✓".json(), "\"n > 4k+4t ✓\"");
    }
}
