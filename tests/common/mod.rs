//! A strict RFC 8259 validator for the hand-rolled JSON artifacts (the
//! offline serde shim cannot parse): no raw control characters inside
//! strings, only the defined escapes, no trailing commas or content.

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.s.get(self.i).copied()
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.s[self.i..].starts_with(lit.as_bytes()) {
            self.i += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.i))
        }
    }

    fn ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.i += 1;
        }
    }

    fn digits(&mut self) -> Result<(), String> {
        let start = self.i;
        while matches!(self.peek(), Some(b'0'..=b'9')) {
            self.i += 1;
        }
        if self.i == start {
            return Err(format!("expected a digit at byte {start}"));
        }
        Ok(())
    }

    fn number(&mut self) -> Result<(), String> {
        if self.peek() == Some(b'-') {
            self.i += 1;
        }
        if self.peek() == Some(b'0') {
            self.i += 1;
        } else {
            self.digits()?;
        }
        if self.peek() == Some(b'.') {
            self.i += 1;
            self.digits()?;
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.i += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.i += 1;
            }
            self.digits()?;
        }
        Ok(())
    }

    fn string(&mut self) -> Result<(), String> {
        self.eat("\"")?;
        loop {
            let at = self.i;
            let c = self.peek().ok_or("unterminated string")?;
            self.i += 1;
            match c {
                b'"' => return Ok(()),
                b'\\' => {
                    let e = self.peek().ok_or("unterminated escape")?;
                    self.i += 1;
                    match e {
                        b'"' | b'\\' | b'/' | b'b' | b'f' | b'n' | b'r' | b't' => {}
                        b'u' => {
                            let hex = self.s.get(self.i..self.i + 4).ok_or("short \\u escape")?;
                            if !hex.iter().all(u8::is_ascii_hexdigit) {
                                return Err(format!("bad \\u escape at byte {at}"));
                            }
                            self.i += 4;
                        }
                        _ => return Err(format!("bad escape at byte {at}")),
                    }
                }
                c if c < 0x20 => return Err(format!("raw control character at byte {at}")),
                _ => {}
            }
        }
    }

    /// `open item (, item)* close`, or `open close`.
    fn seq(
        &mut self,
        open: &str,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.eat(open)?;
        self.ws();
        if self.peek() == Some(close) {
            self.i += 1;
            return Ok(());
        }
        loop {
            self.ws();
            item(self)?;
            self.ws();
            match self.peek() {
                Some(b',') => self.i += 1,
                Some(c) if c == close => {
                    self.i += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected `,` or a closer at byte {}", self.i)),
            }
        }
    }

    fn value(&mut self) -> Result<(), String> {
        match self.peek().ok_or("expected a value")? {
            b'{' => self.seq("{", b'}', |p| {
                p.string()?;
                p.ws();
                p.eat(":")?;
                p.ws();
                p.value()
            }),
            b'[' => self.seq("[", b']', Self::value),
            b'"' => self.string(),
            b't' => self.eat("true"),
            b'f' => self.eat("false"),
            b'n' => self.eat("null"),
            _ => self.number(),
        }
    }
}

fn validate(s: &str) -> Result<(), String> {
    let mut p = Parser {
        s: s.as_bytes(),
        i: 0,
    };
    p.ws();
    p.value()?;
    p.ws();
    if p.i == s.len() {
        Ok(())
    } else {
        Err(format!("trailing content at byte {}", p.i))
    }
}

/// Panics unless `s` is exactly one JSON value (surrounding whitespace
/// allowed).
pub fn assert_strict_json(s: &str) {
    if let Err(e) = validate(s) {
        panic!("not valid JSON: {e}\n{s}");
    }
}

#[test]
fn validator_rejects_what_json_forbids() {
    assert_strict_json(r#" { "a": [1, -0.5e+3, true, null, "x\"\\\u000a"], "b": {} } "#);
    for bad in [
        "{ \"a\": \"line\nbreak\" }",
        r#"{ "a": "quo"te" }"#,
        r#"{ "a": "\q" }"#,
        r#"[1, 2,]"#,
        r#"{ "a": 1 } x"#,
        r#"{ "a": NaN }"#,
        r#"{ "a": 01 }"#,
    ] {
        assert!(validate(bad).is_err(), "accepted: {bad}");
    }
}
