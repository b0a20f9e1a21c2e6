//! A small JSON value with a writer and a parser, and the result record
//! every run prints as the last line of its standard output.
//!
//! The benchmark depends on nothing outside the repository, so this is
//! hand-written: enough JSON for the result line, the machine fingerprint,
//! and reading results back for comparison.

use std::fmt::Write as _;

/// A JSON value. Objects keep their key order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Looks up `key` in an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The number, if this is one.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string, if this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Compact serialisation. Numbers print in Rust's shortest form that
    /// reads back to the same `f64`, so no digit of a measurement is lost;
    /// a non-finite number (which JSON cannot hold) prints as `null`.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => {
                let _ = write!(out, "{x}");
            }
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (k, v)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push_str(", ");
                    }
                    write_str(k, out);
                    out.push_str(": ");
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Parses one JSON document (surrounding whitespace allowed).
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { text, at: 0 };
        let v = p.value()?;
        p.ws();
        if p.at != p.text.len() {
            return Err(format!("trailing input at byte {}", p.at));
        }
        Ok(v)
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    text: &'a str,
    at: usize,
}

impl Parser<'_> {
    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.at).copied()
    }

    fn ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.at += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Result<(), String> {
        if self.text[self.at..].starts_with(lit) {
            self.at += lit.len();
            Ok(())
        } else {
            Err(format!("expected `{lit}` at byte {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.peek() {
            None => Err("unexpected end of input".into()),
            Some(b'n') => self.eat("null").map(|_| Json::Null),
            Some(b't') => self.eat("true").map(|_| Json::Bool(true)),
            Some(b'f') => self.eat("false").map(|_| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.ws();
                if self.peek() == Some(b']') {
                    self.at += 1;
                    return Ok(Json::Arr(items));
                }
                loop {
                    items.push(self.value()?);
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b']') => {
                            self.at += 1;
                            return Ok(Json::Arr(items));
                        }
                        _ => return Err(format!("expected `,` or `]` at byte {}", self.at)),
                    }
                }
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.peek() == Some(b'}') {
                    self.at += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.peek() {
                        Some(b',') => self.at += 1,
                        Some(b'}') => {
                            self.at += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.at)),
                    }
                }
            }
            Some(_) => self.number(),
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.at;
        while self
            .peek()
            .is_some_and(|b| matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.at += 1;
        }
        self.text[start..self.at]
            .parse::<f64>()
            .ok()
            .map(Json::Num)
            .ok_or_else(|| format!("bad number at byte {start}"))
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat("\"")?;
        let mut out = String::new();
        loop {
            let rest = &self.text[self.at..];
            let mut chars = rest.chars();
            let c = chars.next().ok_or("unterminated string")?;
            self.at += c.len_utf8();
            match c {
                '"' => return Ok(out),
                '\\' => {
                    let e = chars.next().ok_or("unterminated escape")?;
                    self.at += 1;
                    match e {
                        '"' | '\\' | '/' => out.push(e),
                        'n' => out.push('\n'),
                        'r' => out.push('\r'),
                        't' => out.push('\t'),
                        'b' => out.push('\u{8}'),
                        'f' => out.push('\u{c}'),
                        'u' => {
                            let hex = rest.get(2..6).ok_or("short \\u escape")?;
                            let code = u32::from_str_radix(hex, 16).map_err(|e| e.to_string())?;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                            self.at += 4;
                        }
                        other => return Err(format!("bad escape `\\{other}`")),
                    }
                }
                c => out.push(c),
            }
        }
    }
}

/// One metric as printed: name, value and unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
}

/// The result line: whether every output check passed, how many checked
/// items were attempted and failed, and the metrics by name.
#[derive(Debug, Clone, PartialEq)]
pub struct RunResult {
    /// True when every output check passed.
    pub correct: bool,
    /// Checked items attempted (runs, recoveries or streams).
    pub attempted: u64,
    /// Checked items that errored or failed their check.
    pub failed: u64,
    /// The metrics, in print order.
    pub metrics: Vec<Metric>,
}

impl RunResult {
    /// The result as a JSON object with exactly the keys `correct`,
    /// `attempted`, `failed` and `metrics`.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Obj(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::Str(m.unit.clone())),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".into(), Json::Bool(self.correct)),
            ("attempted".into(), Json::Num(self.attempted as f64)),
            ("failed".into(), Json::Num(self.failed as f64)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Reads a result back from its JSON form.
    pub fn from_json(v: &Json) -> Result<Self, String> {
        let count = |key: &str| -> Result<u64, String> {
            let x = v
                .get(key)
                .and_then(Json::as_f64)
                .ok_or(format!("missing `{key}`"))?;
            if x >= 0.0 && x.fract() == 0.0 {
                Ok(x as u64)
            } else {
                Err(format!("`{key}` is not a whole number"))
            }
        };
        let correct = match v.get("correct") {
            Some(Json::Bool(b)) => *b,
            _ => return Err("missing `correct`".into()),
        };
        let Some(Json::Obj(fields)) = v.get("metrics") else {
            return Err("missing `metrics`".into());
        };
        let metrics = fields
            .iter()
            .map(|(name, m)| {
                Ok(Metric {
                    name: name.clone(),
                    value: m
                        .get("value")
                        .and_then(Json::as_f64)
                        .ok_or(format!("metric `{name}` has no value"))?,
                    unit: m
                        .get("unit")
                        .and_then(Json::as_str)
                        .ok_or(format!("metric `{name}` has no unit"))?
                        .to_string(),
                })
            })
            .collect::<Result<_, String>>()?;
        Ok(Self {
            correct,
            attempted: count("attempted")?,
            failed: count("failed")?,
            metrics,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_round_trips_through_its_json_line() {
        let result = RunResult {
            correct: true,
            attempted: 24,
            failed: 0,
            metrics: vec![
                Metric {
                    name: "wall_s".into(),
                    value: 1.680_123_456_789_012_3,
                    unit: "s".into(),
                },
                Metric {
                    name: "events_per_s".into(),
                    value: 2_950_123.25,
                    unit: "1/s".into(),
                },
                Metric {
                    name: "tiny".into(),
                    value: 1.5e-9,
                    unit: "s".into(),
                },
            ],
        };
        let line = result.to_json().render();
        assert!(!line.contains('\n'), "one line: {line}");
        assert!(line.starts_with(r#"{"correct": true, "attempted": 24, "failed": 0, "metrics": {"#));
        let back = RunResult::from_json(&Json::parse(&line).unwrap()).unwrap();
        assert_eq!(back, result, "every digit survives the round trip");
    }

    #[test]
    fn parser_reads_nested_values_and_escapes() {
        let v = Json::parse(r#" {"a": [1, -2.5e3, true, null], "b": "q\"\\\nA"} "#).unwrap();
        assert_eq!(
            v.get("a"),
            Some(&Json::Arr(vec![
                Json::Num(1.0),
                Json::Num(-2500.0),
                Json::Bool(true),
                Json::Null
            ]))
        );
        assert_eq!(v.get("b").and_then(Json::as_str), Some("q\"\\\nA"));
        let round = Json::parse(&v.render()).unwrap();
        assert_eq!(round, v);
    }

    #[test]
    fn malformed_results_are_refused() {
        assert!(Json::parse("{\"a\": 1").is_err());
        assert!(Json::parse("[1, 2] x").is_err());
        let no_metrics = Json::parse(r#"{"correct": true, "attempted": 1, "failed": 0}"#).unwrap();
        assert!(RunResult::from_json(&no_metrics).is_err());
        let fractional =
            Json::parse(r#"{"correct": true, "attempted": 1.5, "failed": 0, "metrics": {}}"#)
                .unwrap();
        assert!(RunResult::from_json(&fractional).is_err());
    }
}
