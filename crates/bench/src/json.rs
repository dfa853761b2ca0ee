//! A minimal JSON value with a writer and a reader, for the bench
//! artifacts and the perf-regression gate.
//!
//! The workspace's serde is an offline no-op shim, so the `BENCH_*.json`
//! artifacts are built as [`Json`] values, printed by [`Json::render`],
//! and read back by a small recursive-descent parser. The parser covers
//! the full JSON grammar (objects, arrays, strings with standard escapes,
//! numbers, booleans, null) and reports errors with a byte offset.
//! Numbers are held as `f64`, which is exact for every integer the
//! artifacts emit; the writer prints the shortest text that parses back
//! to the same `f64`.

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (stored as `f64`).
    Num(f64),
    /// A string (escapes decoded).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in source order (duplicate keys keep the last value on
    /// lookup, like most readers).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parses a complete JSON document (trailing whitespace allowed,
    /// trailing garbage rejected).
    ///
    /// # Errors
    ///
    /// A message with the byte offset of the first violation.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser { bytes: text.as_bytes(), pos: 0 };
        p.skip_ws();
        let value = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(value)
    }

    /// Member lookup on an object (`None` otherwise / when absent).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().rev().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The numeric value, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(x) => Some(*x),
            _ => None,
        }
    }

    /// The string value, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The boolean value, if this is a boolean.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Prints the document: a container holding only scalars goes on one
    /// line, any other container puts one member per indented line.
    ///
    /// # Errors
    ///
    /// A non-finite number, which JSON cannot represent; the message
    /// names the field holding it.
    pub fn render(&self) -> Result<String, String> {
        let mut out = String::new();
        self.write(&mut out, "", 0)?;
        out.push('\n');
        Ok(out)
    }

    fn write(&self, out: &mut String, field: &str, depth: usize) -> Result<(), String> {
        let (brackets, members): ([char; 2], Vec<(Option<&str>, &Json)>) = match self {
            Json::Arr(items) => (['[', ']'], items.iter().map(|v| (None, v)).collect()),
            Json::Obj(m) => {
                (['{', '}'], m.iter().map(|(k, v)| (Some(k.as_str()), v)).collect())
            }
            Json::Num(x) if !x.is_finite() => {
                return Err(format!("`{field}` is {x}, which JSON cannot represent"))
            }
            scalar => {
                out.push_str(&match scalar {
                    Json::Str(s) => quoted(s),
                    Json::Num(x) => x.to_string(),
                    Json::Bool(b) => b.to_string(),
                    _ => "null".to_string(),
                });
                return Ok(());
            }
        };
        let inline = members.iter().all(|(_, v)| !matches!(v, Json::Arr(_) | Json::Obj(_)));
        let newline = |out: &mut String, depth: usize| {
            if !inline {
                out.push('\n');
                out.push_str(&"  ".repeat(depth));
            }
        };
        out.push(brackets[0]);
        for (i, (key, value)) in members.iter().enumerate() {
            if i > 0 {
                out.push_str(if inline { ", " } else { "," });
            }
            newline(out, depth + 1);
            if let Some(key) = key {
                out.push_str(&format!("{}: ", quoted(key)));
            }
            value.write(out, key.unwrap_or(field), depth + 1)?;
        }
        newline(out, depth);
        out.push(brackets[1]);
        Ok(())
    }
}

fn quoted(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A [`Json`] object from `"key": value` members, in order, each value
/// converted with `Json::from`.
#[macro_export]
macro_rules! json_obj {
    ($($key:literal: $value:expr),* $(,)?) => {
        $crate::json::Json::Obj(vec![$(($key.to_string(), $crate::json::Json::from($value))),*])
    };
}

macro_rules! json_from {
    ($($t:ty => |$x:ident| $e:expr;)*) => {
        $(impl From<$t> for Json {
            fn from($x: $t) -> Self {
                $e
            }
        })*
    };
}

json_from! {
    f64 => |x| Json::Num(x);
    u64 => |x| Json::Num(x as f64);
    usize => |x| Json::Num(x as f64);
    bool => |b| Json::Bool(b);
    &str => |s| Json::Str(s.to_string());
    String => |s| Json::Str(s);
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if matches!(b, b' ' | b'\t' | b'\n' | b'\r') {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", b as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek() {
            Some(b'{') => self.object(),
            Some(b'[') => self.array(),
            Some(b'"') => Ok(Json::Str(self.string()?)),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(other) => Err(format!("unexpected `{}` at byte {}", other as char, self.pos)),
            None => Err("unexpected end of input".into()),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            members.push((key, self.value()?));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected `,` or `]` at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b't' => out.push('\t'),
                        b'r' => out.push('\r'),
                        b'b' => out.push('\u{0008}'),
                        b'f' => out.push('\u{000C}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{FFFD}'));
                        }
                        other => {
                            return Err(format!(
                                "unknown escape `\\{}` at byte {}",
                                other as char, self.pos
                            ))
                        }
                    }
                }
                Some(_) => {
                    // Consume one UTF-8 scalar (the input came from &str,
                    // so boundaries are valid).
                    let start = self.pos;
                    self.pos += 1;
                    while self.pos < self.bytes.len() && (self.bytes[self.pos] & 0xC0) == 0x80 {
                        self.pos += 1;
                    }
                    out.push_str(
                        std::str::from_utf8(&self.bytes[start..self.pos])
                            .map_err(|_| "invalid UTF-8 in string")?,
                    );
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos]).expect("ascii");
        text.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("bad number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_the_artifact_shapes() {
        let doc = r#"{
          "sweep": [
            {"format": "whitespace", "shards": 1, "parse_ms": 1.25, "matches_serial": true},
            {"format": "csv", "shards": 8, "parse_ms": 0.5, "matches_serial": false}
          ],
          "empty": [],
          "nested": {"x": null}
        }"#;
        let v = Json::parse(doc).unwrap();
        let sweep = v.get("sweep").unwrap().as_arr().unwrap();
        assert_eq!(sweep.len(), 2);
        assert_eq!(sweep[0].get("shards").unwrap().as_f64(), Some(1.0));
        assert_eq!(sweep[0].get("format").unwrap().as_str(), Some("whitespace"));
        assert_eq!(sweep[1].get("matches_serial").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("empty").unwrap().as_arr().unwrap().len(), 0);
        assert_eq!(v.get("nested").unwrap().get("x"), Some(&Json::Null));
    }

    #[test]
    fn parses_numbers_strings_and_escapes() {
        assert_eq!(Json::parse("-12.5e2").unwrap().as_f64(), Some(-1250.0));
        assert_eq!(Json::parse("[1,2,3]").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(Json::parse(r#""a\"b\nA""#).unwrap().as_str(), Some("a\"b\nA"));
        assert_eq!(Json::parse(r#""héllo""#).unwrap().as_str(), Some("héllo"));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let rows = vec![crate::json_obj! {"x": 0.1, "n": 7u64}];
        let doc = crate::json_obj! {
            "name": "a\"b\\c\n\u{1}", "rows": Json::Arr(rows), "empty": Json::Arr(vec![]),
            "flags": Json::Arr(vec![true.into(), Json::Null]), "big": 1.0e21, "tiny": -1.0e-7,
        };
        let text = doc.render().unwrap();
        assert!(text.contains("\"rows\": [\n    {\"x\": 0.1, \"n\": 7}\n  ]"), "{text}");
        assert_eq!(Json::parse(&text).unwrap(), doc);
    }

    #[test]
    fn render_refuses_non_finite_numbers_and_names_the_field() {
        let rows = vec![crate::json_obj! {"ok": 1.0}, crate::json_obj! {"speedup": f64::NAN}];
        let doc = crate::json_obj! {"rows": Json::Arr(rows)};
        let err = doc.render().unwrap_err();
        assert!(err.contains("`speedup` is NaN"), "{err}");
        assert!(Json::from(f64::INFINITY).render().is_err());
    }

    #[test]
    fn rejects_malformed_documents() {
        for bad in ["", "{", "[1,]", "{\"a\":}", "tru", "1 2", "\"unterminated"] {
            assert!(Json::parse(bad).is_err(), "`{bad}` should fail");
        }
    }
}
