//! A dependency-free JSON value: parse, build, render.
//!
//! One small value type serves both directions of every machine-readable
//! artifact the workspace emits: the Chrome-trace validator parses into it
//! ([`crate::trace::validate_chrome_trace`]), and the bench `Report`
//! writer builds one and renders it into `BENCH_*.json`. Deliberately
//! small: objects (insertion-ordered), arrays, strings, numbers, bools,
//! null.

/// A JSON value. Objects keep insertion order, so rendered reports diff
/// cleanly from run to run.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse a complete JSON document (trailing data is an error).
    pub fn parse(s: &str) -> Result<Json, String> {
        JsonParser::parse(s)
    }

    /// An object from `(key, value)` pairs, in the given order.
    pub fn obj<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value under `key` if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        self.as_object()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
    }

    /// Render on one line. Non-finite numbers have no JSON spelling and
    /// render as `null`; integral values print without a fraction.
    pub fn render(&self) -> String {
        match self {
            Json::Null => "null".to_string(),
            Json::Bool(b) => b.to_string(),
            Json::Num(n) if !n.is_finite() => "null".to_string(),
            Json::Num(n) => format!("{n}"),
            Json::Str(s) => format!("\"{}\"", escape(s)),
            Json::Arr(items) => {
                let items: Vec<String> = items.iter().map(Json::render).collect();
                format!("[{}]", items.join(", "))
            }
            Json::Obj(fields) => {
                let fields: Vec<String> = fields
                    .iter()
                    .map(|(k, v)| format!("\"{}\": {}", escape(k), v.render()))
                    .collect();
                format!("{{{}}}", fields.join(", "))
            }
        }
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}
macro_rules! from_number {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(v: $t) -> Json {
                Json::Num(v as f64)
            }
        }
    )*};
}
from_number!(f64, usize, u64);
impl From<&str> for Json {
    fn from(v: &str) -> Json {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Json {
        Json::Str(v)
    }
}
impl From<Vec<Json>> for Json {
    fn from(v: Vec<Json>) -> Json {
        Json::Arr(v)
    }
}

/// Escape `s` for the inside of a JSON string literal.
pub(crate) fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

struct JsonParser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> JsonParser<'a> {
    fn parse(s: &'a str) -> Result<Json, String> {
        let mut p = JsonParser {
            bytes: s.as_bytes(),
            pos: 0,
        };
        let v = p.value()?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(format!("trailing data at byte {}", p.pos));
        }
        Ok(v)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len()
            && matches!(self.bytes[self.pos], b' ' | b'\t' | b'\n' | b'\r')
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_ws();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        if self.peek()? == c {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::Str(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn literal(&mut self, lit: &str, v: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(v)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            fields.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(format!("expected ',' or ']' at byte {}", self.pos)),
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let c = *self.bytes.get(self.pos).ok_or("unterminated string")?;
            self.pos += 1;
            match c {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'b' => out.push('\u{8}'),
                        b'f' => out.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let hex = std::str::from_utf8(hex)
                                .map_err(|_| "non-utf8 \\u escape".to_string())?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| "invalid \\u escape".to_string())?;
                            self.pos += 4;
                            out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        }
                        _ => return Err(format!("bad escape at byte {}", self.pos)),
                    }
                }
                c => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if c < 0x80 {
                        out.push(c as char);
                    } else {
                        let start = self.pos - 1;
                        let len = match c {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let slice = self
                            .bytes
                            .get(start..start + len)
                            .ok_or("truncated utf-8 sequence")?;
                        let s = std::str::from_utf8(slice)
                            .map_err(|_| "invalid utf-8 in string".to_string())?;
                        out.push_str(s);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_ws();
        let start = self.pos;
        while self.pos < self.bytes.len()
            && matches!(
                self.bytes[self.pos],
                b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
            )
        {
            self.pos += 1;
        }
        let s = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        s.parse::<f64>()
            .map(Json::Num)
            .map_err(|_| format!("invalid number '{s}' at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v =
            Json::parse("{\"a\":[1,2.5,-3e2],\"b\":\"x\\n\\u0041\",\"c\":{\"d\":true,\"e\":null}}")
                .unwrap();
        let obj = v.as_object().unwrap();
        assert_eq!(obj.len(), 3);
        let arr = obj[0].1.as_array().unwrap();
        assert_eq!(arr[2].as_f64(), Some(-300.0));
        assert_eq!(obj[1].1.as_str(), Some("x\nA"));
        let inner = obj[2].1.as_object().unwrap();
        assert_eq!(inner[0].1.as_bool(), Some(true));
        assert!(matches!(inner[1].1, Json::Null));
    }

    #[test]
    fn render_round_trips_through_parse() {
        let v = Json::obj([
            ("name", Json::from("quote \" slash \\ tab \t")),
            ("n", Json::from(3usize)),
            ("ms", Json::Num(0.1235)),
            ("nan", Json::Num(f64::NAN)),
            ("rows", Json::from(vec![Json::from(true), Json::Null])),
        ]);
        let text = v.render();
        assert!(
            text.contains("\"n\": 3,"),
            "integral without fraction: {text}"
        );
        assert!(text.contains("\"ms\": 0.1235"), "{text}");
        let back = Json::parse(&text).unwrap();
        assert_eq!(back.get("name"), v.get("name"));
        assert_eq!(back.get("nan"), Some(&Json::Null));
        assert_eq!(back.get("rows"), v.get("rows"));
    }
}
