//! Offline stand-in for `serde_json`.
//!
//! Renders and parses JSON through the vendored `serde` shim's
//! [`serde::Value`] model. Covers the API surface this workspace uses:
//! [`to_string`], [`to_string_pretty`], and [`from_str`].

use serde::{Deserialize, Serialize, Value};

/// Error produced by JSON parsing or model conversion.
#[derive(Debug, Clone)]
pub struct Error(String);

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for Error {}

impl From<serde::DeError> for Error {
    fn from(e: serde::DeError) -> Self {
        Error(e.0)
    }
}

fn escape_into(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn write_float(x: f64, out: &mut String) {
    if x.is_finite() {
        if x == x.trunc() && x.abs() < 1e15 {
            // Keep integral floats readable ("3.0" rather than "3").
            out.push_str(&format!("{x:.1}"));
        } else {
            out.push_str(&format!("{x}"));
        }
    } else {
        // JSON has no Inf/NaN; mirror serde_json's lossy `null`.
        out.push_str("null");
    }
}

fn write_value(v: &Value, indent: Option<usize>, level: usize, out: &mut String) {
    let (nl, pad, pad_in) = match indent {
        Some(w) => ("\n", " ".repeat(w * level), " ".repeat(w * (level + 1))),
        None => ("", String::new(), String::new()),
    };
    match v {
        Value::Null => out.push_str("null"),
        Value::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Value::Int(n) => out.push_str(&n.to_string()),
        Value::UInt(n) => out.push_str(&n.to_string()),
        Value::Float(x) => write_float(*x, out),
        Value::Str(s) => escape_into(s, out),
        Value::Arr(xs) => {
            if xs.is_empty() {
                out.push_str("[]");
                return;
            }
            out.push('[');
            for (i, x) in xs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                write_value(x, indent, level + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push(']');
        }
        Value::Obj(pairs) => {
            if pairs.is_empty() {
                out.push_str("{}");
                return;
            }
            out.push('{');
            for (i, (k, x)) in pairs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(nl);
                out.push_str(&pad_in);
                escape_into(k, out);
                out.push(':');
                if indent.is_some() {
                    out.push(' ');
                }
                write_value(x, indent, level + 1, out);
            }
            out.push_str(nl);
            out.push_str(&pad);
            out.push('}');
        }
    }
}

/// Serializes a value to compact JSON.
///
/// # Errors
///
/// Never fails for types in this workspace; the `Result` mirrors the
/// real serde_json signature.
pub fn to_string<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), None, 0, &mut out);
    Ok(out)
}

/// Serializes a value to pretty-printed JSON (2-space indent).
///
/// # Errors
///
/// Never fails for types in this workspace.
pub fn to_string_pretty<T: Serialize + ?Sized>(value: &T) -> Result<String, Error> {
    let mut out = String::new();
    write_value(&value.to_value(), Some(2), 0, &mut out);
    Ok(out)
}

/// Deepest nesting of arrays and objects the parser follows (the real
/// crate's limit): it recurses once per level, so unbounded input depth
/// is unbounded stack.
const MAX_DEPTH: u32 = 128;

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
    /// Arrays and objects open around `pos`.
    depth: u32,
}

impl<'a> Parser<'a> {
    fn err(&self, msg: &str) -> Error {
        Error(format!("{msg} at byte {}", self.pos))
    }

    fn skip_ws(&mut self) {
        while let Some(&b) = self.bytes.get(self.pos) {
            if b == b' ' || b == b'\t' || b == b'\n' || b == b'\r' {
                self.pos += 1;
            } else {
                break;
            }
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn eat(&mut self, b: u8) -> Result<(), Error> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected `{}`", b as char)))
        }
    }

    fn eat_lit(&mut self, lit: &str) -> Result<(), Error> {
        if self.bytes[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected `{lit}`")))
        }
    }

    fn parse_string(&mut self) -> Result<String, Error> {
        self.eat(b'"')?;
        let mut s = String::new();
        loop {
            match self.peek().ok_or_else(|| self.err("unterminated string"))? {
                b'"' => {
                    self.pos += 1;
                    return Ok(s);
                }
                b'\\' => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => s.push('"'),
                        b'\\' => s.push('\\'),
                        b'/' => s.push('/'),
                        b'n' => s.push('\n'),
                        b't' => s.push('\t'),
                        b'r' => s.push('\r'),
                        b'b' => s.push('\u{8}'),
                        b'f' => s.push('\u{c}'),
                        b'u' => {
                            let hex = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or_else(|| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(hex).map_err(|_| self.err("bad \\u escape"))?,
                                16,
                            )
                            .map_err(|_| self.err("bad \\u escape"))?;
                            self.pos += 4;
                            s.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Consume one UTF-8 scalar.
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid UTF-8"))?;
                    let c = rest.chars().next().unwrap();
                    s.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn parse_number(&mut self) -> Result<Value, Error> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        let mut is_float = false;
        while let Some(b) = self.peek() {
            match b {
                b'0'..=b'9' => self.pos += 1,
                b'.' | b'e' | b'E' | b'+' | b'-' => {
                    is_float = true;
                    self.pos += 1;
                }
                _ => break,
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        if is_float {
            text.parse::<f64>().map(Value::Float).map_err(|_| self.err("invalid number"))
        } else if text.starts_with('-') {
            text.parse::<i64>().map(Value::Int).map_err(|_| self.err("invalid number"))
        } else {
            text.parse::<u64>().map(Value::UInt).map_err(|_| self.err("invalid number"))
        }
    }

    /// Parses the array or object starting at `pos` with `body`, one
    /// level deeper.
    fn nested(&mut self, body: fn(&mut Self) -> Result<Value, Error>) -> Result<Value, Error> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("recursion limit exceeded"));
        }
        self.depth += 1;
        let v = body(self);
        self.depth -= 1;
        v
    }

    fn parse_array(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut xs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Value::Arr(xs));
        }
        loop {
            xs.push(self.parse_value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Value::Arr(xs));
                }
                _ => return Err(self.err("expected `,` or `]`")),
            }
        }
    }

    fn parse_object(&mut self) -> Result<Value, Error> {
        self.pos += 1;
        let mut pairs = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Value::Obj(pairs));
        }
        loop {
            self.skip_ws();
            let key = self.parse_string()?;
            self.skip_ws();
            self.eat(b':')?;
            let val = self.parse_value()?;
            pairs.push((key, val));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Value::Obj(pairs));
                }
                _ => return Err(self.err("expected `,` or `}`")),
            }
        }
    }

    fn parse_value(&mut self) -> Result<Value, Error> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'n' => {
                self.eat_lit("null")?;
                Ok(Value::Null)
            }
            b't' => {
                self.eat_lit("true")?;
                Ok(Value::Bool(true))
            }
            b'f' => {
                self.eat_lit("false")?;
                Ok(Value::Bool(false))
            }
            b'"' => self.parse_string().map(Value::Str),
            b'[' => self.nested(Parser::parse_array),
            b'{' => self.nested(Parser::parse_object),
            b'-' | b'0'..=b'9' => self.parse_number(),
            other => Err(self.err(&format!("unexpected `{}`", other as char))),
        }
    }
}

/// Parses JSON text into a [`Value`] tree.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or trailing garbage.
pub fn parse_value(s: &str) -> Result<Value, Error> {
    let mut p = Parser { bytes: s.as_bytes(), pos: 0, depth: 0 };
    let v = p.parse_value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

/// Deserializes a value from JSON text.
///
/// # Errors
///
/// Returns [`Error`] on malformed JSON or a shape mismatch.
pub fn from_str<T: Deserialize>(s: &str) -> Result<T, Error> {
    let v = parse_value(s)?;
    T::from_value(&v).map_err(Error::from)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_value_tree() {
        let v = Value::Obj(vec![
            ("name".into(), Value::Str("x\n\"y\"".into())),
            ("n".into(), Value::UInt(7)),
            ("neg".into(), Value::Int(-3)),
            ("f".into(), Value::Float(1.5)),
            ("arr".into(), Value::Arr(vec![Value::Bool(true), Value::Null])),
            ("empty".into(), Value::Obj(vec![])),
        ]);
        let compact = to_string(&v).unwrap();
        assert_eq!(parse_value(&compact).unwrap(), v);
        let pretty = to_string_pretty(&v).unwrap();
        assert_eq!(parse_value(&pretty).unwrap(), v);
        assert!(pretty.contains('\n'));
    }

    #[test]
    fn integral_floats_keep_a_decimal_point() {
        assert_eq!(to_string(&3.0f64).unwrap(), "3.0");
    }

    #[test]
    fn nesting_is_bounded() {
        let arrays = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        let objects = |n: usize| format!("{}1{}", "{\"k\":".repeat(n), "}".repeat(n));
        assert!(parse_value(&arrays(128)).is_ok());
        assert!(parse_value(&objects(128)).is_ok());
        let err = |text: &str| parse_value(text).unwrap_err().to_string();
        assert_eq!(err(&arrays(129)), "recursion limit exceeded at byte 128");
        assert_eq!(err(&objects(129)), "recursion limit exceeded at byte 640");
        // Unclosed and far deeper: the limit answers, not the stack.
        assert_eq!(err(&"[".repeat(50_000)), "recursion limit exceeded at byte 128");
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(from_str::<u32>("1 x").is_err());
        assert!(from_str::<u32>("[1").is_err());
    }
}
