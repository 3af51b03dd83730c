//! A minimal JSON document model and pretty-printer.
//!
//! The workspace builds without external crates, so manifest and artifact
//! emission use this instead of `serde_json`. Object key order is exactly
//! insertion order, which is what makes manifests byte-stable and
//! diff-friendly in CI.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A finite number. Non-finite values render as `null`.
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object with insertion-ordered keys.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An empty object.
    pub fn obj() -> Json {
        Json::Obj(Vec::new())
    }

    /// Append a key to an object (panics on non-objects).
    pub fn set(mut self, key: &str, value: impl Into<Json>) -> Json {
        match &mut self {
            Json::Obj(fields) => fields.push((key.to_string(), value.into())),
            other => panic!("set() on non-object {other:?}"),
        }
        self
    }

    /// Render with two-space indentation and a trailing newline.
    pub fn pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out.push('\n');
        out
    }

    /// Render on a single line with no whitespace (JSONL records).
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(out, key);
                    out.push(':');
                    value.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Append the two-space-indented rendering of `self` to `out`, as a
    /// value nested `indent` levels deep (what [`Json::pretty`] writes for
    /// it inside a document). Lets a caller stream a large document whose
    /// bulk it writes itself with [`write_num`] and [`write_str`].
    pub fn write_pretty(&self, out: &mut String, indent: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Json::Num(v) => write_num(out, *v),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                if items.is_empty() {
                    out.push_str("[]");
                    return;
                }
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    item.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push(']');
            }
            Json::Obj(fields) => {
                if fields.is_empty() {
                    out.push_str("{}");
                    return;
                }
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('\n');
                    pad(out, indent + 1);
                    write_str(out, key);
                    out.push_str(": ");
                    value.write_pretty(out, indent + 1);
                }
                out.push('\n');
                pad(out, indent);
                out.push('}');
            }
        }
    }
}

fn pad(out: &mut String, indent: usize) {
    for _ in 0..indent {
        out.push_str("  ");
    }
}

/// Append a number exactly as [`Json::Num`] renders it: integral values
/// below 9e15 without a decimal point, non-finite values as `null`.
pub fn write_num(out: &mut String, v: f64) {
    if !v.is_finite() {
        out.push_str("null");
    } else if v == v.trunc() && v.abs() < 9.0e15 {
        let _ = write!(out, "{}", v as i64);
    } else {
        let _ = write!(out, "{v}");
    }
}

/// Append `s` as a quoted, escaped JSON string.
pub fn write_str(out: &mut String, s: &str) {
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

impl From<f64> for Json {
    fn from(v: f64) -> Json {
        Json::Num(v)
    }
}

impl From<u64> for Json {
    fn from(v: u64) -> Json {
        Json::Num(v as f64)
    }
}

impl From<usize> for Json {
    fn from(v: usize) -> Json {
        Json::Num(v as f64)
    }
}

impl From<bool> for Json {
    fn from(v: bool) -> Json {
        Json::Bool(v)
    }
}

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_document() {
        let doc = Json::obj()
            .set("name", "sweep")
            .set("n", 3u64)
            .set("ok", true)
            .set(
                "items",
                Json::Arr(vec![Json::Num(1.5), Json::Null, Json::Str("a\"b".into())]),
            );
        let text = doc.pretty();
        assert!(text.starts_with("{\n  \"name\": \"sweep\""));
        assert!(text.contains("\"a\\\"b\""));
        assert!(text.ends_with("}\n"));
    }

    #[test]
    fn integers_render_without_decimal_point() {
        let mut s = String::new();
        write_num(&mut s, 42.0);
        assert_eq!(s, "42");
        s.clear();
        write_num(&mut s, 0.25);
        assert_eq!(s, "0.25");
        s.clear();
        write_num(&mut s, f64::NAN);
        assert_eq!(s, "null");
    }

    #[test]
    fn compact_renders_one_line() {
        let doc = Json::obj()
            .set("seq", 7u64)
            .set("items", Json::Arr(vec![Json::Num(1.0), Json::Null]))
            .set("kind", "a b");
        assert_eq!(doc.compact(), r#"{"seq":7,"items":[1,null],"kind":"a b"}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::obj().pretty(), "{}\n");
        assert_eq!(Json::Arr(vec![]).pretty(), "[]\n");
    }

    #[test]
    fn control_chars_escaped() {
        let mut s = String::new();
        write_str(&mut s, "a\nb\u{1}");
        assert_eq!(s, "\"a\\nb\\u0001\"");
    }
}
