//! Minimal JSON writer for machine-readable report export.
//!
//! `serde_json` is deliberately not a dependency (the workspace's allowed
//! external crates do not include it), and report structures are simple
//! enough that a small escaping writer suffices. Output is strict JSON:
//! UTF-8, escaped strings, finite numbers (NaN/∞ serialize as `null`).

use std::fmt::Write;

/// A JSON value under construction.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// Boolean.
    Bool(bool),
    /// Any finite number (non-finite values render as `null`).
    Num(f64),
    /// String (escaped on render).
    Str(String),
    /// Ordered array.
    Arr(Vec<Json>),
    /// Ordered object (insertion order preserved).
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Convenience: an object from key/value pairs.
    pub fn obj(pairs: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Convenience: a string value.
    pub fn s(value: impl Into<String>) -> Json {
        Json::Str(value.into())
    }

    /// Convenience: an integer value.
    pub fn u(value: u64) -> Json {
        Json::Num(value as f64)
    }

    /// Renders to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => {
                if n.is_finite() {
                    if n.fract() == 0.0 && n.abs() < 9.0e15 {
                        write!(out, "{}", *n as i64).unwrap();
                    } else {
                        write!(out, "{n}").unwrap();
                    }
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\r' => out.push_str("\\r"),
                        '\t' => out.push_str("\\t"),
                        c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).unwrap(),
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).write(out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars_render() {
        assert_eq!(Json::Null.render(), "null");
        assert_eq!(Json::Bool(true).render(), "true");
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
        assert_eq!(Json::Num(f64::INFINITY).render(), "null");
        assert_eq!(Json::u(42).render(), "42");
    }

    #[test]
    fn strings_are_escaped() {
        assert_eq!(Json::s("a\"b\\c\nd").render(), r#""a\"b\\c\nd""#);
        assert_eq!(Json::s("tab\there").render(), r#""tab\there""#);
        assert_eq!(Json::s("\u{1}").render(), "\"\\u0001\"");
        assert_eq!(Json::s("日本").render(), "\"日本\"");
    }

    #[test]
    fn arrays_and_objects_nest() {
        let v = Json::obj([
            ("xs", Json::Arr(vec![Json::u(1), Json::u(2)])),
            ("name", Json::s("t1")),
            ("inner", Json::obj([("ok", Json::Bool(false))])),
        ]);
        assert_eq!(
            v.render(),
            r#"{"xs":[1,2],"name":"t1","inner":{"ok":false}}"#
        );
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Json::Arr(vec![]).render(), "[]");
        assert_eq!(Json::Obj(vec![]).render(), "{}");
    }
}
