//! The one JSON emitter of the benchmark: a value tree with escaping and nesting,
//! written compact (result lines, JSONL trace records) or indented
//! (`BENCHMARK.json`). Emit-only: nothing here parses.

use std::fmt::Write;

/// A JSON value. Object keys keep insertion order.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A whole number, written without a decimal point.
    Int(i64),
    /// A float, written with every digit needed to read it back exactly; non-finite
    /// values have no JSON form and are written as `null`.
    Num(f64),
    /// A string, escaped on output.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// An object from `(key, value)` pairs.
    pub fn obj<K: Into<String>>(pairs: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// A string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }

    /// An unsigned count (saturating at `i64::MAX`, far beyond any count here).
    pub fn count(n: u64) -> Json {
        Json::Int(i64::try_from(n).unwrap_or(i64::MAX))
    }

    /// Compact single-line form.
    pub fn compact(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Indented multi-line form (`indent` spaces per level), with a trailing newline.
    pub fn pretty(&self, indent: usize) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(indent), 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Int(i) => write!(out, "{i}").expect("write to string"),
            Json::Num(x) if x.is_finite() => write!(out, "{x:?}").expect("write to string"),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                // Arrays of scalars stay on one line even when indenting.
                let flat = items.iter().all(|i| !matches!(i, Json::Arr(_) | Json::Obj(_)));
                let inner = if flat { None } else { indent };
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    separator(out, i, inner, depth + 1, flat && indent.is_some());
                    item.write(out, inner, depth + 1);
                }
                close(out, items.is_empty(), inner, depth);
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (key, value)) in pairs.iter().enumerate() {
                    separator(out, i, indent, depth + 1, false);
                    write_escaped(out, key);
                    out.push_str(if indent.is_some() { ": " } else { ":" });
                    value.write(out, indent, depth + 1);
                }
                close(out, pairs.is_empty(), indent, depth);
                out.push('}');
            }
        }
    }
}

fn separator(out: &mut String, index: usize, indent: Option<usize>, depth: usize, spaced: bool) {
    if index > 0 {
        out.push(',');
        if spaced {
            out.push(' ');
        }
    }
    if let Some(width) = indent {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn close(out: &mut String, empty: bool, indent: Option<usize>, depth: usize) {
    if let (false, Some(width)) = (empty, indent) {
        out.push('\n');
        out.push_str(&" ".repeat(width * depth));
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => write!(out, "\\u{:04x}", c as u32).expect("write to string"),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalars() {
        assert_eq!(Json::Null.compact(), "null");
        assert_eq!(Json::Bool(true).compact(), "true");
        assert_eq!(Json::Int(-3).compact(), "-3");
        assert_eq!(Json::count(7).compact(), "7");
        assert_eq!(Json::Num(1.2034).compact(), "1.2034");
        assert_eq!(Json::Num(2.0).compact(), "2.0");
        assert_eq!(Json::Num(1e-7).compact(), "1e-7");
        assert_eq!(Json::Num(f64::NAN).compact(), "null");
        assert_eq!(Json::Num(f64::INFINITY).compact(), "null");
    }

    #[test]
    fn floats_keep_every_digit() {
        let x = 0.1f64 + 0.2;
        assert_eq!(Json::Num(x).compact().parse::<f64>().unwrap(), x);
    }

    #[test]
    fn strings_are_escaped() {
        let s = Json::str("a\"b\\c\nd\te\u{1}é");
        assert_eq!(s.compact(), "\"a\\\"b\\\\c\\nd\\te\\u0001é\"");
    }

    #[test]
    fn nesting_compact() {
        let v = Json::obj([
            ("correct", Json::Bool(true)),
            ("metrics", Json::obj([("op_ms", Json::obj([("value", Json::Num(0.5))]))])),
            ("list", Json::Arr(vec![Json::Int(1), Json::Arr(vec![]), Json::obj::<&str>([])])),
        ]);
        assert_eq!(
            v.compact(),
            "{\"correct\":true,\"metrics\":{\"op_ms\":{\"value\":0.5}},\"list\":[1,[],{}]}"
        );
    }

    #[test]
    fn nesting_pretty() {
        let v = Json::obj([
            ("command", Json::Arr(vec![Json::str("cargo"), Json::str("run")])),
            ("workloads", Json::Arr(vec![Json::obj([("name", Json::str("w"))])])),
        ]);
        let want = "{\n  \"command\": [\"cargo\", \"run\"],\n  \"workloads\": [\n    {\n      \
                    \"name\": \"w\"\n    }\n  ]\n}\n";
        assert_eq!(v.pretty(2), want);
    }
}
