//! JSON serializers: compact (canonical) and pretty-printed.

use super::Value;

/// Where the serializers write: a `String` or `Vec<u8>` keeps the text,
/// [`crate::op::ItemKey::derive`]'s FNV-1a state only hashes it.
pub(crate) trait Sink {
    /// Appends `text`.
    fn put(&mut self, text: &str);
}

impl Sink for String {
    fn put(&mut self, text: &str) {
        self.push_str(text);
    }
}

impl Sink for Vec<u8> {
    fn put(&mut self, text: &str) {
        self.extend_from_slice(text.as_bytes());
    }
}

/// Serializes to compact canonical JSON: no whitespace, sorted map keys
/// (guaranteed by the `BTreeMap` backing).
pub fn to_compact(value: &Value) -> String {
    let mut out = String::new();
    write_compact(&mut out, value);
    out
}

/// Appends [`to_compact`]'s text to `out`.
pub(crate) fn write_compact(out: &mut impl Sink, value: &Value) {
    write_value(out, value, None, 0);
}

/// Serializes to pretty JSON with two-space indentation.
pub fn to_pretty(value: &Value) -> String {
    let mut out = String::new();
    write_value(&mut out, value, Some(2), 0);
    out
}

fn write_value(out: &mut impl Sink, value: &Value, indent: Option<usize>, level: usize) {
    match value {
        Value::Null => out.put("null"),
        Value::Bool(true) => out.put("true"),
        Value::Bool(false) => out.put("false"),
        Value::Number(n) => out.put(&n.to_string()),
        Value::String(s) => write_string(out, s),
        Value::List(items) => {
            if items.is_empty() {
                out.put("[]");
                return;
            }
            out.put("[");
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.put(",");
                }
                newline_indent(out, indent, level + 1);
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.put("]");
        }
        Value::Map(map) => {
            if map.is_empty() {
                out.put("{}");
                return;
            }
            out.put("{");
            for (i, (key, item)) in map.iter().enumerate() {
                if i > 0 {
                    out.put(",");
                }
                newline_indent(out, indent, level + 1);
                write_string(out, key);
                out.put(if indent.is_some() { ": " } else { ":" });
                write_value(out, item, indent, level + 1);
            }
            newline_indent(out, indent, level);
            out.put("}");
        }
    }
}

fn newline_indent(out: &mut impl Sink, indent: Option<usize>, level: usize) {
    if let Some(width) = indent {
        out.put("\n");
        for _ in 0..width * level {
            out.put(" ");
        }
    }
}

/// Writes `s` as a JSON string literal. Every byte that needs an escape
/// is ASCII, so the text between two of them moves as one slice.
pub(crate) fn write_string(out: &mut impl Sink, s: &str) {
    out.put("\"");
    let escaped = |b: u8| b < 0x20 || b == b'"' || b == b'\\';
    let mut rest = s;
    while let Some(at) = rest.bytes().position(escaped) {
        out.put(&rest[..at]);
        match rest.as_bytes()[at] {
            b'"' => out.put("\\\""),
            b'\\' => out.put("\\\\"),
            b'\n' => out.put("\\n"),
            b'\r' => out.put("\\r"),
            b'\t' => out.put("\\t"),
            0x08 => out.put("\\b"),
            0x0c => out.put("\\f"),
            control => out.put(&format!("\\u{control:04x}")),
        }
        rest = &rest[at + 1..];
    }
    out.put(rest);
    out.put("\"");
}

#[cfg(test)]
mod tests {
    use crate::json::Value;

    fn roundtrip(text: &str) {
        let v: Value = text.parse().unwrap();
        let compact = v.to_compact_string();
        assert_eq!(compact.parse::<Value>().unwrap(), v, "compact roundtrip");
        let pretty = v.to_pretty_string();
        assert_eq!(pretty.parse::<Value>().unwrap(), v, "pretty roundtrip");
    }

    #[test]
    fn compact_form_is_canonical() {
        let v: Value = r#"{"b":"2","a":"1"}"#.parse().unwrap();
        assert_eq!(v.to_compact_string(), r#"{"a":"1","b":"2"}"#);
    }

    #[test]
    fn empty_containers() {
        assert_eq!(Value::empty_map().to_compact_string(), "{}");
        assert_eq!(Value::list([]).to_compact_string(), "[]");
        assert_eq!(Value::empty_map().to_pretty_string(), "{}");
    }

    #[test]
    fn string_escaping() {
        let v = Value::string("a\"b\\c\nd\u{1}");
        assert_eq!(v.to_compact_string(), "\"a\\\"b\\\\c\\nd\\u0001\"");
        roundtrip(&v.to_compact_string());
    }

    #[test]
    fn pretty_output_shape() {
        let v: Value = r#"{"a":["1"]}"#.parse().unwrap();
        assert_eq!(v.to_pretty_string(), "{\n  \"a\": [\n    \"1\"\n  ]\n}");
    }

    #[test]
    fn roundtrips() {
        roundtrip(r#"{"device":"d1","readings":["50.0","51.2"],"nested":{"a":{"b":["x"]}}}"#);
        roundtrip(r#"[null,true,false,1,2.5,-3,"s"]"#);
        roundtrip(r#""unicode: é😀""#);
    }

    #[test]
    fn integer_numbers_render_without_fraction() {
        let v: Value = "42".parse().unwrap();
        assert_eq!(v.to_compact_string(), "42");
        let v: Value = "42.5".parse().unwrap();
        assert_eq!(v.to_compact_string(), "42.5");
    }
}
