//! A minimal JSON emitter for every machine-readable document the stack
//! writes: task documents ([`render`](crate::render)), the server's status
//! and health responses, and the CLI's Table 1 report.
//!
//! The build environment is offline, so instead of `serde_json` documents are
//! assembled with this small value tree. Only the shapes those documents
//! need are supported: objects (insertion-ordered), arrays, strings,
//! unsigned integers and booleans.

use std::fmt::Write as _;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Value {
    /// A string (escaped on render).
    Str(String),
    /// An unsigned integer.
    UInt(u128),
    /// A boolean.
    Bool(bool),
    /// An array of values.
    Array(Vec<Value>),
    /// An object; keys keep insertion order.
    Object(Vec<(String, Value)>),
}

impl Value {
    /// Creates an empty object.
    pub fn object() -> Value {
        Value::Object(Vec::new())
    }

    /// Adds (or replaces nothing — keys are appended) a field to an object
    /// and returns the object for chaining.
    ///
    /// # Panics
    ///
    /// Panics if `self` is not an object.
    #[must_use]
    pub fn field(mut self, key: &str, value: impl Into<Value>) -> Value {
        match &mut self {
            Value::Object(fields) => fields.push((key.to_owned(), value.into())),
            _ => panic!("field() on a non-object"),
        }
        self
    }

    /// Renders the value as a compact JSON document.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Value::Str(s) => {
                out.push('"');
                for c in s.chars() {
                    match c {
                        '"' => out.push_str("\\\""),
                        '\\' => out.push_str("\\\\"),
                        '\n' => out.push_str("\\n"),
                        '\t' => out.push_str("\\t"),
                        '\r' => out.push_str("\\r"),
                        c if (c as u32) < 0x20 => {
                            let _ = write!(out, "\\u{:04x}", c as u32);
                        }
                        c => out.push(c),
                    }
                }
                out.push('"');
            }
            Value::UInt(n) => {
                let _ = write!(out, "{n}");
            }
            Value::Bool(b) => {
                let _ = write!(out, "{b}");
            }
            Value::Array(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write(out);
                }
                out.push(']');
            }
            Value::Object(fields) => {
                out.push('{');
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Value::Str(key.clone()).write(out);
                    out.push(':');
                    value.write(out);
                }
                out.push('}');
            }
        }
    }
}

impl From<&str> for Value {
    fn from(s: &str) -> Value {
        Value::Str(s.to_owned())
    }
}

impl From<String> for Value {
    fn from(s: String) -> Value {
        Value::Str(s)
    }
}

impl From<usize> for Value {
    fn from(n: usize) -> Value {
        Value::UInt(n as u128)
    }
}

impl From<u128> for Value {
    fn from(n: u128) -> Value {
        Value::UInt(n)
    }
}

impl From<bool> for Value {
    fn from(b: bool) -> Value {
        Value::Bool(b)
    }
}

impl From<Vec<Value>> for Value {
    fn from(items: Vec<Value>) -> Value {
        Value::Array(items)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_nested_documents() {
        let doc = Value::object()
            .field("name", "scaling \"bench\"")
            .field("threads", 4usize)
            .field("ok", true)
            .field(
                "points",
                vec![
                    Value::object().field("n", 1usize),
                    Value::object().field("n", 2usize),
                ],
            );
        assert_eq!(
            doc.render(),
            r#"{"name":"scaling \"bench\"","threads":4,"ok":true,"points":[{"n":1},{"n":2}]}"#
        );
    }

    #[test]
    fn escapes_control_characters() {
        assert_eq!(Value::Str("a\nb".into()).render(), r#""a\nb""#);
    }
}
