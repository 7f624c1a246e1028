//! The benchmark's own JSON writer (the workspace has no serde): a value
//! tree rendered on one line, strings escaped, non-finite numbers written
//! as `null` so the output always parses.

/// A JSON value.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A number; NaN and ±∞ render as `null`.
    Num(f64),
    /// A whole number, rendered without a fraction.
    Int(u64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; keys keep their insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// A string value.
    pub fn str(s: &str) -> Json {
        Json::Str(s.to_string())
    }

    /// An object from `(key, value)` pairs.
    pub fn obj(pairs: Vec<(&str, Json)>) -> Json {
        Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_string(), v)).collect())
    }

    /// Renders the value on one line.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out);
        out
    }

    fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) if n.is_finite() => {
                // `{:?}` keeps every digit of the measurement and always
                // writes a JSON number (`1e-7`, `12.0`), never `inf`.
                out.push_str(&format!("{n:?}"));
            }
            Json::Num(_) => out.push_str("null"),
            Json::Int(i) => out.push_str(&i.to_string()),
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
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
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
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn escapes_strings() {
        let j = Json::str("a\"b\\c\nd\te\u{1}f é");
        assert_eq!(j.render(), r#""a\"b\\c\nd\te\u0001f é""#);
    }

    #[test]
    fn non_finite_numbers_become_null() {
        let j = Json::Arr(vec![
            Json::Num(f64::NAN),
            Json::Num(f64::INFINITY),
            Json::Num(f64::NEG_INFINITY),
            Json::Num(1.5),
        ]);
        assert_eq!(j.render(), "[null, null, null, 1.5]");
    }

    #[test]
    fn numbers_keep_their_digits_and_stay_json() {
        assert_eq!(Json::Num(0.1 + 0.2).render(), "0.30000000000000004");
        assert_eq!(Json::Num(12.0).render(), "12.0");
        assert_eq!(Json::Num(1e-7).render(), "1e-7");
        assert_eq!(Json::Num(1e21).render(), "1e21");
        assert_eq!(
            Json::Int(18_446_744_073_709_551_615).render(),
            "18446744073709551615"
        );
    }

    #[test]
    fn objects_keep_insertion_order() {
        let j = Json::obj(vec![
            ("b", Json::Bool(true)),
            ("a", Json::Null),
            ("c", Json::obj(vec![("k", Json::Int(1))])),
        ]);
        assert_eq!(j.render(), r#"{"b": true, "a": null, "c": {"k": 1}}"#);
    }
}
