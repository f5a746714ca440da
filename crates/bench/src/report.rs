//! A dependency-free JSON writer.
//!
//! The bins print TSV for humans; the one file `tcp-bench` ever writes is
//! the Perfetto export behind `--trace <path>`, and the `# name: {...}`
//! summary lines of the serving sweeps are rendered from the same value
//! tree. No serde in the vendored dependency set, so this is a minimal
//! hand-rolled tree + serializer covering exactly that: objects with
//! ordered keys, arrays, strings, integers, and floats.

use std::io::Write;
use std::path::Path;

/// A JSON value. Construct with the `From` impls and [`Json::obj`] /
/// [`Json::arr`]; serialize with [`render`](Json::render) or
/// [`write_file`](Json::write_file).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    /// Unsigned counters (commits, sheds, latencies in ns) — serialized
    /// exactly, never through f64.
    UInt(u64),
    Int(i64),
    /// Finite floats; NaN/∞ degrade to `null` at serialization time.
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl From<bool> for Json {
    fn from(v: bool) -> Self {
        Json::Bool(v)
    }
}
impl From<u64> for Json {
    fn from(v: u64) -> Self {
        Json::UInt(v)
    }
}
impl From<usize> for Json {
    fn from(v: usize) -> Self {
        Json::UInt(v as u64)
    }
}
impl From<i64> for Json {
    fn from(v: i64) -> Self {
        Json::Int(v)
    }
}
impl From<f64> for Json {
    fn from(v: f64) -> Self {
        Json::Num(v)
    }
}
impl From<&str> for Json {
    fn from(v: &str) -> Self {
        Json::Str(v.to_string())
    }
}
impl From<String> for Json {
    fn from(v: String) -> Self {
        Json::Str(v)
    }
}
impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl Json {
    /// An object from `(key, value)` pairs, preserving order.
    pub fn obj<K: Into<String>, V: Into<Json>>(pairs: impl IntoIterator<Item = (K, V)>) -> Self {
        Json::Obj(
            pairs
                .into_iter()
                .map(|(k, v)| (k.into(), v.into()))
                .collect(),
        )
    }

    /// An array from values.
    pub fn arr<V: Into<Json>>(items: impl IntoIterator<Item = V>) -> Self {
        Json::Arr(items.into_iter().map(Into::into).collect())
    }

    /// The value under `key`, when this is an object that has one.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(pairs) => pairs.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Serialize to a compact JSON string.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.render_into(&mut out);
        out
    }

    fn render_into(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::UInt(v) => out.push_str(&v.to_string()),
            Json::Int(v) => out.push_str(&v.to_string()),
            Json::Num(v) => {
                if v.is_finite() {
                    // `{}` on f64 prints the shortest round-trip form.
                    out.push_str(&v.to_string());
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
                        c if (c as u32) < 0x20 => {
                            out.push_str(&format!("\\u{:04x}", c as u32));
                        }
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
                    item.render_into(out);
                }
                out.push(']');
            }
            Json::Obj(pairs) => {
                out.push('{');
                for (i, (k, v)) in pairs.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    Json::Str(k.clone()).render_into(out);
                    out.push(':');
                    v.render_into(out);
                }
                out.push('}');
            }
        }
    }

    /// Write the serialized value (plus a trailing newline) to `path`.
    pub fn write_file(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        let mut f = std::fs::File::create(path)?;
        f.write_all(self.render().as_bytes())?;
        f.write_all(b"\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_scalars_arrays_and_objects() {
        let j = Json::obj([
            ("name", Json::from("serve")),
            ("ok", Json::from(true)),
            ("commits", Json::from(12_000u64)),
            ("ops_per_sec", Json::from(1234.5)),
            ("none", Json::Null),
            ("rows", Json::arr([1u64, 2, 3])),
        ]);
        assert_eq!(
            j.render(),
            r#"{"name":"serve","ok":true,"commits":12000,"ops_per_sec":1234.5,"none":null,"rows":[1,2,3]}"#
        );
    }

    #[test]
    fn escapes_strings_and_degrades_non_finite() {
        let j = Json::arr([
            Json::from("a\"b\\c\nd\te"),
            Json::from(f64::NAN),
            Json::from(f64::INFINITY),
        ]);
        assert_eq!(j.render(), r#"["a\"b\\c\nd\te",null,null]"#);
        let ctl = Json::from("\u{1}");
        assert_eq!(ctl.render(), "\"\\u0001\"");
    }

    #[test]
    fn u64_counters_do_not_lose_precision() {
        let big = u64::MAX - 1;
        assert_eq!(Json::from(big).render(), big.to_string());
    }

    #[test]
    fn write_file_roundtrips() {
        let dir = std::env::temp_dir().join("tcp_bench_report_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let j = Json::obj([("x", 1u64)]);
        j.write_file(&path).unwrap();
        let body = std::fs::read_to_string(&path).unwrap();
        assert_eq!(body, "{\"x\":1}\n");
        let _ = std::fs::remove_file(&path);
    }
}
