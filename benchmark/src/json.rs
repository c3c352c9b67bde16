//! Untyped JSON over the vendored serde data model: the result line, the
//! golden file and `BENCHMARK.json` are small ad-hoc documents.

use serde::{Content, DeError, Deserialize, Serialize};

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub struct Json(pub Content);

impl Serialize for Json {
    fn to_content(&self) -> Content {
        self.0.clone()
    }
}

impl Deserialize for Json {
    fn from_content(c: &Content) -> Result<Json, DeError> {
        Ok(Json(c.clone()))
    }
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        serde_json::from_str(text).map_err(|e| e.to_string())
    }

    pub fn object(fields: Vec<(&str, Json)>) -> Json {
        Json(Content::Map(
            fields
                .into_iter()
                .map(|(k, v)| (k.to_string(), v.0))
                .collect(),
        ))
    }

    pub fn array(items: Vec<Json>) -> Json {
        Json(Content::Seq(items.into_iter().map(|j| j.0).collect()))
    }

    pub fn str(s: &str) -> Json {
        Json(Content::Str(s.to_string()))
    }

    pub fn uint(v: u64) -> Json {
        Json(Content::U64(v))
    }

    /// A measured number; non-finite values (a ratio over nothing) read 0.
    pub fn num(v: f64) -> Json {
        Json(Content::F64(if v.is_finite() { v } else { 0.0 }))
    }

    pub fn bool(v: bool) -> Json {
        Json(Content::Bool(v))
    }

    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<Json> {
        self.0
            .as_map()?
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| Json(v.clone()))
    }

    /// The members of an object, in document order.
    #[cfg(test)]
    pub fn members(&self) -> Vec<(String, Json)> {
        self.0
            .as_map()
            .map(|m| {
                m.iter()
                    .map(|(k, v)| (k.clone(), Json(v.clone())))
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The items of an array.
    pub fn items(&self) -> Vec<Json> {
        self.0
            .as_seq()
            .map(|s| s.iter().cloned().map(Json).collect())
            .unwrap_or_default()
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self.0 {
            Content::F64(v) => Some(v),
            Content::U64(v) => Some(v as f64),
            Content::I64(v) => Some(v as f64),
            _ => None,
        }
    }

    pub fn as_u64(&self) -> Option<u64> {
        match self.0 {
            Content::U64(v) => Some(v),
            Content::I64(v) => u64::try_from(v).ok(),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match &self.0 {
            Content::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self.0 {
            Content::Bool(b) => Some(b),
            _ => None,
        }
    }

    /// One line of JSON.
    pub fn compact(&self) -> String {
        serde_json::to_string(self).expect("JSON values serialize")
    }

    /// Indented JSON.
    pub fn pretty(&self) -> String {
        serde_json::to_string_pretty(self).expect("JSON values serialize")
    }
}
