//! [`GroupKey`]: a group key as its canonical encoding.
//!
//! A group table stores every key as the bytes [`crate::shard`]'s canonical
//! encoding writes (a variant tag and a payload per value). Shipped state
//! carries the key in the same form, so a key leaves the table's arena, is
//! routed, crosses the wire and is probed on the receiving table without
//! ever becoming a `Vec<Value>`.

use std::fmt;
use std::num::NonZeroU8;

use serde::{Content, DeError, Deserialize, Serialize};

use crate::shard::{decode_value, encode_value, fragment_len};
use crate::value::Value;

/// Longest encoding held inline. Two integer values take 18 bytes.
const INLINE: usize = 23;

/// A group key: the canonical encoding of its values, inline up to 23
/// bytes and boxed past that.
///
/// Equality and hashing are byte equality, which is value equality: the
/// encoding is bit-exact (`F64` by bit pattern, as [`Value`]'s own `Eq`).
/// A key prints, serialises and deserialises as the values it encodes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct GroupKey(Repr);

/// A key of at most [`INLINE`] bytes is always inline and a longer one
/// always boxed, and inline bytes past `len` are zero, so the derived
/// equality and hash see each key in one form only.
#[derive(Clone, PartialEq, Eq, Hash)]
enum Repr {
    /// `len` is the byte length plus one, so the enum fits in 24 bytes.
    Inline {
        len: NonZeroU8,
        bytes: [u8; INLINE],
    },
    Boxed(Box<[u8]>),
}

impl GroupKey {
    /// The key of `values`.
    pub fn from_values(values: &[Value]) -> GroupKey {
        let mut bytes = Vec::new();
        for v in values {
            encode_value(&mut bytes, v);
        }
        GroupKey::from_canonical(&bytes)
    }

    /// The key whose canonical encoding is `bytes`, which must be bytes
    /// [`encode_value`] / [`crate::shard::encode_col_value`] wrote.
    pub(crate) fn from_canonical(bytes: &[u8]) -> GroupKey {
        if bytes.len() > INLINE {
            return GroupKey(Repr::Boxed(bytes.into()));
        }
        let mut inline = [0; INLINE];
        inline[..bytes.len()].copy_from_slice(bytes);
        GroupKey(Repr::Inline {
            len: NonZeroU8::MIN.saturating_add(bytes.len() as u8),
            bytes: inline,
        })
    }

    /// The canonical encoding.
    #[inline]
    pub fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            Repr::Inline { len, bytes } => &bytes[..usize::from(len.get()) - 1],
            Repr::Boxed(bytes) => bytes,
        }
    }

    /// Each value's canonical fragment, in key order.
    pub(crate) fn fragments(&self) -> Fragments<'_> {
        Fragments(self.as_bytes())
    }

    /// Number of values in the key.
    pub fn arity(&self) -> usize {
        self.fragments().count()
    }

    /// The values the key encodes.
    pub fn values(&self) -> Vec<Value> {
        self.fragments()
            .map(|mut f| decode_value(&mut f).into_value())
            .collect()
    }
}

/// Iterator over a canonical encoding's per-value fragments.
pub(crate) struct Fragments<'a>(&'a [u8]);

impl<'a> Iterator for Fragments<'a> {
    type Item = &'a [u8];

    #[inline]
    fn next(&mut self) -> Option<&'a [u8]> {
        if self.0.is_empty() {
            return None;
        }
        let (fragment, rest) = self.0.split_at(fragment_len(self.0));
        self.0 = rest;
        Some(fragment)
    }
}

impl fmt::Debug for GroupKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.values()).finish()
    }
}

impl Serialize for GroupKey {
    fn to_content(&self) -> Content {
        self.values().to_content()
    }
}

impl Deserialize for GroupKey {
    fn from_content(c: &Content) -> Result<Self, DeError> {
        Vec::<Value>::from_content(c).map(|values| GroupKey::from_values(&values))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_key_is_as_small_as_a_vec() {
        assert_eq!(size_of::<GroupKey>(), size_of::<Vec<Value>>());
    }

    #[test]
    fn keys_up_to_the_inline_capacity_stay_inline() {
        let inline = |k: &GroupKey| matches!(k.0, Repr::Inline { .. });
        let two_ints = GroupKey::from_values(&[Value::U64(1), Value::I64(-1)]);
        assert_eq!(two_ints.as_bytes().len(), 18);
        assert!(inline(&two_ints));
        // A string of n bytes encodes in 5 + n.
        let at = GroupKey::from_values(&[Value::str("x".repeat(INLINE - 5))]);
        let past = GroupKey::from_values(&[Value::str("x".repeat(INLINE - 4))]);
        assert_eq!(at.as_bytes().len(), INLINE);
        assert!(inline(&at));
        assert!(!inline(&past));
        assert_eq!(GroupKey::from_values(&[]).as_bytes(), b"");
    }

    #[test]
    fn fragments_split_the_encoding_per_value() {
        let values = [
            Value::Null,
            Value::Bool(true),
            Value::str("ab"),
            Value::F64(-0.0),
        ];
        let key = GroupKey::from_values(&values);
        let lens: Vec<usize> = key.fragments().map(<[u8]>::len).collect();
        assert_eq!(lens, [1, 2, 7, 9]);
        assert_eq!(key.arity(), 4);
        assert_eq!(key.values(), values);
        assert_eq!(format!("{key:?}"), format!("{values:?}"));
    }
}
