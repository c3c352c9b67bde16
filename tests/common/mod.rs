//! Helpers shared by the integration tests that pull this module in with
//! `mod common;`.

use jarvis::streamkit::value::Value;

/// A key value of the kind `kind` picks, built from `bits` and `len`:
/// 0 `Null`; 1 a bool; 2 `I64` and 3 `U64` at their extremes or anywhere;
/// 4 `F64` at ±0.0, at ±inf, as a NaN with a payload (either sign) or
/// anywhere; and strings 5 empty, 6 multi-byte, or 7 of `len` bytes — past
/// 18 bytes one string alone outgrows a key's inline capacity.
pub fn key_value(kind: u8, bits: u64, len: usize) -> Value {
    match kind {
        0 => Value::Null,
        1 => Value::Bool(bits & 1 == 1),
        2 => Value::I64([i64::MIN, i64::MAX, 0, -1, bits as i64][(bits % 5) as usize]),
        3 => Value::U64([0, u64::MAX, bits][(bits % 3) as usize]),
        4 => Value::F64(
            [
                0.0,
                -0.0,
                f64::INFINITY,
                f64::NEG_INFINITY,
                f64::from_bits(bits & 0x800F_FFFF_FFFF_FFFF | 0x7FF0_0000_0000_0001),
                f64::from_bits(bits),
            ][(bits % 6) as usize],
        ),
        5 => Value::str(""),
        6 => Value::str("é∑😀".repeat(len % 4 + 1)),
        _ => Value::str("k".repeat(len)),
    }
}
