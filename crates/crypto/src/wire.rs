//! A compact binary codec used throughout the workspace.
//!
//! The sanctioned dependency set contains serde but no serde *format* crate,
//! so SecureCloud components encode their wire structures with this small
//! codec instead: fixed-width little-endian integers, length-prefixed
//! sequences, and the [`impl_wire_struct!`](crate::impl_wire_struct) helper
//! macro for product types.
//!
//! Decoding is defensive: length prefixes are validated against the bytes
//! actually remaining, so malformed or truncated (potentially hostile) input
//! fails with [`CryptoError::Malformed`] instead of over-allocating.

use crate::CryptoError;
use std::collections::BTreeMap;

/// Types that can be encoded to / decoded from the SecureCloud wire format.
pub trait Wire: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode(&self, out: &mut Vec<u8>);
    /// Decodes a value from `r`, advancing its position.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] if the input is truncated or invalid.
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError>;

    /// Encodes consecutive values: the body of a sequence, after its length
    /// prefix. The counterpart of [`Wire::decode_vec`].
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode(out);
        }
    }

    /// Decodes `len` consecutive values: the body of a sequence whose length
    /// prefix the caller has already read. Element by element unless a type
    /// can do better (`u8` copies the run in one piece).
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] if the input is truncated or invalid.
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, CryptoError> {
        // Each element takes at least one byte; bound allocation by input.
        let mut items = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            items.push(Self::decode(r)?);
        }
        Ok(items)
    }

    /// Convenience: encodes into a fresh vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Convenience: decodes from a slice, requiring all bytes be consumed.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] on truncated input or trailing bytes.
    fn from_wire(bytes: &[u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        let value = Self::decode(&mut r)?;
        if r.remaining() != 0 {
            return Err(CryptoError::Malformed(format!(
                "{} trailing bytes after decode",
                r.remaining()
            )));
        }
        Ok(value)
    }
}

/// Cursor over a byte slice for decoding.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Creates a reader over `buf`.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes exactly `n` bytes.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] if fewer than `n` bytes remain.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], CryptoError> {
        if self.remaining() < n {
            return Err(CryptoError::Malformed(format!(
                "need {n} bytes, {} remain",
                self.remaining()
            )));
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Reads a u32 length prefix and validates it against remaining input.
    fn length(&mut self) -> Result<usize, CryptoError> {
        let len = u32::decode(self)? as usize;
        if len > self.remaining() {
            return Err(CryptoError::Malformed(format!(
                "declared length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(len)
    }
}

macro_rules! impl_wire_int {
    ($($t:ty),*) => {$(
        impl Wire for $t {
            fn encode(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
                let bytes = r.take(std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("sized take")))
            }
        }
    )*};
}

impl_wire_int!(u16, u32, u64, i8, i16, i32, i64);

impl Wire for u8 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(r.take(1)?[0])
    }
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    fn decode_vec(r: &mut Reader<'_>, len: usize) -> Result<Vec<Self>, CryptoError> {
        Ok(r.take(len)?.to_vec())
    }
}

impl Wire for f64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(f64::from_bits(u64::decode(r)?))
    }
}

impl Wire for bool {
    fn encode(&self, out: &mut Vec<u8>) {
        out.push(u8::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match u8::decode(r)? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CryptoError::Malformed(format!("bool byte {other}"))),
        }
    }
}

impl Wire for usize {
    fn encode(&self, out: &mut Vec<u8>) {
        (*self as u64).encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let v = u64::decode(r)?;
        usize::try_from(v).map_err(|_| CryptoError::Malformed("usize overflow".into()))
    }
}

impl Wire for String {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let len = r.length()?;
        let bytes = r.take(len)?;
        String::from_utf8(bytes.to_vec())
            .map_err(|e| CryptoError::Malformed(format!("invalid utf-8: {e}")))
    }
}

/// Encodes `items` as a sequence — the bytes `Vec<T>::encode` appends —
/// for callers that hold a slice and should not have to clone it into a
/// `Vec` first.
pub fn encode_seq<T: Wire>(items: &[T], out: &mut Vec<u8>) {
    (items.len() as u32).encode(out);
    T::encode_slice(items, out);
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        encode_seq(self, out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let len = u32::decode(r)? as usize;
        // Each element takes at least one byte; bound allocation by input.
        if len > r.remaining() {
            return Err(CryptoError::Malformed(format!(
                "sequence length {len} exceeds input"
            )));
        }
        T::decode_vec(r, len)
    }
}

impl<const N: usize> Wire for [u8; N] {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok(r.take(N)?.try_into().expect("sized take"))
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            None => out.push(0),
            Some(v) => {
                out.push(1);
                v.encode(out);
            }
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        match u8::decode(r)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            other => Err(CryptoError::Malformed(format!("option tag {other}"))),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, out: &mut Vec<u8>) {
        self.0.encode(out);
        self.1.encode(out);
        self.2.encode(out);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        Ok((A::decode(r)?, B::decode(r)?, C::decode(r)?))
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, out: &mut Vec<u8>) {
        (self.len() as u32).encode(out);
        for (k, v) in self {
            k.encode(out);
            v.encode(out);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, CryptoError> {
        let len = u32::decode(r)? as usize;
        if len > r.remaining() {
            return Err(CryptoError::Malformed(format!(
                "map length {len} exceeds input"
            )));
        }
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = K::decode(r)?;
            let v = V::decode(r)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

/// Implements [`Wire`] for a struct by encoding its fields in order.
///
/// ```
/// use securecloud_crypto::impl_wire_struct;
/// use securecloud_crypto::wire::Wire;
///
/// #[derive(Debug, PartialEq)]
/// struct Reading { meter: u64, watts: f64 }
/// impl_wire_struct!(Reading { meter, watts });
///
/// let r = Reading { meter: 7, watts: 230.0 };
/// assert_eq!(Reading::from_wire(&r.to_wire()).unwrap(), r);
/// ```
#[macro_export]
macro_rules! impl_wire_struct {
    ($name:ident { $($field:ident),* $(,)? }) => {
        impl $crate::wire::Wire for $name {
            fn encode(&self, out: &mut Vec<u8>) {
                $( $crate::wire::Wire::encode(&self.$field, out); )*
            }
            fn decode(r: &mut $crate::wire::Reader<'_>) -> Result<Self, $crate::CryptoError> {
                Ok($name { $( $field: $crate::wire::Wire::decode(r)? ),* })
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn int_roundtrips() {
        for v in [0u64, 1, u64::MAX, 0xdead_beef] {
            assert_eq!(u64::from_wire(&v.to_wire()).unwrap(), v);
        }
        assert_eq!(i64::from_wire(&(-42i64).to_wire()).unwrap(), -42);
        assert_eq!(u8::from_wire(&[7]).unwrap(), 7);
    }

    #[test]
    fn string_and_vec_roundtrip() {
        let s = "héllo wörld".to_string();
        assert_eq!(String::from_wire(&s.to_wire()).unwrap(), s);
        let v: Vec<u32> = vec![1, 2, 3];
        assert_eq!(Vec::<u32>::from_wire(&v.to_wire()).unwrap(), v);
        let bytes: Vec<u8> = vec![0, 255, 128];
        assert_eq!(Vec::<u8>::from_wire(&bytes.to_wire()).unwrap(), bytes);
    }

    #[test]
    fn option_and_tuple_roundtrip() {
        let some: Option<String> = Some("x".into());
        assert_eq!(Option::<String>::from_wire(&some.to_wire()).unwrap(), some);
        let none: Option<String> = None;
        assert_eq!(Option::<String>::from_wire(&none.to_wire()).unwrap(), none);
        let t = (1u8, "a".to_string(), vec![9u64]);
        assert_eq!(
            <(u8, String, Vec<u64>)>::from_wire(&t.to_wire()).unwrap(),
            t
        );
    }

    #[test]
    fn map_roundtrip() {
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u32);
        m.insert("b".to_string(), 2);
        assert_eq!(BTreeMap::<String, u32>::from_wire(&m.to_wire()).unwrap(), m);
    }

    #[test]
    fn truncated_input_fails() {
        let encoded = "hello".to_string().to_wire();
        for cut in 0..encoded.len() {
            assert!(String::from_wire(&encoded[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        // Declares a 4 GiB string with 2 bytes of payload.
        let mut evil = Vec::new();
        (u32::MAX).encode(&mut evil);
        evil.extend_from_slice(b"hi");
        assert!(String::from_wire(&evil).is_err());
        assert!(Vec::<u8>::from_wire(&evil).is_err());
        assert!(Vec::<u64>::from_wire(&evil).is_err());
    }

    #[test]
    fn decode_vec_is_bounded_by_input() {
        // Called directly, without `Vec::decode`'s own length check: the bulk
        // `u8` path and the element-wise default both fail on a count the
        // input cannot hold, without allocating for it.
        let bytes = [1u8, 2, 3, 4, 5];
        assert!(u8::decode_vec(&mut Reader::new(&bytes), 6).is_err());
        assert!(u32::decode_vec(&mut Reader::new(&bytes), usize::MAX).is_err());
        let mut r = Reader::new(&bytes);
        assert_eq!(u8::decode_vec(&mut r, 3).unwrap(), [1, 2, 3]);
        assert_eq!(r.remaining(), 2);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut encoded = 5u32.to_wire();
        encoded.push(0);
        assert!(u32::from_wire(&encoded).is_err());
    }

    #[test]
    fn invalid_bool_and_option_tags() {
        assert!(bool::from_wire(&[2]).is_err());
        assert!(Option::<u8>::from_wire(&[9, 1]).is_err());
    }

    #[test]
    fn struct_macro_roundtrip() {
        #[derive(Debug, PartialEq)]
        struct Nested {
            id: u32,
            tags: Vec<String>,
        }
        impl_wire_struct!(Nested { id, tags });
        #[derive(Debug, PartialEq)]
        struct Outer {
            nested: Nested,
            flag: bool,
        }
        // The macro works at function scope too (C-ANYWHERE).
        impl_wire_struct!(Outer { nested, flag });
        let v = Outer {
            nested: Nested {
                id: 3,
                tags: vec!["x".into(), "y".into()],
            },
            flag: true,
        };
        assert_eq!(Outer::from_wire(&v.to_wire()).unwrap(), v);
    }

    #[test]
    fn fixed_array_roundtrip() {
        let a: [u8; 32] = [7u8; 32];
        assert_eq!(<[u8; 32]>::from_wire(&a.to_wire()).unwrap(), a);
        assert!(<[u8; 32]>::from_wire(&[0u8; 31]).is_err());
    }
}
