//! The one parser of the publication format: a validated, borrowed view.
//!
//! [`PublicationRef::parse`] checks one publication encoding and
//! [`Notifications::parse`] a `Vec<Publication>` one, every byte once, so
//! borrowing from the view never fails and an owned [`Publication`] is
//! built only when a consumer takes one. The router matches over the view
//! and copies the matches' validated bytes into the notification frames
//! that subscribers open into the same view.
//!
//! The view accepts a subset of what the owned `Wire` decoder accepts: every
//! encoder writes a publication from its `BTreeMap`, so a genuine one lists
//! its keys in strictly ascending order, and one that does not is rejected
//! rather than silently folded into a different map.

#![deny(clippy::unwrap_used, clippy::indexing_slicing)]

use crate::types::{Publication, Value};
use securecloud_crypto::wire::{Reader, Wire};
use securecloud_crypto::CryptoError;
use std::collections::BTreeMap;
use std::ops::Range;

/// An attribute value borrowed from a view.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ValueRef<'a> {
    /// 64-bit signed integer.
    Int(i64),
    /// 64-bit float.
    Float(f64),
    /// UTF-8 string.
    Str(&'a str),
}

impl ValueRef<'_> {
    /// The owned value.
    #[must_use]
    pub fn to_value(self) -> Value {
        match self {
            ValueRef::Int(v) => Value::Int(v),
            ValueRef::Float(v) => Value::Float(v),
            ValueRef::Str(v) => Value::Str(v.to_owned()),
        }
    }
}

/// One publication, borrowed from its validated encoding.
#[derive(Debug, Clone, Copy)]
pub struct PublicationRef<'a> {
    /// The publication's validated encoding: attribute count, then pairs.
    bytes: &'a [u8],
}

impl<'a> PublicationRef<'a> {
    /// Checks every length, UTF-8 string, value tag and key order of one
    /// publication encoding, and that nothing trails it.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] on every input `Publication::from_wire`
    /// rejects, and on attribute keys that are not strictly ascending.
    pub fn parse(bytes: &'a [u8]) -> Result<Self, CryptoError> {
        let mut r = Reader::new(bytes);
        check_publication(&mut r)?;
        check_end(&r).map(|()| PublicationRef { bytes })
    }

    /// The validated encoding, which a batch frame carries verbatim.
    #[must_use]
    pub fn as_bytes(self) -> &'a [u8] {
        self.bytes
    }

    /// The attributes in ascending key order.
    pub(crate) fn attrs(self) -> impl Iterator<Item = (&'a str, ValueRef<'a>)> {
        let mut r = Reader::new(self.bytes);
        let count = u32::decode(&mut r).map_or(0, |n| n as usize);
        // `check_publication` walked these bytes already: no read fails.
        (0..count).map_while(move |_| read_attr(&mut r, validated_str).ok())
    }

    /// The value of `attr`, if the publication carries it.
    #[must_use]
    pub fn get(self, attr: &str) -> Option<ValueRef<'a>> {
        self.attrs()
            .take_while(|(key, _)| *key <= attr)
            .find_map(|(key, value)| (key == attr).then_some(value))
    }

    /// The owned publication.
    #[must_use]
    pub fn to_publication(self) -> Publication {
        let mut attrs = BTreeMap::new();
        for (key, value) in self.attrs() {
            attrs.insert(key.to_owned(), value.to_value());
        }
        Publication { attrs }
    }
}

/// The publications of one opened notification frame, in batch order.
#[derive(Debug, Clone)]
pub struct Notifications {
    plain: Vec<u8>,
    /// Where each publication's encoding starts in `plain`; it ends where
    /// the next one starts, or at the end of `plain`.
    starts: Vec<usize>,
}

impl Notifications {
    /// Checks each publication as [`PublicationRef::parse`] does, and that
    /// nothing trails the last.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] on every input
    /// `Vec::<Publication>::from_wire` rejects, and on attribute keys that
    /// are not strictly ascending.
    pub fn parse(plain: Vec<u8>) -> Result<Self, CryptoError> {
        let mut r = Reader::new(&plain);
        let count = r.length()?;
        // A publication takes at least its four-byte attribute count.
        let mut starts = Vec::with_capacity(count.min(r.remaining() / 4));
        for _ in 0..count {
            starts.push(plain.len() - r.remaining());
            check_publication(&mut r)?;
        }
        check_end(&r)?;
        Ok(Notifications { plain, starts })
    }

    /// Publications in the batch.
    #[must_use]
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The publications, borrowed, in batch order.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = PublicationRef<'_>> {
        (0..self.len()).map(|i| self.publication(i))
    }

    /// The `i`-th publication; empty past the end (never reached: callers
    /// stay below [`Self::len`]).
    fn publication(&self, i: usize) -> PublicationRef<'_> {
        let start = self.starts.get(i).copied().unwrap_or(self.plain.len());
        let end = self.starts.get(i + 1).copied().unwrap_or(self.plain.len());
        PublicationRef {
            bytes: self.plain.get(start..end).unwrap_or_default(),
        }
    }
}

/// Owned publications built one at a time from a [`Notifications`].
#[derive(Debug)]
pub struct IntoIter {
    notifications: Notifications,
    next: Range<usize>,
}

impl Iterator for IntoIter {
    type Item = Publication;

    fn next(&mut self) -> Option<Publication> {
        let i = self.next.next()?;
        Some(self.notifications.publication(i).to_publication())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.next.size_hint()
    }
}

impl ExactSizeIterator for IntoIter {}

impl IntoIterator for Notifications {
    type Item = Publication;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            next: 0..self.len(),
            notifications: self,
        }
    }
}

/// Reads one publication: its attribute count, then pairs whose keys are
/// strictly ascending.
fn check_publication(r: &mut Reader<'_>) -> Result<(), CryptoError> {
    let mut previous: Option<&str> = None;
    for _ in 0..r.length()? {
        let (key, _) = read_attr(r, checked_str)?;
        if previous.is_some_and(|previous| previous >= key) {
            return Err(CryptoError::Malformed(format!("key {key:?} out of order")));
        }
        previous = Some(key);
    }
    Ok(())
}

/// Fails if anything trails what was parsed.
fn check_end(r: &Reader<'_>) -> Result<(), CryptoError> {
    match r.remaining() {
        0 => Ok(()),
        n => Err(CryptoError::Malformed(format!("{n} trailing bytes"))),
    }
}

/// Reads one `(key, value)` pair as `Publication::decode` lays it out;
/// `as_str` turns each string's bytes into a `str`.
fn read_attr<'a>(
    r: &mut Reader<'a>,
    as_str: fn(&'a [u8]) -> Result<&'a str, CryptoError>,
) -> Result<(&'a str, ValueRef<'a>), CryptoError> {
    let string = |r: &mut Reader<'a>| {
        let len = r.length()?;
        as_str(r.take(len)?)
    };
    let key = string(r)?;
    let value = match u8::decode(r)? {
        0 => ValueRef::Int(i64::decode(r)?),
        1 => ValueRef::Float(f64::decode(r)?),
        2 => ValueRef::Str(string(r)?),
        tag => return Err(CryptoError::Malformed(format!("value tag {tag}"))),
    };
    Ok((key, value))
}

/// The open-time check every string of a batch passes once.
fn checked_str(bytes: &[u8]) -> Result<&str, CryptoError> {
    std::str::from_utf8(bytes).map_err(|e| CryptoError::Malformed(format!("invalid utf-8: {e}")))
}

/// A string [`check_publication`] already checked, so reading a view runs
/// no second UTF-8 pass. Pass it only to `read_attr` walks over a
/// [`PublicationRef`]'s bytes: any other input breaks the `SAFETY` argument
/// below.
#[allow(clippy::unnecessary_wraps)]
fn validated_str(bytes: &[u8]) -> Result<&str, CryptoError> {
    debug_assert!(std::str::from_utf8(bytes).is_ok());
    // SAFETY: a `PublicationRef` is built only over bytes `check_publication`
    // accepted, which it borrows immutably, and they are read back by the
    // same `read_attr` walk that ran `checked_str` on exactly this span.
    Ok(unsafe { std::str::from_utf8_unchecked(bytes) })
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used, clippy::indexing_slicing)]
    use super::*;

    fn publication(topic: i64, name: &str) -> Publication {
        Publication::new()
            .with("topic", Value::Int(topic))
            .with("name", Value::Str(name.to_owned()))
            .with("load", Value::Float(0.5))
    }

    #[test]
    fn borrows_and_materialises_the_encoded_publications() {
        let batch = vec![publication(1, "a"), Publication::new(), publication(2, "ü")];
        let opened = Notifications::parse(batch.to_wire()).unwrap();
        assert_eq!(opened.len(), 3);
        assert!(!opened.is_empty());
        let second = opened.iter().nth(2).unwrap();
        assert_eq!(second.get("topic"), Some(ValueRef::Int(2)));
        assert_eq!(second.get("name"), Some(ValueRef::Str("ü")));
        assert_eq!(second.get("load"), Some(ValueRef::Float(0.5)));
        assert_eq!(second.get("missing"), None);
        assert_eq!(second.get("a"), None);
        assert_eq!(second.get("zzz"), None);
        let borrowed: Vec<Publication> =
            opened.iter().map(PublicationRef::to_publication).collect();
        assert_eq!(borrowed, batch);
        let owned = opened.into_iter();
        assert_eq!(owned.len(), 3);
        assert_eq!(owned.collect::<Vec<_>>(), batch);
    }

    #[test]
    fn an_empty_batch_parses() {
        let opened = Notifications::parse(Vec::<Publication>::new().to_wire()).unwrap();
        assert!(opened.is_empty());
        assert_eq!(opened.into_iter().next(), None);
    }

    #[test]
    fn rejects_unsorted_and_duplicate_keys_and_trailing_bytes() {
        let attr = |out: &mut Vec<u8>, name: &str| {
            name.to_owned().encode(out);
            Value::Int(1).encode(out);
        };
        for keys in [&["b", "a"][..], &["a", "a"]] {
            let mut plain = Vec::new();
            1u32.encode(&mut plain);
            (keys.len() as u32).encode(&mut plain);
            for key in keys {
                attr(&mut plain, key);
            }
            assert!(Vec::<Publication>::from_wire(&plain).is_ok());
            assert!(matches!(
                Notifications::parse(plain),
                Err(CryptoError::Malformed(_))
            ));
        }
        let mut plain = vec![publication(1, "a")].to_wire();
        plain.push(0);
        assert!(Notifications::parse(plain).is_err());
    }
}
