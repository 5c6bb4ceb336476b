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
///
/// A frame is a `Vec<Publication>` encoding of n distinct publications,
/// then, only when some publication is delivered more than once, n `u32`
/// multiplicities in batch order: the number of the subscriber's
/// subscriptions that matched it. A list of all ones is never written, so
/// a frame without repeats is byte for byte a `Vec<Publication>` and every
/// frame has one encoding.
#[derive(Debug, Clone)]
pub struct Notifications {
    plain: Vec<u8>,
    /// Where each publication's encoding starts in `plain`; it ends where
    /// the next one starts, or at `end`.
    starts: Vec<usize>,
    /// Where the publications end: the multiplicity list starts here, or
    /// `plain` ends.
    end: usize,
    /// The sum of the multiplicities.
    deliveries: usize,
}

impl Notifications {
    /// Checks each publication as [`PublicationRef::parse`] does, then that
    /// what trails the last is nothing or a canonical multiplicity list.
    ///
    /// # Errors
    ///
    /// [`CryptoError::Malformed`] on every input
    /// `Vec::<Publication>::from_wire` rejects, except a publication list
    /// followed by a canonical multiplicity list; on attribute keys that
    /// are not strictly ascending; and on a list whose length is not four
    /// bytes per publication, that holds a 0, or that holds only 1s.
    pub fn parse(plain: Vec<u8>) -> Result<Self, CryptoError> {
        let mut r = Reader::new(&plain);
        let count = r.length()?;
        // A publication takes at least its four-byte attribute count.
        let mut starts = Vec::with_capacity(count.min(r.remaining() / 4));
        for _ in 0..count {
            starts.push(plain.len() - r.remaining());
            check_publication(&mut r)?;
        }
        let end = plain.len() - r.remaining();
        let deliveries = check_multiplicities(&mut r, count)?;
        check_end(&r)?;
        Ok(Notifications {
            plain,
            starts,
            end,
            deliveries,
        })
    }

    /// Deliveries in the batch: the sum of the multiplicities.
    #[must_use]
    pub fn len(&self) -> usize {
        self.deliveries
    }

    /// Whether the batch is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.deliveries == 0
    }

    /// Distinct publications in the batch; fewer than [`Self::len`] when
    /// the frame carries a multiplicity list.
    #[must_use]
    pub fn distinct(&self) -> usize {
        self.starts.len()
    }

    /// The distinct publications, borrowed, in batch order, each with its
    /// multiplicity.
    pub fn iter(&self) -> impl ExactSizeIterator<Item = (PublicationRef<'_>, u32)> {
        (0..self.distinct()).map(|i| (self.publication(i), self.multiplicity(i)))
    }

    /// The `i`-th publication; empty past the end (never reached: callers
    /// stay below [`Self::distinct`]).
    fn publication(&self, i: usize) -> PublicationRef<'_> {
        let start = self.starts.get(i).copied().unwrap_or(self.end);
        let end = self.starts.get(i + 1).copied().unwrap_or(self.end);
        PublicationRef {
            bytes: self.plain.get(start..end).unwrap_or_default(),
        }
    }

    /// The `i`-th multiplicity: 1 when the frame carries no list.
    fn multiplicity(&self, i: usize) -> u32 {
        let at = self.end + 4 * i;
        self.plain
            .get(at..at + 4)
            .and_then(|bytes| u32::from_wire(bytes).ok())
            .unwrap_or(1)
    }
}

/// Owned publications built one at a time from a [`Notifications`], each
/// yielded once per delivery.
#[derive(Debug)]
pub struct IntoIter {
    notifications: Notifications,
    next: Range<usize>,
    /// The publication being yielded, and how many more times.
    current: Publication,
    copies_left: u32,
    deliveries_left: usize,
}

impl Iterator for IntoIter {
    type Item = Publication;

    fn next(&mut self) -> Option<Publication> {
        if self.copies_left == 0 {
            let i = self.next.next()?;
            self.current = self.notifications.publication(i).to_publication();
            self.copies_left = self.notifications.multiplicity(i);
        }
        self.copies_left = self.copies_left.saturating_sub(1);
        self.deliveries_left = self.deliveries_left.saturating_sub(1);
        Some(if self.copies_left == 0 {
            std::mem::take(&mut self.current)
        } else {
            self.current.clone()
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.deliveries_left, Some(self.deliveries_left))
    }
}

impl ExactSizeIterator for IntoIter {}

impl IntoIterator for Notifications {
    type Item = Publication;
    type IntoIter = IntoIter;

    fn into_iter(self) -> IntoIter {
        IntoIter {
            next: 0..self.distinct(),
            deliveries_left: self.len(),
            current: Publication::default(),
            copies_left: 0,
            notifications: self,
        }
    }
}

/// Reads the multiplicity list of `count` publications if anything trails
/// them, and returns the number of deliveries: `count` without a list.
fn check_multiplicities(r: &mut Reader<'_>, count: usize) -> Result<usize, CryptoError> {
    let len = r.remaining();
    if len == 0 {
        return Ok(count);
    }
    if len != 4 * count {
        let error = format!("{len}-byte multiplicity list for {count} publications");
        return Err(CryptoError::Malformed(error));
    }
    let mut deliveries = 0usize;
    for _ in 0..count {
        let copies = u32::decode(r)?;
        if copies == 0 {
            return Err(CryptoError::Malformed("multiplicity 0".to_owned()));
        }
        deliveries = deliveries
            .checked_add(copies as usize)
            .ok_or_else(|| CryptoError::Malformed("deliveries overflow".to_owned()))?;
    }
    if deliveries == count {
        let error = "a multiplicity list of only 1s is not written".to_owned();
        return Err(CryptoError::Malformed(error));
    }
    Ok(deliveries)
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
        let (second, copies) = opened.iter().nth(2).unwrap();
        assert_eq!(copies, 1);
        assert_eq!(second.get("topic"), Some(ValueRef::Int(2)));
        assert_eq!(second.get("name"), Some(ValueRef::Str("ü")));
        assert_eq!(second.get("load"), Some(ValueRef::Float(0.5)));
        assert_eq!(second.get("missing"), None);
        assert_eq!(second.get("a"), None);
        assert_eq!(second.get("zzz"), None);
        let borrowed: Vec<Publication> = opened.iter().map(|(p, _)| p.to_publication()).collect();
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
        // What trails a batch may only be a canonical multiplicity list.
        let batch = vec![publication(1, "a"), publication(2, "b")];
        for list in [&[2u32][..], &[2, 1, 1], &[0, 2], &[1, 1]] {
            let mut plain = batch.to_wire();
            for copies in list {
                copies.encode(&mut plain);
            }
            assert!(
                matches!(Notifications::parse(plain), Err(CryptoError::Malformed(_))),
                "{list:?}"
            );
        }
    }
}
