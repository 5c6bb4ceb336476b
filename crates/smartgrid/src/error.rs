//! Typed errors for the smart-grid pipelines: a malformed or truncated
//! map/reduce record is an input problem the caller can report or retry,
//! so the decode paths surface [`SmartgridError`] instead of panicking.

use securecloud_mapreduce::MrError;
use std::error::Error as StdError;
use std::fmt;

/// Errors from the smart-grid analytics pipelines.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SmartgridError {
    /// A reducer emitted a key or value that does not decode as the
    /// pipeline's wire format (wrong width or truncated bytes).
    MalformedRecord {
        /// Which field failed to decode.
        field: &'static str,
        /// Expected byte width.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// A reducer emitted a window index outside the job's sample range.
    WindowOutOfRange {
        /// The decoded window index.
        window: usize,
        /// Number of windows the job was sized for.
        windows: usize,
    },
    /// The underlying map/reduce job failed.
    MapReduce(MrError),
}

impl fmt::Display for SmartgridError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SmartgridError::MalformedRecord {
                field,
                expected,
                actual,
            } => write!(
                f,
                "malformed reducer record: field {field} expected {expected} bytes, got {actual}"
            ),
            SmartgridError::WindowOutOfRange { window, windows } => write!(
                f,
                "reducer emitted window {window} outside the job's {windows} windows"
            ),
            SmartgridError::MapReduce(e) => write!(f, "map/reduce job failed: {e}"),
        }
    }
}

impl StdError for SmartgridError {
    fn source(&self) -> Option<&(dyn StdError + 'static)> {
        match self {
            SmartgridError::MapReduce(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MrError> for SmartgridError {
    fn from(e: MrError) -> Self {
        SmartgridError::MapReduce(e)
    }
}

/// Decodes a record of `N` little-endian `u64` fields, surfacing a typed
/// error on width mismatch instead of panicking.
pub(crate) fn decode_fields<const N: usize>(
    field: &'static str,
    bytes: &[u8],
) -> Result<[u64; N], SmartgridError> {
    let (fields, rest) = bytes.as_chunks();
    match <[[u8; 8]; N]>::try_from(fields) {
        Ok(fields) if rest.is_empty() => Ok(fields.map(u64::from_le_bytes)),
        _ => Err(SmartgridError::MalformedRecord {
            field,
            expected: 8 * N,
            actual: bytes.len(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        let e = SmartgridError::MalformedRecord {
            field: "sum",
            expected: 8,
            actual: 3,
        };
        assert!(e.to_string().contains("sum"));
        assert!(e.source().is_none());
        let e = SmartgridError::WindowOutOfRange {
            window: 9,
            windows: 4,
        };
        assert!(e.to_string().contains('9'));
    }

    #[test]
    fn decoders_reject_wrong_widths() {
        let bytes = [1u64.to_le_bytes(), 2u64.to_le_bytes()].concat();
        assert_eq!(decode_fields::<2>("v", &bytes).unwrap(), [1, 2]);
        for bad in [&bytes[..7], &bytes[..15], &[0u8; 24]] {
            assert!(matches!(
                decode_fields::<2>("v", bad),
                Err(SmartgridError::MalformedRecord { expected: 16, .. })
            ));
        }
    }
}
