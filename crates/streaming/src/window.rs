//! Window specifications and deterministic window assignment.
//!
//! A [`WindowSpec`] maps an event-time timestamp to the set of windows the
//! event belongs to. Assignment is a pure function of the timestamp — not
//! of arrival order, wall clock, or worker count — which is what keeps
//! equal-seed pipeline runs byte-identical at any `--jobs N`: the
//! timestamps ride *inside* the sealed SCBR batch frames (next to the
//! `TraceContext` header), so the untrusted host can neither reorder nor
//! rewrite them without failing authentication.
//!
//! Windows are half-open intervals `[start, start + size)` on the event-time
//! axis, with starts aligned to multiples of the stride. A tumbling window
//! is the `stride == size` special case; a sliding window with
//! `stride < size` holds each event in `size / stride` overlapping windows.

use crate::StreamError;

/// A validated window specification.
///
/// Construct via [`WindowSpec::tumbling`] or [`WindowSpec::sliding`]; the
/// constructors reject degenerate shapes (zero sizes, stride above size,
/// non-dividing stride) so assignment can never divide by zero or produce
/// gappy coverage.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WindowSpec {
    size_ms: u64,
    stride_ms: u64,
    lateness_ms: u64,
}

impl WindowSpec {
    /// A tumbling window of `size_ms`: every timestamp belongs to exactly
    /// one window.
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidWindow`] when `size_ms` is zero.
    pub fn tumbling(size_ms: u64) -> Result<Self, StreamError> {
        if size_ms == 0 {
            return Err(StreamError::InvalidWindow("window size must be non-zero"));
        }
        Ok(WindowSpec {
            size_ms,
            stride_ms: size_ms,
            lateness_ms: 0,
        })
    }

    /// A sliding window of `size_ms` advancing by `stride_ms`: every
    /// timestamp belongs to `size_ms / stride_ms` overlapping windows
    /// (fewer near the time origin).
    ///
    /// # Errors
    ///
    /// [`StreamError::InvalidWindow`] when either span is zero, the stride
    /// exceeds the size, or the stride does not divide the size (which
    /// would make per-event window counts ragged).
    pub fn sliding(size_ms: u64, stride_ms: u64) -> Result<Self, StreamError> {
        if size_ms == 0 || stride_ms == 0 {
            return Err(StreamError::InvalidWindow("window spans must be non-zero"));
        }
        if stride_ms > size_ms {
            return Err(StreamError::InvalidWindow(
                "stride above size leaves coverage gaps",
            ));
        }
        if !size_ms.is_multiple_of(stride_ms) {
            return Err(StreamError::InvalidWindow("stride must divide size"));
        }
        Ok(WindowSpec {
            size_ms,
            stride_ms,
            lateness_ms: 0,
        })
    }

    /// Allows events up to `lateness_ms` behind the watermark: a window
    /// only closes once the watermark passes its end *plus* this slack.
    #[must_use]
    pub fn with_lateness(mut self, lateness_ms: u64) -> Self {
        self.lateness_ms = lateness_ms;
        self
    }

    /// Window advance, milliseconds (equals the size for tumbling windows).
    #[must_use]
    pub fn stride_ms(&self) -> u64 {
        self.stride_ms
    }

    /// How many windows an event far from the time origin belongs to.
    #[must_use]
    fn windows_per_event(&self) -> u64 {
        self.size_ms / self.stride_ms
    }

    /// The window starts containing event time `t_ms`, ascending. Pure in
    /// `t_ms`: equal timestamps get equal window sets in any arrival order.
    #[must_use]
    pub fn assign(&self, t_ms: u64) -> Vec<u64> {
        let mut starts = Vec::with_capacity(self.windows_per_event() as usize);
        let mut start = (t_ms / self.stride_ms) * self.stride_ms;
        loop {
            starts.push(start);
            if start < self.stride_ms {
                break;
            }
            let previous = start - self.stride_ms;
            if previous + self.size_ms <= t_ms {
                break;
            }
            start = previous;
        }
        starts.reverse();
        starts
    }

    /// Exclusive end of the window starting at `start_ms`.
    #[must_use]
    pub fn end_ms(&self, start_ms: u64) -> u64 {
        start_ms + self.size_ms
    }

    /// Whether the window starting at `start_ms` has closed under
    /// `watermark_ms` (watermark at or past end + lateness).
    #[must_use]
    pub fn is_closed(&self, start_ms: u64, watermark_ms: u64) -> bool {
        watermark_ms >= self.end_ms(start_ms) + self.lateness_ms
    }

    /// Whether an event at `t_ms` is too late to be admitted under
    /// `watermark_ms` — its every window has already closed.
    #[must_use]
    pub fn is_late(&self, t_ms: u64, watermark_ms: u64) -> bool {
        // The youngest window containing t starts at floor(t/stride)*stride.
        let youngest = (t_ms / self.stride_ms) * self.stride_ms;
        self.is_closed(youngest, watermark_ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_validate() {
        assert!(WindowSpec::tumbling(0).is_err());
        assert!(WindowSpec::sliding(0, 1).is_err());
        assert!(WindowSpec::sliding(60, 0).is_err());
        assert!(WindowSpec::sliding(60, 120).is_err());
        assert!(WindowSpec::sliding(90, 60).is_err(), "stride must divide");
        let w = WindowSpec::tumbling(60_000).unwrap();
        assert_eq!(w.stride_ms, w.size_ms);
        assert_eq!(w.windows_per_event(), 1);
        let s = WindowSpec::sliding(120_000, 60_000).unwrap();
        assert_ne!(s.stride_ms, s.size_ms);
        assert_eq!(s.windows_per_event(), 2);
    }

    #[test]
    fn tumbling_boundary_lands_in_exactly_one_window() {
        let w = WindowSpec::tumbling(60).unwrap();
        assert_eq!(w.assign(0), vec![0]);
        assert_eq!(w.assign(59), vec![0]);
        assert_eq!(w.assign(60), vec![60], "boundary opens the next window");
        assert_eq!(w.assign(61), vec![60]);
    }

    #[test]
    fn sliding_overlap_matches_stride() {
        let w = WindowSpec::sliding(120, 60).unwrap();
        assert_eq!(w.assign(30), vec![0], "origin has no negative windows");
        assert_eq!(w.assign(130), vec![60, 120]);
        assert_eq!(w.assign(120), vec![60, 120], "boundary enters new window");
        assert_eq!(w.assign(119), vec![0, 60]);
    }

    #[test]
    fn closing_respects_lateness() {
        let w = WindowSpec::tumbling(60).unwrap().with_lateness(30);
        assert!(!w.is_closed(0, 89));
        assert!(w.is_closed(0, 90));
        assert!(!w.is_late(59, 89), "within lateness is admitted");
        assert!(w.is_late(59, 90));
    }
}
