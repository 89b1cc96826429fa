//! Frames and buffers flowing between stages.
//!
//! A [`Frame`] is a borrowed view of one unit of work — digitized codes,
//! analog values, events, bin counts, activations, or wire bytes. A
//! [`FrameBuf`] owns the storage a stage writes into; the pipeline keeps
//! one per stage and re-presents it to the next stage as a `Frame`.
//! Buffers retain their capacity across frames, which is what makes the
//! composed chain allocation-free after warm-up.

use core::fmt;

/// The variant a [`Frame`] or [`FrameBuf`] currently carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Digitized ADC codes (`u16`), one per channel.
    Codes,
    /// Analog or decoded real values (`f64`).
    Values,
    /// DNN activations (`f32`).
    Activations,
    /// Per-channel event indicators (`bool`).
    Events,
    /// Binned per-channel event counts (`u32`).
    Counts,
    /// Wire bytes (a packetized frame).
    Bytes,
    /// Nothing — the input to a source stage, or a cleared buffer.
    Empty,
}

impl fmt::Display for FrameKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            Self::Codes => "codes",
            Self::Values => "values",
            Self::Activations => "activations",
            Self::Events => "events",
            Self::Counts => "counts",
            Self::Bytes => "bytes",
            Self::Empty => "empty",
        };
        write!(f, "{name}")
    }
}

/// A borrowed view of one unit of work flowing between stages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Frame<'a> {
    /// Digitized ADC codes, one per channel.
    Codes(&'a [u16]),
    /// Analog or decoded real values.
    Values(&'a [f64]),
    /// DNN activations.
    Activations(&'a [f32]),
    /// Per-channel event indicators.
    Events(&'a [bool]),
    /// Binned per-channel event counts.
    Counts(&'a [u32]),
    /// Wire bytes.
    Bytes(&'a [u8]),
    /// Nothing — what a source stage consumes.
    Empty,
}

impl Frame<'_> {
    /// The variant tag of this frame.
    #[must_use]
    pub fn kind(&self) -> FrameKind {
        match self {
            Self::Codes(_) => FrameKind::Codes,
            Self::Values(_) => FrameKind::Values,
            Self::Activations(_) => FrameKind::Activations,
            Self::Events(_) => FrameKind::Events,
            Self::Counts(_) => FrameKind::Counts,
            Self::Bytes(_) => FrameKind::Bytes,
            Self::Empty => FrameKind::Empty,
        }
    }

    /// Number of elements in the frame.
    #[must_use]
    pub(crate) fn len(&self) -> usize {
        match self {
            Self::Codes(s) => s.len(),
            Self::Values(s) => s.len(),
            Self::Activations(s) => s.len(),
            Self::Events(s) => s.len(),
            Self::Counts(s) => s.len(),
            Self::Bytes(s) => s.len(),
            Self::Empty => 0,
        }
    }

    /// Whether the frame carries no elements.
    #[must_use]
    pub(crate) fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// What a stage did with the frame it was handed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageOutput {
    /// The stage wrote an output frame into its buffer; downstream
    /// stages run this step.
    Emitted,
    /// The stage absorbed the input (e.g. a bin window still filling);
    /// downstream stages are skipped this step.
    Pending,
}

/// An owned, reusable buffer holding one stage's output.
///
/// Each variant keeps its own backing `Vec` so switching kinds between
/// pipeline constructions never discards capacity; within a running
/// pipeline a stage always writes the same kind, so after the first few
/// frames every write lands in already-reserved storage.
#[derive(Debug, Clone, Default)]
pub struct FrameBuf {
    kind: Option<FrameKind>,
    codes: Vec<u16>,
    values: Vec<f64>,
    activations: Vec<f32>,
    events: Vec<bool>,
    counts: Vec<u32>,
    bytes: Vec<u8>,
}

impl FrameBuf {
    /// Creates an empty buffer.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The variant the buffer currently holds ([`FrameKind::Empty`]
    /// before the first write).
    #[must_use]
    pub fn kind(&self) -> FrameKind {
        self.kind.unwrap_or(FrameKind::Empty)
    }

    /// A borrowed view of the current contents.
    #[must_use]
    pub fn as_frame(&self) -> Frame<'_> {
        match self.kind() {
            FrameKind::Codes => Frame::Codes(&self.codes),
            FrameKind::Values => Frame::Values(&self.values),
            FrameKind::Activations => Frame::Activations(&self.activations),
            FrameKind::Events => Frame::Events(&self.events),
            FrameKind::Counts => Frame::Counts(&self.counts),
            FrameKind::Bytes => Frame::Bytes(&self.bytes),
            FrameKind::Empty => Frame::Empty,
        }
    }

    /// Total bytes of backing storage currently reserved — the
    /// "peak buffer bytes" a fixed-memory implant port would need.
    #[must_use]
    pub(crate) fn capacity_bytes(&self) -> usize {
        self.codes.capacity() * core::mem::size_of::<u16>()
            + self.values.capacity() * core::mem::size_of::<f64>()
            + self.activations.capacity() * core::mem::size_of::<f32>()
            + self.events.capacity() * core::mem::size_of::<bool>()
            + self.counts.capacity() * core::mem::size_of::<u32>()
            + self.bytes.capacity() * core::mem::size_of::<u8>()
    }

    /// Starts a codes frame: tags the buffer, clears the codes vector,
    /// and returns it for the stage to fill.
    pub fn begin_codes(&mut self) -> &mut Vec<u16> {
        self.kind = Some(FrameKind::Codes);
        self.codes.clear();
        &mut self.codes
    }

    /// Starts a values frame (see [`FrameBuf::begin_codes`]).
    pub(crate) fn begin_values(&mut self) -> &mut Vec<f64> {
        self.kind = Some(FrameKind::Values);
        self.values.clear();
        &mut self.values
    }

    /// Starts an activations frame (see [`FrameBuf::begin_codes`]).
    pub fn begin_activations(&mut self) -> &mut Vec<f32> {
        self.kind = Some(FrameKind::Activations);
        self.activations.clear();
        &mut self.activations
    }

    /// Starts an events frame (see [`FrameBuf::begin_codes`]).
    pub fn begin_events(&mut self) -> &mut Vec<bool> {
        self.kind = Some(FrameKind::Events);
        self.events.clear();
        &mut self.events
    }

    /// Starts a counts frame (see [`FrameBuf::begin_codes`]).
    pub(crate) fn begin_counts(&mut self) -> &mut Vec<u32> {
        self.kind = Some(FrameKind::Counts);
        self.counts.clear();
        &mut self.counts
    }

    /// Starts a bytes frame (see [`FrameBuf::begin_codes`]).
    pub(crate) fn begin_bytes(&mut self) -> &mut Vec<u8> {
        self.kind = Some(FrameKind::Bytes);
        self.bytes.clear();
        &mut self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn begin_tags_and_clears() {
        let mut buf = FrameBuf::new();
        assert_eq!(buf.kind(), FrameKind::Empty);
        assert_eq!(buf.as_frame(), Frame::Empty);
        buf.begin_codes().extend_from_slice(&[1, 2, 3]);
        assert_eq!(buf.kind(), FrameKind::Codes);
        assert_eq!(buf.as_frame(), Frame::Codes(&[1, 2, 3]));
        assert_eq!(buf.as_frame().len(), 3);
        // Re-beginning clears the previous contents but keeps capacity.
        let cap = buf.capacity_bytes();
        buf.begin_codes().push(9);
        assert_eq!(buf.as_frame(), Frame::Codes(&[9]));
        assert!(buf.capacity_bytes() >= cap);
    }

    #[test]
    fn kinds_round_trip_through_frames() {
        let mut buf = FrameBuf::new();
        buf.begin_values().push(1.5);
        assert_eq!(buf.as_frame(), Frame::Values(&[1.5]));
        buf.begin_events().push(true);
        assert_eq!(buf.as_frame(), Frame::Events(&[true]));
        buf.begin_counts().push(7);
        assert_eq!(buf.as_frame(), Frame::Counts(&[7]));
        buf.begin_activations().push(0.25);
        assert_eq!(buf.as_frame(), Frame::Activations(&[0.25]));
        buf.begin_bytes().push(0xBC);
        assert_eq!(buf.as_frame(), Frame::Bytes(&[0xBC]));
        assert_eq!(FrameBuf::new().as_frame(), Frame::Empty);
        assert!(FrameBuf::new().as_frame().is_empty());
    }

    #[test]
    fn capacity_bytes_counts_every_arena() {
        let mut buf = FrameBuf::new();
        assert_eq!(buf.capacity_bytes(), 0);
        buf.begin_codes().extend_from_slice(&[0; 16]);
        buf.begin_values().extend_from_slice(&[0.0; 4]);
        assert!(buf.capacity_bytes() >= 16 * 2 + 4 * 8);
    }

    #[test]
    fn kind_display_names() {
        for (kind, name) in [
            (FrameKind::Codes, "codes"),
            (FrameKind::Values, "values"),
            (FrameKind::Activations, "activations"),
            (FrameKind::Events, "events"),
            (FrameKind::Counts, "counts"),
            (FrameKind::Bytes, "bytes"),
            (FrameKind::Empty, "empty"),
        ] {
            assert_eq!(kind.to_string(), name);
        }
    }
}
