//! Compact little-endian wire format for serialized accumulators.
//!
//! Every [`crate::Accumulator`] state starts with a one-byte type tag
//! (see [`tag`]) followed by a one-byte format version, then
//! type-specific fields written with [`Writer`] and read back with
//! [`Reader`]. Integers are fixed-width little-endian; floats are the
//! IEEE-754 bit pattern (`f64::to_bits`), so a decode/encode round trip
//! is exactly byte-identical — the property the partition-invariance
//! proptest in `tests/streaming.rs` checks.
//!
//! The format carries the full protocol configuration (dimensions and
//! perturbation probabilities), so a partial aggregate can cross a
//! process boundary and be merged by a peer that was never handed the
//! originating [`crate::Mechanism`].

/// Type tags identifying which accumulator a byte blob belongs to.
///
/// Tags are part of the wire format: never reuse or renumber them.
pub mod tag {
    /// [`crate::InpRrAggregator`].
    pub const INP_RR: u8 = 0x01;
    /// [`crate::InpPsAggregator`].
    pub const INP_PS: u8 = 0x02;
    /// [`crate::InpHtAggregator`].
    pub const INP_HT: u8 = 0x03;
    /// [`crate::MargRrAggregator`].
    pub const MARG_RR: u8 = 0x04;
    /// [`crate::MargPsAggregator`].
    pub const MARG_PS: u8 = 0x05;
    /// [`crate::MargHtAggregator`].
    pub const MARG_HT: u8 = 0x06;
    /// [`crate::InpEmAggregator`].
    pub const INP_EM: u8 = 0x07;
    /// `ldp_oracles::HadamardCmsAggregator`.
    pub const HCMS: u8 = 0x11;
    /// `ldp_oracles::CmsAggregator`.
    pub const CMS: u8 = 0x12;
    /// `ldp_oracles::OlhAggregator`.
    pub const OLH: u8 = 0x13;

    /// `ldp_oracles::pipeline::PipelineReport::InpRrList` report frame:
    /// the legacy (v1–v3) InpRR form, a `u32` index list of the 1-bits.
    /// Still decoded; no longer written by the encoders.
    pub const REPORT_INP_RR: u8 = 0x21;
    /// `PipelineReport::InpPs` report frame.
    pub const REPORT_INP_PS: u8 = 0x22;
    /// `PipelineReport::InpHt` report frame.
    pub const REPORT_INP_HT: u8 = 0x23;
    /// `PipelineReport::MargRr` report frame.
    pub const REPORT_MARG_RR: u8 = 0x24;
    /// `PipelineReport::MargPs` report frame.
    pub const REPORT_MARG_PS: u8 = 0x25;
    /// `PipelineReport::MargHt` report frame.
    pub const REPORT_MARG_HT: u8 = 0x26;
    /// `PipelineReport::InpEm` report frame.
    pub const REPORT_INP_EM: u8 = 0x27;
    /// `PipelineReport::InpRr` report frame (wire v4): the perturbed
    /// 2^d-bit vector itself, as a `u32` word count and that
    /// many `u64` words (cell 0 is the LSB of word 0).
    pub const REPORT_INP_RR_BITS: u8 = 0x28;
    /// `PipelineReport::Hcms` report frame.
    pub const REPORT_HCMS: u8 = 0x31;
    /// `PipelineReport::Cms` report frame.
    pub const REPORT_CMS: u8 = 0x32;
    /// `PipelineReport::Olh` report frame.
    pub const REPORT_OLH: u8 = 0x33;

    /// [`crate::frame::StreamHeader`] — frame 0 of report streams and
    /// snapshots.
    pub const STREAM_HEADER: u8 = 0x40;

    /// A report batch envelope (wire v2): a `u32` report count followed
    /// by that many back-to-back self-describing report blobs, all
    /// inside one frame. Amortizes the per-report frame overhead on the
    /// serve ingest path (`docs/WIRE_FORMAT.md` §5.1).
    pub const REPORT_BATCH: u8 = 0x41;

    /// A collector checkpoint (wire v3): the collector's identity and
    /// push epoch, its local merged accumulator state, and the latest
    /// snapshot each downstream collector pushed — everything a
    /// restarted `ldp-cli serve --checkpoint` needs to resume exactly
    /// where it crashed (`docs/WIRE_FORMAT.md` §6.1).
    pub const CHECKPOINT: u8 = 0x42;

    // Aggregation-server control plane (`ldp_server`): request frames a
    // client sends over a control connection (0x50–0x57) and the
    // response frames the server answers with (0x58–0x5F). One request
    // frame always yields exactly one response frame.

    /// Request: the live merged snapshot (header + accumulator state).
    pub const REQ_SNAPSHOT: u8 = 0x50;
    /// Request: one finalized marginal table / frequency estimate.
    pub const REQ_QUERY: u8 = 0x51;
    /// Request: server counters (reports, connections, uptime, …).
    pub const REQ_STATS: u8 = 0x52;
    /// Request: graceful shutdown.
    pub const REQ_SHUTDOWN: u8 = 0x53;
    /// Request (wire v3): a downstream collector pushes its merged
    /// snapshot upstream — collector id, monotonic push epoch, header,
    /// and state. The upstream *replaces* its previous snapshot from
    /// the same collector, so a retried push is idempotent.
    pub const REQ_PUSH: u8 = 0x54;

    /// Response to [`REQ_SNAPSHOT`].
    pub const RESP_SNAPSHOT: u8 = 0x58;
    /// Response to [`REQ_QUERY`].
    pub const RESP_QUERY: u8 = 0x59;
    /// Response to [`REQ_STATS`].
    pub const RESP_STATS: u8 = 0x5A;
    /// Response to [`REQ_SHUTDOWN`].
    pub const RESP_SHUTDOWN: u8 = 0x5B;
    /// Ingest acknowledgement: sent once after a report stream reaches
    /// a clean end-of-stream and every report has been absorbed.
    pub const RESP_INGEST: u8 = 0x5C;
    /// Response to [`REQ_PUSH`] (wire v3): whether the pushed snapshot
    /// was applied (0 = stale epoch, ignored) and the latest epoch the
    /// upstream now holds for that collector.
    pub const RESP_PUSH: u8 = 0x5D;
    /// Error response to any request (or to a malformed first frame).
    pub const RESP_ERROR: u8 = 0x5F;
}

/// The current wire-format version. Writers always emit it.
///
/// v2 added the [`tag::REPORT_BATCH`] envelope; v3 added the federation
/// frames ([`tag::REQ_PUSH`], [`tag::RESP_PUSH`], [`tag::CHECKPOINT`]);
/// v4 adds the bitset InpRR report ([`tag::REPORT_INP_RR_BITS`]), which
/// the encoders now write instead of the [`tag::REPORT_INP_RR`] index
/// list. Every field layout of v1 is unchanged, so v1 blobs decode
/// as-is (see [`MIN_VERSION`]).
pub const VERSION: u8 = 4;

/// The oldest wire-format version this build still decodes. Readers
/// accept any version in `MIN_VERSION..=`[`VERSION`] and reject
/// anything newer with [`WireError::UnsupportedVersion`].
pub const MIN_VERSION: u8 = 1;

/// Why a byte blob failed to decode into an accumulator.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum WireError {
    /// The blob ended before the advertised fields did.
    Truncated,
    /// The leading type tag does not match the requested accumulator.
    WrongTag {
        /// Tag the decoder expected (see [`tag`]).
        expected: u8,
        /// Tag found in the blob (absent if the blob was empty).
        found: Option<u8>,
    },
    /// The blob's format version is not supported by this build.
    UnsupportedVersion(u8),
    /// Bytes were left over after all fields were read.
    TrailingBytes(usize),
    /// A decoded field failed its validity check.
    Invalid(&'static str),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "serialized accumulator is truncated"),
            WireError::WrongTag { expected, found } => match found {
                Some(t) => write!(
                    f,
                    "wrong accumulator tag {t:#04x} (expected {expected:#04x})"
                ),
                None => write!(f, "empty blob (expected tag {expected:#04x})"),
            },
            WireError::UnsupportedVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::Invalid(what) => write!(f, "invalid serialized field: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder for accumulator state.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

// The small writers are `#[inline]` because the report writers and the
// batched encode kernel that call them per report live in another crate
// (`ldp_oracles::pipeline`).
impl Writer {
    /// Start a blob with the given type tag and the current [`VERSION`].
    #[must_use]
    pub fn with_tag(tag: u8) -> Self {
        let mut w = Writer {
            buf: Vec::with_capacity(64),
        };
        w.buf.push(tag);
        w.buf.push(VERSION);
        w
    }

    /// Clear the buffer and restart it with a new tag + [`VERSION`]
    /// header, keeping the existing allocation. The reuse form of
    /// [`with_tag`](Self::with_tag) for hot loops (batch encode kernels
    /// fill one `Writer` per frame instead of allocating per report).
    #[inline]
    pub fn reset_with_tag(&mut self, tag: u8) {
        self.buf.clear();
        self.buf.push(tag);
        self.buf.push(VERSION);
    }

    /// Append a nested blob header (tag + current [`VERSION`]) mid-buffer
    /// — used when packing self-describing report blobs back to back
    /// inside a [`tag::REPORT_BATCH`] payload without per-report `Vec`s.
    #[inline]
    pub fn put_tag(&mut self, tag: u8) {
        self.buf.push(tag);
        self.buf.push(VERSION);
    }

    /// The bytes encoded so far, without consuming the writer.
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Number of bytes encoded so far.
    #[must_use]
    #[inline]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// `true` iff nothing has been encoded (only possible via
    /// `Writer::default()`, which has no header).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Overwrite 4 bytes at `pos` with a little-endian `u32` — for
    /// back-patching a count prefix once a batch loop knows its final
    /// size. Returns `false` (and leaves the buffer untouched) if the
    /// range is out of bounds.
    #[inline]
    pub fn patch_u32(&mut self, pos: usize, v: u32) -> bool {
        match self.buf.get_mut(pos..pos + 4) {
            Some(slot) => {
                slot.copy_from_slice(&v.to_le_bytes());
                true
            }
            None => false,
        }
    }

    /// Append a raw byte.
    #[inline]
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u16`, little-endian.
    #[inline]
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u32`, little-endian.
    #[inline]
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    #[inline]
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `i64`, little-endian.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append an `f64` as its exact IEEE-754 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Append a length-prefixed `u64` slice.
    pub fn put_u64_slice(&mut self, vs: &[u64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_u64(v);
        }
    }

    /// Append a length-prefixed `i64` slice.
    pub fn put_i64_slice(&mut self, vs: &[i64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_i64(v);
        }
    }

    /// Append a `u32`-count-prefixed `u16` list (the compact form used
    /// by per-report frames, where every byte counts) of the values
    /// `fill` pushes. The prefix is patched once the list is complete,
    /// so a caller streams values onto the wire without buffering them.
    ///
    /// The compact prefix caps the list at `u32::MAX` elements; real
    /// report lists are orders of magnitude below it (and the 1 GiB
    /// frame cap rejects anything near it on the wire).
    pub fn put_u16_list(&mut self, fill: impl FnOnce(&mut U16List<'_>)) {
        let prefix = self.len();
        self.put_u32(0);
        let mut list = U16List {
            w: &mut *self,
            count: 0,
        };
        fill(&mut list);
        let count = list.count;
        self.patch_u32(prefix, count);
    }

    /// Append a `u32`-length-prefixed `u32` slice (compact report form).
    pub fn put_u32_slice(&mut self, vs: &[u32]) {
        debug_assert!(vs.len() <= 0xFFFF_FFFF, "slice exceeds the u32 prefix");
        self.put_u32(vs.len() as u32);
        for &v in vs {
            self.put_u32(v);
        }
    }

    /// Append a `u32`-length-prefixed raw byte string (UTF-8 messages,
    /// nested wire blobs).
    pub fn put_bytes(&mut self, vs: &[u8]) {
        debug_assert!(
            vs.len() <= 0xFFFF_FFFF,
            "byte string exceeds the u32 prefix"
        );
        self.put_u32(vs.len() as u32);
        self.buf.extend_from_slice(vs);
    }

    /// Append pre-encoded bytes verbatim (no length prefix) — the
    /// concatenation form [`tag::REPORT_BATCH`] payloads use, where each
    /// constituent blob is already self-describing (tag + version +
    /// fields).
    pub fn put_raw(&mut self, vs: &[u8]) {
        self.buf.extend_from_slice(vs);
    }

    /// Append a length-prefixed `f64` slice (exact IEEE-754 bits).
    pub fn put_f64_slice(&mut self, vs: &[f64]) {
        self.put_u64(vs.len() as u64);
        for &v in vs {
            self.put_f64(v);
        }
    }

    /// Finish and take the encoded bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// A `u16` list being appended by [`Writer::put_u16_list`].
#[derive(Debug)]
pub struct U16List<'w> {
    w: &'w mut Writer,
    count: u32,
}

impl U16List<'_> {
    /// Append one value.
    #[inline]
    pub fn push(&mut self, v: u16) {
        self.w.put_u16(v);
        self.count = self.count.saturating_add(1);
    }
}

/// Cursor-based decoder matching [`Writer`].
#[derive(Debug)]
pub struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

// The small readers are `#[inline]` because the report decoders that
// call them per report live in another crate (`ldp_oracles::pipeline`).
impl<'a> Reader<'a> {
    /// Open a blob, checking its type tag and version.
    pub fn with_tag(bytes: &'a [u8], expected: u8) -> Result<Self, WireError> {
        let mut r = Reader::new(bytes);
        r.expect_tag(expected)?;
        Ok(r)
    }

    /// Open a blob at its first byte without consuming anything — the
    /// cursor form used to walk several concatenated tagged blobs (a
    /// [`tag::REPORT_BATCH`] payload). Pair with [`Reader::expect_tag`]
    /// per blob and one [`Reader::finish`] at the end.
    #[must_use]
    #[inline]
    pub fn new(bytes: &'a [u8]) -> Self {
        Reader { bytes, pos: 0 }
    }

    /// Consume a tag + version prelude at the cursor, checking the tag
    /// and that the version is one this build decodes
    /// ([`MIN_VERSION`]`..=`[`VERSION`]).
    #[inline]
    pub fn expect_tag(&mut self, expected: u8) -> Result<(), WireError> {
        let found = self.get_u8().ok();
        if found != Some(expected) {
            return Err(WireError::WrongTag { expected, found });
        }
        let version = self.get_u8()?;
        if !(MIN_VERSION..=VERSION).contains(&version) {
            return Err(WireError::UnsupportedVersion(version));
        }
        Ok(())
    }

    /// Peek at a blob's type tag without consuming anything.
    pub fn peek_tag(bytes: &[u8]) -> Option<u8> {
        bytes.first().copied()
    }

    /// Peek the byte at the cursor (the next blob's tag in a
    /// concatenated batch payload) without consuming it.
    #[must_use]
    #[inline]
    pub fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    /// Bytes not yet consumed.
    #[must_use]
    #[inline]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    #[inline]
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        // `get` (not direct slicing) keeps a corrupt length from ever
        // panicking the decoder: an out-of-range request is `Truncated`.
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let out = self.bytes.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(out)
    }

    /// Validate a slice length prefix against the bytes actually
    /// remaining — comparing in `u64`, so a prefix above `usize::MAX`
    /// can never truncate into a plausible small length on 32-bit
    /// targets — then narrow it for use as an element count.
    #[inline]
    fn checked_len(&self, len: u64, elem_bytes: u64) -> Result<usize, WireError> {
        let remaining = (self.bytes.len() - self.pos) as u64;
        let needed = len.checked_mul(elem_bytes).ok_or(WireError::Truncated)?;
        if needed > remaining {
            return Err(WireError::Truncated);
        }
        Ok(len as usize)
    }

    /// Read one byte.
    #[inline]
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        self.take(1)?.first().copied().ok_or(WireError::Truncated)
    }

    /// Read a little-endian `u16`.
    #[inline]
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        let bytes = self.take(2)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u16::from_le_bytes(bytes))
    }

    /// Read a little-endian `u32`.
    #[inline]
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        let bytes = self.take(4)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u32::from_le_bytes(bytes))
    }

    /// Read a little-endian `u64`.
    #[inline]
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        let bytes = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(bytes))
    }

    /// Read a little-endian `i64`.
    #[inline]
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        let bytes = self.take(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(i64::from_le_bytes(bytes))
    }

    /// Read an `f64` bit pattern.
    #[inline]
    pub fn get_f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.get_u64()?))
    }

    /// Read a length-prefixed `u64` vector, rejecting absurd lengths
    /// before allocating.
    pub fn get_u64_vec(&mut self) -> Result<Vec<u64>, WireError> {
        let prefix = self.get_u64()?;
        let len = self.checked_len(prefix, 8)?;
        self.get_n(len, Self::get_u64)
    }

    /// Read a length-prefixed `i64` vector.
    pub fn get_i64_vec(&mut self) -> Result<Vec<i64>, WireError> {
        let prefix = self.get_u64()?;
        let len = self.checked_len(prefix, 8)?;
        self.get_n(len, Self::get_i64)
    }

    /// Read a `u32`-length-prefixed `u16` vector, rejecting absurd
    /// lengths before allocating.
    pub fn get_u16_vec(&mut self) -> Result<Vec<u16>, WireError> {
        let mut out = Vec::new();
        self.get_u16_vec_into(&mut out)?;
        Ok(out)
    }

    /// Like [`Reader::get_u16_vec`], but decode into a caller-owned
    /// buffer (cleared first), reusing its capacity — the
    /// zero-allocation form the batched ingest scratch uses.
    #[inline]
    pub fn get_u16_vec_into(&mut self, out: &mut Vec<u16>) -> Result<(), WireError> {
        let prefix = self.get_u32()?;
        let len = self.checked_len(u64::from(prefix), 2)?;
        out.clear();
        // Exact, not amortized: a doubling reserve could hold up to
        // twice the bytes the input carries.
        out.reserve_exact(len);
        for _ in 0..len {
            out.push(self.get_u16()?);
        }
        Ok(())
    }

    /// Read a `u32`-length-prefixed `u32` vector, rejecting absurd
    /// lengths before allocating.
    pub fn get_u32_vec(&mut self) -> Result<Vec<u32>, WireError> {
        let mut out = Vec::new();
        self.get_u32_vec_into(&mut out)?;
        Ok(out)
    }

    /// Like [`Reader::get_u32_vec`], but decode into a caller-owned
    /// buffer (cleared first), reusing its capacity.
    #[inline]
    pub fn get_u32_vec_into(&mut self, out: &mut Vec<u32>) -> Result<(), WireError> {
        let prefix = self.get_u32()?;
        let len = self.checked_len(u64::from(prefix), 4)?;
        out.clear();
        out.reserve_exact(len);
        for _ in 0..len {
            out.push(self.get_u32()?);
        }
        Ok(())
    }

    /// Read a `u32`-count-prefixed `u64` slice (the bitset report words)
    /// into a caller-owned buffer, cleared first and reusing its
    /// capacity. The count is checked against the bytes remaining
    /// before anything is reserved, so the allocation is bounded by the
    /// input.
    #[inline]
    pub fn get_u64_words_into(&mut self, out: &mut Vec<u64>) -> Result<(), WireError> {
        let prefix = self.get_u32()?;
        let words = self.checked_len(u64::from(prefix), 8)?;
        let bytes = self.take(words.checked_mul(8).ok_or(WireError::Truncated)?)?;
        out.clear();
        out.reserve_exact(words);
        out.extend(
            bytes
                .chunks_exact(8)
                .map(|b| u64::from_le_bytes(b.try_into().unwrap_or_default())),
        );
        Ok(())
    }

    /// Read a `u32`-length-prefixed raw byte string, rejecting absurd
    /// lengths before allocating.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let prefix = self.get_u32()?;
        let len = self.checked_len(u64::from(prefix), 1)?;
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed `f64` vector, rejecting absurd lengths
    /// before allocating.
    pub fn get_f64_vec(&mut self) -> Result<Vec<f64>, WireError> {
        let prefix = self.get_u64()?;
        let len = self.checked_len(prefix, 8)?;
        self.get_n(len, Self::get_f64)
    }

    /// Read `len` (already [`checked_len`](Self::checked_len)-bounded)
    /// elements with `get` into a vector allocated once at exactly
    /// `len`: collecting through `Result` would grow it by doubling, to
    /// up to twice the bytes the input holds.
    fn get_n<T>(
        &mut self,
        len: usize,
        get: fn(&mut Self) -> Result<T, WireError>,
    ) -> Result<Vec<T>, WireError> {
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(get(self)?);
        }
        Ok(out)
    }

    /// Assert the whole blob was consumed.
    #[inline]
    pub fn finish(self) -> Result<(), WireError> {
        let left = self.bytes.len() - self.pos;
        if left == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(left))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_field_type() {
        let mut w = Writer::with_tag(0x7F);
        w.put_u8(3);
        w.put_u32(1 << 30);
        w.put_u64(u64::MAX - 1);
        w.put_i64(-42);
        w.put_f64(0.1 + 0.2); // not representable exactly — bits must survive
        w.put_u64_slice(&[1, 2, 3]);
        w.put_i64_slice(&[-1, 0, 1]);
        let bytes = w.into_bytes();

        let mut r = Reader::with_tag(&bytes, 0x7F).unwrap();
        assert_eq!(r.get_u8().unwrap(), 3);
        assert_eq!(r.get_u32().unwrap(), 1 << 30);
        assert_eq!(r.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.get_i64().unwrap(), -42);
        assert_eq!(r.get_f64().unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(r.get_u64_vec().unwrap(), vec![1, 2, 3]);
        assert_eq!(r.get_i64_vec().unwrap(), vec![-1, 0, 1]);
        r.finish().unwrap();
    }

    #[test]
    fn rejects_wrong_tag_truncation_and_trailing() {
        let bytes = Writer::with_tag(tag::INP_RR).into_bytes();
        assert!(matches!(
            Reader::with_tag(&bytes, tag::INP_PS),
            Err(WireError::WrongTag { .. })
        ));
        assert!(matches!(
            Reader::with_tag(&[], tag::INP_RR),
            Err(WireError::WrongTag { found: None, .. })
        ));

        let mut r = Reader::with_tag(&bytes, tag::INP_RR).unwrap();
        assert_eq!(r.get_u64(), Err(WireError::Truncated));

        let mut w = Writer::with_tag(tag::INP_RR);
        w.put_u8(0);
        let bytes = w.into_bytes();
        let r = Reader::with_tag(&bytes, tag::INP_RR).unwrap();
        assert_eq!(r.finish(), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn rejects_future_versions() {
        let mut bytes = Writer::with_tag(tag::OLH).into_bytes();
        bytes[1] = VERSION + 1;
        assert!(matches!(
            Reader::with_tag(&bytes, tag::OLH),
            Err(WireError::UnsupportedVersion(v)) if v == VERSION + 1
        ));
    }

    #[test]
    fn accepts_every_supported_legacy_version() {
        // A v1 blob (the pre-batch wire format) must keep decoding: the
        // field layouts are unchanged, only the version byte moved.
        let mut w = Writer::with_tag(tag::OLH);
        w.put_u64(77);
        for version in MIN_VERSION..=VERSION {
            let mut bytes = w.buf.clone();
            bytes[1] = version;
            let mut r = Reader::with_tag(&bytes, tag::OLH).unwrap();
            assert_eq!(r.get_u64().unwrap(), 77);
            r.finish().unwrap();
        }
        let mut bytes = w.buf.clone();
        bytes[1] = MIN_VERSION - 1;
        assert!(matches!(
            Reader::with_tag(&bytes, tag::OLH),
            Err(WireError::UnsupportedVersion(0))
        ));
    }

    #[test]
    fn cursor_walks_concatenated_blobs() {
        // Three self-describing blobs back to back — the REPORT_BATCH
        // payload shape — read with one cursor and a single finish.
        let mut batch = Vec::new();
        for v in [3u64, 5, 7] {
            let mut w = Writer::with_tag(tag::REPORT_OLH);
            w.put_u64(v);
            batch.extend_from_slice(&w.into_bytes());
        }
        let mut r = Reader::new(&batch);
        for v in [3u64, 5, 7] {
            assert_eq!(r.peek(), Some(tag::REPORT_OLH));
            r.expect_tag(tag::REPORT_OLH).unwrap();
            assert_eq!(r.get_u64().unwrap(), v);
        }
        assert_eq!(r.peek(), None);
        assert_eq!(r.remaining(), 0);
        r.finish().unwrap();

        // A wrong tag mid-batch names both sides; an empty cursor
        // reports `found: None` like the slice form.
        let mut r = Reader::new(&batch);
        assert!(matches!(
            r.expect_tag(tag::REPORT_CMS),
            Err(WireError::WrongTag {
                expected: tag::REPORT_CMS,
                found: Some(tag::REPORT_OLH)
            })
        ));
        let mut empty = Reader::new(&[]);
        assert!(matches!(
            empty.expect_tag(tag::REPORT_OLH),
            Err(WireError::WrongTag { found: None, .. })
        ));
    }

    #[test]
    fn put_raw_appends_verbatim() {
        let mut inner = Writer::with_tag(tag::REPORT_OLH);
        inner.put_u64(9);
        let inner = inner.into_bytes();
        let mut w = Writer::with_tag(tag::REPORT_BATCH);
        w.put_u32(1);
        w.put_raw(&inner);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, tag::REPORT_BATCH).unwrap();
        assert_eq!(r.get_u32().unwrap(), 1);
        assert_eq!(r.remaining(), inner.len());
        r.expect_tag(tag::REPORT_OLH).unwrap();
        assert_eq!(r.get_u64().unwrap(), 9);
        r.finish().unwrap();
    }

    #[test]
    fn oversized_length_prefix_fails_before_allocating() {
        let mut w = Writer::with_tag(0x01);
        w.put_u64(u64::MAX); // claims ~2^64 elements
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x01).unwrap();
        assert_eq!(r.get_u64_vec(), Err(WireError::Truncated));

        // Same overflow guard on the compact u16/u32 report slices.
        let mut w = Writer::with_tag(0x01);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x01).unwrap();
        assert_eq!(r.get_u16_vec(), Err(WireError::Truncated));
        let mut r = Reader::with_tag(&bytes, 0x01).unwrap();
        assert_eq!(r.get_u32_vec(), Err(WireError::Truncated));
    }

    #[test]
    fn compact_slices_round_trip() {
        let mut w = Writer::with_tag(0x02);
        w.put_u16(513);
        w.put_u16_list(|list| [7, 0, u16::MAX].into_iter().for_each(|v| list.push(v)));
        w.put_u32_slice(&[1, u32::MAX]);
        w.put_u16_list(|_| {});
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x02).unwrap();
        assert_eq!(r.get_u16().unwrap(), 513);
        assert_eq!(r.get_u16_vec().unwrap(), vec![7, 0, u16::MAX]);
        assert_eq!(r.get_u32_vec().unwrap(), vec![1, u32::MAX]);
        assert_eq!(r.get_u16_vec().unwrap(), Vec::<u16>::new());
        r.finish().unwrap();
    }

    #[test]
    fn bitset_words_round_trip_reuse_capacity_and_guard_counts() {
        let mut w = Writer::with_tag(tag::REPORT_INP_RR_BITS);
        w.put_u32(3);
        for v in [1, u64::MAX, 1 << 63] {
            w.put_u64(v);
        }
        w.put_u32(0);
        let bytes = w.into_bytes();
        assert_eq!(bytes.len(), 2 + 4 + 24 + 4);
        let mut out = Vec::with_capacity(16);
        let mut r = Reader::with_tag(&bytes, tag::REPORT_INP_RR_BITS).unwrap();
        r.get_u64_words_into(&mut out).unwrap();
        assert_eq!(out, vec![1, u64::MAX, 1 << 63]);
        r.get_u64_words_into(&mut out).unwrap();
        assert!(out.is_empty());
        assert_eq!(out.capacity(), 16);
        r.finish().unwrap();

        // A count past the bytes that follow (including the u32 max)
        // fails before reserving; a partial last word is truncation.
        for count in [4u32, u32::MAX] {
            let mut w = Writer::with_tag(tag::REPORT_INP_RR_BITS);
            w.put_u32(count);
            w.put_raw(&[0; 31]);
            let bytes = w.into_bytes();
            let mut fresh = Vec::new();
            let mut r = Reader::with_tag(&bytes, tag::REPORT_INP_RR_BITS).unwrap();
            assert_eq!(r.get_u64_words_into(&mut fresh), Err(WireError::Truncated));
            assert_eq!(fresh.capacity(), 0);
        }
    }

    #[test]
    fn bytes_and_f64_slices_round_trip_and_guard_lengths() {
        let mut w = Writer::with_tag(0x04);
        w.put_bytes(b"control-plane message");
        w.put_bytes(&[]);
        w.put_f64_slice(&[0.25, -1.5, f64::MAX]);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x04).unwrap();
        assert_eq!(r.get_bytes().unwrap(), b"control-plane message");
        assert_eq!(r.get_bytes().unwrap(), Vec::<u8>::new());
        assert_eq!(r.get_f64_vec().unwrap(), vec![0.25, -1.5, f64::MAX]);
        r.finish().unwrap();

        // Oversized length prefixes fail before allocating.
        let mut w = Writer::with_tag(0x04);
        w.put_u32(u32::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x04).unwrap();
        assert_eq!(r.get_bytes(), Err(WireError::Truncated));
        let mut w = Writer::with_tag(0x04);
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        let mut r = Reader::with_tag(&bytes, 0x04).unwrap();
        assert_eq!(r.get_f64_vec(), Err(WireError::Truncated));
    }

    #[test]
    fn truncated_mid_element_is_detected() {
        let mut w = Writer::with_tag(0x03);
        w.put_u16_list(|list| (1..=3).for_each(|v| list.push(v)));
        let mut bytes = w.into_bytes();
        bytes.truncate(bytes.len() - 1); // cut the last element short
        let mut r = Reader::with_tag(&bytes, 0x03).unwrap();
        assert_eq!(r.get_u16_vec(), Err(WireError::Truncated));
    }
}
