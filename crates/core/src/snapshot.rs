//! Versioned, checksummed snapshots of a running [`crate::Simulation`]: the *ship*
//! half of the robustness story (the delta log of [`crate::delta`] is the *rewind*
//! half).
//!
//! # Format
//!
//! A snapshot is a single flat byte buffer, hand-rolled (the build environment is
//! offline, so no serde):
//!
//! ```text
//! magic   b"NCSS"                              4 bytes
//! version u16                                  format version (currently 1)
//! name    u16 length + UTF-8 bytes             protocol name (replay dispatch)
//! config  n, seed, max_steps, sampling tag, shards, reserved u64
//! stats   the 7 ExecutionStats counters
//! sched   RNG state, substream ordinal, adaptive/sharded flags, pending skips
//! world   states, placements, comp_of, links, component slots, pinned class table
//! crc     u64                                  FNV-1a over everything above
//! ```
//!
//! All integers are little-endian fixed width. Every enum is written as a validated
//! tag; decoding arbitrary bytes can fail with a typed [`CoreError`] but never panic
//! (bit-flip and truncation fuzzing in `tests/crash_resume.rs` pins this).
//!
//! Two parts of the v1 layout outlive the retired batched and speculative sampling
//! modes. Sampling tags 2 and 4 named them; decoding either is a typed
//! [`CoreError::SnapshotCorrupt`], and the tags are never reused. The config's last
//! `u64` held the speculation window; it is now a reserved word, written as 0 and
//! ignored on read, so snapshots written before the retirement (such as the
//! committed replay fixture, which stores 8 there) keep decoding unchanged.
//!
//! # Exactness: what is persisted and what is recomputed
//!
//! The contract is that an interrupted-and-resumed run is **byte-identical** to an
//! uninterrupted one, in every sampling mode and at every shard count. Snapshots are
//! taken *between* steps — at the serialization points of the execution — where the
//! sampler-visible state is exactly:
//!
//! * the configuration itself (states, bonds, embeddings), including the
//!   **component-slot layout** and per-component **membership order** (cross-pair
//!   enumeration iterates slots and members in storage order, and freed slots are
//!   reused first-fit, so the layout is execution-history dependent);
//! * the **class-table layout** of the permissible-pair index when it is active
//!   (class ids are allocation-history dependent through free-slot reuse, and the
//!   canonical sampling walks iterate live class ids in ascending order) — the
//!   snapshot pins the slot assignment and the free-slot stack, and the restore
//!   re-registers every node against that pinned table, rebuilding refcounts,
//!   buckets and running aggregates exactly;
//! * the scheduler's RNG state, its substream ordinal (`sharded_draws`), the sticky
//!   adaptive/sharded flags (`collapsed`, `batch_overflow`), and whether its
//!   enumeration cache was warm for the frozen configuration (the cache *contents*
//!   are deterministically re-enumerated on resume);
//! * the [`ExecutionStats`] counters (logical step accounting) and the
//!   cross-shard-event counter (deterministic given the trajectory).
//!
//! Everything else is genuinely derived state and is rebuilt conservatively:
//! `halted` flags (a pure function of states) and per-version count caches
//! (recomputed without consuming randomness). Work counters ([`crate::IndexStats`])
//! are *not* persisted, mirroring the delta-log policy: they report lifetime work, not
//! logical state. That exclusion is what lets the
//! crash harness use whole-snapshot byte equality as its trajectory oracle.

use crate::error::CoreError;
use crate::Protocol;

/// Magic bytes every snapshot starts with ("network-constructor simulation state").
pub(crate) const MAGIC: [u8; 4] = *b"NCSS";

/// Current snapshot format version. Bump on any layout change; decoders reject
/// versions they do not understand instead of misreading them.
pub(crate) const FORMAT_VERSION: u16 = 1;

/// FNV-1a 64-bit checksum over a byte slice (the same deterministic hash family the
/// component occupancy maps use; collision resistance against *random* corruption is
/// all a checksum needs — this is an integrity check, not an authentication tag).
pub(crate) fn checksum(bytes: &[u8]) -> u64 {
    const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut hash = FNV_OFFSET;
    for &byte in bytes {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// A protocol whose states can be serialized into a snapshot.
///
/// Implementations must round-trip exactly: `decode_state(encode_state(s)) == s` for
/// every state the protocol can reach, and `decode_state` must reject malformed
/// bytes with a [`CoreError`] (typically [`CoreError::SnapshotCorrupt`]) rather than
/// panicking — corrupt snapshots are expected inputs, not bugs.
pub trait SnapshotProtocol: Protocol {
    /// Appends the serialized form of `state` to `out`.
    fn encode_state(&self, state: &Self::State, out: &mut SnapshotWriter);

    /// Decodes one state from the reader's current position.
    ///
    /// # Errors
    /// A typed [`CoreError`] when the bytes are truncated or malformed.
    fn decode_state(&self, r: &mut SnapshotReader<'_>) -> crate::Result<Self::State>;
}

/// Little-endian byte-buffer writer used by snapshot encoders.
#[derive(Default)]
pub struct SnapshotWriter {
    buf: Vec<u8>,
}

impl SnapshotWriter {
    /// Creates an empty writer.
    #[must_use]
    pub fn new() -> SnapshotWriter {
        SnapshotWriter::default()
    }

    /// Appends a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16`.
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `i32`.
    pub fn i32(&mut self, v: i32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a boolean as one byte (0 or 1).
    pub fn bool(&mut self, v: bool) {
        self.buf.push(u8::from(v));
    }

    /// Appends raw bytes (caller is responsible for length framing).
    pub fn bytes(&mut self, b: &[u8]) {
        self.buf.extend_from_slice(b);
    }

    /// Appends a length-prefixed string (`u16` length + UTF-8 bytes).
    ///
    /// # Errors
    /// [`CoreError::SnapshotCorrupt`] when the string exceeds `u16::MAX` bytes —
    /// the field cannot represent it, and a worker checkpointing a job mid-run must
    /// get a typed failure it can surface, never a panic that takes the process
    /// down (protocol names are attacker-influenced in the service tier).
    pub fn str16(&mut self, s: &str) -> crate::Result<()> {
        let len = u16::try_from(s.len()).map_err(|_| CoreError::SnapshotCorrupt {
            what: "string too long for a u16 length prefix",
        })?;
        self.u16(len);
        self.bytes(s.as_bytes());
        Ok(())
    }

    /// Number of bytes written so far.
    #[must_use]
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written yet.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, returning the buffer.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    fn as_slice(&self) -> &[u8] {
        &self.buf
    }
}

/// Bounds-checked little-endian reader over a snapshot buffer. Every read fails with
/// [`CoreError::SnapshotTruncated`] instead of panicking when the buffer runs out.
pub struct SnapshotReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> SnapshotReader<'a> {
    /// Creates a reader over `buf`, starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> SnapshotReader<'a> {
        SnapshotReader { buf, pos: 0 }
    }

    /// Current read offset.
    #[must_use]
    pub fn pos(&self) -> usize {
        self.pos
    }

    /// Bytes left to read.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Takes the next `len` raw bytes.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] when fewer than `len` bytes remain.
    pub fn take(&mut self, len: usize) -> crate::Result<&'a [u8]> {
        if self.remaining() < len {
            return Err(CoreError::SnapshotTruncated { offset: self.pos });
        }
        let out = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] at end of input.
    pub fn u8(&mut self) -> crate::Result<u8> {
        Ok(self.take(1)?[0])
    }

    /// Reads a `u16`.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] at end of input.
    pub fn u16(&mut self) -> crate::Result<u16> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("len 2")))
    }

    /// Reads a `u32`.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] at end of input.
    pub fn u32(&mut self) -> crate::Result<u32> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a `u64`.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] at end of input.
    pub fn u64(&mut self) -> crate::Result<u64> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("len 8")))
    }

    /// Reads an `i32`.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] at end of input.
    pub fn i32(&mut self) -> crate::Result<i32> {
        Ok(i32::from_le_bytes(self.take(4)?.try_into().expect("len 4")))
    }

    /// Reads a strict boolean (must be 0 or 1 — anything else is corruption).
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] or [`CoreError::SnapshotCorrupt`].
    pub fn bool(&mut self) -> crate::Result<bool> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(CoreError::SnapshotCorrupt {
                what: "boolean byte is neither 0 nor 1",
            }),
        }
    }

    /// Reads a `u64` that will be used as an element count for elements of at least
    /// `min_element_bytes` each, rejecting counts the remaining input cannot possibly
    /// hold — this bounds allocations on crafted inputs.
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] when the implied payload exceeds the input.
    pub fn count(&mut self, min_element_bytes: usize) -> crate::Result<usize> {
        let raw = self.u64()?;
        let count =
            usize::try_from(raw).map_err(|_| CoreError::SnapshotTruncated { offset: self.pos })?;
        if count.saturating_mul(min_element_bytes.max(1)) > self.remaining() {
            return Err(CoreError::SnapshotTruncated { offset: self.pos });
        }
        Ok(count)
    }

    /// Reads a length-prefixed string written by [`SnapshotWriter::str16`].
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`] or [`CoreError::SnapshotCorrupt`] (invalid
    /// UTF-8).
    pub fn str16(&mut self) -> crate::Result<&'a str> {
        let len = self.u16()? as usize;
        let bytes = self.take(len)?;
        std::str::from_utf8(bytes).map_err(|_| CoreError::SnapshotCorrupt {
            what: "string is not valid UTF-8",
        })
    }
}

/// A validated snapshot buffer: magic, format version and trailing checksum have
/// been verified (structural decoding happens at [`crate::Simulation::resume`]).
///
/// The buffer is plain bytes — write it to a file, ship it over a socket, compare it
/// for equality. Byte equality of two snapshots of the same format version implies
/// equality of every piece of persisted runtime state, which is exactly the
/// trajectory oracle the crash-injection suite uses.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Snapshot {
    bytes: Vec<u8>,
}

impl Snapshot {
    /// Wraps and validates a snapshot buffer: checks the magic bytes, the format
    /// version, the protocol-name framing and the trailing checksum. Structural
    /// validity of the body is checked by [`crate::Simulation::resume`].
    ///
    /// # Errors
    /// [`CoreError::SnapshotTruncated`], [`CoreError::SnapshotBadMagic`],
    /// [`CoreError::SnapshotVersionUnsupported`] or
    /// [`CoreError::SnapshotChecksumMismatch`].
    pub fn from_bytes(bytes: Vec<u8>) -> crate::Result<Snapshot> {
        // Header (magic + version) + trailing checksum is the minimum credible size.
        if bytes.len() < MAGIC.len() + 2 + 8 {
            return Err(CoreError::SnapshotTruncated {
                offset: bytes.len(),
            });
        }
        let (body, crc_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(crc_bytes.try_into().expect("len 8"));
        let computed = checksum(body);
        if stored != computed {
            return Err(CoreError::SnapshotChecksumMismatch { stored, computed });
        }
        let mut r = SnapshotReader::new(body);
        if r.take(MAGIC.len())? != MAGIC {
            return Err(CoreError::SnapshotBadMagic);
        }
        let version = r.u16()?;
        if version != FORMAT_VERSION {
            return Err(CoreError::SnapshotVersionUnsupported { version });
        }
        // Validate the name framing now so `protocol_name` cannot fail later.
        r.str16()?;
        Ok(Snapshot { bytes })
    }

    /// Builds a snapshot from an already-encoded body (no checksum yet): appends the
    /// checksum. Callers are the encoders in this crate, which produce valid bodies.
    pub(crate) fn seal(mut writer: SnapshotWriter) -> Snapshot {
        let crc = checksum(writer.as_slice());
        writer.u64(crc);
        Snapshot {
            bytes: writer.into_bytes(),
        }
    }

    /// The raw snapshot bytes (checksum included).
    #[must_use]
    pub fn as_bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// Consumes the snapshot, returning the raw bytes.
    #[must_use]
    pub fn into_bytes(self) -> Vec<u8> {
        self.bytes
    }

    /// Total size in bytes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bytes.len()
    }

    /// A snapshot buffer is never empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The name of the protocol this snapshot was taken with (for dispatch in replay
    /// tools). Validated at construction, so this cannot fail.
    #[must_use]
    pub fn protocol_name(&self) -> &str {
        let mut r = SnapshotReader::new(&self.bytes);
        r.take(MAGIC.len() + 2).expect("validated at construction");
        r.str16().expect("validated at construction")
    }

    /// A reader positioned just past the magic and format version (at the protocol
    /// name field).
    pub(crate) fn body_reader(&self) -> SnapshotReader<'_> {
        let mut r = SnapshotReader::new(&self.bytes[..self.bytes.len() - 8]);
        r.take(MAGIC.len() + 2).expect("validated at construction");
        r
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writer_reader_round_trip() {
        let mut w = SnapshotWriter::new();
        w.u8(7);
        w.u16(300);
        w.u32(70_000);
        w.u64(u64::MAX - 1);
        w.i32(-42);
        w.bool(true);
        w.str16("counting-on-a-line").unwrap();
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u16().unwrap(), 300);
        assert_eq!(r.u32().unwrap(), 70_000);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.i32().unwrap(), -42);
        assert!(r.bool().unwrap());
        assert_eq!(r.str16().unwrap(), "counting-on-a-line");
        assert_eq!(r.remaining(), 0);
        assert!(matches!(r.u8(), Err(CoreError::SnapshotTruncated { .. })));
    }

    #[test]
    fn reader_rejects_bad_booleans_and_oversized_counts() {
        let bytes = [2u8];
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(r.bool(), Err(CoreError::SnapshotCorrupt { .. })));

        let mut w = SnapshotWriter::new();
        w.u64(1_000_000); // claims a million elements with almost no payload
        let bytes = w.into_bytes();
        let mut r = SnapshotReader::new(&bytes);
        assert!(matches!(
            r.count(4),
            Err(CoreError::SnapshotTruncated { .. })
        ));
    }

    #[test]
    fn from_bytes_rejects_garbage() {
        assert!(matches!(
            Snapshot::from_bytes(vec![]),
            Err(CoreError::SnapshotTruncated { .. })
        ));
        assert!(matches!(
            Snapshot::from_bytes(vec![0; 64]),
            Err(CoreError::SnapshotChecksumMismatch { .. })
        ));
        // Valid checksum, wrong magic.
        let mut w = SnapshotWriter::new();
        w.bytes(b"XXXX");
        w.u16(FORMAT_VERSION);
        w.str16("p").unwrap();
        let snap = Snapshot::seal(w);
        assert_eq!(
            Snapshot::from_bytes(snap.into_bytes()),
            Err(CoreError::SnapshotBadMagic)
        );
        // Valid magic, future version.
        let mut w = SnapshotWriter::new();
        w.bytes(&MAGIC);
        w.u16(FORMAT_VERSION + 9);
        w.str16("p").unwrap();
        let snap = Snapshot::seal(w);
        assert_eq!(
            Snapshot::from_bytes(snap.into_bytes()),
            Err(CoreError::SnapshotVersionUnsupported {
                version: FORMAT_VERSION + 9
            })
        );
    }

    #[test]
    fn sealed_snapshots_validate_and_expose_the_protocol_name() {
        let mut w = SnapshotWriter::new();
        w.bytes(&MAGIC);
        w.u16(FORMAT_VERSION);
        w.str16("global-line").unwrap();
        w.u64(123);
        let snap = Snapshot::seal(w);
        let reparsed = Snapshot::from_bytes(snap.as_bytes().to_vec()).unwrap();
        assert_eq!(reparsed.protocol_name(), "global-line");
        let mut body = reparsed.body_reader();
        assert_eq!(body.str16().unwrap(), "global-line");
        assert_eq!(body.u64().unwrap(), 123);
        assert_eq!(body.remaining(), 0);
    }

    #[test]
    fn str16_rejects_oversized_strings_with_a_typed_error() {
        let mut w = SnapshotWriter::new();
        let huge = "x".repeat(usize::from(u16::MAX) + 1);
        assert_eq!(
            w.str16(&huge),
            Err(CoreError::SnapshotCorrupt {
                what: "string too long for a u16 length prefix"
            })
        );
        // The failed write must leave no partial framing behind: the writer stays
        // usable, so a worker can surface the error and carry on with other jobs.
        assert!(w.is_empty());
        w.str16("ok").unwrap();
        let bytes = w.into_bytes();
        assert_eq!(SnapshotReader::new(&bytes).str16().unwrap(), "ok");
    }

    #[test]
    fn checksum_is_order_sensitive() {
        assert_ne!(checksum(b"ab"), checksum(b"ba"));
        assert_ne!(checksum(b""), checksum(b"\0"));
    }
}
