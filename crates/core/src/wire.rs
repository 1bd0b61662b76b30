//! Wire codec for CF command traffic.
//!
//! The paper's coupling links carry architected message command blocks
//! between a system's channel subsystem and the CF (§3.3). This module is
//! the reproduction's equivalent: a compact, hand-rolled binary encoding of
//! every CF operation ([`WireRequest`]), every result ([`WireResponse`]),
//! the command descriptor ([`crate::connection::CfCommand`]) and the typed
//! error set ([`CfError`]), plus the length-prefixed framing used on a
//! byte stream.
//!
//! Design constraints:
//!
//! * **No serde.** The workspace carries no serialization dependency; the
//!   codec is explicit `put`/`get` pairs over a byte buffer, which also
//!   keeps the wire format stable and inspectable.
//! * **Decode never trusts the peer.** Lengths are bounds-checked before
//!   any allocation; unknown tags and truncated buffers surface as
//!   [`WireError`], which the transport layer maps to
//!   [`CfError::InterfaceControlCheck`] — a malformed frame is a channel
//!   malfunction, exactly like a garbled link transmission.
//! * **Symmetric round trip.** For every value `v`: `decode(encode(v)) ==
//!   v`. The property tests in `tests/wire_roundtrip.rs` pin this for
//!   every variant.

use crate::cache::{BlockName, RegisterResult, WriteKind, WriteResult};
use crate::connection::{CfCommand, CommandClass};
use crate::error::CfError;
use crate::list::{DequeueEnd, EntryId, EntryView, LockCondition, WritePosition};
use crate::lock::{DisconnectMode, LockMode, LockResponse, RetainedLock};
use crate::stats::{HistogramSnapshot, HIST_BUCKETS};
use crate::types::ConnId;
use std::io::{Read, Write};
use std::sync::Arc;

/// Frame magic: the first bytes of every frame on a stream transport.
pub const FRAME_MAGIC: [u8; 4] = *b"SPLX";
/// Wire protocol version; bumped on any incompatible format change.
pub const WIRE_VERSION: u8 = 1;
/// Upper bound on one frame's body. Large enough for a bulk castout page
/// batch, small enough that a corrupt length cannot balloon allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;
/// Bytes in a frame header: magic + version + body length.
pub const FRAME_HEADER_BYTES: usize = 9;

/// Decode-side failure: the buffer does not parse as the expected value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes than the value requires (truncated frame or lying
    /// length field).
    Truncated,
    /// Frame did not start with [`FRAME_MAGIC`].
    BadMagic,
    /// Peer speaks a different [`WIRE_VERSION`].
    BadVersion(u8),
    /// An enum tag outside the known range for the named type.
    BadTag(&'static str),
    /// A length field exceeding [`MAX_FRAME_BYTES`].
    TooLarge(u64),
    /// Bytes left over after a complete value was decoded.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "truncated wire value"),
            WireError::BadMagic => write!(f, "bad frame magic"),
            WireError::BadVersion(v) => write!(f, "unsupported wire version {v}"),
            WireError::BadTag(ty) => write!(f, "unknown tag decoding {ty}"),
            WireError::TooLarge(n) => write!(f, "wire length {n} exceeds frame budget"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after value"),
        }
    }
}

impl std::error::Error for WireError {}

/// Append-only encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// Fresh empty writer.
    pub fn new() -> Self {
        WireWriter::default()
    }

    /// Consume the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a bool as one byte.
    pub fn put_bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    /// Append a little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append an optional u64 (presence byte + value).
    pub fn put_opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.put_bool(false),
            Some(x) => {
                self.put_bool(true);
                self.put_u64(x);
            }
        }
    }
}

/// Bounds-checked decoder over a byte slice.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Decode from `buf`, starting at the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Assert the whole buffer was consumed (frame boundaries are exact).
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated);
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Read one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Read a bool (strictly 0 or 1; anything else is a bad tag).
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::BadTag("bool")),
        }
    }

    /// Read a little-endian u32.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    /// Read a little-endian u64.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a little-endian i64.
    pub fn get_i64(&mut self) -> Result<i64, WireError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// Read a length-prefixed byte vector. The length is validated against
    /// both the frame budget and the bytes actually present **before** any
    /// allocation, so a corrupt length cannot balloon memory.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge(len as u64));
        }
        Ok(self.take(len)?.to_vec())
    }

    /// Read a length-prefixed UTF-8 string (lossy: the wire is ours, but a
    /// corrupted frame must not panic).
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let b = self.get_bytes()?;
        String::from_utf8(b).map_err(|_| WireError::BadTag("utf8-string"))
    }

    /// Read an optional u64.
    pub fn get_opt_u64(&mut self) -> Result<Option<u64>, WireError> {
        if self.get_bool()? {
            Ok(Some(self.get_u64()?))
        } else {
            Ok(None)
        }
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Write one frame: magic, version, length, body.
pub fn write_frame<W: Write>(w: &mut W, body: &[u8]) -> std::io::Result<()> {
    assert!(body.len() <= MAX_FRAME_BYTES, "frame body exceeds budget");
    let mut header = [0u8; 9];
    header[..4].copy_from_slice(&FRAME_MAGIC);
    header[4] = WIRE_VERSION;
    header[5..9].copy_from_slice(&(body.len() as u32).to_le_bytes());
    w.write_all(&header)?;
    w.write_all(body)?;
    w.flush()
}

/// Read one frame body. Framing violations (bad magic, version skew,
/// oversized length) surface as `InvalidData` I/O errors so stream
/// transports can distinguish a garbled channel from a dead one.
pub fn read_frame<R: Read>(r: &mut R) -> std::io::Result<Vec<u8>> {
    let mut header = [0u8; FRAME_HEADER_BYTES];
    r.read_exact(&mut header)?;
    let len = parse_frame_header(&header)?;
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok(body)
}

/// Validate a frame header and return the body length it announces.
/// Framing violations surface as `InvalidData` I/O errors, same as
/// [`read_frame`] — shared by the stream readers that assemble headers
/// from partial reads (see `transport::read_frame_patient`).
pub fn parse_frame_header(header: &[u8; FRAME_HEADER_BYTES]) -> std::io::Result<usize> {
    if header[..4] != FRAME_MAGIC {
        return Err(invalid_data(WireError::BadMagic));
    }
    if header[4] != WIRE_VERSION {
        return Err(invalid_data(WireError::BadVersion(header[4])));
    }
    let len = u32::from_le_bytes(header[5..9].try_into().unwrap()) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(invalid_data(WireError::TooLarge(len as u64)));
    }
    Ok(len)
}

fn invalid_data(e: WireError) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, e)
}

// ---------------------------------------------------------------------------
// Leaf codecs
// ---------------------------------------------------------------------------

fn put_conn(w: &mut WireWriter, c: ConnId) {
    w.put_u8(c.raw());
}

fn get_conn(r: &mut WireReader) -> Result<ConnId, WireError> {
    let raw = r.get_u8()?;
    if raw as usize >= crate::types::MAX_CONNECTORS {
        return Err(WireError::BadTag("conn-id"));
    }
    Ok(ConnId::from_raw(raw))
}

fn put_opt_conn(w: &mut WireWriter, c: Option<ConnId>) {
    match c {
        None => w.put_bool(false),
        Some(c) => {
            w.put_bool(true);
            put_conn(w, c);
        }
    }
}

fn get_opt_conn(r: &mut WireReader) -> Result<Option<ConnId>, WireError> {
    if r.get_bool()? {
        Ok(Some(get_conn(r)?))
    } else {
        Ok(None)
    }
}

fn put_lock_mode(w: &mut WireWriter, m: LockMode) {
    w.put_u8(match m {
        LockMode::Shared => 0,
        LockMode::Exclusive => 1,
    });
}

fn get_lock_mode(r: &mut WireReader) -> Result<LockMode, WireError> {
    match r.get_u8()? {
        0 => Ok(LockMode::Shared),
        1 => Ok(LockMode::Exclusive),
        _ => Err(WireError::BadTag("lock-mode")),
    }
}

fn put_disconnect_mode(w: &mut WireWriter, m: DisconnectMode) {
    w.put_u8(match m {
        DisconnectMode::Normal => 0,
        DisconnectMode::Abnormal => 1,
    });
}

fn get_disconnect_mode(r: &mut WireReader) -> Result<DisconnectMode, WireError> {
    match r.get_u8()? {
        0 => Ok(DisconnectMode::Normal),
        1 => Ok(DisconnectMode::Abnormal),
        _ => Err(WireError::BadTag("disconnect-mode")),
    }
}

fn put_write_kind(w: &mut WireWriter, k: WriteKind) {
    w.put_u8(match k {
        WriteKind::CleanData => 0,
        WriteKind::ChangedData => 1,
        WriteKind::InvalidateOnly => 2,
    });
}

fn get_write_kind(r: &mut WireReader) -> Result<WriteKind, WireError> {
    match r.get_u8()? {
        0 => Ok(WriteKind::CleanData),
        1 => Ok(WriteKind::ChangedData),
        2 => Ok(WriteKind::InvalidateOnly),
        _ => Err(WireError::BadTag("write-kind")),
    }
}

fn put_position(w: &mut WireWriter, p: WritePosition) {
    w.put_u8(match p {
        WritePosition::Head => 0,
        WritePosition::Tail => 1,
        WritePosition::Keyed => 2,
    });
}

fn get_position(r: &mut WireReader) -> Result<WritePosition, WireError> {
    match r.get_u8()? {
        0 => Ok(WritePosition::Head),
        1 => Ok(WritePosition::Tail),
        2 => Ok(WritePosition::Keyed),
        _ => Err(WireError::BadTag("write-position")),
    }
}

fn put_end(w: &mut WireWriter, e: DequeueEnd) {
    w.put_u8(match e {
        DequeueEnd::Head => 0,
        DequeueEnd::Tail => 1,
    });
}

fn get_end(r: &mut WireReader) -> Result<DequeueEnd, WireError> {
    match r.get_u8()? {
        0 => Ok(DequeueEnd::Head),
        1 => Ok(DequeueEnd::Tail),
        _ => Err(WireError::BadTag("dequeue-end")),
    }
}

fn put_cond(w: &mut WireWriter, c: LockCondition) {
    match c {
        LockCondition::None => w.put_u8(0),
        LockCondition::LockFree(i) => {
            w.put_u8(1);
            w.put_u64(i as u64);
        }
        LockCondition::HeldBySelf(i) => {
            w.put_u8(2);
            w.put_u64(i as u64);
        }
    }
}

fn get_cond(r: &mut WireReader) -> Result<LockCondition, WireError> {
    match r.get_u8()? {
        0 => Ok(LockCondition::None),
        1 => Ok(LockCondition::LockFree(r.get_u64()? as usize)),
        2 => Ok(LockCondition::HeldBySelf(r.get_u64()? as usize)),
        _ => Err(WireError::BadTag("lock-condition")),
    }
}

fn put_block(w: &mut WireWriter, b: BlockName) {
    w.buf.extend_from_slice(b.as_bytes());
}

fn get_block(r: &mut WireReader) -> Result<BlockName, WireError> {
    Ok(BlockName::from_bytes(r.take(16)?))
}

fn put_entry_view(w: &mut WireWriter, e: &EntryView) {
    w.put_u64(e.id.0);
    w.put_u64(e.key);
    w.put_bytes(&e.data);
    w.put_u64(e.header as u64);
    w.put_u64(e.version);
}

fn get_entry_view(r: &mut WireReader) -> Result<EntryView, WireError> {
    Ok(EntryView {
        id: EntryId(r.get_u64()?),
        key: r.get_u64()?,
        data: r.get_bytes()?,
        header: r.get_u64()? as usize,
        version: r.get_u64()?,
    })
}

/// Encode a [`CommandClass`] by its stable report index.
pub fn put_command_class(w: &mut WireWriter, c: CommandClass) {
    w.put_u8(c.index() as u8);
}

/// Decode a [`CommandClass`] from its stable report index.
pub fn get_command_class(r: &mut WireReader) -> Result<CommandClass, WireError> {
    let i = r.get_u8()? as usize;
    CommandClass::ALL.get(i).copied().ok_or(WireError::BadTag("command-class"))
}

/// Encode a full [`CfCommand`] descriptor (class, payload size, bulk flag).
pub fn put_cf_command(w: &mut WireWriter, c: &CfCommand) {
    put_command_class(w, c.class);
    w.put_u64(c.payload_bytes as u64);
    w.put_bool(c.bulk);
}

/// Decode a [`CfCommand`] descriptor.
pub fn get_cf_command(r: &mut WireReader) -> Result<CfCommand, WireError> {
    let class = get_command_class(r)?;
    let payload_bytes = r.get_u64()? as usize;
    let bulk = r.get_bool()?;
    let mut cmd = CfCommand::new(class, payload_bytes);
    if bulk {
        cmd = cmd.bulk();
    }
    Ok(cmd)
}

/// Map a decoded label back to the `&'static str` the [`CfError`] variants
/// carry. Labels are our own (command-class names plus a few fixed
/// strings); anything unrecognized — a corrupt frame, a newer peer —
/// collapses to `"remote"` rather than leaking memory interning attacker-
/// controlled strings.
pub fn intern_label(s: &str) -> &'static str {
    for class in CommandClass::ALL {
        if class.name() == s {
            return class.name();
        }
    }
    for known in ["tcp-link", "wire-protocol", "remote"] {
        if known == s {
            return known;
        }
    }
    "remote"
}

/// Encode a [`CfError`].
pub fn put_cf_error(w: &mut WireWriter, e: &CfError) {
    match e {
        CfError::NoSuchStructure(n) => {
            w.put_u8(0);
            w.put_str(n);
        }
        CfError::StructureExists(n) => {
            w.put_u8(1);
            w.put_str(n);
        }
        CfError::StructureFull => w.put_u8(2),
        CfError::FacilityFull => w.put_u8(3),
        CfError::NoConnectorSlots => w.put_u8(4),
        CfError::BadConnector => w.put_u8(5),
        CfError::NoSuchEntry => w.put_u8(6),
        CfError::VersionMismatch { expected, found } => {
            w.put_u8(7);
            w.put_u64(*expected);
            w.put_u64(*found);
        }
        CfError::LockHeld { holder } => {
            w.put_u8(8);
            put_conn(w, *holder);
        }
        CfError::NotLockHolder => w.put_u8(9),
        CfError::BadParameter(p) => {
            w.put_u8(10);
            w.put_str(p);
        }
        CfError::WrongModel => w.put_u8(11),
        CfError::LinkTimeout(c) => {
            w.put_u8(12);
            w.put_str(c);
        }
        CfError::InterfaceControlCheck(c) => {
            w.put_u8(13);
            w.put_str(c);
        }
    }
}

/// Decode a [`CfError`]. `&'static str` payloads are re-interned against
/// the known label set (see [`intern_label`]).
pub fn get_cf_error(r: &mut WireReader) -> Result<CfError, WireError> {
    Ok(match r.get_u8()? {
        0 => CfError::NoSuchStructure(r.get_str()?),
        1 => CfError::StructureExists(r.get_str()?),
        2 => CfError::StructureFull,
        3 => CfError::FacilityFull,
        4 => CfError::NoConnectorSlots,
        5 => CfError::BadConnector,
        6 => CfError::NoSuchEntry,
        7 => CfError::VersionMismatch { expected: r.get_u64()?, found: r.get_u64()? },
        8 => CfError::LockHeld { holder: get_conn(r)? },
        9 => CfError::NotLockHolder,
        10 => CfError::BadParameter(intern_label(&r.get_str()?)),
        11 => CfError::WrongModel,
        12 => CfError::LinkTimeout(intern_label(&r.get_str()?)),
        13 => CfError::InterfaceControlCheck(intern_label(&r.get_str()?)),
        _ => return Err(WireError::BadTag("cf-error")),
    })
}

// ---------------------------------------------------------------------------
// Requests
// ---------------------------------------------------------------------------

/// A transport-level handle naming one attached connection at the serving
/// end. Handles are issued by attach operations and are meaningless across
/// transports.
pub type WireHandle = u32;

/// One CF operation as it travels over a transport.
///
/// Attach operations name structures and mint a [`WireHandle`]; every
/// other operation addresses a previously attached handle. The variants
/// mirror the connection-layer API one-for-one so a remote connection can
/// offer the same method surface as a native one.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireRequest {
    /// Attach to a lock structure (any free slot).
    AttachLock {
        /// Structure name.
        structure: String,
    },
    /// Attach to a lock structure claiming a specific slot.
    AttachLockSlot {
        /// Structure name.
        structure: String,
        /// Connector slot to claim.
        slot: ConnId,
    },
    /// Attach to a cache structure.
    AttachCache {
        /// Structure name.
        structure: String,
        /// Local bit-vector length.
        vector_len: u64,
    },
    /// Attach to a list structure.
    AttachList {
        /// Structure name.
        structure: String,
        /// Notification-vector length.
        vector_len: u64,
    },
    /// [`crate::connection::LockConnection::request_lock`].
    LockRequest {
        /// Attached handle.
        handle: WireHandle,
        /// Lock-table entry.
        entry: u64,
        /// Requested mode.
        mode: LockMode,
    },
    /// [`crate::connection::LockConnection::force_interest`].
    LockForce {
        /// Attached handle.
        handle: WireHandle,
        /// Lock-table entry.
        entry: u64,
        /// Mode to record.
        mode: LockMode,
    },
    /// [`crate::connection::LockConnection::release_lock`].
    LockRelease {
        /// Attached handle.
        handle: WireHandle,
        /// Lock-table entry.
        entry: u64,
    },
    /// [`crate::connection::LockConnection::holders`].
    LockHolders {
        /// Attached handle.
        handle: WireHandle,
        /// Lock-table entry.
        entry: u64,
    },
    /// [`crate::connection::LockConnection::is_negotiate`].
    LockIsNegotiate {
        /// Attached handle.
        handle: WireHandle,
        /// Lock-table entry.
        entry: u64,
    },
    /// [`crate::connection::LockConnection::write_lock_record`].
    LockWriteRecord {
        /// Attached handle.
        handle: WireHandle,
        /// Resource name.
        resource: Vec<u8>,
        /// Mode held.
        mode: LockMode,
        /// Record payload.
        payload: Vec<u8>,
    },
    /// [`crate::connection::LockConnection::delete_lock_record`].
    LockDeleteRecord {
        /// Attached handle.
        handle: WireHandle,
        /// Resource name.
        resource: Vec<u8>,
    },
    /// [`crate::connection::LockConnection::retained_locks_of`].
    LockRetainedOf {
        /// Attached handle.
        handle: WireHandle,
        /// Failed peer's slot.
        peer: ConnId,
    },
    /// [`crate::connection::LockConnection::is_failed_persistent`].
    LockIsFailedPersistent {
        /// Attached handle.
        handle: WireHandle,
        /// Peer slot queried.
        peer: ConnId,
    },
    /// [`crate::connection::LockConnection::recovery_complete_for`].
    LockRecoveryComplete {
        /// Attached handle.
        handle: WireHandle,
        /// Recovered peer's slot.
        peer: ConnId,
    },
    /// [`crate::connection::LockConnection::detach`].
    LockDetach {
        /// Attached handle.
        handle: WireHandle,
        /// Orderly or failure disconnect.
        mode: DisconnectMode,
    },
    /// [`crate::connection::LockConnection::detach_peer`].
    LockDetachPeer {
        /// Attached handle.
        handle: WireHandle,
        /// Peer slot to disconnect.
        peer: ConnId,
        /// Orderly or failure disconnect.
        mode: DisconnectMode,
    },
    /// [`crate::connection::CacheConnection::register_read`].
    CacheRead {
        /// Attached handle.
        handle: WireHandle,
        /// Block name.
        name: BlockName,
        /// Local-vector index to register.
        vector_index: u32,
    },
    /// [`crate::connection::CacheConnection::write_invalidate`].
    CacheWrite {
        /// Attached handle.
        handle: WireHandle,
        /// Block name.
        name: BlockName,
        /// Block data.
        data: Vec<u8>,
        /// What the write stores.
        kind: WriteKind,
    },
    /// [`crate::connection::CacheConnection::unregister`].
    CacheUnregister {
        /// Attached handle.
        handle: WireHandle,
        /// Block name.
        name: BlockName,
    },
    /// [`crate::connection::CacheConnection::castout_candidates`].
    CacheCastoutCandidates {
        /// Attached handle.
        handle: WireHandle,
        /// Maximum candidates returned.
        max: u64,
    },
    /// [`crate::connection::CacheConnection::castout_read`].
    CacheCastoutRead {
        /// Attached handle.
        handle: WireHandle,
        /// Block name.
        name: BlockName,
    },
    /// [`crate::connection::CacheConnection::castout_complete`].
    CacheCastoutComplete {
        /// Attached handle.
        handle: WireHandle,
        /// Block name.
        name: BlockName,
        /// Version hardened to DASD.
        version: u64,
    },
    /// Remote form of [`crate::connection::CacheConnection::is_valid`]:
    /// over a wire transport the "local" bit vector lives at the serving
    /// end, so the validity test costs a round trip — exactly the cost the
    /// paper's in-memory vector exists to avoid (documented trade-off).
    CacheIsValid {
        /// Attached handle.
        handle: WireHandle,
        /// Vector index to test.
        vector_index: u32,
    },
    /// [`crate::connection::CacheConnection::detach`].
    CacheDetach {
        /// Attached handle.
        handle: WireHandle,
    },
    /// [`crate::connection::ListConnection::enqueue`].
    ListEnqueue {
        /// Attached handle.
        handle: WireHandle,
        /// Target header.
        header: u64,
        /// Collating key.
        key: u64,
        /// Entry data.
        data: Vec<u8>,
        /// Placement.
        position: WritePosition,
        /// Serialized-list condition.
        cond: LockCondition,
    },
    /// [`crate::connection::ListConnection::update`].
    ListUpdate {
        /// Attached handle.
        handle: WireHandle,
        /// Entry identity.
        id: EntryId,
        /// New collating key.
        key: u64,
        /// New data.
        data: Vec<u8>,
        /// Version guard.
        expected_version: Option<u64>,
        /// Serialized-list condition.
        cond: LockCondition,
    },
    /// [`crate::connection::ListConnection::read_entry`].
    ListReadEntry {
        /// Attached handle.
        handle: WireHandle,
        /// Entry identity.
        id: EntryId,
    },
    /// [`crate::connection::ListConnection::delete`].
    ListDelete {
        /// Attached handle.
        handle: WireHandle,
        /// Entry identity.
        id: EntryId,
        /// Serialized-list condition.
        cond: LockCondition,
    },
    /// [`crate::connection::ListConnection::move_to`].
    ListMoveTo {
        /// Attached handle.
        handle: WireHandle,
        /// Entry identity.
        id: EntryId,
        /// Destination header.
        to_header: u64,
        /// Placement.
        position: WritePosition,
        /// Serialized-list condition.
        cond: LockCondition,
    },
    /// [`crate::connection::ListConnection::transfer`].
    ListTransfer {
        /// Attached handle.
        handle: WireHandle,
        /// Entry identity.
        id: EntryId,
        /// Expected source header.
        from_header: u64,
        /// Destination header.
        to_header: u64,
        /// Placement.
        position: WritePosition,
        /// Serialized-list condition.
        cond: LockCondition,
    },
    /// [`crate::connection::ListConnection::claim_first`].
    ListClaimFirst {
        /// Attached handle.
        handle: WireHandle,
        /// Source header.
        from: u64,
        /// Destination header.
        to: u64,
        /// Which end to take from.
        end: DequeueEnd,
        /// Placement on the destination.
        position: WritePosition,
        /// Serialized-list condition.
        cond: LockCondition,
    },
    /// [`crate::connection::ListConnection::take`].
    ListTake {
        /// Attached handle.
        handle: WireHandle,
        /// Header to dequeue from.
        header: u64,
        /// Which end to take from.
        end: DequeueEnd,
        /// Serialized-list condition.
        cond: LockCondition,
    },
    /// [`crate::connection::ListConnection::scan`].
    ListScan {
        /// Attached handle.
        handle: WireHandle,
        /// Header to read.
        header: u64,
    },
    /// [`crate::connection::ListConnection::header_len`].
    ListHeaderLen {
        /// Attached handle.
        handle: WireHandle,
        /// Header queried.
        header: u64,
    },
    /// [`crate::connection::ListConnection::acquire_list_lock`].
    ListLockAcquire {
        /// Attached handle.
        handle: WireHandle,
        /// Serializing lock entry.
        entry: u64,
    },
    /// [`crate::connection::ListConnection::release_list_lock`].
    ListLockRelease {
        /// Attached handle.
        handle: WireHandle,
        /// Serializing lock entry.
        entry: u64,
    },
    /// [`crate::connection::ListConnection::list_lock_holder`].
    ListLockHolder {
        /// Attached handle.
        handle: WireHandle,
        /// Serializing lock entry.
        entry: u64,
    },
    /// [`crate::connection::ListConnection::register_monitor`].
    ListMonitor {
        /// Attached handle.
        handle: WireHandle,
        /// Header to monitor.
        header: u64,
        /// Notification-vector index.
        vector_index: u32,
    },
    /// [`crate::connection::ListConnection::deregister_monitor`].
    ListDeregisterMonitor {
        /// Attached handle.
        handle: WireHandle,
        /// Header to stop monitoring.
        header: u64,
    },
    /// Remote form of [`crate::connection::ListConnection::is_signaled`]
    /// (same round-trip trade-off as [`WireRequest::CacheIsValid`]).
    ListIsSignaled {
        /// Attached handle.
        handle: WireHandle,
        /// Notification-vector index to test.
        vector_index: u32,
    },
    /// [`crate::connection::ListConnection::detach`].
    ListDetach {
        /// Attached handle.
        handle: WireHandle,
    },
    /// A no-op command of the given shape, issued through the serving
    /// subchannel purely for its accounting and service time — remote
    /// members use probes to measure CF command latency over the wire.
    Probe(CfCommand),
}

impl WireRequest {
    /// The descriptor the serving connection issues this request under —
    /// the same constant the native connection method uses, so class,
    /// payload and conversion are decided in one place for both ends.
    pub fn command(&self) -> CfCommand {
        use WireRequest as R;
        match self {
            R::AttachLock { .. }
            | R::AttachLockSlot { .. }
            | R::LockDetach { .. }
            | R::LockDetachPeer { .. } => CfCommand::LOCK_CONNECT,
            R::LockRequest { .. } | R::LockForce { .. } => CfCommand::LOCK_REQUEST,
            R::LockRelease { .. } => CfCommand::LOCK_RELEASE,
            R::LockHolders { .. }
            | R::LockIsNegotiate { .. }
            | R::LockIsFailedPersistent { .. }
            | R::LockRecoveryComplete { .. } => CfCommand::LOCK_QUERY,
            R::LockWriteRecord { resource, payload, .. } => {
                CfCommand::lock_record(resource.len() + payload.len())
            }
            R::LockDeleteRecord { resource, .. } => CfCommand::lock_record(resource.len()),
            R::LockRetainedOf { .. } => CfCommand::LOCK_RETAINED,
            R::AttachCache { .. } | R::CacheUnregister { .. } | R::CacheDetach { .. } => {
                CfCommand::CACHE_DIRECTORY
            }
            R::CacheRead { .. } => CfCommand::CACHE_READ,
            R::CacheWrite { data, .. } => CfCommand::cache_write(data.len()),
            R::CacheCastoutCandidates { .. } => CfCommand::CASTOUT_CANDIDATES,
            R::CacheCastoutRead { .. } => CfCommand::CASTOUT_READ,
            R::CacheCastoutComplete { .. } => CfCommand::CASTOUT_COMPLETE,
            R::AttachList { .. }
            | R::ListMonitor { .. }
            | R::ListDeregisterMonitor { .. }
            | R::ListDetach { .. } => CfCommand::LIST_DIRECTORY,
            R::ListEnqueue { data, .. } | R::ListUpdate { data, .. } => CfCommand::list_write(data.len()),
            R::ListDelete { .. } => CfCommand::LIST_DELETE,
            R::ListReadEntry { .. } => CfCommand::LIST_READ_ENTRY,
            R::ListScan { .. } => CfCommand::LIST_SCAN,
            R::ListHeaderLen { .. } => CfCommand::LIST_HEADER_LEN,
            R::ListMoveTo { .. } | R::ListTransfer { .. } => CfCommand::LIST_MOVE,
            R::ListClaimFirst { .. } | R::ListTake { .. } => CfCommand::LIST_DEQUEUE,
            R::ListLockAcquire { .. } | R::ListLockRelease { .. } | R::ListLockHolder { .. } => {
                CfCommand::LIST_LOCK
            }
            // Vector tests are host-local natively and never reach the
            // subchannel; over a wire they cost the member a round trip,
            // which its meter files under the structure's admin class.
            R::CacheIsValid { .. } => CfCommand::new(CommandClass::CacheAdmin, 0),
            R::ListIsSignaled { .. } => CfCommand::new(CommandClass::ListAdmin, 0),
            R::Probe(cmd) => *cmd,
        }
    }

    /// Command class this request is accounted under; also labels the
    /// typed link errors a transport raises for it.
    pub fn class(&self) -> CommandClass {
        self.command().class
    }

    /// Whether the serving subchannel converts this request to
    /// asynchronous execution.
    pub fn converts_async(&self) -> bool {
        self.command().converts_async()
    }

    /// The attached-structure handle this request targets, if any (attach
    /// requests are minting the handle and return `None`).
    pub fn structure_handle(&self) -> Option<WireHandle> {
        use WireRequest as R;
        match self {
            R::AttachLock { .. }
            | R::AttachLockSlot { .. }
            | R::AttachCache { .. }
            | R::AttachList { .. }
            | R::Probe(_) => None,
            R::LockRequest { handle, .. }
            | R::LockForce { handle, .. }
            | R::LockRelease { handle, .. }
            | R::LockHolders { handle, .. }
            | R::LockIsNegotiate { handle, .. }
            | R::LockWriteRecord { handle, .. }
            | R::LockDeleteRecord { handle, .. }
            | R::LockRetainedOf { handle, .. }
            | R::LockIsFailedPersistent { handle, .. }
            | R::LockRecoveryComplete { handle, .. }
            | R::LockDetach { handle, .. }
            | R::LockDetachPeer { handle, .. }
            | R::CacheRead { handle, .. }
            | R::CacheWrite { handle, .. }
            | R::CacheUnregister { handle, .. }
            | R::CacheCastoutCandidates { handle, .. }
            | R::CacheCastoutRead { handle, .. }
            | R::CacheCastoutComplete { handle, .. }
            | R::CacheIsValid { handle, .. }
            | R::CacheDetach { handle }
            | R::ListEnqueue { handle, .. }
            | R::ListUpdate { handle, .. }
            | R::ListReadEntry { handle, .. }
            | R::ListDelete { handle, .. }
            | R::ListMoveTo { handle, .. }
            | R::ListTransfer { handle, .. }
            | R::ListClaimFirst { handle, .. }
            | R::ListTake { handle, .. }
            | R::ListScan { handle, .. }
            | R::ListHeaderLen { handle, .. }
            | R::ListLockAcquire { handle, .. }
            | R::ListLockRelease { handle, .. }
            | R::ListLockHolder { handle, .. }
            | R::ListMonitor { handle, .. }
            | R::ListDeregisterMonitor { handle, .. }
            | R::ListIsSignaled { handle, .. }
            | R::ListDetach { handle } => Some(*handle),
        }
    }

    /// Encode into an existing writer (lets an outer protocol embed CF
    /// requests in its own envelope).
    pub fn encode_into(&self, w: &mut WireWriter) {
        use WireRequest as R;
        match self {
            R::AttachLock { structure } => {
                w.put_u8(0);
                w.put_str(structure);
            }
            R::AttachLockSlot { structure, slot } => {
                w.put_u8(1);
                w.put_str(structure);
                put_conn(w, *slot);
            }
            R::AttachCache { structure, vector_len } => {
                w.put_u8(2);
                w.put_str(structure);
                w.put_u64(*vector_len);
            }
            R::AttachList { structure, vector_len } => {
                w.put_u8(3);
                w.put_str(structure);
                w.put_u64(*vector_len);
            }
            R::LockRequest { handle, entry, mode } => {
                w.put_u8(4);
                w.put_u32(*handle);
                w.put_u64(*entry);
                put_lock_mode(w, *mode);
            }
            R::LockForce { handle, entry, mode } => {
                w.put_u8(5);
                w.put_u32(*handle);
                w.put_u64(*entry);
                put_lock_mode(w, *mode);
            }
            R::LockRelease { handle, entry } => {
                w.put_u8(6);
                w.put_u32(*handle);
                w.put_u64(*entry);
            }
            R::LockHolders { handle, entry } => {
                w.put_u8(7);
                w.put_u32(*handle);
                w.put_u64(*entry);
            }
            R::LockIsNegotiate { handle, entry } => {
                w.put_u8(8);
                w.put_u32(*handle);
                w.put_u64(*entry);
            }
            R::LockWriteRecord { handle, resource, mode, payload } => {
                w.put_u8(9);
                w.put_u32(*handle);
                w.put_bytes(resource);
                put_lock_mode(w, *mode);
                w.put_bytes(payload);
            }
            R::LockDeleteRecord { handle, resource } => {
                w.put_u8(10);
                w.put_u32(*handle);
                w.put_bytes(resource);
            }
            R::LockRetainedOf { handle, peer } => {
                w.put_u8(11);
                w.put_u32(*handle);
                put_conn(w, *peer);
            }
            R::LockIsFailedPersistent { handle, peer } => {
                w.put_u8(12);
                w.put_u32(*handle);
                put_conn(w, *peer);
            }
            R::LockRecoveryComplete { handle, peer } => {
                w.put_u8(13);
                w.put_u32(*handle);
                put_conn(w, *peer);
            }
            R::LockDetach { handle, mode } => {
                w.put_u8(14);
                w.put_u32(*handle);
                put_disconnect_mode(w, *mode);
            }
            R::LockDetachPeer { handle, peer, mode } => {
                w.put_u8(15);
                w.put_u32(*handle);
                put_conn(w, *peer);
                put_disconnect_mode(w, *mode);
            }
            R::CacheRead { handle, name, vector_index } => {
                w.put_u8(16);
                w.put_u32(*handle);
                put_block(w, *name);
                w.put_u32(*vector_index);
            }
            R::CacheWrite { handle, name, data, kind } => {
                w.put_u8(17);
                w.put_u32(*handle);
                put_block(w, *name);
                w.put_bytes(data);
                put_write_kind(w, *kind);
            }
            R::CacheUnregister { handle, name } => {
                w.put_u8(18);
                w.put_u32(*handle);
                put_block(w, *name);
            }
            R::CacheCastoutCandidates { handle, max } => {
                w.put_u8(19);
                w.put_u32(*handle);
                w.put_u64(*max);
            }
            R::CacheCastoutRead { handle, name } => {
                w.put_u8(20);
                w.put_u32(*handle);
                put_block(w, *name);
            }
            R::CacheCastoutComplete { handle, name, version } => {
                w.put_u8(21);
                w.put_u32(*handle);
                put_block(w, *name);
                w.put_u64(*version);
            }
            R::CacheIsValid { handle, vector_index } => {
                w.put_u8(22);
                w.put_u32(*handle);
                w.put_u32(*vector_index);
            }
            R::CacheDetach { handle } => {
                w.put_u8(23);
                w.put_u32(*handle);
            }
            R::ListEnqueue { handle, header, key, data, position, cond } => {
                w.put_u8(24);
                w.put_u32(*handle);
                w.put_u64(*header);
                w.put_u64(*key);
                w.put_bytes(data);
                put_position(w, *position);
                put_cond(w, *cond);
            }
            R::ListUpdate { handle, id, key, data, expected_version, cond } => {
                w.put_u8(25);
                w.put_u32(*handle);
                w.put_u64(id.0);
                w.put_u64(*key);
                w.put_bytes(data);
                w.put_opt_u64(*expected_version);
                put_cond(w, *cond);
            }
            R::ListReadEntry { handle, id } => {
                w.put_u8(26);
                w.put_u32(*handle);
                w.put_u64(id.0);
            }
            R::ListDelete { handle, id, cond } => {
                w.put_u8(27);
                w.put_u32(*handle);
                w.put_u64(id.0);
                put_cond(w, *cond);
            }
            R::ListMoveTo { handle, id, to_header, position, cond } => {
                w.put_u8(28);
                w.put_u32(*handle);
                w.put_u64(id.0);
                w.put_u64(*to_header);
                put_position(w, *position);
                put_cond(w, *cond);
            }
            R::ListTransfer { handle, id, from_header, to_header, position, cond } => {
                w.put_u8(29);
                w.put_u32(*handle);
                w.put_u64(id.0);
                w.put_u64(*from_header);
                w.put_u64(*to_header);
                put_position(w, *position);
                put_cond(w, *cond);
            }
            R::ListClaimFirst { handle, from, to, end, position, cond } => {
                w.put_u8(30);
                w.put_u32(*handle);
                w.put_u64(*from);
                w.put_u64(*to);
                put_end(w, *end);
                put_position(w, *position);
                put_cond(w, *cond);
            }
            R::ListTake { handle, header, end, cond } => {
                w.put_u8(31);
                w.put_u32(*handle);
                w.put_u64(*header);
                put_end(w, *end);
                put_cond(w, *cond);
            }
            R::ListScan { handle, header } => {
                w.put_u8(32);
                w.put_u32(*handle);
                w.put_u64(*header);
            }
            R::ListHeaderLen { handle, header } => {
                w.put_u8(33);
                w.put_u32(*handle);
                w.put_u64(*header);
            }
            R::ListLockAcquire { handle, entry } => {
                w.put_u8(34);
                w.put_u32(*handle);
                w.put_u64(*entry);
            }
            R::ListLockRelease { handle, entry } => {
                w.put_u8(35);
                w.put_u32(*handle);
                w.put_u64(*entry);
            }
            R::ListLockHolder { handle, entry } => {
                w.put_u8(36);
                w.put_u32(*handle);
                w.put_u64(*entry);
            }
            R::ListMonitor { handle, header, vector_index } => {
                w.put_u8(37);
                w.put_u32(*handle);
                w.put_u64(*header);
                w.put_u32(*vector_index);
            }
            R::ListDeregisterMonitor { handle, header } => {
                w.put_u8(38);
                w.put_u32(*handle);
                w.put_u64(*header);
            }
            R::ListIsSignaled { handle, vector_index } => {
                w.put_u8(39);
                w.put_u32(*handle);
                w.put_u32(*vector_index);
            }
            R::ListDetach { handle } => {
                w.put_u8(40);
                w.put_u32(*handle);
            }
            R::Probe(cmd) => {
                w.put_u8(41);
                put_cf_command(w, cmd);
            }
        }
    }

    /// Decode from a reader positioned at a request (inverse of
    /// [`WireRequest::encode_into`]).
    pub fn decode_from(r: &mut WireReader) -> Result<Self, WireError> {
        use WireRequest as R;
        Ok(match r.get_u8()? {
            0 => R::AttachLock { structure: r.get_str()? },
            1 => R::AttachLockSlot { structure: r.get_str()?, slot: get_conn(r)? },
            2 => R::AttachCache { structure: r.get_str()?, vector_len: r.get_u64()? },
            3 => R::AttachList { structure: r.get_str()?, vector_len: r.get_u64()? },
            4 => R::LockRequest { handle: r.get_u32()?, entry: r.get_u64()?, mode: get_lock_mode(r)? },
            5 => R::LockForce { handle: r.get_u32()?, entry: r.get_u64()?, mode: get_lock_mode(r)? },
            6 => R::LockRelease { handle: r.get_u32()?, entry: r.get_u64()? },
            7 => R::LockHolders { handle: r.get_u32()?, entry: r.get_u64()? },
            8 => R::LockIsNegotiate { handle: r.get_u32()?, entry: r.get_u64()? },
            9 => R::LockWriteRecord {
                handle: r.get_u32()?,
                resource: r.get_bytes()?,
                mode: get_lock_mode(r)?,
                payload: r.get_bytes()?,
            },
            10 => R::LockDeleteRecord { handle: r.get_u32()?, resource: r.get_bytes()? },
            11 => R::LockRetainedOf { handle: r.get_u32()?, peer: get_conn(r)? },
            12 => R::LockIsFailedPersistent { handle: r.get_u32()?, peer: get_conn(r)? },
            13 => R::LockRecoveryComplete { handle: r.get_u32()?, peer: get_conn(r)? },
            14 => R::LockDetach { handle: r.get_u32()?, mode: get_disconnect_mode(r)? },
            15 => {
                R::LockDetachPeer { handle: r.get_u32()?, peer: get_conn(r)?, mode: get_disconnect_mode(r)? }
            }
            16 => R::CacheRead { handle: r.get_u32()?, name: get_block(r)?, vector_index: r.get_u32()? },
            17 => R::CacheWrite {
                handle: r.get_u32()?,
                name: get_block(r)?,
                data: r.get_bytes()?,
                kind: get_write_kind(r)?,
            },
            18 => R::CacheUnregister { handle: r.get_u32()?, name: get_block(r)? },
            19 => R::CacheCastoutCandidates { handle: r.get_u32()?, max: r.get_u64()? },
            20 => R::CacheCastoutRead { handle: r.get_u32()?, name: get_block(r)? },
            21 => {
                R::CacheCastoutComplete { handle: r.get_u32()?, name: get_block(r)?, version: r.get_u64()? }
            }
            22 => R::CacheIsValid { handle: r.get_u32()?, vector_index: r.get_u32()? },
            23 => R::CacheDetach { handle: r.get_u32()? },
            24 => R::ListEnqueue {
                handle: r.get_u32()?,
                header: r.get_u64()?,
                key: r.get_u64()?,
                data: r.get_bytes()?,
                position: get_position(r)?,
                cond: get_cond(r)?,
            },
            25 => R::ListUpdate {
                handle: r.get_u32()?,
                id: EntryId(r.get_u64()?),
                key: r.get_u64()?,
                data: r.get_bytes()?,
                expected_version: r.get_opt_u64()?,
                cond: get_cond(r)?,
            },
            26 => R::ListReadEntry { handle: r.get_u32()?, id: EntryId(r.get_u64()?) },
            27 => R::ListDelete { handle: r.get_u32()?, id: EntryId(r.get_u64()?), cond: get_cond(r)? },
            28 => R::ListMoveTo {
                handle: r.get_u32()?,
                id: EntryId(r.get_u64()?),
                to_header: r.get_u64()?,
                position: get_position(r)?,
                cond: get_cond(r)?,
            },
            29 => R::ListTransfer {
                handle: r.get_u32()?,
                id: EntryId(r.get_u64()?),
                from_header: r.get_u64()?,
                to_header: r.get_u64()?,
                position: get_position(r)?,
                cond: get_cond(r)?,
            },
            30 => R::ListClaimFirst {
                handle: r.get_u32()?,
                from: r.get_u64()?,
                to: r.get_u64()?,
                end: get_end(r)?,
                position: get_position(r)?,
                cond: get_cond(r)?,
            },
            31 => R::ListTake {
                handle: r.get_u32()?,
                header: r.get_u64()?,
                end: get_end(r)?,
                cond: get_cond(r)?,
            },
            32 => R::ListScan { handle: r.get_u32()?, header: r.get_u64()? },
            33 => R::ListHeaderLen { handle: r.get_u32()?, header: r.get_u64()? },
            34 => R::ListLockAcquire { handle: r.get_u32()?, entry: r.get_u64()? },
            35 => R::ListLockRelease { handle: r.get_u32()?, entry: r.get_u64()? },
            36 => R::ListLockHolder { handle: r.get_u32()?, entry: r.get_u64()? },
            37 => R::ListMonitor { handle: r.get_u32()?, header: r.get_u64()?, vector_index: r.get_u32()? },
            38 => R::ListDeregisterMonitor { handle: r.get_u32()?, header: r.get_u64()? },
            39 => R::ListIsSignaled { handle: r.get_u32()?, vector_index: r.get_u32()? },
            40 => R::ListDetach { handle: r.get_u32()? },
            41 => R::Probe(get_cf_command(r)?),
            _ => return Err(WireError::BadTag("wire-request")),
        })
    }

    /// Encode to a standalone byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decode from a standalone byte vector, requiring exact consumption.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = WireRequest::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

/// The result of one [`WireRequest`].
///
/// Structure-level failures travel as [`WireResponse::Error`]; transport
/// failures (dead socket, garbled frame) never reach this type — the
/// transport raises them as typed [`CfError`]s directly.
#[derive(Debug, Clone, PartialEq)]
pub enum WireResponse {
    /// Operation completed with no payload.
    Unit,
    /// An attach completed: the minted handle, the connector slot, and a
    /// model-specific geometry word (lock: table entries, cache/list: 0).
    Attached {
        /// Transport handle for subsequent operations.
        handle: WireHandle,
        /// Connector slot assigned by the structure.
        conn: ConnId,
        /// Lock-table entry count (0 for cache/list attaches); lets the
        /// client hash resources locally exactly like a native connection.
        geometry: u64,
    },
    /// A boolean result.
    Bool(bool),
    /// A numeric result (versions, lengths, counts).
    U64(u64),
    /// A lock request outcome.
    Lock(LockResponse),
    /// Holder query: `(interest mask, exclusive holder)`.
    Holders {
        /// Every connector with interest.
        mask: u32,
        /// Exclusive holder, if any.
        exclusive: Option<ConnId>,
    },
    /// Retained locks of a failed peer.
    Retained(Vec<RetainedLock>),
    /// A cache read-and-register result.
    Register(RegisterResult),
    /// A cache write-and-invalidate result.
    Write(WriteResult),
    /// Castout candidate names.
    Blocks(Vec<BlockName>),
    /// Castout read: data plus version.
    Data {
        /// Block data.
        data: Vec<u8>,
        /// Directory version.
        version: u64,
    },
    /// A minted list entry id.
    Entry(EntryId),
    /// An optional list entry (claims, dequeues).
    OptEntry(Option<EntryView>),
    /// A whole-list scan.
    Entries(Vec<EntryView>),
    /// An optional connector id (lock-holder queries).
    OptConn(Option<ConnId>),
    /// The operation failed with a typed CF error.
    Error(CfError),
}

impl WireResponse {
    /// Unwrap a structure-level error into `Err`, everything else to `Ok`.
    pub fn into_result(self) -> Result<WireResponse, CfError> {
        match self {
            WireResponse::Error(e) => Err(e),
            other => Ok(other),
        }
    }

    /// Encode into an existing writer.
    pub fn encode_into(&self, w: &mut WireWriter) {
        use WireResponse as P;
        match self {
            P::Unit => w.put_u8(0),
            P::Attached { handle, conn, geometry } => {
                w.put_u8(1);
                w.put_u32(*handle);
                put_conn(w, *conn);
                w.put_u64(*geometry);
            }
            P::Bool(b) => {
                w.put_u8(2);
                w.put_bool(*b);
            }
            P::U64(v) => {
                w.put_u8(3);
                w.put_u64(*v);
            }
            P::Lock(LockResponse::Granted) => w.put_u8(4),
            P::Lock(LockResponse::Contention { holders, exclusive, generation }) => {
                w.put_u8(5);
                w.put_u32(*holders);
                put_opt_conn(w, *exclusive);
                w.put_u32(*generation as u32);
            }
            P::Holders { mask, exclusive } => {
                w.put_u8(6);
                w.put_u32(*mask);
                put_opt_conn(w, *exclusive);
            }
            P::Retained(locks) => {
                w.put_u8(7);
                w.put_u32(locks.len() as u32);
                for l in locks {
                    w.put_bytes(&l.resource);
                    put_lock_mode(w, l.mode);
                    w.put_bytes(&l.payload);
                }
            }
            P::Register(reg) => {
                w.put_u8(8);
                match &reg.data {
                    None => w.put_bool(false),
                    Some(d) => {
                        w.put_bool(true);
                        w.put_bytes(d);
                    }
                }
                w.put_u64(reg.version);
                w.put_bool(reg.changed);
            }
            P::Write(res) => {
                w.put_u8(9);
                w.put_u64(res.invalidated as u64);
                w.put_u64(res.version);
            }
            P::Blocks(names) => {
                w.put_u8(10);
                w.put_u32(names.len() as u32);
                for n in names {
                    put_block(w, *n);
                }
            }
            P::Data { data, version } => {
                w.put_u8(11);
                w.put_bytes(data);
                w.put_u64(*version);
            }
            P::Entry(id) => {
                w.put_u8(12);
                w.put_u64(id.0);
            }
            P::OptEntry(None) => w.put_u8(13),
            P::OptEntry(Some(e)) => {
                w.put_u8(14);
                put_entry_view(w, e);
            }
            P::Entries(es) => {
                w.put_u8(15);
                w.put_u32(es.len() as u32);
                for e in es {
                    put_entry_view(w, e);
                }
            }
            P::OptConn(c) => {
                w.put_u8(16);
                put_opt_conn(w, *c);
            }
            P::Error(e) => {
                w.put_u8(17);
                put_cf_error(w, e);
            }
        }
    }

    /// Decode from a reader positioned at a response.
    pub fn decode_from(r: &mut WireReader) -> Result<Self, WireError> {
        use WireResponse as P;
        Ok(match r.get_u8()? {
            0 => P::Unit,
            1 => P::Attached { handle: r.get_u32()?, conn: get_conn(r)?, geometry: r.get_u64()? },
            2 => P::Bool(r.get_bool()?),
            3 => P::U64(r.get_u64()?),
            4 => P::Lock(LockResponse::Granted),
            5 => P::Lock(LockResponse::Contention {
                holders: r.get_u32()?,
                exclusive: get_opt_conn(r)?,
                generation: r.get_u32()? as u16,
            }),
            6 => P::Holders { mask: r.get_u32()?, exclusive: get_opt_conn(r)? },
            7 => {
                let n = r.get_u32()? as usize;
                let mut locks = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    locks.push(RetainedLock {
                        resource: r.get_bytes()?,
                        mode: get_lock_mode(r)?,
                        payload: r.get_bytes()?,
                    });
                }
                P::Retained(locks)
            }
            8 => {
                let data = if r.get_bool()? { Some(Arc::new(r.get_bytes()?)) } else { None };
                P::Register(RegisterResult { data, version: r.get_u64()?, changed: r.get_bool()? })
            }
            9 => P::Write(WriteResult { invalidated: r.get_u64()? as usize, version: r.get_u64()? }),
            10 => {
                let n = r.get_u32()? as usize;
                let mut names = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    names.push(get_block(r)?);
                }
                P::Blocks(names)
            }
            11 => P::Data { data: r.get_bytes()?, version: r.get_u64()? },
            12 => P::Entry(EntryId(r.get_u64()?)),
            13 => P::OptEntry(None),
            14 => P::OptEntry(Some(get_entry_view(r)?)),
            15 => {
                let n = r.get_u32()? as usize;
                let mut es = Vec::with_capacity(n.min(1024));
                for _ in 0..n {
                    es.push(get_entry_view(r)?);
                }
                P::Entries(es)
            }
            16 => P::OptConn(get_opt_conn(r)?),
            17 => P::Error(get_cf_error(r)?),
            _ => return Err(WireError::BadTag("wire-response")),
        })
    }

    /// Encode to a standalone byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decode from a standalone byte vector, requiring exact consumption.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = WireResponse::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

// ---------------------------------------------------------------------------
// SMF-style interval records
// ---------------------------------------------------------------------------

/// Version byte leading every encoded [`SmfRecord`]. Bumped independently
/// of [`WIRE_VERSION`] on any incompatible record-format change, so old
/// retained records are rejected rather than misparsed.
pub const SMF_RECORD_VERSION: u8 = 1;

/// Encode a [`HistogramSnapshot`] sparsely: a count of non-empty buckets,
/// then `(bucket index, sample count)` pairs in strictly ascending index
/// order, then the samples/total/max scalars. Interval deltas are mostly
/// empty, so this beats shipping all [`HIST_BUCKETS`] words ~10:1.
pub fn put_histogram_snapshot(w: &mut WireWriter, h: &HistogramSnapshot) {
    let non_empty = h.buckets.iter().filter(|&&n| n > 0).count();
    w.put_u8(non_empty as u8);
    for (i, &n) in h.buckets.iter().enumerate() {
        if n > 0 {
            w.put_u8(i as u8);
            w.put_u64(n);
        }
    }
    w.put_u64(h.samples);
    w.put_u64(h.total_ns);
    w.put_u64(h.max_ns);
}

/// Decode a sparsely-encoded [`HistogramSnapshot`]. Indices must be in
/// range and strictly ascending and counts non-zero (the canonical form
/// [`put_histogram_snapshot`] emits); anything else is a bad tag.
pub fn get_histogram_snapshot(r: &mut WireReader) -> Result<HistogramSnapshot, WireError> {
    let n = r.get_u8()? as usize;
    if n > HIST_BUCKETS {
        return Err(WireError::BadTag("histogram-bucket-count"));
    }
    let mut buckets = [0u64; HIST_BUCKETS];
    let mut prev: Option<u8> = None;
    for _ in 0..n {
        let idx = r.get_u8()?;
        if idx as usize >= HIST_BUCKETS || prev.is_some_and(|p| idx <= p) {
            return Err(WireError::BadTag("histogram-bucket-index"));
        }
        let count = r.get_u64()?;
        if count == 0 {
            return Err(WireError::BadTag("histogram-bucket-count"));
        }
        buckets[idx as usize] = count;
        prev = Some(idx);
    }
    Ok(HistogramSnapshot { buckets, samples: r.get_u64()?, total_ns: r.get_u64()?, max_ns: r.get_u64()? })
}

/// One command class's interval activity as a member observed it.
///
/// The counters mirror [`crate::connection::ClassStats`] deltas; `observed`
/// is the member-observed end-to-end latency (wire round trip plus CF
/// service time), which the merged report decomposes against the serving
/// end's own service histogram.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SmfClassRow {
    /// Commands issued in the interval.
    pub issued: u64,
    /// Ran CPU-synchronously (member-side conversion mirror).
    pub sync: u64,
    /// Converted to asynchronous execution.
    pub async_converted: u64,
    /// Surfaced a link fault (subset of issued).
    pub faulted: u64,
    /// Member-observed end-to-end latency over the interval.
    pub observed: HistogramSnapshot,
}

/// One structure's interval activity as a member observed it.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SmfStructureRow {
    /// Structure name (attach target).
    pub name: String,
    /// Commands the member issued against the structure.
    pub requests: u64,
    /// Lock requests answered with contention.
    pub contentions: u64,
    /// Forced interests (false-contention resolutions the member drove).
    pub force_interests: u64,
    /// Commands that surfaced a link fault.
    pub faulted: u64,
}

/// A compact, versioned SMF-style interval record: everything one member
/// can say about its own CF activity over one interval.
///
/// The paper's systems cut SMF records locally and RMF merges them into
/// the sysplex-wide report (§2.1, §5.1); this type is that record for the
/// reproduction. Class and structure rows are **interval deltas** (only
/// rows with traffic are shipped); the trace fields are **cumulative as of
/// the cut**, matching how the in-process report treats trace rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SmfRecord {
    /// Raw system id of the member that cut the record.
    pub system: u8,
    /// Member name (XCF member label).
    pub member: String,
    /// Record sequence number within the member's session (0-based).
    pub seq: u32,
    /// Interval length in microseconds.
    pub interval_us: u64,
    /// True on the flush record cut during Goodbye: the interval is
    /// partial and no further records follow from this session.
    pub final_interval: bool,
    /// Wire-level redials/retries the member's session performed so far
    /// (cumulative): commands the server may have executed more than once
    /// or seen without the member recording an outcome.
    pub wire_retries: u64,
    /// Interval activity per command class (only classes with traffic).
    pub classes: Vec<(CommandClass, SmfClassRow)>,
    /// Interval activity per attached structure (only structures with
    /// traffic).
    pub structures: Vec<SmfStructureRow>,
    /// Trace entries emitted by this member's rings (cumulative).
    pub trace_emitted: u64,
    /// Trace entries dropped by ring wrap (cumulative).
    pub trace_dropped: u64,
    /// Trace entries currently retained.
    pub trace_retained: u64,
}

impl SmfRecord {
    /// Encode into an existing writer (the session envelope embeds records
    /// the same way it embeds CF requests).
    pub fn encode_into(&self, w: &mut WireWriter) {
        w.put_u8(SMF_RECORD_VERSION);
        w.put_u8(self.system);
        w.put_str(&self.member);
        w.put_u32(self.seq);
        w.put_u64(self.interval_us);
        w.put_bool(self.final_interval);
        w.put_u64(self.wire_retries);
        w.put_u8(self.classes.len() as u8);
        for (class, row) in &self.classes {
            put_command_class(w, *class);
            w.put_u64(row.issued);
            w.put_u64(row.sync);
            w.put_u64(row.async_converted);
            w.put_u64(row.faulted);
            put_histogram_snapshot(w, &row.observed);
        }
        w.put_u32(self.structures.len() as u32);
        for s in &self.structures {
            w.put_str(&s.name);
            w.put_u64(s.requests);
            w.put_u64(s.contentions);
            w.put_u64(s.force_interests);
            w.put_u64(s.faulted);
        }
        w.put_u64(self.trace_emitted);
        w.put_u64(self.trace_dropped);
        w.put_u64(self.trace_retained);
    }

    /// Decode from a reader positioned at a record.
    pub fn decode_from(r: &mut WireReader) -> Result<Self, WireError> {
        let version = r.get_u8()?;
        if version != SMF_RECORD_VERSION {
            return Err(WireError::BadVersion(version));
        }
        let system = r.get_u8()?;
        let member = r.get_str()?;
        let seq = r.get_u32()?;
        let interval_us = r.get_u64()?;
        let final_interval = r.get_bool()?;
        let wire_retries = r.get_u64()?;
        let nclasses = r.get_u8()? as usize;
        if nclasses > CommandClass::COUNT {
            return Err(WireError::BadTag("smf-class-count"));
        }
        let mut classes = Vec::with_capacity(nclasses);
        for _ in 0..nclasses {
            let class = get_command_class(r)?;
            classes.push((
                class,
                SmfClassRow {
                    issued: r.get_u64()?,
                    sync: r.get_u64()?,
                    async_converted: r.get_u64()?,
                    faulted: r.get_u64()?,
                    observed: get_histogram_snapshot(r)?,
                },
            ));
        }
        let nstructures = r.get_u32()? as usize;
        if nstructures > MAX_FRAME_BYTES / 8 {
            return Err(WireError::TooLarge(nstructures as u64));
        }
        let mut structures = Vec::with_capacity(nstructures.min(1024));
        for _ in 0..nstructures {
            structures.push(SmfStructureRow {
                name: r.get_str()?,
                requests: r.get_u64()?,
                contentions: r.get_u64()?,
                force_interests: r.get_u64()?,
                faulted: r.get_u64()?,
            });
        }
        Ok(SmfRecord {
            system,
            member,
            seq,
            interval_us,
            final_interval,
            wire_retries,
            classes,
            structures,
            trace_emitted: r.get_u64()?,
            trace_dropped: r.get_u64()?,
            trace_retained: r.get_u64()?,
        })
    }

    /// Encode to a standalone byte vector.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decode from a standalone byte vector, requiring exact consumption.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let v = SmfRecord::decode_from(&mut r)?;
        r.finish()?;
        Ok(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frame_round_trip_over_a_buffer() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"hello sysplex").unwrap();
        let mut cursor = &buf[..];
        assert_eq!(read_frame(&mut cursor).unwrap(), b"hello sysplex");
    }

    #[test]
    fn frame_rejects_bad_magic_and_version() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        let mut garbled = buf.clone();
        garbled[0] = b'Z';
        assert_eq!(read_frame(&mut &garbled[..]).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
        let mut skewed = buf.clone();
        skewed[4] = 99;
        assert_eq!(read_frame(&mut &skewed[..]).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn frame_rejects_oversized_length() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"x").unwrap();
        buf[5..9].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(read_frame(&mut &buf[..]).unwrap_err().kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn request_round_trip_spot_checks() {
        let reqs = [
            WireRequest::AttachLock { structure: "IRLM1".into() },
            WireRequest::LockRequest { handle: 7, entry: 42, mode: LockMode::Exclusive },
            WireRequest::CacheWrite {
                handle: 1,
                name: BlockName::from_parts(3, 9),
                data: vec![1, 2, 3],
                kind: WriteKind::ChangedData,
            },
            WireRequest::ListClaimFirst {
                handle: 2,
                from: 0,
                to: 1,
                end: DequeueEnd::Head,
                position: WritePosition::Tail,
                cond: LockCondition::LockFree(3),
            },
            WireRequest::Probe(CfCommand::new(CommandClass::ListRead, 4096).bulk()),
        ];
        for req in reqs {
            assert_eq!(WireRequest::decode(&req.encode()).unwrap(), req);
        }
    }

    #[test]
    fn response_round_trip_spot_checks() {
        let resps = [
            WireResponse::Unit,
            WireResponse::Attached { handle: 9, conn: ConnId::from_raw(3), geometry: 1024 },
            WireResponse::Lock(LockResponse::Contention {
                holders: 0b101,
                exclusive: Some(ConnId::from_raw(2)),
                generation: 41,
            }),
            WireResponse::Register(RegisterResult {
                data: Some(Arc::new(vec![7; 64])),
                version: 5,
                changed: true,
            }),
            WireResponse::OptEntry(Some(EntryView {
                id: EntryId(11),
                key: 4,
                data: b"job".to_vec(),
                header: 2,
                version: 1,
            })),
            WireResponse::Error(CfError::LinkTimeout("lock-request")),
        ];
        for resp in resps {
            assert_eq!(WireResponse::decode(&resp.encode()).unwrap(), resp);
        }
    }

    #[test]
    fn truncated_buffers_error_not_panic() {
        let full = WireRequest::LockWriteRecord {
            handle: 3,
            resource: b"ACCT.1".to_vec(),
            mode: LockMode::Exclusive,
            payload: vec![9; 32],
        }
        .encode();
        for cut in 0..full.len() {
            assert!(WireRequest::decode(&full[..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = WireRequest::AttachLock { structure: "L".into() }.encode();
        buf.push(0xFF);
        assert_eq!(WireRequest::decode(&buf).unwrap_err(), WireError::TrailingBytes(1));
    }

    fn sample_smf_record() -> SmfRecord {
        let mut observed = HistogramSnapshot::empty();
        observed.buckets[3] = 5;
        observed.buckets[17] = 2;
        observed.samples = 7;
        observed.total_ns = 90_000;
        observed.max_ns = 70_000;
        SmfRecord {
            system: 2,
            member: "SYS02".into(),
            seq: 4,
            interval_us: 250_000,
            final_interval: true,
            wire_retries: 1,
            classes: vec![(
                CommandClass::LockRequest,
                SmfClassRow { issued: 7, sync: 7, async_converted: 0, faulted: 0, observed },
            )],
            structures: vec![SmfStructureRow {
                name: "IRLM1".into(),
                requests: 7,
                contentions: 2,
                force_interests: 1,
                faulted: 0,
            }],
            trace_emitted: 40,
            trace_dropped: 8,
            trace_retained: 32,
        }
    }

    #[test]
    fn smf_record_round_trips() {
        let rec = sample_smf_record();
        assert_eq!(SmfRecord::decode(&rec.encode()).unwrap(), rec);
    }

    #[test]
    fn smf_record_rejects_version_skew_and_truncation() {
        let full = sample_smf_record().encode();
        let mut skewed = full.clone();
        skewed[0] = SMF_RECORD_VERSION + 1;
        assert_eq!(SmfRecord::decode(&skewed).unwrap_err(), WireError::BadVersion(SMF_RECORD_VERSION + 1));
        for cut in 0..full.len() {
            assert!(SmfRecord::decode(&full[..cut]).is_err(), "cut at {cut} must not decode");
        }
    }

    #[test]
    fn histogram_codec_rejects_non_canonical_bucket_lists() {
        // Out-of-order indices.
        let mut w = WireWriter::new();
        w.put_u8(2);
        w.put_u8(9);
        w.put_u64(1);
        w.put_u8(4);
        w.put_u64(1);
        for _ in 0..3 {
            w.put_u64(0);
        }
        let bytes = w.into_bytes();
        assert!(get_histogram_snapshot(&mut WireReader::new(&bytes)).is_err());
        // Zero count in the sparse list.
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u8(4);
        w.put_u64(0);
        for _ in 0..3 {
            w.put_u64(0);
        }
        let bytes = w.into_bytes();
        assert!(get_histogram_snapshot(&mut WireReader::new(&bytes)).is_err());
    }

    #[test]
    fn converts_async_mirrors_payload_thresholds() {
        let small = WireRequest::CacheWrite {
            handle: 1,
            name: BlockName::from_parts(0, 1),
            data: vec![0; 64],
            kind: WriteKind::ChangedData,
        };
        let big = WireRequest::CacheWrite {
            handle: 1,
            name: BlockName::from_parts(0, 1),
            data: vec![0; 8192],
            kind: WriteKind::ChangedData,
        };
        assert!(!small.converts_async());
        assert!(big.converts_async());
        assert!(WireRequest::ListScan { handle: 1, header: 0 }.converts_async());
        assert!(!WireRequest::LockRetainedOf { handle: 1, peer: ConnId::from_raw(0) }.converts_async());
        assert_eq!(WireRequest::AttachLock { structure: "L".into() }.structure_handle(), None);
        assert_eq!(WireRequest::ListScan { handle: 9, header: 0 }.structure_handle(), Some(9));
    }

    #[test]
    fn error_labels_reintern_to_known_statics() {
        let e = CfError::InterfaceControlCheck("cache-write");
        let mut w = WireWriter::new();
        put_cf_error(&mut w, &e);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(get_cf_error(&mut r).unwrap(), e);
        // Unknown labels collapse to "remote" instead of leaking.
        let mut w = WireWriter::new();
        w.put_u8(12);
        w.put_str("no-such-class");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(get_cf_error(&mut r).unwrap(), CfError::LinkTimeout("remote"));
    }
}
