//! Wire codec for CF command traffic.
//!
//! The paper's coupling links carry architected message command blocks
//! between a system's channel subsystem and the CF (§3.3). This module is
//! the reproduction's equivalent: a compact binary encoding of every CF
//! operation ([`WireRequest`]), every result ([`WireResponse`]), the
//! command descriptor ([`crate::connection::CfCommand`]) and the typed
//! error set ([`CfError`]), plus the framing used on a byte stream
//! ([`FrameStream`]).
//!
//! The command set is written once, as a table (`cf_commands!` below):
//! each row gives a command's wire tag, its typed fields, the descriptor
//! it is accounted under and the native call that serves it. The
//! [`WireRequest`] enum, its codec, its classification and the serving
//! dispatcher are all generated from those rows, so adding a CF command
//! is one native connection method plus one row.
//!
//! **The kit is public.** [`Wire`], [`WireWriter`]/[`WireReader`],
//! [`to_bytes`]/[`from_bytes`] and the exported macros
//! [`wire_enum!`](crate::wire_enum) and [`wire_struct!`](crate::wire_struct)
//! are the one way any crate in the workspace turns a value into bytes:
//! `sysplex-services` writes the member-session envelope and the XCF types
//! it carries, the ARM policy and the couple-data-set record with them;
//! `sysplex-subsys` its JES job, VTAM instance, MPP message and RACF
//! profile entries; `sysplex-db` IRLM's negotiation signals. A new format
//! is a table (or a `Wire` impl) in the crate that owns the type, not a
//! new pair of length-prefix helpers.
//!
//! Design constraints:
//!
//! * **No serde.** The workspace carries no serialization dependency; a
//!   type's encoding is its [`Wire`] impl over a byte buffer, which also
//!   keeps the wire format stable and inspectable.
//! * **Decode never trusts the peer.** Lengths are bounds-checked before
//!   any allocation; unknown tags and truncated buffers surface as
//!   [`WireError`], which the transport layer maps to
//!   [`CfError::InterfaceControlCheck`] — a malformed frame is a channel
//!   malfunction, exactly like a garbled link transmission.
//! * **Symmetric round trip.** For every value `v`: `decode(encode(v)) ==
//!   v`. The property tests in `tests/wire_roundtrip.rs` pin this for
//!   every variant, and pin the bytes themselves against a golden sample.

use crate::cache::{BlockName, RegisterResult, WriteKind, WriteResult, WriteSetResult};
use crate::connection::{CfCommand, ClassSnapshot, CommandClass};
use crate::error::{CfError, CfResult};
use crate::hashing::ResourceName;
use crate::list::{DequeueEnd, EntryId, EntryView, LockCondition, WritePosition};
use crate::lock::{DisconnectMode, LockMode, LockResponse, RetainedLock};
use crate::stats::{HistogramSnapshot, HIST_BUCKETS};
use crate::transport::InProcessTransport;
use crate::types::{ConnId, ConnMask, SystemId};
use std::io::{ErrorKind, Read, Write};
use std::ops::Range;
use std::sync::Arc;
use std::time::Duration;

/// Frame magic: the first bytes of every frame on a stream transport.
pub const FRAME_MAGIC: [u8; 4] = *b"SPLX";
/// Wire protocol version; bumped on any incompatible format change.
pub const WIRE_VERSION: u8 = 3;
/// Upper bound on one frame's body. Large enough for a bulk castout page
/// batch, small enough that a corrupt length cannot balloon allocation.
pub const MAX_FRAME_BYTES: usize = 16 * 1024 * 1024;
/// Bytes in a frame header: magic + version + body length + sequence number.
pub const FRAME_HEADER_BYTES: usize = 13;

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

/// Encoder over a growable byte buffer: appends, plus the in-place access a
/// writer that reuses its buffer needs — read what it holds, cut it back,
/// fill in a length once what follows it is written.
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

    /// The bytes written so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Keep the first `len` bytes, and the buffer's capacity.
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Forget everything written, keeping the buffer's capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Overwrite the little-endian u32 written at `at`.
    pub fn patch_u32(&mut self, at: usize, v: u32) {
        self.buf[at..at + 4].copy_from_slice(&v.to_le_bytes());
    }

    /// Overwrite the little-endian u64 written at `at`.
    pub fn patch_u64(&mut self, at: usize, v: u64) {
        self.buf[at..at + 8].copy_from_slice(&v.to_le_bytes());
    }

    /// Append what `body` writes behind its u32 length, as
    /// [`WireWriter::put_bytes`] would have, without a copy of it.
    pub fn put_len_prefixed(&mut self, body: impl FnOnce(&mut Self)) {
        let at = self.buf.len();
        self.put_u32(0);
        body(self);
        self.patch_u32(at, (self.buf.len() - at - 4) as u32);
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

    /// Append `v` as it is, with no length in front: a fixed-width field,
    /// or the tail of a buffer that ends where the value ends.
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }

    /// Append a length-prefixed byte slice.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_u32(v.len() as u32);
        self.put_raw(v);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }

    /// Append a borrowed optional byte slice as `Option<Vec<u8>>` encodes
    /// an owned one: a presence byte, then the length-prefixed bytes.
    pub fn put_opt_bytes(&mut self, v: Option<&[u8]>) {
        self.put_bool(v.is_some());
        if let Some(v) = v {
            self.put_bytes(v);
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

    /// Read the next `n` bytes as they are (the inverse of
    /// [`WireWriter::put_raw`]).
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
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

    /// Read a length-prefixed byte slice, borrowed from the buffer. The
    /// length is validated against both the frame budget and the bytes
    /// actually present, so a corrupt length can neither index past the
    /// end nor balloon an allocation made from it.
    pub fn get_slice(&mut self) -> Result<&'a [u8], WireError> {
        let len = self.get_u32()? as usize;
        if len > MAX_FRAME_BYTES {
            return Err(WireError::TooLarge(len as u64));
        }
        self.take(len)
    }

    /// Read a length-prefixed byte vector.
    pub fn get_bytes(&mut self) -> Result<Vec<u8>, WireError> {
        self.get_slice().map(<[u8]>::to_vec)
    }

    /// Read a length-prefixed UTF-8 string (lossy: the wire is ours, but a
    /// corrupted frame must not panic).
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let b = self.get_bytes()?;
        String::from_utf8(b).map_err(|_| WireError::BadTag("utf8-string"))
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Mid-frame stall budget for serving loops: how long a peer may pause
/// *inside* a frame before the reader declares the link dead. Between
/// frames a session may idle indefinitely — liveness between commands is
/// the heartbeat monitor's job, not the reader's.
pub const MID_FRAME_STALL: Duration = Duration::from_secs(1);

/// The read buffer's first size: two 4 KiB pages and their headers fit.
const READ_BUFFER_BYTES: usize = 16 * 1024;
/// How far past the bytes already received the read buffer grows in one
/// step. The length in a header is a claim; memory follows arrived bytes.
const READ_GROW_STEP: usize = 64 * 1024;

/// A stream whose blocking reads can be given a deadline — what
/// [`FrameStream::recv_patient`] needs of a socket.
pub trait ReadDeadline {
    /// Bound every later read by `deadline`; `None` blocks forever.
    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> std::io::Result<()>;
}

impl ReadDeadline for std::net::TcpStream {
    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> std::io::Result<()> {
        self.set_read_timeout(deadline)
    }
}

/// One received frame, borrowed from its [`FrameStream`]'s read buffer.
#[derive(Debug, Clone, Copy)]
pub struct Frame<'a> {
    /// The sequence number in the header: a request's own, or the number
    /// of the request a response answers.
    pub seq: u32,
    /// Header and body as they arrived (what a proxy forwards).
    pub raw: &'a [u8],
}

impl<'a> Frame<'a> {
    /// The frame's body.
    pub fn body(&self) -> &'a [u8] {
        &self.raw[FRAME_HEADER_BYTES..]
    }
}

/// The framed end of a byte stream: the one place frames are put on a
/// stream and taken off it.
///
/// A frame is `magic(4) version(1) body-length(4, LE) sequence(4, LE)`
/// then the body. Sending encodes the body behind a reserved header in a
/// reused buffer and hands the stream the whole frame in **one** write.
/// Receiving reads into a reused, growable buffer, so a frame that
/// arrived whole costs **one** read and frames that arrived together cost
/// one between them.
///
/// The sequence number is how a response is matched to its request: a
/// server echoes the number of the request it answers and [`call`]
/// returns only the response carrying the outstanding number, so a
/// duplicated or late response is skipped whenever it arrives — by
/// identity, not by guessing that the socket ought to be empty. The
/// caller numbers its requests, so a request sent again after a redial
/// can carry the number of its first send, and a server can tell the
/// repeat from a new request.
///
/// [`call`]: FrameStream::call
#[derive(Debug)]
pub struct FrameStream<S> {
    stream: S,
    out: WireWriter,
    /// Read buffer: `inb[head..tail]` holds bytes received and not yet
    /// returned; `inb.len()` is the space reads may fill.
    inb: Vec<u8>,
    head: usize,
    tail: usize,
}

impl<S> FrameStream<S> {
    /// Frame `stream`. Buffers are allocated on first use.
    pub fn new(stream: S) -> Self {
        FrameStream { stream, out: WireWriter::new(), inb: Vec::new(), head: 0, tail: 0 }
    }

    /// The underlying stream (to set socket options, clone or shut down).
    pub fn get_ref(&self) -> &S {
        &self.stream
    }

    /// Unwrap the stream; buffered input is dropped.
    pub fn into_inner(self) -> S {
        self.stream
    }

    /// Bytes the read buffer currently occupies.
    pub fn read_buffer_bytes(&self) -> usize {
        self.inb.capacity()
    }
}

impl<S: Write> FrameStream<S> {
    /// Send one frame numbered `seq` whose body is what `body` writes.
    pub fn send(&mut self, seq: u32, body: impl FnOnce(&mut WireWriter)) -> std::io::Result<()> {
        let out = &mut self.out;
        out.clear();
        out.put_raw(&FRAME_MAGIC);
        out.put_u8(WIRE_VERSION);
        out.put_u32(0); // the body length, once it is known
        out.put_u32(seq);
        body(out);
        let len = out.len() - FRAME_HEADER_BYTES;
        assert!(len <= MAX_FRAME_BYTES, "frame body exceeds budget");
        out.patch_u32(5, len as u32);
        self.stream.write_all(out.as_bytes())?;
        self.stream.flush()
    }

    /// Send the last frame [`send`](FrameStream::send) put together once
    /// more, byte for byte: how a server answers a repeated request
    /// without serving it again.
    pub fn resend(&mut self) -> std::io::Result<()> {
        self.stream.write_all(self.out.as_bytes())?;
        self.stream.flush()
    }
}

impl<S: Read> FrameStream<S> {
    /// Receive the next frame, waiting as long as the stream itself waits
    /// (a client bounds it with the socket's read timeout). Outcomes:
    ///
    /// * end of stream at a frame boundary → `UnexpectedEof`;
    /// * end of stream inside a frame → `ConnectionAborted`;
    /// * the stream's deadline passing → `TimedOut`;
    /// * a framing violation (bad magic, version skew, oversized length)
    ///   → `InvalidData` carrying the [`WireError`], and whatever was
    ///   buffered is discarded: the stream has no frame boundary left.
    pub fn recv(&mut self) -> std::io::Result<Frame<'_>> {
        let (seq, at) = self.next_frame(None)?;
        Ok(Frame { seq, raw: &self.inb[at] })
    }

    /// Receive the next frame at a serving end, tolerating a slow writer.
    ///
    /// Between frames the read blocks without a deadline (an idle session
    /// is a healthy one). Only when a frame has arrived in part is
    /// [`MID_FRAME_STALL`] armed on the stream: every further piece must
    /// land within it, so a peer dribbling byte by byte is served and one
    /// gone silent mid-frame is `TimedOut`. The deadline is disarmed
    /// before returning. A frame that arrived whole never touches it.
    /// Otherwise the outcomes are [`recv`](FrameStream::recv)'s.
    pub fn recv_patient(&mut self) -> std::io::Result<Frame<'_>>
    where
        S: ReadDeadline,
    {
        let (seq, at) = self.next_frame(Some(S::set_read_deadline))?;
        Ok(Frame { seq, raw: &self.inb[at] })
    }

    /// Locate the next whole frame in `inb`, reading until there is one.
    fn next_frame(&mut self, deadline: Option<SetDeadline<S>>) -> std::io::Result<(u32, Range<usize>)> {
        let mut armed = None;
        let result = loop {
            let have = self.tail - self.head;
            let mut need = FRAME_HEADER_BYTES;
            if have >= FRAME_HEADER_BYTES {
                let (seq, len) =
                    match parse_frame_header(&self.inb[self.head..self.head + FRAME_HEADER_BYTES]) {
                        Ok(parsed) => parsed,
                        Err(e) => {
                            (self.head, self.tail) = (0, 0);
                            break Err(invalid_data(e));
                        }
                    };
                need += len;
                if have >= need {
                    let at = self.head..self.head + need;
                    self.head = at.end;
                    break Ok((seq, at));
                }
            }
            self.make_room(need);
            // Part of a frame is in hand: every further piece is on the clock.
            if have > 0 && armed.is_none() {
                if let Some(set) = deadline {
                    set(&mut self.stream, Some(MID_FRAME_STALL))?;
                    armed = Some(set);
                }
            }
            match self.stream.read(&mut self.inb[self.tail..]) {
                Ok(0) if have == 0 => break Err(ErrorKind::UnexpectedEof.into()),
                Ok(0) => break Err(std::io::Error::new(ErrorKind::ConnectionAborted, "eof mid-frame")),
                Ok(n) => self.tail += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    break Err(std::io::Error::new(
                        ErrorKind::TimedOut,
                        "peer silent past the read deadline",
                    ));
                }
                Err(e) => break Err(e),
            }
        };
        if let Some(set) = armed {
            let _ = set(&mut self.stream, None);
        }
        result
    }

    /// Move what is buffered to the front and make room to read on: for
    /// a frame of `need` bytes, or as much of one as a single growth step
    /// allows.
    fn make_room(&mut self, need: usize) {
        if self.head > 0 {
            self.inb.copy_within(self.head..self.tail, 0);
            (self.head, self.tail) = (0, self.tail - self.head);
        }
        // A buffer one large frame inflated is not kept for the
        // connection's life.
        if self.tail == 0 && self.inb.len() > READ_GROW_STEP {
            self.inb = Vec::new();
        }
        let want = need.min(self.tail + READ_GROW_STEP).max(READ_BUFFER_BYTES);
        if self.inb.len() < want {
            self.inb.resize(want, 0);
        }
    }
}

impl<S: Read + Write> FrameStream<S> {
    /// One request/response exchange: send a frame numbered `seq` and
    /// return the body of the response that echoes it. Responses carrying
    /// any other number — duplicates, answers to requests this end gave up
    /// on — are skipped.
    pub fn call(&mut self, seq: u32, request: impl FnOnce(&mut WireWriter)) -> std::io::Result<&[u8]> {
        self.send(seq, request)?;
        loop {
            let (got, at) = self.next_frame(None)?;
            if got == seq {
                return Ok(&self.inb[at][FRAME_HEADER_BYTES..]);
            }
        }
    }
}

type SetDeadline<S> = fn(&mut S, Option<Duration>) -> std::io::Result<()>;

/// Validate a frame header: the sequence number it carries and the body
/// length it announces.
fn parse_frame_header(header: &[u8]) -> Result<(u32, usize), WireError> {
    let mut r = WireReader::new(header);
    if r.take(4)? != FRAME_MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.get_u8()?;
    if version != WIRE_VERSION {
        return Err(WireError::BadVersion(version));
    }
    let len = r.get_u32()? as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::TooLarge(len as u64));
    }
    Ok((r.get_u32()?, len))
}

fn invalid_data(e: WireError) -> std::io::Error {
    std::io::Error::new(ErrorKind::InvalidData, e)
}

// ---------------------------------------------------------------------------
// The `Wire` field trait
// ---------------------------------------------------------------------------

/// A value with exactly one wire encoding: `get(put(v)) == v`, and `get`
/// rejects every byte string `put` cannot produce.
///
/// Every field of every request, response, record and error travels
/// through this trait, so a type's encoding is written once however many
/// formats carry it.
pub trait Wire: Sized {
    /// Append the encoding of `self`.
    fn put(&self, w: &mut WireWriter);
    /// Decode one value, consuming exactly its encoding.
    fn get(r: &mut WireReader) -> Result<Self, WireError>;
}

impl Wire for bool {
    fn put(&self, w: &mut WireWriter) {
        w.put_bool(*self);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_bool()
    }
}

impl Wire for u32 {
    fn put(&self, w: &mut WireWriter) {
        w.put_u32(*self);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_u32()
    }
}

impl Wire for u64 {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(*self);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_u64()
    }
}

/// The one `u16` on the wire is a lock entry's generation, which travels
/// as a 32-bit word. The high half must be zero: a garbled word must not
/// decode to a *different* generation, the value the negotiated force
/// compares.
impl Wire for u16 {
    fn put(&self, w: &mut WireWriter) {
        w.put_u32(u32::from(*self));
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        u16::try_from(r.get_u32()?).map_err(|_| WireError::BadTag("lock-generation"))
    }
}

/// Indices and counts travel as 64-bit words.
impl Wire for usize {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(*self as u64);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(r.get_u64()? as usize)
    }
}

impl Wire for Vec<u8> {
    fn put(&self, w: &mut WireWriter) {
        w.put_bytes(self);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_bytes()
    }
}

impl Wire for String {
    fn put(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_str()
    }
}

/// The labels [`CfError`] variants carry; decoded through [`intern_label`].
impl Wire for &'static str {
    fn put(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(intern_label(&r.get_str()?))
    }
}

/// A presence byte, then the value.
impl<T: Wire> Wire for Option<T> {
    fn put(&self, w: &mut WireWriter) {
        w.put_bool(self.is_some());
        self.put_rest(w);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        let present = r.get_bool()?;
        Self::get_rest(r, u8::from(present))
    }
}

/// A 32-bit count, then the elements. Nothing is allocated for elements
/// the buffer does not hold.
impl<T: Wire> Wire for Vec<T> {
    fn put(&self, w: &mut WireWriter) {
        w.put_u32(self.len() as u32);
        for v in self {
            v.put(w);
        }
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        let n = r.get_u32()? as usize;
        let mut out = Vec::with_capacity(n.min(1024));
        for _ in 0..n {
            out.push(T::get(r)?);
        }
        Ok(out)
    }
}

/// A pair is its halves, in order.
impl<A: Wire, B: Wire> Wire for (A, B) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn put(&self, w: &mut WireWriter) {
        self.0.put(w);
        self.1.put(w);
        self.2.put(w);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        Ok((A::get(r)?, B::get(r)?, C::get(r)?))
    }
}

impl<T: Wire> Wire for Arc<T> {
    fn put(&self, w: &mut WireWriter) {
        (**self).put(w);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        T::get(r).map(Arc::new)
    }
}

/// A two-variant payload whose variant byte rides in the enclosing enum's
/// tag (`tag + sub_tag`) instead of following it: a row of [`wire_enum!`](crate::wire_enum)
/// written `tag | tag+1 Variant[field: Type]`.
pub trait FoldedWire: Sized {
    /// 0 or 1: which variant `self` is.
    fn sub_tag(&self) -> u8;
    /// Append the fields of `self`'s variant.
    fn put_rest(&self, w: &mut WireWriter);
    /// Decode the fields of variant `sub_tag`.
    fn get_rest(r: &mut WireReader, sub_tag: u8) -> Result<Self, WireError>;
}

impl<T: Wire> FoldedWire for Option<T> {
    fn sub_tag(&self) -> u8 {
        u8::from(self.is_some())
    }
    fn put_rest(&self, w: &mut WireWriter) {
        if let Some(v) = self {
            v.put(w);
        }
    }
    fn get_rest(r: &mut WireReader, sub_tag: u8) -> Result<Self, WireError> {
        Ok(if sub_tag == 0 { None } else { Some(T::get(r)?) })
    }
}

impl FoldedWire for LockResponse {
    fn sub_tag(&self) -> u8 {
        u8::from(!self.is_granted())
    }
    fn put_rest(&self, w: &mut WireWriter) {
        if let LockResponse::Contention { holders, exclusive, generation } = self {
            holders.put(w);
            exclusive.put(w);
            generation.put(w);
        }
    }
    fn get_rest(r: &mut WireReader, sub_tag: u8) -> Result<Self, WireError> {
        Ok(if sub_tag == 0 {
            LockResponse::Granted
        } else {
            LockResponse::Contention {
                holders: Wire::get(r)?,
                exclusive: Wire::get(r)?,
                generation: Wire::get(r)?,
            }
        })
    }
}

/// Encode `v` to a standalone byte vector.
pub fn to_bytes<T: Wire>(v: &T) -> Vec<u8> {
    let mut w = WireWriter::new();
    v.put(&mut w);
    w.into_bytes()
}

/// Decode a `T` from a standalone byte vector, requiring exact consumption.
pub fn from_bytes<T: Wire>(buf: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(buf);
    let v = T::get(&mut r)?;
    r.finish()?;
    Ok(v)
}

/// [`Wire`] for plain structs: the listed fields, in the order listed.
#[macro_export]
macro_rules! wire_struct {
    ($($S:ident { $($f:ident),* })*) => {$(
        impl $crate::wire::Wire for $S {
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                $( $crate::wire::Wire::put(&self.$f, w); )*
            }
            fn get(r: &mut $crate::wire::WireReader) -> Result<Self, $crate::wire::WireError> {
                Ok($S { $( $f: $crate::wire::Wire::get(r)? ),* })
            }
        }
    )*};
}

/// A tagged enum on the wire. One row per variant — `tag Name`, `tag
/// Name(field: Type)` or `tag Name { field: Type, .. }` — gives the
/// variant, its tag byte, and its fields in wire order, so encode and
/// decode cannot disagree. `pub enum` declares the enum from the rows as
/// well, with `COUNT` and the `encode`/`decode`/`encode_into`/`decode_from`
/// entry points; `impl Wire for` encodes one declared elsewhere. A
/// `[field: Type]` row folds a [`FoldedWire`] payload's variant into the
/// tag.
#[macro_export]
macro_rules! wire_enum {
    ($(#[$em:meta])* $vis:vis enum $E:ident($label:literal) { $($rows:tt)* }) => {
        $crate::wire_enum!(@declare $(#[$em])* $vis $E { $($rows)* });
        $crate::wire_enum!(@codec $E($label) { $($rows)* });
    };
    (impl Wire for $E:ident($label:literal) { $($rows:tt)* }) => {
        $crate::wire_enum!(@codec $E($label) { $($rows)* });
    };
    (@declare $(#[$em:meta])* $vis:vis $E:ident { $(
        $(#[$m:meta])* $tag:literal $(| $alt:literal)? $name:ident
        $({ $( $(#[$fm:meta])* $f:ident : $fty:ty ),* $(,)? })? $(( $p:ident : $pty:ty ))? $([ $q:ident : $qty:ty ])?
    ),* $(,)? }) => {
        $(#[$em])*
        $vis enum $E {
            $( $(#[$m])* $name $({ $( $(#[$fm])* $f: $fty ),* })? $(( $pty ))? $(( $qty ))? ),*
        }
        impl $E {
            /// Number of tag bytes the table assigns; they are dense from 0.
            pub const COUNT: usize = [$( $tag, $($alt,)? )*].len();
            /// Encode into an existing writer (lets an outer protocol embed
            /// the value in its own envelope).
            pub fn encode_into(&self, w: &mut $crate::wire::WireWriter) {
                $crate::wire::Wire::put(self, w);
            }
            /// Decode from a reader positioned at a value (inverse of
            /// `encode_into`).
            pub fn decode_from(r: &mut $crate::wire::WireReader) -> Result<Self, $crate::wire::WireError> {
                $crate::wire::Wire::get(r)
            }
            /// Encode to a standalone byte vector.
            pub fn encode(&self) -> Vec<u8> {
                $crate::wire::to_bytes(self)
            }
            /// Decode from a standalone byte vector, requiring exact consumption.
            pub fn decode(buf: &[u8]) -> Result<Self, $crate::wire::WireError> {
                $crate::wire::from_bytes(buf)
            }
        }
    };
    (@codec $E:ident($label:literal) { $(
        $(#[$m:meta])* $tag:literal $(| $alt:literal)? $name:ident
        $({ $( $(#[$fm:meta])* $f:ident : $fty:ty ),* $(,)? })? $(( $p:ident : $pty:ty ))? $([ $q:ident : $qty:ty ])?
    ),* $(,)? }) => {
        impl $crate::wire::Wire for $E {
            fn put(&self, w: &mut $crate::wire::WireWriter) {
                match self {$(
                    Self::$name $({ $($f),* })? $(( $p ))? $(( $q ))? => {
                        w.put_u8($tag $(+ $crate::wire::FoldedWire::sub_tag($q))?);
                        $($( $crate::wire::Wire::put($f, w); )*)?
                        $( $crate::wire::Wire::put($p, w); )?
                        $( $crate::wire::FoldedWire::put_rest($q, w); )?
                    }
                )*}
            }
            fn get(r: &mut $crate::wire::WireReader) -> Result<Self, $crate::wire::WireError> {
                let tag = r.get_u8()?;
                Ok(match tag {
                    $( $tag $(| $alt)? => Self::$name
                        $({ $( $f: $crate::wire::Wire::get(r)? ),* })?
                        $(( <$pty as $crate::wire::Wire>::get(r)? ))?
                        $(( <$qty as $crate::wire::FoldedWire>::get_rest(r, tag - $tag)? ))?, )*
                    _ => return Err($crate::wire::WireError::BadTag($label)),
                })
            }
        }
    };
}

// ---------------------------------------------------------------------------
// Leaf codecs
// ---------------------------------------------------------------------------

impl Wire for ConnId {
    fn put(&self, w: &mut WireWriter) {
        w.put_u8(self.raw());
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        let raw = r.get_u8()?;
        if raw as usize >= crate::types::MAX_CONNECTORS {
            return Err(WireError::BadTag("conn-id"));
        }
        Ok(ConnId::from_raw(raw))
    }
}

impl Wire for SystemId {
    fn put(&self, w: &mut WireWriter) {
        w.put_u8(self.0);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        let raw = r.get_u8()?;
        if raw as usize >= crate::types::MAX_SYSTEMS {
            return Err(WireError::BadTag("system-id"));
        }
        Ok(SystemId(raw))
    }
}

/// A block name is its 16 bytes, unprefixed.
impl Wire for BlockName {
    fn put(&self, w: &mut WireWriter) {
        w.put_raw(self.as_bytes());
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        Ok(BlockName::from_bytes(r.take(16)?))
    }
}

impl Wire for EntryId {
    fn put(&self, w: &mut WireWriter) {
        w.put_u64(self.0);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        r.get_u64().map(EntryId)
    }
}

/// A [`CommandClass`] travels as its stable report index.
impl Wire for CommandClass {
    fn put(&self, w: &mut WireWriter) {
        w.put_u8(self.index() as u8);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        CommandClass::ALL.get(r.get_u8()? as usize).copied().ok_or(WireError::BadTag("command-class"))
    }
}

wire_enum!(impl Wire for LockMode("lock-mode") { 0 Shared, 1 Exclusive });
wire_enum!(impl Wire for DisconnectMode("disconnect-mode") { 0 Normal, 1 Abnormal });
wire_enum!(impl Wire for WriteKind("write-kind") { 0 CleanData, 1 ChangedData, 2 InvalidateOnly });
wire_enum!(impl Wire for WritePosition("write-position") { 0 Head, 1 Tail, 2 Keyed });
wire_enum!(impl Wire for DequeueEnd("dequeue-end") { 0 Head, 1 Tail });
wire_enum!(impl Wire for LockCondition("lock-condition") { 0 None, 1 LockFree(i: usize), 2 HeldBySelf(i: usize) });

wire_struct! {
    CfCommand { class, payload_bytes, bulk }
    EntryView { id, key, data, header, version }
    RetainedLock { resource, mode, payload }
    RegisterResult { data, version, changed }
    WriteResult { invalidated, version }
    WriteSetResult { written, error }
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

wire_enum!(impl Wire for CfError("cf-error") {
    0 NoSuchStructure(n: String),
    1 StructureExists(n: String),
    2 StructureFull,
    3 FacilityFull,
    4 NoConnectorSlots,
    5 BadConnector,
    6 NoSuchEntry,
    7 VersionMismatch { expected: u64, found: u64 },
    8 LockHeld { holder: ConnId },
    9 NotLockHolder,
    10 BadParameter(p: &'static str),
    11 WrongModel,
    12 LinkTimeout(c: &'static str),
    13 InterfaceControlCheck(c: &'static str),
});

// ---------------------------------------------------------------------------
// The CF command table
// ---------------------------------------------------------------------------

/// A transport-level handle naming one attached connection at the serving
/// end. Handles are issued by attach operations and are meaningless across
/// transports.
pub type WireHandle = u32;

/// What the command table says about one request, for callers that
/// classify a request rather than execute it (meters, link-error labels).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row<'a> {
    /// The descriptor the serving connection issues the request under.
    pub cmd: CfCommand,
    /// The attached handle the request addresses (`None`: attach, probe).
    pub handle: Option<WireHandle>,
    /// The structure an attach request names.
    pub attach: Option<&'a str>,
    /// The row's `[Flag]`, if it has one.
    pub flag: Option<Flag>,
}

/// What a `[Flag]` on a command-table row says that its descriptor does not.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flag {
    /// The command records interest without asking.
    Force,
    /// The command retires its handle when it succeeds.
    Detach,
}

/// The CF command set, one row per command:
///
/// ```text
/// /// doc
/// tag Name [Flag] { fields } descriptor => |c| response;
/// ```
///
/// `tag` is the request's wire tag. The fields, in wire order, become the
/// variant's fields after `structure: String` (an `attach` row) or `handle:
/// WireHandle` (an `on <model>` row). `descriptor` is the [`CfCommand`]
/// the command is accounted under — the same constant the native method
/// issues — and may read the fields. `response` is what the serving end
/// answers: the native call on `c`, the connection `handle` names (`t`,
/// the serving transport, for attach and probe rows), inside the response
/// variant that carries its result. From the rows come [`WireRequest`]
/// and its codec (through [`wire_enum!`](crate::wire_enum)), `WireRequest::row` and
/// `WireRequest::serve`.
macro_rules! cf_commands {
    (
        $(#[$em:meta])* pub enum $E:ident($label:literal);
        attach {$(
            $(#[$am:meta])* $atag:literal $aname:ident
            { $( $(#[$afm:meta])* $af:ident : $afty:ty ),* $(,)? } $acmd:expr => |$at:ident, $as:ident| $aserve:expr;
        )*}
        $( on $ep:ident {$(
            $(#[$m:meta])* $tag:literal $name:ident $([$flag:ident])?
            { $( $(#[$fm:meta])* $f:ident : $fty:ty ),* $(,)? } $cmd:expr => |$c:ident| $serve:expr;
        )*} )*
        probe { $(#[$pm:meta])* $ptag:literal $pname:ident($pf:ident : $pty:ty) => |$pt:ident| $pserve:expr; }
    ) => {
        wire_enum! {
            $(#[$em])* pub enum $E($label) {
                $( $(#[$am])* $atag $aname {
                    /// Structure name.
                    structure: String,
                    $( $(#[$afm])* $af: $afty ),*
                }, )*
                $($( $(#[$m])* $tag $name {
                    /// Attached handle.
                    handle: WireHandle,
                    $( $(#[$fm])* $f: $fty ),*
                }, )*)*
                $(#[$pm])* $ptag $pname($pf: $pty),
            }
        }

        impl $E {
            /// This request's row of the command table.
            #[allow(unused_variables)]
            pub(crate) fn row(&self) -> Row<'_> {
                match self {
                    $( Self::$aname { structure, $($af),* } => {
                        Row { cmd: $acmd, handle: None, attach: Some(structure), flag: None }
                    } )*
                    $($( Self::$name { handle, $($f),* } => {
                        Row { cmd: $cmd, handle: Some(*handle), attach: None, flag: [$(Flag::$flag)?].first().copied() }
                    } )*)*
                    Self::$pname($pf) => Row { cmd: *$pf, handle: None, attach: None, flag: None },
                }
            }

            /// Execute this request at the serving end: the row's native
            /// call on the connection its handle names in `t`.
            pub(crate) fn serve(self, t: &InProcessTransport) -> CfResult<WireResponse> {
                Ok(match self {
                    $( Self::$aname { structure: $as, $($af),* } => { let $at = t; $aserve } )*
                    $($( Self::$name { handle, $($f),* } => { let $c = t.$ep(handle)?; $serve } )*)*
                    Self::$pname($pf) => { let $pt = t; $pserve }
                })
            }
        }
    };
}

use WireResponse as P;

/// The answer to a command that returns nothing.
fn unit((): ()) -> WireResponse {
    P::Unit
}

cf_commands! {
    /// One CF operation as it travels over a transport.
    ///
    /// Attach operations name structures and mint a [`WireHandle`]; every
    /// other operation addresses a previously attached handle. The variants
    /// are the rows of the command table in this module.
    #[derive(Debug, Clone, PartialEq, Eq)]
    pub enum WireRequest("wire-request");
    attach {
        /// Attach to a lock structure (any free slot).
        0 AttachLock {} CfCommand::LOCK_CONNECT => |t, structure| t.attach_lock(&structure, None)?;
        /// Attach to a lock structure claiming a specific slot.
        1 AttachLockSlot {
            /// Connector slot to claim.
            slot: ConnId,
        } CfCommand::LOCK_CONNECT => |t, structure| t.attach_lock(&structure, Some(slot))?;
        /// Attach to a cache structure.
        2 AttachCache {
            /// Local bit-vector length.
            vector_len: u64,
        } CfCommand::CACHE_DIRECTORY => |t, structure| t.attach_cache(&structure, vector_len)?;
        /// Attach to a list structure.
        3 AttachList {
            /// Notification-vector length.
            vector_len: u64,
        } CfCommand::LIST_DIRECTORY => |t, structure| t.attach_list(&structure, vector_len)?;
    }
    on lock {
        /// [`crate::connection::LockConnection::request_lock`].
        4 LockRequest {
            /// Lock-table entry.
            entry: u64,
            /// Requested mode.
            mode: LockMode,
        } CfCommand::LOCK_REQUEST => |c| P::Lock(c.request_lock(entry as usize, mode)?);
        /// [`crate::connection::LockConnection::force_interest`].
        5 LockForce [Force] {
            /// Lock-table entry.
            entry: u64,
            /// Mode to record.
            mode: LockMode,
        } CfCommand::LOCK_REQUEST => |c| unit(c.force_interest(entry as usize, mode)?);
        /// [`crate::connection::LockConnection::force_interest_negotiated`]:
        /// the compare-and-swap a negotiation ends with. Answered
        /// `Bool(false)` when refused.
        42 LockForceNegotiated [Force] {
            /// Lock-table entry.
            entry: u64,
            /// Mode to record.
            mode: LockMode,
            /// The holders the requester negotiated with.
            negotiated: ConnMask,
            /// Entry generation quoted by the contention response.
            generation: u16,
        } CfCommand::LOCK_REQUEST => |c| {
            P::Bool(c.force_interest_negotiated(entry as usize, mode, negotiated, generation)?)
        };
        /// A request that writes its record when granted:
        /// [`crate::connection::LockConnection::request_lock_recorded`].
        43 LockRequestRecorded {
            /// Lock-table entry.
            entry: u64,
            /// Requested mode.
            mode: LockMode,
            /// Resource name the record describes.
            resource: Vec<u8>,
            /// Record payload.
            payload: Vec<u8>,
        } CfCommand::lock_request_recorded(resource.len() + payload.len()) => |c| {
            P::Lock(c.request_lock_recorded(entry as usize, mode, &resource, &payload)?)
        };
        /// [`crate::connection::LockConnection::release_lock`].
        6 LockRelease {
            /// Lock-table entry.
            entry: u64,
        } CfCommand::LOCK_RELEASE => |c| unit(c.release_lock(entry as usize)?);
        /// Everything one unlock gives up, in one command:
        /// [`crate::connection::LockConnection::release_set`].
        8 LockReleaseSet {
            /// Lock-table entries to release.
            entries: Vec<usize>,
            /// Resource names whose records to delete.
            records: Vec<Vec<u8>>,
        } CfCommand::lock_release_set(entries.len(), records.iter().map(Vec::len).sum()) => |c| {
            let records: Vec<ResourceName> = records.iter().map(|r| ResourceName::new(r)).collect();
            unit(c.release_set(&entries, &records)?)
        };
        /// [`crate::connection::LockConnection::holders`].
        7 LockHolders {
            /// Lock-table entry.
            entry: u64,
        } CfCommand::LOCK_QUERY => |c| {
            let (mask, exclusive) = c.holders(entry as usize)?;
            P::Holders { mask, exclusive }
        };
        /// A transaction's records, in one command:
        /// [`crate::connection::LockConnection::write_lock_record_set`].
        9 LockRecordSet {
            /// `(resource, mode, payload)` of each record, in write order.
            records: Vec<(Vec<u8>, LockMode, Vec<u8>)>,
        } CfCommand::lock_record(records.iter().map(|(r, _, p)| r.len() + p.len()).sum()) => |c| {
            let records: Vec<(ResourceName, LockMode, Vec<u8>)> =
                records.into_iter().map(|(r, mode, p)| (ResourceName::new(&r), mode, p)).collect();
            unit(c.write_lock_record_set(&records)?)
        };
        /// [`crate::connection::LockConnection::retained_locks_of`].
        11 LockRetainedOf {
            /// Failed peer's slot.
            peer: ConnId,
        } CfCommand::LOCK_RETAINED => |c| P::Retained(c.retained_locks_of(peer)?);
        /// [`crate::connection::LockConnection::is_failed_persistent`].
        12 LockIsFailedPersistent {
            /// Peer slot queried.
            peer: ConnId,
        } CfCommand::LOCK_QUERY => |c| P::Bool(c.is_failed_persistent(peer)?);
        /// [`crate::connection::LockConnection::recovery_complete_for`].
        13 LockRecoveryComplete {
            /// Recovered peer's slot.
            peer: ConnId,
        } CfCommand::LOCK_QUERY => |c| unit(c.recovery_complete_for(peer)?);
        /// [`crate::connection::LockConnection::detach`].
        14 LockDetach [Detach] {
            /// Orderly or failure disconnect.
            mode: DisconnectMode,
        } CfCommand::LOCK_CONNECT => |c| unit(c.detach(mode)?);
        /// [`crate::connection::LockConnection::detach_peer`].
        15 LockDetachPeer {
            /// Peer slot to disconnect.
            peer: ConnId,
            /// Orderly or failure disconnect.
            mode: DisconnectMode,
        } CfCommand::LOCK_CONNECT => |c| unit(c.detach_peer(peer, mode)?);
    }
    on cache {
        /// [`crate::connection::CacheConnection::register_read`].
        16 CacheRead {
            /// Block name.
            name: BlockName,
            /// Local-vector index to register.
            vector_index: u32,
        } CfCommand::CACHE_READ => |c| P::Register(c.register_read(name, vector_index)?);
        /// [`crate::connection::CacheConnection::register_read_replacing`].
        10 CacheReadReplacing {
            /// Block name.
            name: BlockName,
            /// Local-vector index to register.
            vector_index: u32,
            /// The buffer's previous tenant, whose registration goes.
            replaced: Option<BlockName>,
        } CfCommand::CACHE_READ => |c| {
            P::Register(c.register_read_replacing(name, vector_index, replaced)?)
        };
        /// [`crate::connection::CacheConnection::write_invalidate`].
        17 CacheWrite {
            /// Block name.
            name: BlockName,
            /// Block data.
            data: Vec<u8>,
            /// What the write stores.
            kind: WriteKind,
        } CfCommand::cache_write(data.len()) => |c| P::Write(c.write_invalidate(name, &data, kind)?);
        /// A commit's pages, in one command:
        /// [`crate::connection::CacheConnection::write_invalidate_set`].
        18 CacheWriteSet {
            /// `(name, data)` of each block, in write order.
            blocks: Vec<(BlockName, Vec<u8>)>,
            /// What the writes store.
            kind: WriteKind,
        } CfCommand::cache_write(blocks.iter().map(|(_, d)| d.len()).sum()) => |c| {
            P::WriteSet(c.write_invalidate_set(&blocks, kind)?)
        };
        /// [`crate::connection::CacheConnection::castout_candidates`].
        19 CacheCastoutCandidates {
            /// Maximum candidates returned.
            max: u64,
        } CfCommand::CASTOUT_CANDIDATES => |c| P::Blocks(c.castout_candidates(max as usize)?);
        /// [`crate::connection::CacheConnection::castout_read`].
        20 CacheCastoutRead {
            /// Block name.
            name: BlockName,
        } CfCommand::CASTOUT_READ => |c| {
            let (data, version) = c.castout_read(name)?;
            P::Data { data: (*data).clone(), version }
        };
        /// [`crate::connection::CacheConnection::castout_complete`].
        21 CacheCastoutComplete {
            /// Block name.
            name: BlockName,
            /// Version hardened to DASD.
            version: u64,
        } CfCommand::CASTOUT_COMPLETE => |c| unit(c.castout_complete(name, version)?);
        /// Remote form of [`crate::connection::CacheConnection::is_valid`]:
        /// over a wire transport the "local" bit vector lives at the serving
        /// end, so the validity test costs a round trip — exactly the cost the
        /// paper's in-memory vector exists to avoid (documented trade-off).
        /// Natively the test never reaches the subchannel; the member's meter
        /// files the round trip under the structure's admin class.
        22 CacheIsValid {
            /// Vector index to test.
            vector_index: u32,
        } CfCommand::new(CommandClass::CacheAdmin, 0) => |c| P::Bool(c.is_valid(vector_index));
        /// [`crate::connection::CacheConnection::detach`].
        23 CacheDetach [Detach] {} CfCommand::CACHE_DIRECTORY => |c| unit(c.detach()?);
    }
    on list {
        /// [`crate::connection::ListConnection::enqueue`].
        24 ListEnqueue {
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
        } CfCommand::list_write(data.len()) => |c| {
            P::Entry(c.enqueue(header as usize, key, &data, position, cond)?)
        };
        /// [`crate::connection::ListConnection::update`].
        25 ListUpdate {
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
        } CfCommand::list_write(data.len()) => |c| P::U64(c.update(id, key, &data, expected_version, cond)?);
        /// [`crate::connection::ListConnection::read_entry`].
        26 ListReadEntry {
            /// Entry identity.
            id: EntryId,
        } CfCommand::LIST_READ_ENTRY => |c| P::OptEntry(Some(c.read_entry(id)?));
        /// [`crate::connection::ListConnection::delete`].
        27 ListDelete {
            /// Entry identity.
            id: EntryId,
            /// Serialized-list condition.
            cond: LockCondition,
        } CfCommand::LIST_DELETE => |c| unit(c.delete(id, cond)?);
        /// [`crate::connection::ListConnection::move_to`].
        28 ListMoveTo {
            /// Entry identity.
            id: EntryId,
            /// Destination header.
            to_header: u64,
            /// Placement.
            position: WritePosition,
            /// Serialized-list condition.
            cond: LockCondition,
        } CfCommand::LIST_MOVE => |c| unit(c.move_to(id, to_header as usize, position, cond)?);
        /// [`crate::connection::ListConnection::transfer`].
        29 ListTransfer {
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
        } CfCommand::LIST_MOVE => |c| {
            P::Bool(c.transfer(id, from_header as usize, to_header as usize, position, cond)?)
        };
        /// [`crate::connection::ListConnection::claim_first`].
        30 ListClaimFirst {
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
        } CfCommand::LIST_DEQUEUE => |c| {
            P::OptEntry(c.claim_first(from as usize, to as usize, end, position, cond)?)
        };
        /// [`crate::connection::ListConnection::take`].
        31 ListTake {
            /// Header to dequeue from.
            header: u64,
            /// Which end to take from.
            end: DequeueEnd,
            /// Serialized-list condition.
            cond: LockCondition,
        } CfCommand::LIST_DEQUEUE => |c| P::OptEntry(c.take(header as usize, end, cond)?);
        /// [`crate::connection::ListConnection::scan`].
        32 ListScan {
            /// Header to read.
            header: u64,
        } CfCommand::LIST_SCAN => |c| P::Entries(c.scan(header as usize)?);
        /// [`crate::connection::ListConnection::header_len`].
        33 ListHeaderLen {
            /// Header queried.
            header: u64,
        } CfCommand::LIST_HEADER_LEN => |c| P::U64(c.header_len(header as usize)? as u64);
        /// [`crate::connection::ListConnection::acquire_list_lock`].
        34 ListLockAcquire {
            /// Serializing lock entry.
            entry: u64,
        } CfCommand::LIST_LOCK => |c| P::Bool(c.acquire_list_lock(entry as usize)?);
        /// [`crate::connection::ListConnection::release_list_lock`].
        35 ListLockRelease {
            /// Serializing lock entry.
            entry: u64,
        } CfCommand::LIST_LOCK => |c| unit(c.release_list_lock(entry as usize)?);
        /// [`crate::connection::ListConnection::list_lock_holder`].
        36 ListLockHolder {
            /// Serializing lock entry.
            entry: u64,
        } CfCommand::LIST_LOCK => |c| P::OptConn(c.list_lock_holder(entry as usize)?);
        /// [`crate::connection::ListConnection::register_monitor`].
        37 ListMonitor {
            /// Header to monitor.
            header: u64,
            /// Notification-vector index.
            vector_index: u32,
        } CfCommand::LIST_DIRECTORY => |c| unit(c.register_monitor(header as usize, vector_index)?);
        /// [`crate::connection::ListConnection::deregister_monitor`].
        38 ListDeregisterMonitor {
            /// Header to stop monitoring.
            header: u64,
        } CfCommand::LIST_DIRECTORY => |c| unit(c.deregister_monitor(header as usize)?);
        /// Remote form of [`crate::connection::ListConnection::is_signaled`]
        /// (same round-trip trade-off, and the same accounting, as
        /// [`WireRequest::CacheIsValid`]).
        39 ListIsSignaled {
            /// Notification-vector index to test.
            vector_index: u32,
        } CfCommand::new(CommandClass::ListAdmin, 0) => |c| P::Bool(c.is_signaled(vector_index));
        /// [`crate::connection::ListConnection::detach`].
        40 ListDetach [Detach] {} CfCommand::LIST_DIRECTORY => |c| unit(c.detach()?);
    }
    probe {
        /// A no-op command of the given shape, issued through the serving
        /// subchannel purely for its accounting and service time — remote
        /// members use probes to measure CF command latency over the wire.
        41 Probe(cmd: CfCommand) => |t| unit(t.probe(cmd)?);
    }
}

impl WireRequest {
    /// The descriptor the serving connection issues this request under —
    /// the same constant the native connection method uses, so class,
    /// payload and conversion are decided in one place for both ends.
    pub fn command(&self) -> CfCommand {
        self.row().cmd
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
        self.row().handle
    }
}

// ---------------------------------------------------------------------------
// Responses
// ---------------------------------------------------------------------------

wire_enum! {
    /// The result of one [`WireRequest`].
    ///
    /// Structure-level failures travel as [`WireResponse::Error`]; transport
    /// failures (dead socket, garbled frame) never reach this type — the
    /// transport raises them as typed [`CfError`]s directly.
    #[derive(Debug, Clone, PartialEq)]
    pub enum WireResponse("wire-response") {
        /// Operation completed with no payload.
        0 Unit,
        /// An attach completed: the minted handle, the connector slot, and a
        /// model-specific geometry word (lock: table entries, cache/list: 0).
        1 Attached {
            /// Transport handle for subsequent operations.
            handle: WireHandle,
            /// Connector slot assigned by the structure.
            conn: ConnId,
            /// Lock-table entry count (0 for cache/list attaches); lets the
            /// client hash resources locally exactly like a native connection.
            geometry: u64,
        },
        /// A boolean result.
        2 Bool(b: bool),
        /// A numeric result (versions, lengths, counts).
        3 U64(v: u64),
        /// A lock request outcome: tag 4 granted, tag 5 contention.
        4 | 5 Lock[outcome: LockResponse],
        /// Holder query: `(interest mask, exclusive holder)`.
        6 Holders {
            /// Every connector with interest.
            mask: u32,
            /// Exclusive holder, if any.
            exclusive: Option<ConnId>,
        },
        /// Retained locks of a failed peer.
        7 Retained(locks: Vec<RetainedLock>),
        /// A cache read-and-register result.
        8 Register(reg: RegisterResult),
        /// A cache write-and-invalidate result.
        9 Write(res: WriteResult),
        /// Castout candidate names.
        10 Blocks(names: Vec<BlockName>),
        /// Castout read: data plus version.
        11 Data {
            /// Block data.
            data: Vec<u8>,
            /// Directory version.
            version: u64,
        },
        /// A minted list entry id.
        12 Entry(id: EntryId),
        /// An optional list entry (claims, dequeues): tag 13 none, tag 14
        /// the entry.
        13 | 14 OptEntry[entry: Option<EntryView>],
        /// A whole-list scan.
        15 Entries(entries: Vec<EntryView>),
        /// An optional connector id (lock-holder queries).
        16 OptConn(conn: Option<ConnId>),
        /// The operation failed with a typed CF error.
        17 Error(e: CfError),
        /// A cache write set's result.
        18 WriteSet(res: WriteSetResult),
    }
}

impl WireResponse {
    /// Unwrap a structure-level error into `Err`, everything else to `Ok`.
    pub fn into_result(self) -> Result<WireResponse, CfError> {
        match self {
            WireResponse::Error(e) => Err(e),
            other => Ok(other),
        }
    }
}

// ---------------------------------------------------------------------------
// SMF-style interval records
// ---------------------------------------------------------------------------

/// Version byte leading every encoded [`SmfRecord`]. Bumped independently
/// of [`WIRE_VERSION`] on any incompatible record-format change, so old
/// retained records are rejected rather than misparsed.
pub const SMF_RECORD_VERSION: u8 = 2;

/// A [`HistogramSnapshot`] travels sparsely: a count of non-empty buckets,
/// then `(bucket index, sample count)` pairs in strictly ascending index
/// order, then the samples/total/max scalars. Interval deltas are mostly
/// empty, so this beats shipping all [`HIST_BUCKETS`] words ~10:1. Decode
/// accepts only that canonical form: indices in range and strictly
/// ascending, counts non-zero; anything else is a bad tag.
impl Wire for HistogramSnapshot {
    fn put(&self, w: &mut WireWriter) {
        let non_empty = self.buckets.iter().filter(|&&n| n > 0).count();
        w.put_u8(non_empty as u8);
        for (i, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                w.put_u8(i as u8);
                w.put_u64(n);
            }
        }
        w.put_u64(self.samples);
        w.put_u64(self.total_ns);
        w.put_u64(self.max_ns);
    }
    fn get(r: &mut WireReader) -> Result<Self, WireError> {
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

impl SmfStructureRow {
    /// What was counted between `earlier` and `self` (saturating), under
    /// this row's name.
    pub fn delta(&self, earlier: &SmfStructureRow) -> SmfStructureRow {
        SmfStructureRow {
            name: self.name.clone(),
            requests: self.requests.saturating_sub(earlier.requests),
            contentions: self.contentions.saturating_sub(earlier.contentions),
            force_interests: self.force_interests.saturating_sub(earlier.force_interests),
            faulted: self.faulted.saturating_sub(earlier.faulted),
        }
    }

    /// Add `other`'s counters into this row.
    pub fn merge(&mut self, other: &SmfStructureRow) {
        self.requests += other.requests;
        self.contentions += other.contentions;
        self.force_interests += other.force_interests;
        self.faulted += other.faulted;
    }
}

// A class row travels as the [`ClassSnapshot`] it is: the four counters,
// then the member-observed end-to-end latency (wire round trip plus CF
// service time), which the merged report decomposes against the serving
// end's own service histogram.
wire_struct! {
    ClassSnapshot { issued, sync, async_converted, faulted, latency }
    SmfStructureRow { name, requests, contentions, force_interests, faulted }
}

/// A compact, versioned SMF-style interval record: everything one member
/// can say about its own CF activity over one interval.
///
/// The paper's systems cut SMF records locally and RMF merges them into
/// the sysplex-wide report (§2.1, §5.1); this type is that record for the
/// reproduction. Class and structure rows are **interval deltas** (only
/// rows with traffic are shipped): a class row is the member meter's
/// [`ClassSnapshot::delta`] since its last cut.
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
    /// Interval activity per command class (only classes with traffic).
    pub classes: Vec<(CommandClass, ClassSnapshot)>,
    /// Interval activity per attached structure (only structures with
    /// traffic).
    pub structures: Vec<SmfStructureRow>,
}

/// The record's versioned layout: [`SMF_RECORD_VERSION`] leads, the class
/// rows are counted in one byte (there are [`CommandClass::COUNT`] classes
/// at most), and a record of another version is refused, not misparsed.
impl Wire for SmfRecord {
    fn put(&self, w: &mut WireWriter) {
        w.put_u8(SMF_RECORD_VERSION);
        w.put_u8(self.system);
        self.member.put(w);
        self.seq.put(w);
        self.interval_us.put(w);
        self.final_interval.put(w);
        w.put_u8(self.classes.len() as u8);
        for row in &self.classes {
            row.put(w);
        }
        self.structures.put(w);
    }

    fn get(r: &mut WireReader) -> Result<Self, WireError> {
        let version = r.get_u8()?;
        if version != SMF_RECORD_VERSION {
            return Err(WireError::BadVersion(version));
        }
        // Initializers run in the order written, which is the wire order.
        Ok(SmfRecord {
            system: r.get_u8()?,
            member: Wire::get(r)?,
            seq: Wire::get(r)?,
            interval_us: Wire::get(r)?,
            final_interval: Wire::get(r)?,
            classes: {
                let n = r.get_u8()? as usize;
                if n > CommandClass::COUNT {
                    return Err(WireError::BadTag("smf-class-count"));
                }
                (0..n).map(|_| Wire::get(r)).collect::<Result<_, _>>()?
            },
            structures: Wire::get(r)?,
        })
    }
}

impl SmfRecord {
    /// Encode to a standalone byte vector.
    pub fn encode(&self) -> Vec<u8> {
        to_bytes(self)
    }

    /// Decode from a standalone byte vector, requiring exact consumption.
    pub fn decode(buf: &[u8]) -> Result<Self, WireError> {
        from_bytes(buf)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let full = WireRequest::LockRecordSet {
            handle: 3,
            records: vec![(b"ACCT.1".to_vec(), LockMode::Exclusive, vec![9; 32])],
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
        let mut latency = HistogramSnapshot::empty();
        latency.buckets[3] = 5;
        latency.buckets[17] = 2;
        latency.samples = 7;
        latency.total_ns = 90_000;
        latency.max_ns = 70_000;
        SmfRecord {
            system: 2,
            member: "SYS02".into(),
            seq: 4,
            interval_us: 250_000,
            final_interval: true,
            classes: vec![(
                CommandClass::LockRequest,
                ClassSnapshot { issued: 7, sync: 7, async_converted: 0, faulted: 0, latency },
            )],
            structures: vec![SmfStructureRow {
                name: "IRLM1".into(),
                requests: 7,
                contentions: 2,
                force_interests: 1,
                faulted: 0,
            }],
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
        // Version 1 carried a retry count and three trace words this
        // layout does not have: it is refused, not misparsed.
        for version in [1, SMF_RECORD_VERSION + 1] {
            let mut skewed = full.clone();
            skewed[0] = version;
            assert_eq!(SmfRecord::decode(&skewed).unwrap_err(), WireError::BadVersion(version));
        }
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
        assert!(HistogramSnapshot::get(&mut WireReader::new(&bytes)).is_err());
        // Zero count in the sparse list.
        let mut w = WireWriter::new();
        w.put_u8(1);
        w.put_u8(4);
        w.put_u64(0);
        for _ in 0..3 {
            w.put_u64(0);
        }
        let bytes = w.into_bytes();
        assert!(HistogramSnapshot::get(&mut WireReader::new(&bytes)).is_err());
    }

    #[test]
    fn lock_generation_codec_rejects_a_set_high_half() {
        let resp =
            WireResponse::Lock(LockResponse::Contention { holders: 0b101, exclusive: None, generation: 41 });
        let mut bytes = resp.encode();
        assert_eq!(WireResponse::decode(&bytes).unwrap(), resp);
        // The generation is the trailing 32-bit word; a bit in its high
        // half is not a generation any encoder produced.
        *bytes.last_mut().unwrap() = 0x01;
        assert_eq!(WireResponse::decode(&bytes).unwrap_err(), WireError::BadTag("lock-generation"));
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
        e.put(&mut w);
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(CfError::get(&mut r).unwrap(), e);
        // Unknown labels collapse to "remote" instead of leaking.
        let mut w = WireWriter::new();
        w.put_u8(12);
        w.put_str("no-such-class");
        let bytes = w.into_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(CfError::get(&mut r).unwrap(), CfError::LinkTimeout("remote"));
    }
}
