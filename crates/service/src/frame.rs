//! The v2 binary wire format: length-prefixed frames with correlation
//! ids, carrying a fixed-order binary encoding of the [`proto`] types.
//!
//! JSON-lines (v1) pays a parse per request and a `Display` per number;
//! at tens of thousands of requests per second the protocol dominates
//! the solver. v2 frames cut both directions to fixed-width reads:
//!
//! ```text
//! offset  size  field
//! 0       1     magic 0xB2
//! 1       1     frame version (2)
//! 2       1     kind (1 = request, 2 = response)
//! 3       8     correlation id, u64 LE
//! 11      4     payload length, u32 LE (≤ MAX_FRAME_BYTES)
//! 15      …     payload
//! ```
//!
//! The magic byte `0xB2` is a UTF-8 continuation byte, so it can never
//! begin a valid JSON line — a server (or client) can tell the two
//! protocols apart from the first byte of a connection or message and
//! keep speaking v1 to old peers on the same port.
//!
//! Payloads encode the [`Request`]/[`Response`] enums with a leading
//! u8 tag and the field order of each message's field list (the one
//! description both codecs walk, see `crate::schema`; this module holds
//! the binary backend): integers as LE `u64`/`u32`, floats as
//! `f64::to_bits` LE (bit-exact by construction — the differential
//! suite proves decoded v1 and v2 responses identical), strings as
//! u32-length-prefixed UTF-8, options as a presence byte. The decoder
//! is total: any byte sequence yields a value or a typed
//! [`FrameError`], never a panic (`tests/frame_properties.rs`), and the
//! exact bytes are pinned by golden fixtures
//! (`tests/wire_golden.rs`).
//!
//! [`proto`]: crate::proto

// The decoder must stay cast-clean: a wire `u64` narrowed with `as`
// silently wraps on 32-bit targets (and under hostile >2^32 values),
// turning a malformed frame into a wrong-but-plausible request. Every
// narrowing goes through `try_from` and errors as `Malformed`.
#![deny(clippy::cast_possible_truncation)]

use crate::proto::{CacheTier, ErrorCode, ErrorResponse, Request, Response};
#[cfg(test)]
use crate::proto::{
    CalibSpec, HistSummary, JournalResponse, MapRequest, RemapDiffResponse, RemapRequest,
    StatsDetail, StatsResponse, TraceContext, TraceDumpResponse, WireTraceEvent, WireTrack,
};
use crate::schema::{Ext, Kinds, Message, Reads, Scalar, Writes};

/// First byte of every v2 frame; never the first byte of UTF-8 JSON.
pub const FRAME_MAGIC: u8 = 0xB2;

/// The binary frame format generation.
pub const FRAME_VERSION: u8 = 2;

/// Fixed frame header size (magic + version + kind + corr id + length).
pub const FRAME_HEADER_BYTES: usize = 15;

/// Longest payload a frame may carry — the binary twin of
/// [`MAX_LINE_BYTES`](crate::server::MAX_LINE_BYTES): a peer declaring
/// more gets a typed error, never an unbounded buffer.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server.
    Request,
    /// Server → client.
    Response,
}

impl FrameKind {
    /// Stable wire byte.
    pub fn code(self) -> u8 {
        match self {
            FrameKind::Request => 1,
            FrameKind::Response => 2,
        }
    }

    /// Parse a wire byte.
    pub fn from_code(b: u8) -> Option<Self> {
        match b {
            1 => Some(FrameKind::Request),
            2 => Some(FrameKind::Response),
            _ => None,
        }
    }
}

/// Why bytes failed to decode as a frame (or as a frame's payload).
/// Every variant is a clean error — the decoder never panics and never
/// over-allocates on hostile input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameError {
    /// Not enough bytes yet: `need` bytes would complete the frame.
    /// The only recoverable variant — a streaming reader waits for
    /// more; everything else means the stream is corrupt.
    Truncated {
        /// Bytes available.
        have: usize,
        /// Bytes the frame needs (header, or header + declared payload).
        need: usize,
    },
    /// The declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized {
        /// Declared payload length.
        len: usize,
    },
    /// The first byte is not [`FRAME_MAGIC`].
    BadMagic(u8),
    /// The frame version byte is not [`FRAME_VERSION`].
    BadVersion(u8),
    /// The kind byte is not a known [`FrameKind`].
    BadKind(u8),
    /// The payload is structurally invalid (bad tag, short field,
    /// non-UTF-8 string, trailing bytes, out-of-range enum code).
    Malformed(String),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Truncated { have, need } => {
                write!(f, "truncated frame: have {have} bytes, need {need}")
            }
            FrameError::Oversized { len } => {
                write!(f, "frame payload of {len} bytes exceeds {MAX_FRAME_BYTES}")
            }
            FrameError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X} (expected 0xB2)"),
            FrameError::BadVersion(v) => write!(
                f,
                "frame version {v} not supported (this peer speaks v{FRAME_VERSION})"
            ),
            FrameError::BadKind(k) => write!(f, "unknown frame kind {k}"),
            FrameError::Malformed(m) => write!(f, "malformed frame payload: {m}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// One decoded frame: header fields plus the raw payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// Request or response.
    pub kind: FrameKind,
    /// Correlation id, echoed by the server so pipelined clients can
    /// match responses to in-flight requests.
    pub corr_id: u64,
    /// The encoded [`Request`]/[`Response`] payload.
    pub payload: Vec<u8>,
}

impl Frame {
    /// Encode header + payload into wire bytes.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(FRAME_HEADER_BYTES + self.payload.len());
        out.push(FRAME_MAGIC);
        out.push(FRAME_VERSION);
        out.push(self.kind.code());
        out.extend_from_slice(&self.corr_id.to_le_bytes());
        let len = u32::try_from(self.payload.len()).expect("payload exceeds u32 length prefix");
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&self.payload);
        out
    }

    /// Decode one frame from the front of `buf`, returning it and the
    /// bytes consumed. [`FrameError::Truncated`] means "feed me more";
    /// any other error means the stream cannot be resynchronized.
    pub fn decode(buf: &[u8]) -> Result<(Frame, usize), FrameError> {
        if buf.is_empty() {
            return Err(FrameError::Truncated {
                have: 0,
                need: FRAME_HEADER_BYTES,
            });
        }
        if buf[0] != FRAME_MAGIC {
            return Err(FrameError::BadMagic(buf[0]));
        }
        if buf.len() >= 2 && buf[1] != FRAME_VERSION {
            return Err(FrameError::BadVersion(buf[1]));
        }
        if buf.len() >= 3 && FrameKind::from_code(buf[2]).is_none() {
            return Err(FrameError::BadKind(buf[2]));
        }
        if buf.len() < FRAME_HEADER_BYTES {
            return Err(FrameError::Truncated {
                have: buf.len(),
                need: FRAME_HEADER_BYTES,
            });
        }
        let kind = FrameKind::from_code(buf[2]).expect("kind checked above");
        let corr_id = u64::from_le_bytes(buf[3..11].try_into().expect("8 header bytes"));
        let len = u32::from_le_bytes(buf[11..15].try_into().expect("4 header bytes")) as usize;
        if len > MAX_FRAME_BYTES {
            return Err(FrameError::Oversized { len });
        }
        let total = FRAME_HEADER_BYTES + len;
        if buf.len() < total {
            return Err(FrameError::Truncated {
                have: buf.len(),
                need: total,
            });
        }
        Ok((
            Frame {
                kind,
                corr_id,
                payload: buf[FRAME_HEADER_BYTES..total].to_vec(),
            },
            total,
        ))
    }

    /// The correlation id of a partial frame whose header has arrived,
    /// if the magic matches — lets a server echo the right id on an
    /// error response even when the rest of the frame is hopeless.
    pub fn peek_corr_id(buf: &[u8]) -> Option<u64> {
        if buf.len() >= FRAME_HEADER_BYTES && buf[0] == FRAME_MAGIC {
            Some(u64::from_le_bytes(
                buf[3..11].try_into().expect("8 header bytes"),
            ))
        } else {
            None
        }
    }
}

/// Encode a request as a complete v2 frame.
pub fn encode_request(request: &Request, corr_id: u64) -> Vec<u8> {
    Frame {
        kind: FrameKind::Request,
        corr_id,
        payload: request_payload(request),
    }
    .encode()
}

/// Encode a response as a complete v2 frame.
pub fn encode_response(response: &Response, corr_id: u64) -> Vec<u8> {
    Frame {
        kind: FrameKind::Response,
        corr_id,
        payload: response_payload(response),
    }
    .encode()
}

/// The binary payload of a request (tag + fixed field order).
pub fn request_payload(request: &Request) -> Vec<u8> {
    payload(request)
}

/// The binary payload of a response (tag + fixed field order).
pub fn response_payload(response: &Response) -> Vec<u8> {
    payload(response)
}

fn payload<K: Kinds>(message: &K) -> Vec<u8> {
    let mut w = Writer::new();
    w.u8(message.tag());
    message.write_fields(&mut w);
    w.out
}

/// Decode a request payload. Failures come back as a ready-to-send
/// [`ErrorResponse`] — the binary twin of [`Request::from_line`],
/// including the same value checks ([`Request::validate`]) with the
/// same messages and the same id echo, so the two protocols refuse
/// identical bad requests with identical errors.
pub fn decode_request_payload(payload: &[u8]) -> Result<Request, ErrorResponse> {
    let request = decode_payload::<Request>(payload, "request tag").map_err(|e| ErrorResponse {
        id: String::new(),
        code: ErrorCode::BadRequest,
        message: e.to_string(),
    })?;
    request.validate()?;
    Ok(request)
}

/// Decode a response payload (the client side) — the binary twin of
/// [`Response::from_line`].
pub fn decode_response_payload(payload: &[u8]) -> Result<Response, FrameError> {
    decode_payload(payload, "response tag")
}

fn decode_payload<K: Kinds>(payload: &[u8], tag_what: &str) -> Result<K, FrameError> {
    let mut r = Reader::new(payload);
    let tag = r.u8(tag_what)?;
    let (label, read) = K::read_kind(&mut r, |_, t| t == tag)
        .ok_or_else(|| FrameError::Malformed(format!("unknown {tag_what} {tag}")))?;
    let message = read.map_err(|e| within(e, label))?;
    r.finish(label)?;
    Ok(message)
}

// ---------------------------------------------------------------------
// Payload writer
// ---------------------------------------------------------------------

pub(crate) struct Writer {
    out: Vec<u8>,
}

impl Writer {
    fn new() -> Self {
        Self { out: Vec::new() }
    }

    fn u8(&mut self, x: u8) {
        self.out.push(x);
    }

    fn bool(&mut self, x: bool) {
        self.out.push(u8::from(x));
    }

    fn u32(&mut self, x: u32) {
        self.out.extend_from_slice(&x.to_le_bytes());
    }

    fn u64(&mut self, x: u64) {
        self.out.extend_from_slice(&x.to_le_bytes());
    }

    fn f64(&mut self, x: f64) {
        self.out.extend_from_slice(&x.to_bits().to_le_bytes());
    }

    fn str(&mut self, s: &str) {
        self.count(s.len());
        self.out.extend_from_slice(s.as_bytes());
    }

    /// A u32 length prefix.
    fn count(&mut self, n: usize) {
        self.u32(u32::try_from(n).expect("length exceeds u32 length prefix"));
    }

    #[cfg(test)]
    fn usize_arr(&mut self, xs: &[usize]) {
        Writes::arr(self, xs, "", "");
    }
}

impl Writes for Writer {
    fn val<T: Scalar>(&mut self, x: &T, _key: &'static str) {
        x.put(self);
    }
    fn opt<T: Scalar>(&mut self, x: &Option<T>, _key: &'static str) {
        match x {
            Some(v) => {
                self.u8(1);
                v.put(self);
            }
            None => self.u8(0),
        }
    }
    fn arr<T: Scalar>(&mut self, xs: &[T], _key: &'static str, _missing: &'static str) {
        self.count(xs.len());
        for x in xs {
            x.put(self);
        }
    }
    fn nested<M: Message>(&mut self, x: &M, _key: &'static str) {
        x.write(self);
    }
    fn list<M: Message>(&mut self, xs: &[M], _key: &'static str, _missing: &'static str) {
        self.count(xs.len());
        for x in xs {
            x.write(self);
        }
    }
    fn ext<M: Message>(&mut self, x: &Option<M>, _key: &'static str, ext: Ext) {
        if let Some(m) = x {
            if let Ext::Marker(marker) = ext {
                self.u8(marker);
            }
            m.write(self);
        }
    }
    fn flag(&mut self, x: &bool, _key: &'static str) {
        if *x {
            self.bool(true);
        }
    }
}

// ---------------------------------------------------------------------
// Payload reader
// ---------------------------------------------------------------------

pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Whether a marker-led extension was visited: trailing bytes are
    /// then an extension this peer does not know, not garbage.
    markers: bool,
}

impl<'a> Reader<'a> {
    fn new(buf: &'a [u8]) -> Self {
        Self {
            buf,
            pos: 0,
            markers: false,
        }
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], FrameError> {
        if self.remaining() < n {
            return Err(FrameError::Malformed(format!(
                "{what} needs {n} bytes, {} left",
                self.remaining()
            )));
        }
        let slice = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    fn u8(&mut self, what: &str) -> Result<u8, FrameError> {
        Ok(self.take(1, what)?[0])
    }

    fn bool(&mut self, what: &str) -> Result<bool, FrameError> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(FrameError::Malformed(format!("{what}: bad bool byte {b}"))),
        }
    }

    fn u32(&mut self, what: &str) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(
            self.take(4, what)?.try_into().expect("4 bytes"),
        ))
    }

    fn u64(&mut self, what: &str) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(
            self.take(8, what)?.try_into().expect("8 bytes"),
        ))
    }

    fn f64(&mut self, what: &str) -> Result<f64, FrameError> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    fn str(&mut self, what: &str) -> Result<String, FrameError> {
        let len = self.u32(what)? as usize;
        if len > self.remaining() {
            return Err(FrameError::Malformed(format!(
                "{what}: declared string length {len} exceeds {} remaining bytes",
                self.remaining()
            )));
        }
        String::from_utf8(self.take(len, what)?.to_vec())
            .map_err(|e| FrameError::Malformed(format!("{what}: invalid UTF-8: {e}")))
    }

    /// A u32 element count, refused before any allocation when the
    /// remaining bytes cannot hold that many `min_bytes` entries.
    fn count(&mut self, what: &str, min_bytes: usize) -> Result<usize, FrameError> {
        let count = self.u32(what)? as usize;
        if count > self.remaining() / min_bytes {
            return Err(FrameError::Malformed(format!(
                "{what}: declared {count} entries exceed {} remaining bytes",
                self.remaining()
            )));
        }
        Ok(count)
    }

    fn finish(self, what: &str) -> Result<(), FrameError> {
        match self.buf.get(self.pos) {
            None => Ok(()),
            Some(b) if self.markers => Err(FrameError::Malformed(format!(
                "{what}: unknown or out-of-order extension marker {b}"
            ))),
            Some(_) => Err(FrameError::Malformed(format!(
                "{what}: {} trailing bytes",
                self.remaining()
            ))),
        }
    }
}

/// Scope a nested field's decode error under its parent's key, so the
/// message names the full path (`map.calibration.days …`).
fn within(e: FrameError, scope: &str) -> FrameError {
    match e {
        FrameError::Malformed(m) => FrameError::Malformed(format!("{scope}.{m}")),
        other => other,
    }
}

fn read_message<M: Message>(r: &mut Reader<'_>, key: &str) -> Result<M, FrameError> {
    let mut m = M::seed();
    m.read(r).map_err(|e| within(e, key))?;
    Ok(m)
}

impl Reads for Reader<'_> {
    type Error = FrameError;
    fn val<T: Scalar>(&mut self, x: &mut T, key: &'static str) -> Result<(), FrameError> {
        *x = T::get(self, key)?;
        Ok(())
    }
    fn req<T: Scalar>(
        &mut self,
        x: &mut T,
        key: &'static str,
        _missing: &'static str,
    ) -> Result<(), FrameError> {
        self.val(x, key)
    }
    fn opt<T: Scalar>(&mut self, x: &mut Option<T>, key: &'static str) -> Result<(), FrameError> {
        *x = match self.u8(key)? {
            0 => None,
            1 => Some(T::get(self, key)?),
            b => {
                return Err(FrameError::Malformed(format!(
                    "{key}: bad presence byte {b}"
                )))
            }
        };
        Ok(())
    }
    fn arr<T: Scalar>(
        &mut self,
        x: &mut Vec<T>,
        key: &'static str,
        _missing: &'static str,
    ) -> Result<(), FrameError> {
        let count = self.count(key, T::BYTES)?;
        *x = (0..count)
            .map(|_| T::get(self, key))
            .collect::<Result<_, _>>()?;
        Ok(())
    }
    fn nested<M: Message>(&mut self, x: &mut M, key: &'static str) -> Result<(), FrameError> {
        x.read(self).map_err(|e| within(e, key))
    }
    fn list<M: Message>(
        &mut self,
        x: &mut Vec<M>,
        key: &'static str,
        _missing: &'static str,
    ) -> Result<(), FrameError> {
        // Every message encodes to at least one byte; entries grow the
        // vector only as they decode.
        let count = self.count(key, 1)?;
        *x = (0..count)
            .map(|_| read_message(self, key))
            .collect::<Result<_, _>>()?;
        Ok(())
    }
    fn ext<M: Message>(
        &mut self,
        x: &mut Option<M>,
        key: &'static str,
        ext: Ext,
    ) -> Result<(), FrameError> {
        let present = match ext {
            Ext::Marker(marker) => {
                self.markers = true;
                let here = self.buf.get(self.pos) == Some(&marker);
                if here {
                    self.pos += 1;
                }
                here
            }
            Ext::Rest => self.remaining() > 0,
        };
        *x = present.then(|| read_message(self, key)).transpose()?;
        Ok(())
    }
    fn flag(&mut self, x: &mut bool, key: &'static str) -> Result<(), FrameError> {
        *x = self.remaining() > 0 && self.bool(key)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Scalars
// ---------------------------------------------------------------------

/// The v2 binary form of a [`Scalar`].
pub(crate) trait BinScalar: Sized {
    /// Fewest bytes one value encodes to (bounds declared array
    /// counts).
    const BYTES: usize;
    fn put(&self, w: &mut Writer);
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError>;
}

impl BinScalar for u64 {
    const BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(*self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        r.u64(what)
    }
}

/// A `usize` travels as a `u64`. Narrowing on decode is checked: a
/// value past `usize::MAX` (possible on 32-bit targets, or hostile on
/// any) is `Malformed`, never a silent wrap.
impl BinScalar for usize {
    const BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.u64(*self as u64);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        let v = r.u64(what)?;
        usize::try_from(v).map_err(|_| {
            FrameError::Malformed(format!(
                "{what}: value {v} does not fit usize on this target"
            ))
        })
    }
}

impl BinScalar for u32 {
    const BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.u32(*self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        r.u32(what)
    }
}

impl BinScalar for u8 {
    const BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.u8(*self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        r.u8(what)
    }
}

impl BinScalar for f64 {
    const BYTES: usize = 8;
    fn put(&self, w: &mut Writer) {
        w.f64(*self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        r.f64(what)
    }
}

impl BinScalar for bool {
    const BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.bool(*self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        r.bool(what)
    }
}

impl BinScalar for String {
    const BYTES: usize = 4;
    fn put(&self, w: &mut Writer) {
        w.str(self);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        r.str(what)
    }
}

impl BinScalar for CacheTier {
    const BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.u8(self.code());
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        let code = r.u8(what)?;
        CacheTier::from_code(code)
            .ok_or_else(|| FrameError::Malformed(format!("{what}: bad tier code {code}")))
    }
}

impl BinScalar for ErrorCode {
    const BYTES: usize = 1;
    fn put(&self, w: &mut Writer) {
        w.u8(self.code());
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        let code = r.u8(what)?;
        ErrorCode::from_code(code)
            .ok_or_else(|| FrameError::Malformed(format!("{what}: bad code {code}")))
    }
}

/// A histogram bucket: u32 index, u64 count.
impl BinScalar for (u32, u64) {
    const BYTES: usize = 12;
    fn put(&self, w: &mut Writer) {
        w.u32(self.0);
        w.u64(self.1);
    }
    fn get(r: &mut Reader<'_>, what: &str) -> Result<Self, FrameError> {
        Ok((r.u32(what)?, r.u64(what)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_map_request() -> Request {
        let mut m = MapRequest::new("r1", "src,dst,bytes,msgs\n0,1,5,2\n");
        m.ranks = Some(16);
        m.constraints_csv = Some("process,site\n0,3\n".into());
        m.algorithm = "mpipp".into();
        m.seed = 99;
        m.deadline_ms = Some(250);
        m.reserve = true;
        m.idempotency_key = Some("key-1".into());
        Request::Map(m)
    }

    #[test]
    fn frame_roundtrips_header_and_payload() {
        let frame = Frame {
            kind: FrameKind::Request,
            corr_id: 0xDEAD_BEEF_CAFE_F00D,
            payload: vec![1, 2, 3],
        };
        let bytes = frame.encode();
        assert_eq!(bytes[0], FRAME_MAGIC);
        let (back, used) = Frame::decode(&bytes).unwrap();
        assert_eq!(used, bytes.len());
        assert_eq!(back, frame);
    }

    #[test]
    fn truncated_frames_say_how_much_they_need() {
        let bytes = encode_request(
            &Request::Stats {
                id: "s".into(),
                detail: false,
            },
            7,
        );
        for cut in 0..bytes.len() {
            match Frame::decode(&bytes[..cut]) {
                Err(FrameError::Truncated { have, need }) => {
                    assert_eq!(have, cut);
                    assert!(need <= bytes.len());
                }
                other => panic!("cut {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn requests_roundtrip_through_payload_codec() {
        for req in [
            sample_map_request(),
            Request::Release {
                id: "a".into(),
                lease: 7,
            },
            Request::Stats {
                id: "b".into(),
                detail: false,
            },
            Request::Stats {
                id: "b2".into(),
                detail: true,
            },
            Request::Shutdown { id: "c".into() },
            Request::Journal {
                id: "d".into(),
                key: "client-7/42".into(),
            },
            Request::TraceDump { id: "t".into() },
        ] {
            let back = decode_request_payload(&request_payload(&req)).unwrap();
            assert_eq!(back, req);
        }
    }

    #[test]
    fn traced_map_request_roundtrips_and_extends_the_plain_bytes() {
        let Request::Map(plain) = sample_map_request() else {
            panic!("not a map request")
        };
        let mut traced = plain.clone();
        traced.trace = Some(TraceContext {
            trace_id: 0x1234_5678,
            parent_span: 9,
            sampled: false,
        });
        let plain_bytes = request_payload(&Request::Map(plain));
        let traced_bytes = request_payload(&Request::Map(traced.clone()));
        // The extension is strictly trailing: the traced payload begins
        // with the byte-identical plain payload.
        assert_eq!(&traced_bytes[..plain_bytes.len()], &plain_bytes[..]);
        assert_eq!(traced_bytes.len(), plain_bytes.len() + 1 + 8 + 8 + 1);
        let back = decode_request_payload(&traced_bytes).unwrap();
        assert_eq!(back, Request::Map(traced));
    }

    #[test]
    fn unknown_trace_extension_marker_is_malformed() {
        let Request::Map(m) = sample_map_request() else {
            panic!("not a map request")
        };
        let mut bytes = request_payload(&Request::Map(m));
        bytes.push(42); // not TRACE_EXT_MARKER
        let err = decode_request_payload(&bytes).unwrap_err();
        assert!(err.message.contains("extension marker"), "{}", err.message);
    }

    #[test]
    fn detailed_stats_response_roundtrips() {
        let resp = Response::Stats(StatsResponse {
            id: "s".into(),
            served: 5,
            misses: 5,
            free_nodes: vec![3, 1],
            active_leases: 2,
            detail: Some(StatsDetail {
                hist_schema: crate::hist::SCHEMA_VERSION,
                queue_depth: 1,
                max_queue_depth: 7,
                leased_nodes: vec![0, 2],
                hists: vec![
                    HistSummary {
                        name: "map_e2e".into(),
                        count: 3,
                        sum_us: 900,
                        min_us: Some(100),
                        max_us: Some(500),
                        p50_us: 303,
                        p90_us: 511,
                        p99_us: 511,
                        p999_us: 511,
                        buckets: vec![(52, 1), (64, 2)],
                    },
                    HistSummary::default(),
                ],
                shards: 3,
            }),
            ..StatsResponse::default()
        });
        let back = decode_response_payload(&response_payload(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn plain_stats_response_has_no_trailing_extension() {
        let base = StatsResponse {
            id: "s".into(),
            served: 1,
            free_nodes: vec![4],
            ..StatsResponse::default()
        };
        let plain_bytes = response_payload(&Response::Stats(base.clone()));
        let detailed = StatsResponse {
            detail: Some(StatsDetail::default()),
            ..base
        };
        let detailed_bytes = response_payload(&Response::Stats(detailed));
        assert_eq!(&detailed_bytes[..plain_bytes.len()], &plain_bytes[..]);
        assert!(detailed_bytes.len() > plain_bytes.len());
    }

    #[test]
    fn trace_dump_response_roundtrips() {
        let resp = Response::TraceDump(TraceDumpResponse {
            id: "td".into(),
            now_s: 2.25,
            dropped: 1,
            tracks: vec![
                WireTrack {
                    track: 0,
                    process: "service".into(),
                    name: "worker-0".into(),
                },
                WireTrack {
                    track: 1,
                    process: "solver".into(),
                    name: "geo".into(),
                },
            ],
            events: vec![
                WireTraceEvent {
                    track: 0,
                    name: "request".into(),
                    kind: WireTraceEvent::SPAN_BEGIN,
                    ts_s: 0.5,
                    value: 77.0,
                },
                WireTraceEvent {
                    track: 0,
                    name: "request".into(),
                    kind: WireTraceEvent::SPAN_END,
                    ts_s: 0.9,
                    value: 0.0,
                },
            ],
        });
        let back = decode_response_payload(&response_payload(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn hostile_trace_dump_counts_are_errors_not_allocations() {
        let mut w = Writer::new();
        w.u8(7); // trace dump response tag
        w.str("id");
        w.f64(0.0);
        w.u64(0);
        w.out.extend_from_slice(&u32::MAX.to_le_bytes()); // track count
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
        let mut w = Writer::new();
        w.u8(7);
        w.str("id");
        w.f64(0.0);
        w.u64(0);
        w.u32(0); // no tracks
        w.out.extend_from_slice(&u32::MAX.to_le_bytes()); // event count
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn remap_messages_roundtrip_through_payload_codec() {
        let mut req = RemapRequest::new("rm", "src,dst,bytes,msgs\n0,1,5,2\n", vec![0, 1, 1, 0]);
        req.constraints_csv = Some("process,site\n0,0\n".into());
        req.budget = Some(2);
        req.alpha = 0.5;
        req.lease = Some(9);
        for request in [
            Request::Remap(req),
            Request::Remap(RemapRequest::new("rm2", "src,dst,bytes,msgs\n", vec![0])),
        ] {
            let back = decode_request_payload(&request_payload(&request)).unwrap();
            assert_eq!(back, request);
        }
        let resp = Response::RemapDiff(RemapDiffResponse {
            id: "rm".into(),
            mapping: vec![1, 1, 0, 0],
            moved: vec![0, 2],
            old_cost: 9.5,
            new_cost: 7.25,
            migrations: 2,
            lease: Some(3),
            free_nodes: vec![2, 2],
        });
        let back = decode_response_payload(&response_payload(&resp)).unwrap();
        assert_eq!(back, resp);
    }

    #[test]
    fn remap_validation_failures_echo_the_decoded_id() {
        let m = RemapRequest::new("rm-bad", "src,dst,bytes,msgs\n", vec![]);
        let err = decode_request_payload(&request_payload(&Request::Remap(m))).unwrap_err();
        assert_eq!(err.id, "rm-bad");
        assert_eq!(err.message, "remap request needs a non-empty mapping");
    }

    #[test]
    fn journal_responses_roundtrip_through_payload_codec() {
        for resp in [
            Response::Journal(JournalResponse {
                id: "j1".into(),
                key: "auto-00ff-3".into(),
                held: true,
                lease: Some(12),
                site_counts: vec![2, 0, 1],
            }),
            Response::Journal(JournalResponse {
                id: "j2".into(),
                key: "gone".into(),
                held: false,
                lease: None,
                site_counts: vec![],
            }),
        ] {
            let back = decode_response_payload(&response_payload(&resp)).unwrap();
            assert_eq!(back, resp);
        }
    }

    /// Writes a map-request payload whose `samples` field carries an
    /// arbitrary raw u64 — bypassing `MapRequest`'s `usize` fields so
    /// the decoder can be probed at (and past) the usize boundary.
    fn map_payload_with_samples(samples: u64) -> Vec<u8> {
        let mut w = Writer::new();
        w.u8(1); // map request tag
        w.str("edge");
        w.str("src,dst,bytes,msgs\n");
        w.u8(0); // ranks: absent
        w.u8(0); // constraints: absent
        w.str("geo");
        w.u64(0x5C17); // seed
        w.u64(4); // kappa
        w.u64(samples);
        let d = CalibSpec::default();
        w.u64(d.days as u64);
        w.u64(d.probes_per_day as u64);
        w.f64(d.noise_cv);
        w.f64(d.loss_rate);
        w.u64(d.seed);
        w.u8(0); // deadline: absent
        w.bool(false); // reserve
        w.u8(0); // lease_ttl: absent
        w.bool(true); // cache
        w.u8(0); // idem: absent
        w.out
    }

    #[test]
    fn u64_fields_decode_exactly_at_the_usize_boundary() {
        // usize::MAX itself must decode without wrapping on every
        // target — the old `as usize` path happened to be right here,
        // but only because the test ran on 64-bit.
        let max = usize::MAX as u64;
        let Request::Map(m) = decode_request_payload(&map_payload_with_samples(max)).unwrap()
        else {
            panic!("not a map request")
        };
        assert_eq!(m.samples, usize::MAX);
    }

    #[test]
    fn u64_fields_past_usize_are_malformed_not_wrapped() {
        // On 32-bit targets usize::MAX + 1 exists as a u64 and used to
        // silently wrap to 0; now it is a typed decode error. On 64-bit
        // no such value exists and the check is vacuous (checked_add
        // returns None), which is exactly the point: the error path is
        // target-dependent, the no-wrap guarantee is not.
        if let Some(over) = (usize::MAX as u64).checked_add(1) {
            let err = decode_request_payload(&map_payload_with_samples(over)).unwrap_err();
            assert_eq!(err.code, ErrorCode::BadRequest);
            assert!(
                err.message.contains("does not fit usize"),
                "{}",
                err.message
            );
        }
    }

    #[test]
    fn array_entries_past_usize_are_malformed_not_wrapped() {
        if usize::try_from(u64::MAX).is_ok() {
            return; // 64-bit: every u64 fits, nothing to refuse
        }
        let mut w = Writer::new();
        w.u8(2); // release response tag
        w.str("id");
        w.out.extend_from_slice(&1u32.to_le_bytes()); // freed: 1 entry
        w.out.extend_from_slice(&u64::MAX.to_le_bytes());
        w.usize_arr(&[]); // free_nodes
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
    }

    #[test]
    fn oversized_declared_payload_is_refused_without_buffering() {
        let mut bytes = encode_request(
            &Request::Stats {
                id: "s".into(),
                detail: false,
            },
            0,
        );
        let over = u32::try_from(MAX_FRAME_BYTES).expect("frame bound fits u32") + 1;
        bytes[11..15].copy_from_slice(&over.to_le_bytes());
        assert!(matches!(
            Frame::decode(&bytes),
            Err(FrameError::Oversized { .. })
        ));
    }

    #[test]
    fn validation_failures_echo_the_decoded_id() {
        let mut m = MapRequest::new("the-id", "src,dst,bytes,msgs\n");
        m.calibration.loss_rate = 1.5;
        let err = decode_request_payload(&request_payload(&Request::Map(m))).unwrap_err();
        assert_eq!(err.id, "the-id");
        assert_eq!(err.message, "calibration loss must be in [0, 1)");
    }

    #[test]
    fn hostile_array_count_is_an_error_not_an_allocation() {
        let mut w = Writer::new();
        w.u8(1); // map response tag
        w.str("id");
        w.out.extend_from_slice(&u32::MAX.to_le_bytes()); // mapping count
        assert!(matches!(
            decode_response_payload(&w.out),
            Err(FrameError::Malformed(_))
        ));
    }
}
