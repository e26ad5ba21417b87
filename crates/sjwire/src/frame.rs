//! Length-prefixed, CRC-checked frames.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset 0   MAGIC (0x53, 'S') — the accept path refuses a peer
//!            whose first byte is anything else
//! offset 1   message type (u8, see MsgType)
//! offset 2   flags (u16, reserved, 0)
//! offset 4   payload length (u32)
//! offset 8   payload bytes
//! offset 8+n CRC-32 (u32) over bytes [0, 8+n) — header included, so a
//!            corrupted length field fails the check too
//! ```
//!
//! A frame longer than [`MAX_FRAME_BYTES`] is rejected before any
//! allocation ([`WireError::Oversized`]); a short read is
//! [`WireError::Truncated`]; a checksum mismatch is
//! [`WireError::BadCrc`]. None of these panic or wedge the reader —
//! the server answers with a structured error and drops the
//! connection, which is the only safe resync point once framing is
//! suspect.

use std::io::{self, Read, Write};

use crate::crc::{crc32, Crc32};

/// First byte of every binary frame. `S` (for ScrubJay) reads nicely in
/// hex dumps, and differs from the `{` a JSON client opens with.
pub const MAGIC: u8 = 0x53;

/// Version of the binary protocol spoken by this build. Version 1 was
/// the retired JSON-lines transport; the framed transport starts at 2.
pub const WIRE_VERSION: u32 = 2;

/// Hard ceiling on one frame's payload. Large enough for any real
/// response (the service truncates results at its row limit), small
/// enough that a corrupted or malicious length field cannot OOM the
/// daemon.
pub const MAX_FRAME_BYTES: usize = 64 << 20;

/// What a frame carries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MsgType {
    /// Client's opening move: version/codec offer (JSON payload).
    Hello = 1,
    /// Server's negotiated reply to a Hello (JSON payload).
    HelloAck = 2,
    /// A request envelope (+ columnar sections).
    Request = 3,
    /// The response to a request (+ columnar sections).
    Response = 4,
    /// An unsolicited pushed frame: a standing query's window emission
    /// or its teardown error. Same payload shape as `Response`; the
    /// distinct type lets a client loop tell pushes from replies.
    WindowFrame = 5,
}

impl MsgType {
    pub fn from_u8(b: u8) -> Option<MsgType> {
        match b {
            1 => Some(MsgType::Hello),
            2 => Some(MsgType::HelloAck),
            3 => Some(MsgType::Request),
            4 => Some(MsgType::Response),
            5 => Some(MsgType::WindowFrame),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub msg_type: MsgType,
    pub flags: u16,
    pub payload: Vec<u8>,
}

/// Everything that can go wrong on the wire.
#[derive(Debug)]
pub enum WireError {
    /// Transport failure (connection reset, timeout, ...).
    Io(io::Error),
    /// The stream ended inside a frame.
    Truncated,
    /// First byte was not the frame magic.
    BadMagic(u8),
    /// Unknown message-type byte.
    UnknownType(u8),
    /// Declared payload length exceeds [`MAX_FRAME_BYTES`].
    Oversized { len: usize, max: usize },
    /// Checksum mismatch: the frame was corrupted in flight.
    BadCrc { expected: u32, found: u32 },
    /// The payload did not decode (bad envelope JSON, bad section).
    Decode(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "io: {e}"),
            WireError::Truncated => write!(f, "frame truncated mid-stream"),
            WireError::BadMagic(b) => write!(f, "bad frame magic 0x{b:02X}"),
            WireError::UnknownType(b) => write!(f, "unknown frame type 0x{b:02X}"),
            WireError::Oversized { len, max } => {
                write!(f, "frame payload of {len} bytes exceeds the {max}-byte cap")
            }
            WireError::BadCrc { expected, found } => {
                write!(
                    f,
                    "frame CRC mismatch: computed {expected:08X}, frame says {found:08X}"
                )
            }
            WireError::Decode(m) => write!(f, "decode: {m}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<io::Error> for WireError {
    fn from(e: io::Error) -> Self {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            WireError::Truncated
        } else {
            WireError::Io(e)
        }
    }
}

/// Serialize one frame. Header, payload, and trailing CRC go out as a
/// single buffered write so frames interleave atomically under a shared
/// writer lock.
pub fn write_frame(w: &mut impl Write, msg_type: MsgType, payload: &[u8]) -> io::Result<()> {
    let mut buf = Vec::with_capacity(12 + payload.len());
    buf.push(MAGIC);
    buf.push(msg_type as u8);
    buf.extend_from_slice(&0u16.to_le_bytes());
    buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    buf.extend_from_slice(payload);
    let crc = crc32(&buf);
    buf.extend_from_slice(&crc.to_le_bytes());
    w.write_all(&buf)?;
    w.flush()
}

/// Read and verify one frame.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, WireError> {
    let mut header = [0u8; 8];
    r.read_exact(&mut header)?;
    if header[0] != MAGIC {
        return Err(WireError::BadMagic(header[0]));
    }
    let msg_type = MsgType::from_u8(header[1]).ok_or(WireError::UnknownType(header[1]))?;
    let flags = u16::from_le_bytes([header[2], header[3]]);
    let len = u32::from_le_bytes([header[4], header[5], header[6], header[7]]) as usize;
    if len > MAX_FRAME_BYTES {
        return Err(WireError::Oversized {
            len,
            max: MAX_FRAME_BYTES,
        });
    }
    let mut payload = vec![0u8; len];
    r.read_exact(&mut payload)?;
    let mut trailer = [0u8; 4];
    r.read_exact(&mut trailer)?;
    let found = u32::from_le_bytes(trailer);
    let mut h = Crc32::new();
    h.update(&header);
    h.update(&payload);
    let expected = h.finish();
    if expected != found {
        return Err(WireError::BadCrc { expected, found });
    }
    Ok(Frame {
        msg_type,
        flags,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(msg_type: MsgType, payload: &[u8]) -> Frame {
        let mut buf = Vec::new();
        write_frame(&mut buf, msg_type, payload).unwrap();
        read_frame(&mut &buf[..]).unwrap()
    }

    #[test]
    fn frames_round_trip() {
        for (t, p) in [
            (MsgType::Hello, &b"{}"[..]),
            (MsgType::Request, &b""[..]),
            (MsgType::Response, &[0u8, 255, 1, 2, 3][..]),
            (MsgType::WindowFrame, &vec![0xAB; 4096][..]),
        ] {
            let f = round_trip(t, p);
            assert_eq!(f.msg_type, t);
            assert_eq!(f.payload, p);
        }
    }

    #[test]
    fn corrupt_bytes_fail_the_crc() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Response, b"hello columnar world").unwrap();
        for i in 1..buf.len() {
            let mut bad = buf.clone();
            bad[i] ^= 0x40;
            match read_frame(&mut &bad[..]) {
                Err(_) => {}
                Ok(f) => panic!("corruption at byte {i} decoded as {f:?}"),
            }
        }
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let mut buf = Vec::new();
        write_frame(&mut buf, MsgType::Request, b"payload bytes").unwrap();
        for cut in 0..buf.len() {
            match read_frame(&mut &buf[..cut]) {
                Err(WireError::Truncated) => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_length_is_rejected_before_allocation() {
        let mut buf = vec![MAGIC, MsgType::Request as u8, 0, 0];
        buf.extend_from_slice(&u32::MAX.to_le_bytes());
        match read_frame(&mut &buf[..]) {
            Err(WireError::Oversized { .. }) => {}
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn json_lines_first_byte_is_a_bad_magic() {
        let buf = b"{\"id\":\"1\",\"verb\":\"health\"}\n";
        match read_frame(&mut &buf[..]) {
            Err(WireError::BadMagic(0x7B)) => {}
            other => panic!("{other:?}"),
        }
    }
}
