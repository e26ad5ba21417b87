//! sjwire: the binary wire protocol between `sjq`, `sjserved`, and
//! `sjrouted` — the only transport the daemons speak.
//!
//! Messages travel as versioned, length-prefixed, CRC-checked frames
//! whose row payloads are columnar lanes (typed arrays + validity
//! bitmaps + string dictionaries) rather than per-cell JSON text, which
//! would pay an encode/escape/parse tax on every cell of a wide result.
//!
//! A connection opens with a [`Hello`]/[`HelloAck`] exchange pinning the
//! wire version and the `columnar` codec. A peer whose first byte is not
//! [`MAGIC`], or whose Hello offers another codec, is refused.
//!
//! Layering: this crate knows **nothing** about `sjserve`'s request or
//! response types. It owns the frame format, CRC, version negotiation
//! ([`Hello`]/[`HelloAck`]), and the columnar section codecs over
//! [`sjcore`] types; `sjserve::wire` composes them into full messages
//! (an envelope JSON with the hot row payloads stripped, plus binary
//! sections).

pub mod codec;
pub mod crc;
pub mod frame;
pub mod negotiate;

pub use crc::{crc32, Crc32};
pub use frame::{
    read_frame, write_frame, Frame, MsgType, WireError, MAGIC, MAX_FRAME_BYTES, WIRE_VERSION,
};
pub use negotiate::{negotiate, Hello, HelloAck, CODEC_COLUMNAR};
