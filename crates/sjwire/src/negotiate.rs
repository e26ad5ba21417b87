//! Per-connection version and codec negotiation.
//!
//! A client's first frame is a [`Hello`] offering its protocol version
//! and payload codec; the server answers with a [`HelloAck`] pinning
//! what the connection will actually speak (the lower version, the
//! `columnar` codec), or refuses a codec it does not know. Hello
//! payloads are JSON — they run once per connection and being
//! human-readable in a packet capture is worth more than the
//! nanoseconds.

use serde::{Deserialize, Serialize};

use crate::frame::WIRE_VERSION;

/// Payload codec: columnar sections for hot row payloads. The only
/// codec this build speaks.
pub const CODEC_COLUMNAR: &str = "columnar";

/// Client's opening offer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Hello {
    pub wire_version: u32,
    /// Payload codec the client wants (`columnar`).
    pub codec: String,
}

impl Default for Hello {
    fn default() -> Self {
        Hello {
            wire_version: WIRE_VERSION,
            codec: CODEC_COLUMNAR.to_string(),
        }
    }
}

/// Server's pinned reply.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HelloAck {
    /// Version both sides will speak: `min(client, server)`.
    pub wire_version: u32,
    /// Codec the server will use for payloads (always `columnar`).
    pub codec: String,
}

/// Server-side negotiation: pin the connection's version and codec from
/// the client's offer, or refuse a codec other than `columnar` with a
/// message naming it.
pub fn negotiate(hello: &Hello) -> Result<HelloAck, String> {
    if hello.codec != CODEC_COLUMNAR {
        return Err(format!(
            "unsupported codec {:?}; use {CODEC_COLUMNAR:?}",
            hello.codec
        ));
    }
    Ok(HelloAck {
        wire_version: hello.wire_version.min(WIRE_VERSION),
        codec: CODEC_COLUMNAR.to_string(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn negotiation_pins_min_version_and_known_features() {
        let ack = negotiate(&Hello {
            wire_version: 99,
            codec: CODEC_COLUMNAR.into(),
        })
        .unwrap();
        assert_eq!(ack.wire_version, WIRE_VERSION);
        assert_eq!(ack.codec, CODEC_COLUMNAR);
    }

    #[test]
    fn unknown_codec_is_refused() {
        let err = negotiate(&Hello {
            wire_version: 2,
            codec: "protobuf".into(),
        })
        .unwrap_err();
        assert!(err.contains("protobuf"), "{err}");
    }

    #[test]
    fn hello_round_trips_through_json() {
        let h = Hello::default();
        let back: Hello = serde_json::from_str(&serde_json::to_string(&h).unwrap()).unwrap();
        assert_eq!(back, h);
        // A peer that still sends the retired `features` list is
        // unaffected: unknown fields are ignored.
        let old = r#"{"wire_version":2,"codec":"columnar","features":["stream"]}"#;
        assert_eq!(serde_json::from_str::<Hello>(old).unwrap(), h);
    }
}
