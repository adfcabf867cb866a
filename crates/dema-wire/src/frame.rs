//! Length-prefixed framing: one encoder and one decoder.
//!
//! Each frame is a little-endian `u32` payload length followed by exactly
//! one encoded [`Message`](crate::message::Message). The TCP transport
//! appends frames to its per-connection outbound buffer with
//! [`encode_frame_into`] and parses its per-connection inbound buffer with
//! [`decode_frame`]; the in-memory transport moves decoded messages
//! directly and only uses `encoded_len` for byte accounting.

use crate::message::{Message, WireError};

/// Frames larger than this are treated as corruption.
pub const MAX_FRAME: u32 = 1 << 30;

/// Errors while decoding a frame.
#[derive(Debug)]
pub enum FrameError {
    /// Payload failed to decode.
    Wire(WireError),
    /// Length prefix exceeds [`MAX_FRAME`].
    TooLarge(u32),
}

impl std::fmt::Display for FrameError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FrameError::Wire(e) => write!(f, "decode error: {e}"),
            FrameError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
        }
    }
}

impl std::error::Error for FrameError {}

impl From<WireError> for FrameError {
    fn from(e: WireError) -> FrameError {
        FrameError::Wire(e)
    }
}

/// Append one complete frame (length prefix + encoded payload) to `buf`.
/// The caller owns and reuses `buf`, so steady-state encoding allocates
/// only when a frame outgrows every earlier one.
pub fn encode_frame_into(msg: &Message, buf: &mut Vec<u8>) {
    let _phase = dema_core::alloc::enter_phase(dema_core::alloc::Phase::Encode);
    let len = msg.encoded_len() as u32;
    buf.reserve(len as usize + 4);
    buf.extend_from_slice(&len.to_le_bytes());
    msg.encode_into(buf);
}

/// Decode the frame at the start of `buf`: the message and the bytes it
/// occupied (payload + 4). `Ok(None)` while the frame is still incomplete;
/// an oversized length prefix is rejected as soon as its 4 bytes are in,
/// without waiting for a payload that may never come.
// hot-path: frame-io
pub fn decode_frame(buf: &[u8]) -> Result<Option<(Message, usize)>, FrameError> {
    let _phase = dema_core::alloc::enter_phase(dema_core::alloc::Phase::Decode);
    let Some(&[a, b, c, d]) = buf.get(..4) else {
        return Ok(None);
    };
    let len = u32::from_le_bytes([a, b, c, d]);
    if len > MAX_FRAME {
        return Err(FrameError::TooLarge(len));
    }
    let total = 4 + len as usize;
    let Some(payload) = buf.get(4..total) else {
        return Ok(None);
    };
    Ok(Some((Message::decode(payload)?, total)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_core::event::{Event, NodeId, WindowId};

    fn sample() -> Message {
        Message::EventBatch {
            node: NodeId(1),
            window: WindowId(2),
            sorted: true,
            events: (0..10).map(|i| Event::new(i, i as u64, i as u64)).collect(),
        }
    }

    #[test]
    fn roundtrip_over_a_buffer() {
        let mut buf = Vec::new();
        encode_frame_into(&sample(), &mut buf);
        let (msg, read) = decode_frame(&buf).unwrap().unwrap();
        assert_eq!(msg, sample());
        assert_eq!(read, buf.len());
    }

    #[test]
    fn multiple_frames_in_sequence() {
        let mut buf = Vec::new();
        let msgs = vec![
            sample(),
            Message::GammaUpdate { gamma: 7 },
            Message::StreamEnd {
                node: NodeId(0),
                late_events: 0,
            },
        ];
        for m in &msgs {
            encode_frame_into(m, &mut buf);
        }
        let mut at = 0;
        for expected in &msgs {
            let (msg, read) = decode_frame(&buf[at..]).unwrap().unwrap();
            assert_eq!(&msg, expected);
            at += read;
        }
        assert_eq!(at, buf.len());
        assert!(decode_frame(&buf[at..]).unwrap().is_none());
    }

    #[test]
    fn encode_frame_into_appends_prefix_and_payload() {
        let msg = sample();
        let mut buf = vec![0xEE]; // existing bytes stay untouched
        encode_frame_into(&msg, &mut buf);
        assert_eq!(buf[0], 0xEE);
        let len = u32::from_le_bytes(buf[1..5].try_into().unwrap());
        assert_eq!(len as usize, msg.encoded_len());
        assert_eq!(Message::decode(&buf[5..]).unwrap(), msg);
    }

    #[test]
    fn every_proper_prefix_is_incomplete() {
        let mut buf = Vec::new();
        encode_frame_into(&sample(), &mut buf);
        for cut in 0..buf.len() {
            assert!(decode_frame(&buf[..cut]).unwrap().is_none(), "cut {cut}");
        }
    }

    #[test]
    fn oversize_frame_rejected() {
        // The prefix alone is enough: no payload bytes follow it.
        let buf = (MAX_FRAME + 1).to_le_bytes();
        assert!(matches!(decode_frame(&buf), Err(FrameError::TooLarge(_))));
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&1u32.to_le_bytes());
        buf.push(0xFF); // bad tag
        assert!(matches!(decode_frame(&buf), Err(FrameError::Wire(_))));
    }
}
