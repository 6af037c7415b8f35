//! ZMQ-style wire framing for Jupyter messages.
//!
//! The Jupyter wire protocol sends each message as a multipart frame list:
//! `[<IDS|MSG>, signature, header, parent_header, metadata, content]`.
//! This module implements that framing over [`bytes::Bytes`] with a keyed
//! integrity signature.
//!
//! The signature is a keyed FNV-1a construction — **not** cryptographic
//! (real Jupyter uses HMAC-SHA256; no crypto crate is available offline).
//! It serves the same structural role: catching corruption and key
//! mismatches in tests. Its two 64-bit lanes are computed together in a
//! single pass over the key and the body bytes; the algorithm, and so
//! every signature and every wire byte, is the same as when the lanes ran
//! one after the other.
//!
//! Encoding makes one pass per payload byte: each body part is written
//! once into a reused buffer (headers through a direct writer rather
//! than a JSON tree), absorbed into the signature, and copied into its
//! frame. Decoding verifies the signature without allocating and moves
//! header strings out of the parsed tree. The Global Scheduler's fan-out
//! ([`crate::router`]) shares one decoded payload between replica copies.

use bytes::Bytes;

use crate::json::{encode_into, Json};
use crate::message::{Header, JupyterMessage};

/// The frame delimiter between routing identities and the message body.
pub const DELIMITER: &[u8] = b"<IDS|MSG>";

/// The `parent_header` part of a message without a parent.
const NO_PARENT: &str = "{}";

/// FNV-1a 64-bit offset bases of the two signature lanes.
const LANE_OFFSETS: [u64; 2] = [0xcbf2_9ce4_8422_2325, 0x6c62_272e_07bb_0142];

/// The FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x100_0000_01b3;

/// Errors decoding a wire message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer frames than the protocol requires.
    TooFewFrames,
    /// The `<IDS|MSG>` delimiter was not found.
    MissingDelimiter,
    /// The signature does not match the body.
    BadSignature,
    /// A JSON part failed to parse.
    BadJson(String),
    /// The header was structurally invalid.
    BadHeader(String),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::TooFewFrames => write!(f, "too few frames"),
            WireError::MissingDelimiter => write!(f, "missing <IDS|MSG> delimiter"),
            WireError::BadSignature => write!(f, "signature mismatch"),
            WireError::BadJson(e) => write!(f, "invalid json part: {e}"),
            WireError::BadHeader(e) => write!(f, "invalid header: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

/// The keyed signature, absorbed incrementally. Lane `i` is FNV-1a over
/// the key, the byte `i`, and then every body part in order.
struct Signer {
    lanes: [u64; 2],
}

impl Signer {
    fn new(key: &[u8]) -> Signer {
        let mut signer = Signer {
            lanes: LANE_OFFSETS,
        };
        signer.absorb(key);
        for (i, lane) in signer.lanes.iter_mut().enumerate() {
            *lane = (*lane ^ i as u64).wrapping_mul(FNV_PRIME);
        }
        signer
    }

    /// Feeds `bytes` to both lanes in one pass; the two multiply chains
    /// are independent, so they overlap.
    fn absorb(&mut self, bytes: &[u8]) {
        let [mut a, mut b] = self.lanes;
        for &x in bytes {
            a = (a ^ u64::from(x)).wrapping_mul(FNV_PRIME);
            b = (b ^ u64::from(x)).wrapping_mul(FNV_PRIME);
        }
        self.lanes = [a, b];
    }

    /// The signature as 32 lowercase hex digits, lane 0 first.
    fn finish(&self) -> [u8; 32] {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let mut out = [0u8; 32];
        for (digits, lane) in out.chunks_exact_mut(16).zip(self.lanes) {
            for (i, d) in digits.iter_mut().enumerate() {
                *d = HEX[(lane >> (60 - 4 * i) & 0xf) as usize];
            }
        }
        out
    }
}

/// Computes the keyed signature over the four JSON body parts.
fn sign(key: &[u8], parts: &[&[u8]]) -> [u8; 32] {
    let mut signer = Signer::new(key);
    for part in parts {
        signer.absorb(part);
    }
    signer.finish()
}

/// Encodes a message (plus routing identities) into wire frames.
pub fn encode(identities: &[Bytes], message: &JupyterMessage, key: &[u8]) -> Vec<Bytes> {
    let mut frames = Vec::with_capacity(identities.len() + 6);
    frames.extend(identities.iter().cloned());
    frames.push(Bytes::from_static(DELIMITER));
    let signature_at = frames.len();
    frames.push(Bytes::new());

    let mut signer = Signer::new(key);
    // One buffer, sized for the largest part, holds each part in turn.
    let mut part = String::with_capacity(message.content.len_hint().max(256));
    let mut emit = |part: &mut String| {
        signer.absorb(part.as_bytes());
        frames.push(Bytes::copy_from_slice(part.as_bytes()));
        part.clear();
    };
    message.header.write_json(&mut part);
    emit(&mut part);
    match &message.parent {
        Some(parent) => parent.write_json(&mut part),
        None => part.push_str(NO_PARENT),
    }
    emit(&mut part);
    encode_into(&message.metadata, &mut part);
    emit(&mut part);
    encode_into(&message.content, &mut part);
    emit(&mut part);
    frames[signature_at] = Bytes::copy_from_slice(&signer.finish());
    frames
}

/// Decodes wire frames back into identities and a message, verifying the
/// signature.
///
/// # Errors
///
/// Returns a [`WireError`] when the framing, signature, or JSON parts are
/// invalid.
pub fn decode(frames: &[Bytes], key: &[u8]) -> Result<(Vec<Bytes>, JupyterMessage), WireError> {
    let delim = frames
        .iter()
        .position(|f| f.as_ref() == DELIMITER)
        .ok_or(WireError::MissingDelimiter)?;
    if frames.len() < delim + 6 {
        return Err(WireError::TooFewFrames);
    }
    let body: [&[u8]; 4] = std::array::from_fn(|i| frames[delim + 2 + i].as_ref());
    if frames[delim + 1].as_ref() != sign(key, &body) {
        return Err(WireError::BadSignature);
    }
    let parse = |bytes: &[u8]| -> Result<Json, WireError> {
        let text = std::str::from_utf8(bytes).map_err(|e| WireError::BadJson(e.to_string()))?;
        Json::parse(text).map_err(|e| WireError::BadJson(e.to_string()))
    };
    let header_json = parse(body[0])?;
    let parent_json = parse(body[1])?;
    let metadata = parse(body[2])?;
    let content = parse(body[3])?;
    let header = Header::from_json(header_json).map_err(WireError::BadHeader)?;
    let parent = match parent_json {
        Json::Obj(map) if map.is_empty() => None,
        other => Some(Header::from_json(other).map_err(WireError::BadHeader)?),
    };
    Ok((
        frames[..delim].to_vec(),
        JupyterMessage {
            header,
            parent,
            metadata,
            content,
        },
    ))
}

#[cfg(test)]
mod tests {
    use proptest::prelude::*;

    use super::*;
    use crate::json::tests::arb_text;
    use crate::message::{JupyterMessage, MsgType, ReplyStatus};

    const KEY: &[u8] = b"test-key";

    /// The byte-at-a-time, lane-after-lane signature `sign` replaced, kept
    /// as the oracle its output must equal.
    fn sign_oracle(key: &[u8], parts: &[&[u8]]) -> String {
        let mut lanes = [0xcbf2_9ce4_8422_2325u64, 0x6c62_272e_07bb_0142u64];
        for (lane_idx, lane) in lanes.iter_mut().enumerate() {
            for chunk in [key, &[lane_idx as u8][..]]
                .into_iter()
                .chain(parts.iter().copied())
            {
                for &b in chunk {
                    *lane ^= b as u64;
                    *lane = lane.wrapping_mul(0x100_0000_01b3);
                }
            }
        }
        format!("{:016x}{:016x}", lanes[0], lanes[1])
    }

    /// A fixed `execute_request` as the live gateway receives it: routing
    /// identities, GPU ids, the cell-duration metadata, and a cell that
    /// needs every kind of escape.
    fn golden_request() -> JupyterMessage {
        let code = "x = \"h\u{e9}llo \u{2603}\"\n\tprint(x, '\\\\') # \u{1F600}\u{1}\r";
        let mut req = JupyterMessage::execute_request("msg-1", "session-7", code, 1_234_567)
            .with_destination("kernel-session-7")
            .with_gpu_device_ids(&[0, 3]);
        req.metadata = req.metadata.with("duration_us", 250_000u64);
        req
    }

    fn golden_identities() -> Vec<Bytes> {
        vec![
            Bytes::from_static(b"client-7"),
            Bytes::from_static(b"route-2"),
        ]
    }

    fn assert_frames(frames: &[Bytes], expected: [&str; 5]) {
        let ids = golden_identities();
        assert_eq!(frames.len(), ids.len() + 6);
        assert_eq!(&frames[..2], &ids[..]);
        assert_eq!(frames[2].as_ref(), DELIMITER);
        for (frame, want) in frames[3..].iter().zip(expected) {
            assert_eq!(std::str::from_utf8(frame).unwrap(), want);
        }
    }

    /// Signature and body frames recorded from the tree-based codec that
    /// preceded the single-pass writer; the wire must not change.
    #[test]
    fn golden_execute_request_frames() {
        let frames = encode(&golden_identities(), &golden_request(), b"golden-key");
        assert_frames(
            &frames,
            [
                "dc73c2a102a4c734f48b9dbc697e763e",
                "{\"date\":1234567,\"msg_id\":\"msg-1\",\"msg_type\":\"execute_request\",\"session\":\"session-7\",\"username\":\"notebookos\",\"version\":\"5.4\"}",
                "{}",
                "{\"duration_us\":250000,\"gpu_device_ids\":[0,3],\"kernel_id\":\"kernel-session-7\"}",
                "{\"code\":\"x = \\\"héllo ☃\\\"\\n\\tprint(x, '\\\\\\\\') # 😀\\u0001\\r\",\"silent\":false,\"stop_on_error\":true,\"store_history\":true}",
            ],
        );
        let (ids, decoded) = decode(&frames, b"golden-key").unwrap();
        assert_eq!(ids, golden_identities());
        assert_eq!(decoded, golden_request());
    }

    #[test]
    fn golden_execute_reply_frames() {
        let reply = golden_request().execute_reply("reply-1", ReplyStatus::Ok, 42, true, 1_300_000);
        let frames = encode(&golden_identities(), &reply, b"golden-key");
        assert_frames(
            &frames,
            [
                "cd2c21d2ac5b166b51df7d3fa8f82029",
                "{\"date\":1300000,\"msg_id\":\"reply-1\",\"msg_type\":\"execute_reply\",\"session\":\"session-7\",\"username\":\"notebookos\",\"version\":\"5.4\"}",
                "{\"date\":1234567,\"msg_id\":\"msg-1\",\"msg_type\":\"execute_request\",\"session\":\"session-7\",\"username\":\"notebookos\",\"version\":\"5.4\"}",
                "{\"executed\":true}",
                "{\"execution_count\":42,\"status\":\"ok\"}",
            ],
        );
        let (_, decoded) = decode(&frames, b"golden-key").unwrap();
        assert_eq!(decoded, reply);
    }

    proptest! {
        #[test]
        fn sign_matches_bytewise_oracle(
            key in arb_text(16),
            parts in proptest::collection::vec(arb_text(48), 0..5),
        ) {
            let parts: Vec<&[u8]> = parts.iter().map(|p| p.as_bytes()).collect();
            let fast = sign(key.as_bytes(), &parts);
            prop_assert_eq!(std::str::from_utf8(&fast).unwrap(), sign_oracle(key.as_bytes(), &parts));
        }

        #[test]
        fn encode_matches_tree_codec(
            code in arb_text(96),
            session in arb_text(16),
            kernel in arb_text(16),
            date in 0u64..(1u64 << 52),
        ) {
            let request = JupyterMessage::execute_request("m1", session, code, date)
                .with_destination(&kernel);
            let reply = request.execute_reply("r1", ReplyStatus::Error, 7, false, date / 2);
            for message in [request, reply] {
                let frames = encode(&[], &message, KEY);
                let parent = message.parent.as_ref().map_or("{}".to_string(), |p| p.to_json().encode());
                let body = [
                    message.header.to_json().encode(),
                    parent,
                    message.metadata.encode(),
                    message.content.encode(),
                ];
                let parts: Vec<&[u8]> = body.iter().map(|p| p.as_bytes()).collect();
                let signature = sign_oracle(KEY, &parts);
                prop_assert_eq!(frames[1].as_ref(), signature.as_bytes());
                for (frame, part) in frames[2..].iter().zip(&body) {
                    prop_assert_eq!(frame.as_ref(), part.as_bytes());
                }
                let (_, decoded) = decode(&frames, KEY).expect("round trip");
                prop_assert_eq!(decoded, message);
            }
        }
    }

    fn sample() -> JupyterMessage {
        JupyterMessage::execute_request("m1", "s1", "print(1)", 99)
            .with_destination("kern-1")
            .with_gpu_device_ids(&[0, 1])
    }

    #[test]
    fn round_trip_without_identities() {
        let m = sample();
        let frames = encode(&[], &m, KEY);
        let (ids, decoded) = decode(&frames, KEY).unwrap();
        assert!(ids.is_empty());
        assert_eq!(decoded, m);
    }

    #[test]
    fn round_trip_with_identities_and_parent() {
        let req = sample();
        let reply = req.execute_reply("m2", ReplyStatus::Ok, 1, true, 150);
        let idents = vec![Bytes::from_static(b"client-7")];
        let frames = encode(&idents, &reply, KEY);
        let (ids, decoded) = decode(&frames, KEY).unwrap();
        assert_eq!(ids, idents);
        assert_eq!(decoded.header.msg_type, MsgType::ExecuteReply);
        assert_eq!(decoded.parent.as_ref().unwrap().msg_id, "m1");
    }

    #[test]
    fn non_finite_metadata_is_sent_as_null() {
        let mut m = sample();
        m.metadata = m.metadata.with("load", f64::NAN);
        let (_, decoded) = decode(&encode(&[], &m, KEY), KEY).expect("receiver accepts it");
        assert_eq!(decoded.metadata.get("load"), Some(&Json::Null));
    }

    #[test]
    fn wrong_key_is_rejected() {
        let frames = encode(&[], &sample(), KEY);
        assert_eq!(
            decode(&frames, b"other-key").unwrap_err(),
            WireError::BadSignature
        );
    }

    #[test]
    fn tampered_content_is_rejected() {
        let mut frames = encode(&[], &sample(), KEY);
        let last = frames.len() - 1;
        frames[last] = Bytes::from_static(b"{\"code\":\"rm -rf /\"}");
        assert_eq!(decode(&frames, KEY).unwrap_err(), WireError::BadSignature);
    }

    #[test]
    fn missing_delimiter_is_rejected() {
        let mut frames = encode(&[], &sample(), KEY);
        frames.remove(0);
        assert_eq!(
            decode(&frames, KEY).unwrap_err(),
            WireError::MissingDelimiter
        );
    }

    #[test]
    fn truncated_frames_are_rejected() {
        let frames = encode(&[], &sample(), KEY);
        assert_eq!(
            decode(&frames[..frames.len() - 1], KEY).unwrap_err(),
            WireError::TooFewFrames
        );
    }

    #[test]
    fn signature_is_32_hex_digits_and_separates_keys() {
        let sig = sign(KEY, &[b"ab", b"c"]);
        assert_eq!(sig.len(), 32);
        assert!(sig
            .iter()
            .all(|d| d.is_ascii_hexdigit() && !d.is_ascii_uppercase()));
        assert_ne!(sign(b"k1", &[b"x"]), sign(b"k2", &[b"x"]));
    }
}
