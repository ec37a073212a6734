//! The wire protocol: versioned, length-prefixed frames.
//!
//! Every message — request or response — is one frame:
//!
//! ```text
//! offset  size  field
//! 0       4     magic  "TRSV"
//! 4       1     protocol version (PROTOCOL_VERSION)
//! 5       1     frame kind (FrameKind)
//! 6       4     body length, big-endian u32 (<= MAX_FRAME_LEN)
//! 10      1     request-id length n (0 = no id)
//! 11      n     request id, UTF-8
//! 11+n    len   body bytes
//! ```
//!
//! Requests carry no id (`n` = 0). Every reply, error replies included,
//! carries the id the server minted for the request — the id its
//! access-log record and the daemon's stderr lines carry — so a client
//! can find its own request in the daemon's logs.
//!
//! A connection carries exactly one request frame and one response
//! frame; the transport is closed afterwards. Bodies are UTF-8:
//!
//! * [`FrameKind::JobRequest`] — a [`JobSpec`](crate::JobSpec) JSON
//!   document;
//! * [`FrameKind::OkMiss`] / [`FrameKind::OkHit`] — the artifact's
//!   content type, a newline, then the artifact bytes (the kind byte
//!   tells the client whether the cache served it);
//! * [`FrameKind::Error`] — the error's stable code, a newline, then
//!   the rendered message.
//!
//! Frame I/O cost: [`write_frame`] assembles header, id block and body
//! in one buffer and hands it to the transport in one write, and
//! [`read_frame`] reads through a `BufReader`, so a small frame costs
//! one read call on each end.
//!
//! Header checks happen before any further read: a bad magic is
//! [`ServeError::BadFrame`]; any version byte other than
//! [`PROTOCOL_VERSION`] — version 1, which had no id block, included —
//! is [`ServeError::UnsupportedVersion`]; an unknown kind byte is
//! `BadFrame`; and a declared length above [`MAX_FRAME_LEN`] is refused
//! before anything is allocated. The server answers each with an error
//! frame.

use std::io::{BufReader, Read, Write};

use crate::ServeError;

/// Frame magic: the first four bytes of every triarch-serve message.
pub const MAGIC: [u8; 4] = *b"TRSV";

/// The one protocol revision this build speaks.
pub const PROTOCOL_VERSION: u8 = 2;

/// Fixed header size in bytes (magic + version + kind + body length).
pub const HEADER_LEN: usize = 10;

/// Upper bound on a frame body (a paper-workload HTML report is ~1 MiB;
/// 64 MiB leaves generous headroom while bounding a hostile length
/// prefix).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// What a frame means. Requests are < 16, responses >= 16.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: run (or fetch) a job.
    JobRequest,
    /// Client → server: return the `serve.*` metrics dump.
    StatsRequest,
    /// Client → server: drain and exit.
    ShutdownRequest,
    /// Client → server: liveness probe.
    PingRequest,
    /// Server → client: success, computed by this request.
    OkMiss,
    /// Server → client: success, served from the result cache (or
    /// coalesced onto a concurrent identical computation).
    OkHit,
    /// Server → client: the request failed; body is `code\nmessage`.
    Error,
}

impl FrameKind {
    /// The kind's wire byte.
    #[must_use]
    pub fn byte(self) -> u8 {
        match self {
            FrameKind::JobRequest => 1,
            FrameKind::StatsRequest => 2,
            FrameKind::ShutdownRequest => 3,
            FrameKind::PingRequest => 4,
            FrameKind::OkMiss => 16,
            FrameKind::OkHit => 17,
            FrameKind::Error => 18,
        }
    }

    /// Decodes a wire byte back into a kind.
    #[must_use]
    pub fn from_byte(byte: u8) -> Option<FrameKind> {
        match byte {
            1 => Some(FrameKind::JobRequest),
            2 => Some(FrameKind::StatsRequest),
            3 => Some(FrameKind::ShutdownRequest),
            4 => Some(FrameKind::PingRequest),
            16 => Some(FrameKind::OkMiss),
            17 => Some(FrameKind::OkHit),
            18 => Some(FrameKind::Error),
            _ => None,
        }
    }
}

/// One decoded frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// What the frame means.
    pub kind: FrameKind,
    /// The request id: `None` on a request, the id the server minted on
    /// a reply.
    pub request_id: Option<String>,
    /// The frame body (UTF-8 by convention, not enforced here).
    pub body: Vec<u8>,
}

/// Writes one frame — header, id block and body — in a single
/// `write_all` on `w`, then flushes.
///
/// # Errors
///
/// [`ServeError::BadFrame`] when `body` exceeds [`MAX_FRAME_LEN`] or
/// the id exceeds 255 bytes, [`ServeError::Io`] on transport failure.
pub fn write_frame(
    w: &mut impl Write,
    kind: FrameKind,
    request_id: Option<&str>,
    body: &[u8],
) -> Result<(), ServeError> {
    let len =
        u32::try_from(body.len()).ok().filter(|len| *len <= MAX_FRAME_LEN).ok_or_else(|| {
            ServeError::bad_frame(format!("body of {} bytes exceeds limit", body.len()))
        })?;
    let id = request_id.unwrap_or("");
    let id_len = u8::try_from(id.len()).map_err(|_| {
        ServeError::bad_frame(format!(
            "request id of {} bytes exceeds the 255-byte limit",
            id.len()
        ))
    })?;
    let mut frame = Vec::with_capacity(HEADER_LEN + 1 + id.len() + body.len());
    frame.extend_from_slice(&MAGIC);
    frame.push(PROTOCOL_VERSION);
    frame.push(kind.byte());
    frame.extend_from_slice(&len.to_be_bytes());
    frame.push(id_len);
    frame.extend_from_slice(id.as_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame).and_then(|()| w.flush()).map_err(|e| ServeError::io(&e))
}

/// Reads one frame through a `BufReader`, which may consume bytes past
/// the frame's end — harmless, since a connection carries one frame
/// each way.
///
/// # Errors
///
/// [`ServeError::BadFrame`] for a bad magic, unknown kind byte,
/// oversized body, or non-UTF-8 request id;
/// [`ServeError::UnsupportedVersion`] for any version byte but
/// [`PROTOCOL_VERSION`]; [`ServeError::Io`] for transport failure or
/// truncation.
pub fn read_frame(r: &mut impl Read) -> Result<Frame, ServeError> {
    let mut r = BufReader::new(r);
    let mut header = [0u8; HEADER_LEN];
    r.read_exact(&mut header).map_err(|e| ServeError::io(&e))?;
    if header[..4] != MAGIC {
        return Err(ServeError::bad_frame(format!(
            "bad magic {:02x}{:02x}{:02x}{:02x} (expected \"TRSV\")",
            header[0], header[1], header[2], header[3]
        )));
    }
    if header[4] != PROTOCOL_VERSION {
        return Err(ServeError::UnsupportedVersion { got: header[4], want: PROTOCOL_VERSION });
    }
    let kind = FrameKind::from_byte(header[5])
        .ok_or_else(|| ServeError::bad_frame(format!("unknown frame kind {}", header[5])))?;
    let len = u32::from_be_bytes([header[6], header[7], header[8], header[9]]);
    if len > MAX_FRAME_LEN {
        return Err(ServeError::bad_frame(format!(
            "declared body of {len} bytes exceeds the {MAX_FRAME_LEN}-byte limit"
        )));
    }
    let mut id_len = [0u8; 1];
    r.read_exact(&mut id_len).map_err(|e| ServeError::io(&e))?;
    let request_id = if id_len[0] == 0 {
        None
    } else {
        let mut id = vec![0u8; usize::from(id_len[0])];
        r.read_exact(&mut id).map_err(|e| ServeError::io(&e))?;
        Some(String::from_utf8(id).map_err(|_| ServeError::bad_frame("request id is not UTF-8"))?)
    };
    let mut body = vec![0u8; len as usize];
    r.read_exact(&mut body).map_err(|e| ServeError::io(&e))?;
    Ok(Frame { kind, request_id, body })
}

/// Encodes an error as an error-frame body: `code\nmessage`.
#[must_use]
pub fn encode_error(e: &ServeError) -> Vec<u8> {
    format!("{}\n{e}", e.code()).into_bytes()
}

/// Decodes an error-frame body back into [`ServeError::Remote`].
#[must_use]
pub fn decode_error(body: &[u8]) -> ServeError {
    let text = String::from_utf8_lossy(body);
    let (code, message) = text.split_once('\n').unwrap_or(("unknown", &*text));
    ServeError::Remote { code: code.to_string(), message: message.to_string() }
}

/// Encodes a success body: the content type, a newline, the artifact.
#[must_use]
pub fn encode_artifact(content_type: &str, body: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(content_type.len() + 1 + body.len());
    out.extend_from_slice(content_type.as_bytes());
    out.push(b'\n');
    out.extend_from_slice(body.as_bytes());
    out
}

/// Splits a success body back into `(content_type, artifact)`.
///
/// # Errors
///
/// [`ServeError::BadFrame`] when the body is not UTF-8 or lacks the
/// content-type line.
pub fn decode_artifact(body: &[u8]) -> Result<(String, String), ServeError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ServeError::bad_frame("response body is not UTF-8"))?;
    let (content_type, artifact) = text
        .split_once('\n')
        .ok_or_else(|| ServeError::bad_frame("response body lacks a content-type line"))?;
    Ok((content_type.to_string(), artifact.to_string()))
}

#[cfg(test)]
mod tests {
    use std::io;

    use super::*;

    #[test]
    fn v2_frames_carry_an_optional_request_id() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::OkHit, Some("req-00c0ffee-00000001"), b"text/plain\nx")
            .unwrap();
        assert_eq!(&wire[..4], b"TRSV");
        assert_eq!(wire[4], PROTOCOL_VERSION);
        assert_eq!(wire.len(), HEADER_LEN + 1 + 21 + 12);
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.kind, FrameKind::OkHit);
        assert_eq!(frame.request_id.as_deref(), Some("req-00c0ffee-00000001"));
        assert_eq!(frame.body, b"text/plain\nx");

        // id_len 0 means "no id", not an empty-string id: a request
        // costs one byte more than the ten-byte header and its body.
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::JobRequest, None, b"{}").unwrap();
        assert_eq!(wire.len(), HEADER_LEN + 1 + 2);
        let frame = read_frame(&mut wire.as_slice()).unwrap();
        assert_eq!(frame.request_id, None);
        assert_eq!(frame.body, b"{}");
    }

    /// A writer that counts `write` calls, and a reader that counts
    /// `read` calls over a fixed byte string.
    #[derive(Default)]
    struct Counting {
        bytes: Vec<u8>,
        at: usize,
        writes: usize,
        reads: usize,
    }

    impl Write for Counting {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    impl Read for Counting {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.reads += 1;
            let n = buf.len().min(self.bytes.len() - self.at);
            buf[..n].copy_from_slice(&self.bytes[self.at..self.at + n]);
            self.at += n;
            Ok(n)
        }
    }

    #[test]
    fn every_frame_leaves_in_one_write_and_arrives_in_one_read() {
        for (kind, id, body) in [
            (FrameKind::PingRequest, None, &b""[..]),
            (FrameKind::JobRequest, None, br#"{"schema": 1, "driver": "table3"}"#),
            (FrameKind::OkHit, Some("req-00c0ffee-00000002"), b"text/plain\nan artifact"),
            (FrameKind::Error, Some("req-00c0ffee-00000003"), b"bad-frame\nbad frame: x"),
        ] {
            let mut wire = Counting::default();
            write_frame(&mut wire, kind, id, body).unwrap();
            assert_eq!(wire.writes, 1, "{kind:?}: header, id block and body in one write");
            let frame = read_frame(&mut wire).unwrap();
            assert_eq!(wire.reads, 1, "{kind:?}: a small frame arrives in one read");
            assert_eq!(
                (frame.kind, frame.request_id.as_deref(), &frame.body[..]),
                (kind, id, body)
            );
        }
    }

    #[test]
    fn a_v1_frame_is_refused_from_its_header_alone() {
        // A version-1 ping is exactly ten bytes. A read past them would
        // hit end of input (an Io error), so the typed refusal proves
        // it came from the header alone, in one read.
        let mut v1_ping =
            Counting { bytes: b"TRSV\x01\x04\0\0\0\0".to_vec(), ..Counting::default() };
        let err = read_frame(&mut v1_ping).unwrap_err();
        assert_eq!(err, ServeError::UnsupportedVersion { got: 1, want: PROTOCOL_VERSION });
        assert_eq!(err.code(), "unsupported-version");
        assert_eq!(v1_ping.reads, 1);
    }

    #[test]
    fn oversized_and_malformed_request_ids_are_rejected() {
        let long = "x".repeat(256);
        let err =
            write_frame(&mut Vec::new(), FrameKind::PingRequest, Some(&long), b"").unwrap_err();
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err:?}");

        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::PingRequest, Some("ab"), b"").unwrap();
        wire[HEADER_LEN + 1] = 0xff; // corrupt the id into invalid UTF-8
        let err = read_frame(&mut wire.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err:?}");
    }

    #[test]
    fn every_kind_byte_round_trips() {
        for kind in [
            FrameKind::JobRequest,
            FrameKind::StatsRequest,
            FrameKind::ShutdownRequest,
            FrameKind::PingRequest,
            FrameKind::OkMiss,
            FrameKind::OkHit,
            FrameKind::Error,
        ] {
            assert_eq!(FrameKind::from_byte(kind.byte()), Some(kind));
        }
        assert_eq!(FrameKind::from_byte(0), None);
        assert_eq!(FrameKind::from_byte(255), None);
    }

    #[test]
    fn bad_magic_and_foreign_version_are_typed() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::PingRequest, None, b"").unwrap();

        let mut bad_magic = wire.clone();
        bad_magic[0] = b'X';
        let err = read_frame(&mut bad_magic.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err:?}");

        let mut bad_version = wire.clone();
        bad_version[4] = 9;
        let err = read_frame(&mut bad_version.as_slice()).unwrap_err();
        assert_eq!(err, ServeError::UnsupportedVersion { got: 9, want: PROTOCOL_VERSION });

        let mut bad_kind = wire;
        bad_kind[5] = 200;
        let err = read_frame(&mut bad_kind.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err:?}");
    }

    #[test]
    fn truncated_frames_and_hostile_lengths_are_rejected() {
        let mut wire = Vec::new();
        write_frame(&mut wire, FrameKind::OkMiss, None, b"abcdef").unwrap();
        let err = read_frame(&mut wire[..wire.len() - 2].as_ref()).unwrap_err();
        assert!(matches!(err, ServeError::Io { .. }), "{err:?}");

        // A frame truncated inside its id block is a clean Io error.
        let mut with_id = Vec::new();
        write_frame(&mut with_id, FrameKind::OkMiss, Some("req-00000000-00000001"), b"x").unwrap();
        let err = read_frame(&mut with_id[..HEADER_LEN + 3].as_ref()).unwrap_err();
        assert!(matches!(err, ServeError::Io { .. }), "{err:?}");

        // A header declaring a body far past the limit must be rejected
        // before any allocation.
        let mut hostile = wire[..HEADER_LEN].to_vec();
        hostile[6..].copy_from_slice(&u32::MAX.to_be_bytes());
        let err = read_frame(&mut hostile.as_slice()).unwrap_err();
        assert!(matches!(err, ServeError::BadFrame { .. }), "{err:?}");
    }

    #[test]
    fn error_and_artifact_bodies_round_trip() {
        let e = ServeError::QueueFull { depth: 2, capacity: 2 };
        let decoded = decode_error(&encode_error(&e));
        assert_eq!(
            decoded,
            ServeError::Remote {
                code: String::from("queue-full"),
                message: String::from("admission queue full: 2 waiting of capacity 2"),
            }
        );

        let body = encode_artifact("text/html", "<html>\nline two</html>");
        let (ct, artifact) = decode_artifact(&body).unwrap();
        assert_eq!(ct, "text/html");
        assert_eq!(artifact, "<html>\nline two</html>");
    }
}
