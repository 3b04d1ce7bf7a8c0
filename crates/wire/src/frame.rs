//! Length-prefixed framing for the service protocol.
//!
//! Every request and response is a big-endian `u32` body length
//! followed by the body, and bodies are capped at [`MAX_FRAME`]. The
//! cap is enforced in *both* directions: the frame reader rejects an
//! oversized length before allocating, and the frame writer refuses to
//! emit a body the peer would reject — an oversized message is a loud
//! sender-side error (`try_encode` / `write_to` on the message types),
//! not an opaque connection drop at the receiver.
//!
//! Reads are also careful about *where* a socket read timeout lands.
//! Serve loops install short read timeouts so they can poll a stop flag
//! on idle connections; a timeout with **zero** bytes consumed is that
//! idle poll and surfaces as a retryable `WouldBlock`/`TimedOut` error
//! ([`is_timeout`]).
//! A timeout **after part of a frame** was consumed is different: the
//! stream can never be resynchronized (the next read would interpret
//! frame middles as lengths), so it surfaces as a fatal
//! [`std::io::ErrorKind::InvalidData`] error and the connection must be
//! dropped.

use bytes::{BufMut, Bytes, BytesMut};

/// Frame body cap for requests and responses alike (16 MiB).
pub const MAX_FRAME: usize = 16 << 20;

/// Prefix `body` with its `u32` length, refusing bodies over
/// [`MAX_FRAME`].
pub(crate) fn write_frame(body: BytesMut) -> Result<Bytes, String> {
    if body.len() > MAX_FRAME {
        return Err(format!(
            "frame body is {} bytes, over the {} byte protocol cap",
            body.len(),
            MAX_FRAME
        ));
    }
    let mut framed = BytesMut::with_capacity(4 + body.len());
    framed.put_u32(body.len() as u32);
    framed.extend_from_slice(&body);
    Ok(framed.freeze())
}

/// True when `e` is a socket read timeout (platforms disagree on the
/// kind). Serve loops retry exactly these: the frame readers return
/// them only when no byte of a frame was consumed.
pub fn is_timeout(e: &std::io::Error) -> bool {
    matches!(e.kind(), std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut)
}

/// A read timeout after part of a frame was already consumed: the
/// stream is desynchronized beyond repair, so this is fatal (and
/// deliberately *not* [`is_timeout`]) — serve loops that `continue` on
/// idle timeouts drop the connection instead.
fn mid_frame_timeout() -> std::io::Error {
    std::io::Error::new(
        std::io::ErrorKind::InvalidData,
        "read timed out mid-frame; stream desynchronized",
    )
}

/// Fill `buf`, distinguishing idle timeouts from mid-frame stalls: a
/// timeout with nothing consumed passes through as-is (retryable), a
/// timeout after the first byte becomes [`mid_frame_timeout`].
fn read_exact_framed<R: std::io::Read>(
    r: &mut R,
    buf: &mut [u8],
    mut consumed: bool,
) -> std::io::Result<()> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::UnexpectedEof,
                    if consumed { "peer closed mid-frame" } else { "peer closed" },
                ))
            }
            Ok(n) => {
                filled += n;
                consumed = true;
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) if is_timeout(&e) && !consumed => return Err(e),
            Err(e) if is_timeout(&e) => return Err(mid_frame_timeout()),
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Read one length-prefixed frame body. An idle timeout (no bytes
/// consumed) is retryable; a timeout anywhere after that is fatal, as
/// is a length over [`MAX_FRAME`].
pub(crate) fn read_frame<R: std::io::Read>(r: &mut R, what: &str) -> std::io::Result<Vec<u8>> {
    let mut len = [0u8; 4];
    read_exact_framed(r, &mut len, false)?;
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("oversized {what} frame: {len} bytes"),
        ));
    }
    let mut body = vec![0u8; len];
    read_exact_framed(r, &mut body, true)?;
    Ok(body)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reader that yields scripted chunks, then times out forever.
    struct Stalling {
        chunks: std::collections::VecDeque<Vec<u8>>,
    }

    impl Stalling {
        fn new(chunks: &[&[u8]]) -> Stalling {
            Stalling { chunks: chunks.iter().map(|c| c.to_vec()).collect() }
        }
    }

    impl std::io::Read for Stalling {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.chunks.pop_front() {
                Some(chunk) => {
                    assert!(buf.len() >= chunk.len(), "test chunks fit the request");
                    buf[..chunk.len()].copy_from_slice(&chunk);
                    Ok(chunk.len())
                }
                None => Err(std::io::Error::new(std::io::ErrorKind::WouldBlock, "idle")),
            }
        }
    }

    #[test]
    fn idle_timeout_is_retryable() {
        let err = read_frame(&mut Stalling::new(&[]), "test").unwrap_err();
        assert!(is_timeout(&err), "{err:?}");
    }

    #[test]
    fn timeout_mid_length_is_fatal() {
        // Two of the four length bytes arrive, then silence.
        let err = read_frame(&mut Stalling::new(&[&[0, 0]]), "test").unwrap_err();
        assert!(!is_timeout(&err), "desynced stream must not look idle: {err:?}");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn timeout_mid_body_is_fatal() {
        // A full length header promising 8 bytes, then a stalled body.
        let err = read_frame(&mut Stalling::new(&[&[0, 0, 0, 8], &[1, 2, 3]]), "test").unwrap_err();
        assert!(!is_timeout(&err), "{err:?}");
    }

    #[test]
    fn whole_frames_still_read() {
        let body = read_frame(&mut Stalling::new(&[&[0, 0, 0, 3], &[7, 8, 9]]), "test").unwrap();
        assert_eq!(body, vec![7, 8, 9]);
    }

    #[test]
    fn oversized_length_is_rejected_before_allocating() {
        let err = read_frame(&mut Stalling::new(&[&u32::MAX.to_be_bytes()]), "test").unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
    }

    #[test]
    fn write_frame_enforces_the_cap() {
        let mut body = BytesMut::new();
        body.resize(MAX_FRAME, 0);
        assert!(write_frame(body).is_ok(), "exactly at the cap is legal");
        let mut over = BytesMut::new();
        over.resize(MAX_FRAME + 1, 0);
        assert!(write_frame(over).unwrap_err().contains("protocol cap"));
    }
}
