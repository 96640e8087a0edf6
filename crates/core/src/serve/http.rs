//! A deliberately tiny HTTP/1.1 subset over `std::net`.
//!
//! The serve layer speaks just enough HTTP for `curl`, CI scripts and
//! the bundled client: one request per connection (`Connection:
//! close`), `Content-Length` bodies, no chunked encoding, no keep-
//! alive, no TLS. Both head and body are size-capped so a confused or
//! hostile peer cannot balloon server memory.

use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;

/// Upper bound on the request line + headers.
const MAX_HEAD: usize = 16 * 1024;
/// Upper bound on a request body (a spec is a few hundred bytes).
const MAX_BODY: usize = 1024 * 1024;

/// One parsed request: method, path, raw body.
pub struct Request {
    /// The HTTP method, uppercase as received.
    pub method: String,
    /// The request path, query string included verbatim.
    pub path: String,
    /// The raw body (exactly `Content-Length` bytes).
    pub body: Vec<u8>,
}

/// Why [`read_request`] produced no request.
#[derive(Debug)]
pub enum ReadError {
    /// The peer stalled past the stream's read timeout.
    TimedOut,
    /// The request was malformed, oversized or cut off.
    Malformed(String),
}

impl From<String> for ReadError {
    fn from(detail: String) -> Self {
        ReadError::Malformed(detail)
    }
}

/// One `read` call, with an expired read timeout (`WouldBlock` on Unix,
/// `TimedOut` on Windows) told apart from every other failure.
fn read_some(stream: &mut TcpStream, chunk: &mut [u8], what: &str) -> Result<usize, ReadError> {
    stream.read(chunk).map_err(|e| match e.kind() {
        ErrorKind::WouldBlock | ErrorKind::TimedOut => ReadError::TimedOut,
        _ => ReadError::Malformed(format!("{what}: {e}")),
    })
}

/// Finds the end of the head (`\r\n\r\n`), returning the offset of the
/// terminator start.
fn head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Reads one request off the stream. Blocking; the caller owns
/// timeouts via `TcpStream::set_read_timeout`, and an expired one
/// surfaces as [`ReadError::TimedOut`].
pub fn read_request(stream: &mut TcpStream) -> Result<Request, ReadError> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 4096];
    let head_len = loop {
        if let Some(pos) = head_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD {
            return Err(ReadError::Malformed("request head too large".into()));
        }
        let n = read_some(stream, &mut chunk, "read request")?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-request".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_len])
        .map_err(|_| "request head is not UTF-8".to_string())?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| "empty request line".to_string())?
        .to_string();
    let path = parts
        .next()
        .ok_or_else(|| "request line has no path".to_string())?
        .to_string();
    let mut content_length = 0usize;
    for line in lines {
        if let Some((name, value)) = line.split_once(':') {
            if name.trim().eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| "unparsable Content-Length".to_string())?;
            }
        }
    }
    if content_length > MAX_BODY {
        return Err(format!("request body too large ({content_length} bytes)").into());
    }
    let mut body = buf[head_len + 4..].to_vec();
    while body.len() < content_length {
        let n = read_some(stream, &mut chunk, "read body")?;
        if n == 0 {
            return Err(ReadError::Malformed("connection closed mid-body".into()));
        }
        body.extend_from_slice(&chunk[..n]);
    }
    body.truncate(content_length);
    Ok(Request { method, path, body })
}

/// Writes one complete response and flushes. Every response carries
/// `Connection: close` and an exact `Content-Length`, so clients can
/// either count bytes or read to EOF.
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    reason: &str,
    content_type: &str,
    extra_headers: &[(&str, String)],
    body: &[u8],
) -> std::io::Result<()> {
    let mut head = format!(
        "HTTP/1.1 {status} {reason}\r\nConnection: close\r\n\
         Content-Type: {content_type}\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(name);
        head.push_str(": ");
        head.push_str(value);
        head.push_str("\r\n");
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Lowercase hex of arbitrary bytes (the wire form of encoded
/// metrics — JSON-safe without escaping).
pub fn to_hex(bytes: &[u8]) -> String {
    let mut out = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        out.push(char::from_digit(u32::from(b >> 4), 16).expect("nibble"));
        out.push(char::from_digit(u32::from(b & 0xf), 16).expect("nibble"));
    }
    out
}

/// Inverse of [`to_hex`]. Rejects odd lengths and non-hex digits.
pub fn from_hex(text: &str) -> Result<Vec<u8>, String> {
    if !text.len().is_multiple_of(2) {
        return Err("hex string has odd length".into());
    }
    let digits = text.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char)
            .to_digit(16)
            .ok_or_else(|| "invalid hex digit".to_string())?;
        let lo = (pair[1] as char)
            .to_digit(16)
            .ok_or_else(|| "invalid hex digit".to_string())?;
        out.push(((hi << 4) | lo) as u8);
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_round_trips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_err(), "odd length");
        assert!(from_hex("zz").is_err(), "non-hex");
        assert_eq!(to_hex(&[0x0f, 0xa0]), "0fa0");
    }

    #[test]
    fn head_end_finds_the_terminator() {
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n\r\nbody"), Some(14));
        assert_eq!(head_end(b"GET / HTTP/1.1\r\n"), None);
    }
}
