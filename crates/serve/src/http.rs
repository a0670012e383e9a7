//! A hand-rolled HTTP/1.1 subset over `std::net`.
//!
//! The container has no tokio (or any crates registry at all), so this
//! is the same std-only style as the workspace's other shims: blocking
//! sockets with read timeouts, a request parser covering exactly what
//! the service needs (request line, headers, `Content-Length` bodies),
//! and response writers for fixed bodies and `chunked` NDJSON record
//! lists. Each writer frames the whole response into one buffer and
//! sends it with a single `write_all`: a job's records are complete
//! before its status line is known, so there is nothing to stream
//! early, and one write costs one syscall where per-record writes cost
//! several per record.
//!
//! Not supported, deliberately: request pipelining (each connection
//! serves one request — the server answers `Connection: close`),
//! `Transfer-Encoding` on *requests*, multi-line headers, and TLS
//! (terminate it in front).

use std::fmt::Write as _;
use std::io::{BufRead, BufReader, Read, Take, Write};
use std::net::TcpStream;
use std::time::Duration;

/// How long a connection may sit idle mid-request before the read
/// fails: slow-loris protection for the blocking worker threads.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

/// Bound on the request head (request line plus headers) in bytes.
/// `read_line` grows its buffer until a newline arrives, so without it
/// a client streaming newline-free bytes could grow server memory
/// without limit.
pub const MAX_HEAD_BYTES: u64 = 16 * 1024;

/// A parsed HTTP request.
#[derive(Debug)]
pub struct Request {
    /// Uppercase method token as sent (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, query string stripped.
    pub path: String,
    /// Header names lowercased; last occurrence wins.
    headers: Vec<(String, String)>,
    /// The body, when `Content-Length` announced one.
    pub body: Vec<u8>,
}

impl Request {
    /// Header `name` (ASCII case-insensitive), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum RequestError {
    /// The peer closed before sending a complete request.
    Closed,
    /// The request was syntactically invalid or its head exceeded
    /// [`MAX_HEAD_BYTES`] (maps to 400).
    Malformed(String),
    /// The announced body exceeds the server's limit (maps to 413).
    BodyTooLarge {
        /// Announced `Content-Length`.
        announced: usize,
        /// The configured cap.
        limit: usize,
    },
    /// The socket failed mid-read (timeout included).
    Io(std::io::Error),
}

/// Reads one request from `stream`, capping bodies at `max_body`.
///
/// # Errors
///
/// See [`RequestError`]; `Malformed` and `BodyTooLarge` should be
/// answered with 400/413 before closing.
pub fn read_request(stream: &TcpStream, max_body: usize) -> Result<Request, RequestError> {
    stream
        .set_read_timeout(Some(READ_TIMEOUT))
        .map_err(RequestError::Io)?;
    let mut reader = BufReader::new(stream).take(MAX_HEAD_BYTES);

    let mut line = String::new();
    if !read_head_line(&mut reader, &mut line)? {
        return Err(RequestError::Closed);
    }
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("empty request line".into()))?
        .to_string();
    let target = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no target".into()))?;
    let version = parts
        .next()
        .ok_or_else(|| RequestError::Malformed("request line has no version".into()))?;
    if !version.starts_with("HTTP/1.") {
        return Err(RequestError::Malformed(format!(
            "unsupported version '{version}'"
        )));
    }
    let path = target.split('?').next().unwrap_or(target).to_string();

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        if !read_head_line(&mut reader, &mut line)? {
            return Err(RequestError::Malformed("truncated headers".into()));
        }
        let line = line.trim_end_matches(['\r', '\n']);
        if line.is_empty() {
            break;
        }
        if headers.len() >= 128 {
            return Err(RequestError::Malformed("too many headers".into()));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| RequestError::Malformed(format!("header without ':': '{line}'")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }

    let content_length = headers
        .iter()
        .rev()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| {
            v.parse::<usize>()
                .map_err(|_| RequestError::Malformed(format!("bad content-length '{v}'")))
        })
        .transpose()?
        .unwrap_or(0);
    if content_length > max_body {
        return Err(RequestError::BodyTooLarge {
            announced: content_length,
            limit: max_body,
        });
    }
    let mut body = vec![0u8; content_length];
    reader
        .into_inner()
        .read_exact(&mut body)
        .map_err(RequestError::Io)?;

    Ok(Request {
        method,
        path,
        headers,
        body,
    })
}

/// Appends one head line to `line`; `Ok(false)` at end of stream.
///
/// # Errors
///
/// `Malformed` once the line would run past [`MAX_HEAD_BYTES`] of head,
/// `Io` on socket failure.
fn read_head_line(
    reader: &mut Take<BufReader<&TcpStream>>,
    line: &mut String,
) -> Result<bool, RequestError> {
    let read = reader.read_line(line).map_err(RequestError::Io)?;
    if reader.limit() == 0 && !line.ends_with('\n') {
        return Err(RequestError::Malformed(format!(
            "request head exceeds {MAX_HEAD_BYTES} bytes"
        )));
    }
    Ok(read > 0)
}

/// The reason phrase for the status codes this service emits.
fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        _ => "Internal Server Error",
    }
}

/// Writes a complete response with a fixed body and closes the
/// exchange (`Connection: close`), head and body in one write. Write
/// errors are returned so the caller can log them; the peer may
/// legitimately have gone away.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
) -> std::io::Result<()> {
    let mut response = format!(
        "HTTP/1.1 {status} {}\r\ncontent-type: {content_type}\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        reason(status),
        body.len(),
    )
    .into_bytes();
    response.extend_from_slice(body);
    stream.write_all(&response)
}

/// Writes a complete 200 `application/x-ndjson` response carrying
/// `records` with `Transfer-Encoding: chunked`: one chunk per record
/// (the record plus its newline), then the zero-length terminator. The
/// head and every chunk are framed into one buffer and sent with a
/// single `write_all`.
///
/// # Errors
///
/// Propagates socket write failures (the client hung up).
pub fn write_ndjson(stream: &mut TcpStream, records: &[String]) -> std::io::Result<()> {
    let mut response = String::from(
        "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\n\
         transfer-encoding: chunked\r\nconnection: close\r\n\r\n",
    );
    for record in records {
        let _ = write!(response, "{:x}\r\n{record}\n\r\n", record.len() + 1);
    }
    response.push_str("0\r\n\r\n");
    stream.write_all(response.as_bytes())
}

/// Reads `reader` to end-of-stream and decodes a chunked body into the
/// raw payload bytes. Used by the loopback client; tolerates (ignores)
/// trailers.
///
/// # Errors
///
/// Fails on syntactically invalid chunk framing or socket errors.
pub fn decode_chunked(reader: &mut impl BufRead) -> std::io::Result<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let mut size_line = String::new();
        if reader.read_line(&mut size_line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "eof before terminating chunk",
            ));
        }
        let size_text = size_line.trim().split(';').next().unwrap_or("").trim();
        let size = usize::from_str_radix(size_text, 16).map_err(|_| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bad chunk size '{size_text}'"),
            )
        })?;
        if size == 0 {
            // Consume the (possibly empty) trailer section.
            loop {
                let mut trailer = String::new();
                if reader.read_line(&mut trailer)? == 0 || trailer.trim().is_empty() {
                    return Ok(out);
                }
            }
        }
        let mut chunk = vec![0u8; size];
        reader.read_exact(&mut chunk)?;
        out.extend_from_slice(&chunk);
        let mut crlf = [0u8; 2];
        reader.read_exact(&mut crlf)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `client` against a socket pair, returning what the other
    /// end received after `server` wrote to it.
    fn pipe(server: impl FnOnce(&mut TcpStream) + Send + 'static) -> Vec<u8> {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let writer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            server(&mut stream);
        });
        let mut client = TcpStream::connect(addr).expect("connect");
        let mut received = Vec::new();
        client.read_to_end(&mut received).expect("read");
        writer.join().expect("server thread");
        received
    }

    #[test]
    fn request_round_trips_through_a_socket() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            stream
                .write_all(
                    b"POST /v1/jobs?debug=1 HTTP/1.1\r\nHost: x\r\nX-Api-Token: alice\r\n\
                      Content-Length: 4\r\n\r\nbody",
                )
                .expect("write");
        });
        let (stream, _) = listener.accept().expect("accept");
        let request = read_request(&stream, 1024).expect("parse");
        client.join().expect("client thread");
        assert_eq!(request.method, "POST");
        assert_eq!(request.path, "/v1/jobs", "query string is stripped");
        assert_eq!(request.header("x-api-token"), Some("alice"));
        assert_eq!(request.header("X-API-TOKEN"), Some("alice"));
        assert_eq!(request.body, b"body");
    }

    #[test]
    fn oversized_bodies_are_rejected_before_reading() {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let client = std::thread::spawn(move || {
            let mut stream = TcpStream::connect(addr).expect("connect");
            // The body itself is never sent: the cap must trip on the
            // announced length alone.
            stream
                .write_all(b"POST / HTTP/1.1\r\nContent-Length: 99999\r\n\r\n")
                .expect("write");
        });
        let (stream, _) = listener.accept().expect("accept");
        let err = read_request(&stream, 1024).unwrap_err();
        client.join().expect("client thread");
        match err {
            RequestError::BodyTooLarge { announced, limit } => {
                assert_eq!(announced, 99999);
                assert_eq!(limit, 1024);
            }
            other => panic!("expected BodyTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn malformed_requests_are_typed_errors() {
        let padded = "a".repeat(MAX_HEAD_BYTES as usize / 2);
        let long_head = format!("GET / HTTP/1.1\r\nx-a: {padded}\r\nx-b: {padded}\r\n\r\n");
        for (raw, what) in [
            (b"GARBAGE\r\n\r\n".to_vec(), "no target"),
            (b"GET / SPDY/3\r\n\r\n".to_vec(), "bad version"),
            (
                b"GET / HTTP/1.1\r\nno-colon-here\r\n\r\n".to_vec(),
                "bad header",
            ),
            (long_head.into_bytes(), "head past the bound"),
        ] {
            let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
            let addr = listener.local_addr().expect("addr");
            let client = std::thread::spawn(move || {
                let mut stream = TcpStream::connect(addr).expect("connect");
                stream.write_all(&raw).expect("write");
            });
            let (stream, _) = listener.accept().expect("accept");
            let err = read_request(&stream, 1024).unwrap_err();
            client.join().expect("client thread");
            assert!(
                matches!(err, RequestError::Malformed(_)),
                "{what}: expected Malformed, got {err:?}"
            );
        }
    }

    #[test]
    fn fixed_response_has_content_length_framing() {
        let received = pipe(|stream| {
            write_response(stream, 429, "application/json", b"{\"x\":1}").expect("write");
        });
        let text = String::from_utf8(received).expect("utf-8");
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("content-length: 7\r\n"));
        assert!(text.ends_with("{\"x\":1}"));
    }

    #[test]
    fn chunked_stream_decodes_to_the_records() {
        let received = pipe(|stream| {
            let records = ["{\"a\":1}".to_string(), "{\"b\":2}".to_string()];
            write_ndjson(stream, &records).expect("write");
        });
        let text = String::from_utf8(received).expect("utf-8");
        assert_eq!(
            text,
            "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\n\
             transfer-encoding: chunked\r\nconnection: close\r\n\r\n\
             8\r\n{\"a\":1}\n\r\n8\r\n{\"b\":2}\n\r\n0\r\n\r\n",
            "the exact chunk framing is part of the wire protocol"
        );
        let body_start = text.find("\r\n\r\n").expect("head end") + 4;
        let mut body = std::io::BufReader::new(&text.as_bytes()[body_start..]);
        let decoded = decode_chunked(&mut body).expect("decode");
        assert_eq!(
            String::from_utf8(decoded).expect("utf-8"),
            "{\"a\":1}\n{\"b\":2}\n"
        );
    }
}
