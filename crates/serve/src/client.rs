//! A minimal blocking HTTP/1.1 client for the serve wire protocol.
//!
//! Shared by the end-to-end tests, the `perf` bench's `serve` row and
//! the `serve_client` example — everything that talks to the server
//! in-process does it through this one code path, so parity checks
//! exercise the same bytes a real client would see.

use crate::http::decode_chunked;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A fully-read HTTP response.
#[derive(Debug)]
pub struct HttpResponse {
    /// The status code from the status line.
    pub status: u16,
    /// Lowercased header name/value pairs, in wire order.
    pub headers: Vec<(String, String)>,
    /// The body, chunked transfer coding already decoded.
    pub body: String,
}

impl HttpResponse {
    /// Case-insensitive header lookup (last occurrence wins).
    pub fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// The body split into NDJSON records (non-empty lines).
    pub fn ndjson_lines(&self) -> Vec<&str> {
        self.body.lines().filter(|l| !l.is_empty()).collect()
    }
}

/// Issues one request on a fresh connection and reads the response to
/// completion. `Connection: close` semantics — one request per socket,
/// matching the server.
///
/// # Errors
///
/// I/O failures, or a response that is not parseable HTTP/1.1.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: Option<&str>,
) -> std::io::Result<HttpResponse> {
    let stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_write_timeout(Some(Duration::from_secs(10)))?;
    let mut writer = stream.try_clone()?;

    let body = body.unwrap_or("");
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: qassert-serve\r\n");
    for (name, value) in headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str(&format!(
        "content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    ));
    writer.write_all(head.as_bytes())?;
    writer.write_all(body.as_bytes())?;
    writer.flush()?;

    read_response(&stream)
}

/// Submits a job body to `POST /v1/jobs` under an API token.
///
/// # Errors
///
/// Propagates [`request`] failures.
pub fn post_job(addr: SocketAddr, token: &str, body: &str) -> std::io::Result<HttpResponse> {
    request(
        addr,
        "POST",
        "/v1/jobs",
        &[("x-api-token", token), ("content-type", "application/json")],
        Some(body),
    )
}

/// Fetches a GET endpoint (`/healthz`, `/metrics`).
///
/// # Errors
///
/// Propagates [`request`] failures.
pub fn get(addr: SocketAddr, path: &str) -> std::io::Result<HttpResponse> {
    request(addr, "GET", path, &[], None)
}

fn bad(reason: impl Into<String>) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, reason.into())
}

fn read_response(stream: &TcpStream) -> std::io::Result<HttpResponse> {
    let mut reader = BufReader::new(stream);

    let mut status_line = String::new();
    reader.read_line(&mut status_line)?;
    let mut parts = status_line.trim_end().splitn(3, ' ');
    let version = parts.next().unwrap_or("");
    if !version.starts_with("HTTP/1.") {
        return Err(bad(format!("not an HTTP/1.x status line: {status_line:?}")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("missing status code"))?;

    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line)?;
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some((name, value)) = line.split_once(':') {
            headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
        }
    }

    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v.eq_ignore_ascii_case("chunked"));
    let body_bytes = if chunked {
        decode_chunked(&mut reader)?
    } else {
        let length: usize = headers
            .iter()
            .rev()
            .find(|(k, _)| k == "content-length")
            .and_then(|(_, v)| v.parse().ok())
            .ok_or_else(|| bad("response has neither chunked coding nor content-length"))?;
        let mut body = vec![0u8; length];
        reader.read_exact(&mut body)?;
        body
    };
    let body = String::from_utf8(body_bytes).map_err(|_| bad("response body is not UTF-8"))?;

    Ok(HttpResponse {
        status,
        headers,
        body,
    })
}
