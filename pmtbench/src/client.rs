//! A blocking HTTP/1.1 caller for the daemon: one request per
//! connection, as the daemon serves them, timed from connect to the
//! last byte of the reply.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

pub struct Reply {
    pub status: u16,
    pub body: String,
    pub latency: Duration,
}

/// The full request bytes the benchmark sends (and replays in process).
pub fn request_bytes(method: &str, target: &str, body: &str) -> Vec<u8> {
    let mut raw = format!(
        "{method} {target} HTTP/1.1\r\nhost: pmtbench\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    raw.extend_from_slice(body.as_bytes());
    raw
}

/// Send one request and read the whole reply. Transport errors and
/// malformed replies are `Err`; any HTTP status is `Ok`.
pub fn call(addr: SocketAddr, method: &str, target: &str, body: &str) -> Result<Reply, String> {
    let raw = request_bytes(method, target, body);
    let started = Instant::now();
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect: {e}"))?;
    stream
        .set_nodelay(true)
        .map_err(|e| format!("nodelay: {e}"))?;
    stream.write_all(&raw).map_err(|e| format!("send: {e}"))?;
    let mut reply = Vec::new();
    stream
        .read_to_end(&mut reply)
        .map_err(|e| format!("receive: {e}"))?;
    let latency = started.elapsed();
    let reply = String::from_utf8(reply).map_err(|_| "reply is not UTF-8".to_string())?;
    let (head, body) = reply
        .split_once("\r\n\r\n")
        .ok_or_else(|| "reply has no header terminator".to_string())?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse::<u16>().ok())
        .ok_or_else(|| format!("bad status line in `{}`", head.lines().next().unwrap_or("")))?;
    Ok(Reply {
        status,
        body: body.to_string(),
        latency,
    })
}
