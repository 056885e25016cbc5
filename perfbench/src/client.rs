//! A minimal keep-alive HTTP/1.1 client: one request, one framed response.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
}

/// One exchange: the response's status and body, and the bytes each way.
pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
    pub sent_bytes: usize,
    pub wire_bytes: usize,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self {
            stream,
            buf: Vec::with_capacity(1 << 16),
        })
    }

    pub fn get(&mut self, target: &str) -> io::Result<Reply> {
        let req = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n\r\n");
        self.stream.write_all(req.as_bytes())?;
        self.read_reply(req.len())
    }

    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<Reply> {
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n",
            body.len()
        );
        let mut req = Vec::with_capacity(head.len() + body.len());
        req.extend_from_slice(head.as_bytes());
        req.extend_from_slice(body);
        self.stream.write_all(&req)?;
        self.read_reply(req.len())
    }

    fn fill(&mut self) -> io::Result<()> {
        let old = self.buf.len();
        self.buf.resize(old + (1 << 16), 0);
        let n = self.stream.read(&mut self.buf[old..])?;
        self.buf.truncate(old + n);
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed",
            ));
        }
        Ok(())
    }

    fn read_reply(&mut self, sent_bytes: usize) -> io::Result<Reply> {
        let head_end = loop {
            if let Some(p) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p + 4;
            }
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[..head_end])
            .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad status line"))?;
        let len: usize = head
            .lines()
            .find_map(|l| {
                let (name, value) = l.split_once(':')?;
                name.trim()
                    .eq_ignore_ascii_case("content-length")
                    .then(|| value.trim().parse().ok())?
            })
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no Content-Length"))?;
        while self.buf.len() < head_end + len {
            self.fill()?;
        }
        let body = self.buf[head_end..head_end + len].to_vec();
        self.buf.drain(..head_end + len);
        Ok(Reply {
            status,
            body,
            sent_bytes,
            wire_bytes: head_end + len,
        })
    }
}
