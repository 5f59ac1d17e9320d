//! A keep-alive HTTP/1.1 client over one `TcpStream`, just enough to
//! read what `lacnet-serve` writes: a status line, headers with a
//! `content-length`, and the body.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// How long a client waits for a response before counting it failed.
pub const READ_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
    pub body: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        stream.set_write_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::with_capacity(64 * 1024, stream),
            line: String::new(),
            body: Vec::new(),
        })
    }

    /// Send one request and read its response into `self.body`. Returns
    /// the status once the last body byte is read.
    pub fn request(&mut self, bytes: &[u8]) -> io::Result<u16> {
        self.writer.write_all(bytes)?;
        self.read_line()?;
        let status = self
            .line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("malformed status line"))?;
        let mut length: Option<usize> = None;
        loop {
            self.read_line()?;
            let line = self.line.trim_end();
            if line.is_empty() {
                break;
            }
            if let Some((name, value)) = line.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        self.body.resize(length, 0);
        self.reader.read_exact(&mut self.body)?;
        Ok(status)
    }

    fn read_line(&mut self) -> io::Result<()> {
        self.line.clear();
        if self.reader.read_line(&mut self.line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(())
    }
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_owned())
}

/// The wire form of a `GET` for `target`.
pub fn get(target: &str) -> Vec<u8> {
    format!("GET {target} HTTP/1.1\r\nhost: perfbench\r\n\r\n").into_bytes()
}
