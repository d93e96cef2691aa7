//! Blocking JSON-lines client for the daemon (used by the `farm` CLI in
//! `bfly-bench` and by the serve benchmark).

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
#[cfg(unix)]
use std::os::unix::net::UnixStream;

use crate::json::{self, Value};

enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

/// One connection to a farm daemon.
pub struct Client {
    reader: BufReader<Conn>,
}

impl std::io::Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

impl Client {
    /// Connect to `host:port`, or to a Unix socket with a `unix:` prefix
    /// (`unix:/run/farmd.sock`).
    pub fn connect(addr: &str) -> std::io::Result<Client> {
        let conn = if let Some(path) = addr.strip_prefix("unix:") {
            #[cfg(unix)]
            {
                Conn::Unix(UnixStream::connect(path)?)
            }
            #[cfg(not(unix))]
            {
                let _ = path;
                return Err(std::io::Error::other("unix sockets unsupported here"));
            }
        } else {
            let stream = TcpStream::connect(addr)?;
            // Requests and replies are small write pairs (line + '\n');
            // with Nagle on, the second write of each pair stalls behind
            // the peer's delayed ACK (~40 ms per turn on a long-lived
            // connection). Latency here is protocol turns, not bytes.
            stream.set_nodelay(true)?;
            Conn::Tcp(stream)
        };
        Ok(Client {
            reader: BufReader::new(conn),
        })
    }

    /// Connect to `host:port` with a bounded connect deadline, and apply
    /// the same bound to every subsequent read and write. The router's
    /// health checks and failover hinge on this: a dead shard must turn
    /// into a timely error, never a hung thread. TCP only (the router
    /// dials shards over TCP); `unix:` addresses fall back to
    /// [`Client::connect`] + [`Client::set_io_timeout`].
    pub fn connect_timeout(addr: &str, timeout: std::time::Duration) -> std::io::Result<Client> {
        if addr.starts_with("unix:") {
            let c = Client::connect(addr)?;
            c.set_io_timeout(Some(timeout))?;
            return Ok(c);
        }
        use std::net::ToSocketAddrs;
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("no address for `{addr}`")))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_nodelay(true)?;
        let c = Client {
            reader: BufReader::new(Conn::Tcp(stream)),
        };
        c.set_io_timeout(Some(timeout))?;
        Ok(c)
    }

    /// Bound every read and write on this connection (`None` = block
    /// forever). A timed-out request leaves the connection unusable —
    /// reconnect rather than reuse it.
    pub fn set_io_timeout(&self, timeout: Option<std::time::Duration>) -> std::io::Result<()> {
        match self.reader.get_ref() {
            Conn::Tcp(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
            #[cfg(unix)]
            Conn::Unix(s) => {
                s.set_read_timeout(timeout)?;
                s.set_write_timeout(timeout)
            }
        }
    }

    /// Send one request line, read and parse one response line.
    pub fn request_line(&mut self, line: &str) -> std::io::Result<Value> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        let w = self.reader.get_mut();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()?;
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::other("daemon closed the connection"));
        }
        json::parse(reply.trim())
            .map_err(|(at, msg)| std::io::Error::other(format!("bad response at byte {at}: {msg}")))
    }

    /// Send a [`Value`] request (canonically serialized).
    pub fn request(&mut self, v: &Value) -> std::io::Result<Value> {
        self.request_line(&v.dump())
    }

    /// One `wait` round: long-poll the daemon until every id is
    /// terminal or `timeout_ms` lapses (the reply's `complete` field
    /// says which).
    pub fn wait_jobs(&mut self, ids: &[u64], timeout_ms: u64) -> std::io::Result<Value> {
        let mut line = String::from("{\"op\":\"wait\",\"ids\":[");
        for (i, id) in ids.iter().enumerate() {
            if i > 0 {
                line.push(',');
            }
            let _ = std::fmt::Write::write_fmt(&mut line, format_args!("{id}"));
        }
        let _ =
            std::fmt::Write::write_fmt(&mut line, format_args!("],\"timeout_ms\":{timeout_ms}}}"));
        self.request_line(&line)
    }

    /// Block until `id` is terminal and return its status object, via
    /// the server-side `wait` verb (completion notification latency is a
    /// condvar wakeup, not a poll quantum). A status that is itself an
    /// error object (e.g. `no such job` after record eviction) is
    /// returned as-is for the caller to classify; only transport
    /// failures and refused waits are `Err`.
    pub fn await_terminal(&mut self, id: u64) -> std::io::Result<Value> {
        loop {
            let v = self.wait_jobs(&[id], 30_000)?;
            if v.get("ok").and_then(Value::as_bool) != Some(true) {
                let err = v.get("error").and_then(Value::as_str).unwrap_or("");
                return Err(std::io::Error::other(format!("wait failed: {err}")));
            }
            if v.get("complete").and_then(Value::as_bool) == Some(true) {
                return v
                    .get("results")
                    .and_then(Value::as_arr)
                    .and_then(|a| a.first())
                    .cloned()
                    .ok_or_else(|| std::io::Error::other("wait reply missing results"));
            }
            // The timeout lapsed mid-run: long-poll again.
        }
    }
}
