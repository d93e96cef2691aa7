//! Raw JSON-lines connection to one shard.
//!
//! Differs from `bfly_farmd::Client` in exactly one way: replies come
//! back as the **raw line**, not a parsed `Value`. The router forwards
//! result bytes verbatim between shard and client (and between shards,
//! for replication), and the cluster's bit-identity contract makes that
//! mandatory — a parse/re-dump round trip is where byte drift would
//! creep in. Every connection is deadline-bounded: a dead shard must
//! become a timely `Err`, never a hung dispatcher.

use std::io::{BufRead, BufReader, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// One deadline-bounded TCP connection to a farmd shard.
pub struct ShardConn {
    reader: BufReader<TcpStream>,
}

impl ShardConn {
    /// Connect to `host:port` within `timeout`, and bound every
    /// subsequent read/write by the same `timeout`.
    pub fn connect(addr: &str, timeout: Duration) -> std::io::Result<ShardConn> {
        let sock = addr
            .to_socket_addrs()?
            .next()
            .ok_or_else(|| std::io::Error::other(format!("no address for `{addr}`")))?;
        let stream = TcpStream::connect_timeout(&sock, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        Ok(ShardConn {
            reader: BufReader::new(stream),
        })
    }

    /// Rebound the per-operation deadline (e.g. a long-running batch
    /// needs more than the connect timeout).
    pub fn set_io_timeout(&self, timeout: Duration) -> std::io::Result<()> {
        let s = self.reader.get_ref();
        s.set_read_timeout(Some(timeout))?;
        s.set_write_timeout(Some(timeout))
    }

    /// Send one request line; return the raw (trimmed) reply line.
    pub fn request_raw(&mut self, line: &str) -> std::io::Result<String> {
        self.send_raw(line)?;
        self.recv_raw()
    }

    /// Send one request line without waiting for the reply. Pairs with
    /// [`ShardConn::recv_raw`] for pipelined dispatch: N sends, then N
    /// receives in order (the shard answers a connection's requests
    /// strictly FIFO).
    pub fn send_raw(&mut self, line: &str) -> std::io::Result<()> {
        debug_assert!(!line.contains('\n'), "requests are single lines");
        let w = self.reader.get_mut();
        w.write_all(line.as_bytes())?;
        w.write_all(b"\n")?;
        w.flush()
    }

    /// Send a pre-framed run of newline-terminated request lines in one
    /// write. The pipelined group path frames a whole bucket up front so
    /// a dispatcher sweep costs one syscall, not one per job.
    pub fn send_all(&mut self, framed: &str) -> std::io::Result<()> {
        debug_assert!(framed.ends_with('\n'), "lines are newline-framed");
        let w = self.reader.get_mut();
        w.write_all(framed.as_bytes())?;
        w.flush()
    }

    /// Read one raw (trimmed) reply line.
    pub fn recv_raw(&mut self) -> std::io::Result<String> {
        let mut reply = String::new();
        let n = self.reader.read_line(&mut reply)?;
        if n == 0 {
            return Err(std::io::Error::other("shard closed the connection"));
        }
        reply.truncate(reply.trim_end().len());
        Ok(reply)
    }
}
