//! The served side: a `trisc serve` subprocess, NDJSON connections to it,
//! and its `/proc` counters.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::Duration;

use rtserver::json::Json;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, 100 on
/// every Linux target).
const TICKS_PER_SEC: f64 = 100.0;

/// Replies slower than this count as transport failures.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running `trisc serve --port 0` with its default flags.
pub struct Server {
    child: Child,
    addr: SocketAddr,
    _stdout: BufReader<ChildStdout>,
}

impl Server {
    /// Spawns the daemon and waits for its listening banner.
    ///
    /// # Errors
    ///
    /// Fails if the binary cannot start or never reports its address.
    pub fn spawn(trisc: &Path) -> io::Result<Server> {
        let mut child = Command::new(trisc)
            .args(["serve", "--port", "0"])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut banner = String::new();
        stdout.read_line(&mut banner)?;
        let addr = banner
            .strip_prefix("rtserver listening on ")
            .and_then(|rest| rest.split_whitespace().next())
            .and_then(|a| a.parse().ok());
        match addr {
            Some(addr) => Ok(Server { child, addr, _stdout: stdout }),
            None => {
                let _ = child.kill();
                let _ = child.wait();
                Err(io::Error::other(format!("unexpected serve banner {banner:?}")))
            }
        }
    }

    /// Opens a connection.
    ///
    /// # Errors
    ///
    /// Propagates connect failures.
    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn { reader: BufReader::new(stream.try_clone()?), writer: stream })
    }

    /// The server's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU time the server process has used, milliseconds.
    ///
    /// # Errors
    ///
    /// Fails if `/proc/<pid>/stat` is unreadable.
    pub fn cpu_ms(&self) -> io::Result<f64> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))?;
        // Fields after the parenthesised command name; utime and stime are
        // fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| fields.get(i).and_then(|f| f.parse::<u64>().ok()).unwrap_or(0);
        Ok((ticks(11) + ticks(12)) as f64 * 1e3 / TICKS_PER_SEC)
    }

    /// Peak resident set size (`VmHWM`), MiB.
    ///
    /// # Errors
    ///
    /// Fails if `/proc/<pid>/status` is unreadable or lacks the field.
    pub fn peak_rss_mb(&self) -> io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }

    /// Asks the server to drain and exit, then reaps it.
    ///
    /// # Errors
    ///
    /// Fails if the shutdown request or the wait fails.
    pub fn shutdown(mut self) -> io::Result<()> {
        let mut conn = self.connect()?;
        conn.call(r#"{"cmd":"shutdown"}"#)?;
        drop(conn);
        let status = self.child.wait()?;
        if status.success() {
            Ok(())
        } else {
            Err(io::Error::other(format!("trisc serve exited with {status}")))
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Reached with the child still running only on an error path.
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One NDJSON connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Sends one request line and reads its reply frames up to the final
    /// one: a frame is final unless it is an explore `points` frame.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors, a timeout, or a closed connection.
    pub fn call(&mut self, line: &str) -> io::Result<Vec<String>> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        self.writer.write_all(&framed)?;
        let mut frames = Vec::new();
        loop {
            let mut frame = String::new();
            if self.reader.read_line(&mut frame)? == 0 {
                return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "server closed"));
            }
            let done = !frame.contains(r#""event":"points""#);
            frame.truncate(frame.trim_end().len());
            frames.push(frame);
            if done {
                return Ok(frames);
            }
        }
    }

    /// Sends an ops-plane request and parses its single reply.
    ///
    /// # Errors
    ///
    /// Fails on I/O errors or an unparseable reply.
    pub fn query(&mut self, line: &str) -> io::Result<Json> {
        let frames = self.call(line)?;
        Json::parse(&frames[0]).map_err(|e| io::Error::other(e.to_string()))
    }
}
