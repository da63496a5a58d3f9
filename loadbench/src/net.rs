//! Server processes and the wire: spawning `shapesearch serve`, one
//! keep-alive HTTP/1.1 connection per load client, and `/metrics`
//! scrapes.

use shapesearch_server::Client;
use std::collections::BTreeMap;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running `shapesearch serve` process. Dropping it kills the process
/// and waits for it to exit.
pub struct Server {
    child: Child,
    /// Kept open for the process's lifetime: the server prints after its
    /// "listening" line, and a closed pipe would make that print fail.
    _stdout: BufReader<ChildStdout>,
    pub addr: String,
}

impl Server {
    /// Spawns `bin serve <args>` and waits for its "listening on" line.
    pub fn spawn(bin: &Path, args: &[String]) -> io::Result<Server> {
        let mut child = Command::new(bin)
            .arg("serve")
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        loop {
            line.clear();
            if stdout.read_line(&mut line)? == 0 {
                let _ = child.kill();
                let _ = child.wait();
                return Err(io::Error::other(format!(
                    "server exited before listening: serve {}",
                    args.join(" ")
                )));
            }
            if let Some(rest) = line.trim_end().split("listening on http://").nth(1) {
                let addr = rest.to_owned();
                return Ok(Server {
                    child,
                    _stdout: stdout,
                    addr,
                });
            }
        }
    }

    /// Peak resident set (`VmHWM`) of the process, in KiB.
    pub fn peak_rss_kib(&self) -> io::Result<u64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| io::Error::other("no VmHWM in /proc status"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Restricts every thread of process `pid` to CPU `cpu` with `taskset`;
/// returns whether that worked.
pub fn pin(pid: u32, cpu: &str) -> bool {
    Command::new("taskset")
        .args(["-a", "-p", "-c", cpu, &pid.to_string()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .is_ok_and(|s| s.success())
}

/// One keep-alive client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn connect(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one pre-framed request (from [`frame_post`]) and reads the
    /// reply's status and body, leaving the connection open.
    pub fn round_trip(&mut self, framed: &[u8], body: &mut Vec<u8>) -> io::Result<u16> {
        self.writer.write_all(framed)?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| io::Error::other(format!("bad status line {line:?}")))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(io::ErrorKind::UnexpectedEof.into());
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                if name.eq_ignore_ascii_case("content-length") {
                    length = value.trim().parse().ok();
                }
            }
        }
        let length = length.ok_or_else(|| io::Error::other("reply without content-length"))?;
        body.resize(length, 0);
        self.reader.read_exact(body)?;
        Ok(status)
    }
}

/// A complete `POST path` request with a JSON body, framed once so the
/// timed loop only writes bytes.
pub fn frame_post(path: &str, body: &str) -> Vec<u8> {
    format!(
        "POST {path} HTTP/1.1\r\nhost: loadbench\r\ncontent-type: application/json\r\ncontent-length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// A parsed Prometheus text exposition: `name{labels}` → value.
pub type Scrape = BTreeMap<String, f64>;

/// `GET /metrics` on a fresh connection (which the scraped
/// `connections_accepted_total` already counts).
pub fn scrape(addr: &str) -> io::Result<Scrape> {
    let (status, text) = Client::new(addr).get_text("/metrics")?;
    if status != 200 {
        return Err(io::Error::other(format!("/metrics answered {status}")));
    }
    Ok(parse_exposition(&text))
}

pub fn parse_exposition(text: &str) -> Scrape {
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_owned(), value.parse().ok()?))
        })
        .collect()
}

/// `after[series] - before[series]`, treating a missing series as 0.
pub fn delta(before: &Scrape, after: &Scrape, series: &str) -> f64 {
    after.get(series).copied().unwrap_or(0.0) - before.get(series).copied().unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exposition_parses_labels_and_skips_comments() {
        let text = "# HELP x y\n# TYPE x counter\nshapesearch_queries_total 7\n\
                    shapesearch_cache_events_total{event=\"hit\"} 3\n";
        let s = parse_exposition(text);
        assert_eq!(s["shapesearch_queries_total"], 7.0);
        assert_eq!(s["shapesearch_cache_events_total{event=\"hit\"}"], 3.0);
        let mut later = s.clone();
        later.insert("shapesearch_queries_total".into(), 10.0);
        assert_eq!(delta(&s, &later, "shapesearch_queries_total"), 3.0);
        assert_eq!(delta(&s, &later, "absent"), 0.0);
    }
}
