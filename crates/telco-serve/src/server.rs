//! The always-on query front: newline-delimited JSON requests over a
//! local TCP socket, answered from the last *published* [`ServedView`].
//!
//! The ingest loop builds a fresh view after each committed day and
//! swaps it in with [`Published::publish`]; queries clone the current
//! `Arc` under a lock held only for that pointer swap. No lock is ever
//! held across a day fold, so query latency is bounded by JSON shuffling
//! and staleness is bounded by one fold: a query sees at worst the
//! previous committed day.
//!
//! # Protocol
//!
//! One JSON object per request line, one JSON object per response line:
//!
//! ```text
//! {"query":"status"}                       → commit progress counters
//! {"query":"outputs"}                      → full SweepOutputs JSON
//! {"query":"section","name":"ho_types"}    → one top-level analysis
//! {"query":"window","days":1}              → SweepOutputs over the last day
//! {"query":"window","days":7}              → … over the last min(7, committed) days
//! {"query":"shutdown"}                     → ack, then the server stops
//! ```
//!
//! A window needs its last `min(days, committed_days)` days retained
//! (the ingest's `window`); a longer one is refused with an error naming
//! how many are.
//!
//! `"table"` and `"figure"` are accepted as aliases of `"section"` —
//! paper tables and figures are exactly the top-level analyses of
//! [`telco_analytics::SweepOutputs`].
//!
//! A request line longer than 64 KiB is answered with
//! `{"ok":false,"error":"request line too long"}` and its connection is
//! closed, so a client that never sends a newline holds a bounded buffer.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use serde::Value;

use crate::engine::ServedView;

/// The longest request line read, newline excluded. The longest valid
/// request is under 100 bytes.
const MAX_REQUEST_LINE: usize = 64 * 1024;

/// The published view cell: a mutex around an `Arc`, locked only to clone
/// or swap the pointer. A replaced view is freed after the lock is
/// released (tens of MB of strings, unmapped as they are freed), so no
/// query waits on it. Nothing can panic while the lock is held, so a
/// poisoned lock still guards a whole `Arc` and is used as is.
pub struct Published {
    view: Mutex<Arc<ServedView>>,
}

impl Published {
    /// A cell starting at `view`.
    pub fn new(view: ServedView) -> Self {
        Published { view: Mutex::new(Arc::new(view)) }
    }

    /// Atomically replace the served view.
    pub fn publish(&self, view: ServedView) {
        let view = Arc::new(view);
        // The guard is a temporary: it unlocks at the end of this
        // statement, before the replaced view drops.
        let replaced =
            std::mem::replace(&mut *self.view.lock().unwrap_or_else(PoisonError::into_inner), view);
        drop(replaced);
    }

    /// The current view (cheap: one lock, one `Arc` clone).
    pub fn current(&self) -> Arc<ServedView> {
        Arc::clone(&self.view.lock().unwrap_or_else(PoisonError::into_inner))
    }
}

fn field<'a>(v: &'a Value, name: &str) -> Option<&'a Value> {
    match v {
        Value::Object(pairs) => pairs.iter().find(|(k, _)| k == name).map(|(_, v)| v),
        _ => None,
    }
}

fn as_str(v: &Value) -> Option<&str> {
    match v {
        Value::Str(s) => Some(s),
        _ => None,
    }
}

fn as_u64(v: &Value) -> Option<u64> {
    match v {
        Value::U64(n) => Some(*n),
        Value::I64(n) => u64::try_from(*n).ok(),
        _ => None,
    }
}

/// A response line (without its newline), in three parts so a bulk
/// payload the view already holds is borrowed instead of copied: `head`,
/// then `body`, then `tail`.
struct Response<'v> {
    head: String,
    body: &'v str,
    tail: &'static str,
    /// Whether the request asked the server to shut down.
    stop: bool,
}

impl<'v> Response<'v> {
    fn whole(line: String) -> Self {
        Response { head: line, body: "", tail: "", stop: false }
    }

    /// `head`, then the view's stored `body`, then the closing brace.
    fn wrapped(head: String, body: &'v str) -> Self {
        Response { head, body, tail: "}", stop: false }
    }

    fn error(msg: &str) -> Self {
        let msg = serde_json::to_string(msg).unwrap_or_default();
        Response::whole(format!("{{\"ok\":false,\"error\":{msg}}}"))
    }

    /// Write the line and its newline, then flush. The payload goes from
    /// the view to the socket without a copy.
    fn write_to(&self, writer: &mut impl Write) -> std::io::Result<()> {
        for part in [self.head.as_bytes(), self.body.as_bytes(), self.tail.as_bytes(), b"\n"] {
            writer.write_all(part)?;
        }
        writer.flush()
    }
}

/// Route one request line to its response parts.
fn route<'v>(line: &str, view: &'v ServedView) -> Response<'v> {
    let Ok(parsed) = serde_json::parse_value(line) else {
        return Response::error("request is not valid JSON");
    };
    let Some(query) = field(&parsed, "query").and_then(as_str) else {
        return Response::error("missing \"query\" field");
    };
    let days = view.committed_days;
    let wrap = |payload: &'v Option<String>| match payload {
        Some(json) => {
            Response::wrapped(format!("{{\"ok\":true,\"committed_days\":{days},\"outputs\":"), json)
        }
        None => Response::error("no day committed yet"),
    };
    match query {
        "status" => Response::whole(format!(
            "{{\"ok\":true,\"committed_days\":{days},\"total_days\":{},\"records\":{},\
             \"failures\":{}}}",
            view.total_days, view.records, view.failures,
        )),
        "outputs" | "study" => wrap(&view.full),
        "section" | "table" | "figure" => {
            let Some(name) = field(&parsed, "name").and_then(as_str) else {
                return Response::error("section query needs a \"name\" field");
            };
            match view.sections.iter().find(|(k, _)| k == name) {
                // `name` is one of the view's own section names, so it
                // needs no escaping.
                Some((name, json)) => Response::wrapped(
                    format!(
                        "{{\"ok\":true,\"committed_days\":{days},\"name\":\"{name}\",\"section\":"
                    ),
                    json,
                ),
                None if view.sections.is_empty() => Response::error("no day committed yet"),
                None => Response::error("unknown section name"),
            }
        }
        "window" => {
            let (span, payload) = match field(&parsed, "days").and_then(as_u64) {
                Some(1) => (1, &view.last_day),
                Some(7) => (7, &view.last_week),
                _ => return Response::error("window \"days\" must be 1 or 7"),
            };
            if payload.is_none() && days > 0 {
                return Response::error(&format!(
                    "a {span}-day window needs the last {} days, but only {} are retained",
                    days.min(span),
                    view.retained_days,
                ));
            }
            wrap(payload)
        }
        "shutdown" => Response {
            stop: true,
            ..Response::whole("{\"ok\":true,\"shutting_down\":true}".into())
        },
        _ => Response::error("unknown query"),
    }
}

/// Answer one request line from `view`. Returns the response line and
/// whether the request asked the server to shut down.
pub fn handle_request(line: &str, view: &ServedView) -> (String, bool) {
    let r = route(line, view);
    ([r.head.as_str(), r.body, r.tail].concat(), r.stop)
}

/// The TCP query server: an accept loop on a loopback socket, one
/// handler thread per connection, stopped by a `shutdown` query or
/// [`QueryServer::stop`].
pub struct QueryServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    accept_handle: Option<std::thread::JoinHandle<()>>,
}

impl QueryServer {
    /// Bind `127.0.0.1:port` (`0` picks a free port) and start serving
    /// `published`.
    pub fn start(published: Arc<Published>, port: u16) -> std::io::Result<QueryServer> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&shutdown);
        let accept_handle = std::thread::spawn(move || {
            let mut handlers = Vec::new();
            for stream in listener.incoming() {
                // ordering: SeqCst — the flag is a rare shutdown edge, not a hot path; total order keeps the wake-connect/flag race trivially correct
                if flag.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(stream) = stream else { break };
                let Ok(socket) = stream.try_clone() else { continue };
                let published = Arc::clone(&published);
                let flag = Arc::clone(&flag);
                reap_finished(&mut handlers);
                let handler = std::thread::spawn(move || {
                    handle_connection(stream, &published, &flag, addr);
                });
                handlers.push((handler, socket));
            }
            // A handler waits in `read_until` for as long as its client
            // stays connected. Shutting the read half down ends that wait
            // with end of stream; a response being written still completes.
            for (_, socket) in &handlers {
                let _ = socket.shutdown(Shutdown::Read);
            }
            for (handler, _) in handlers {
                let _ = handler.join();
            }
        });
        Ok(QueryServer { addr, shutdown, accept_handle: Some(accept_handle) })
    }

    /// The bound address (useful with port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Whether a `shutdown` query (or [`QueryServer::stop`]) has fired.
    pub fn shutdown_requested(&self) -> bool {
        // ordering: SeqCst — pairs with the SeqCst stores below; shutdown is cold, clarity over cycles
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Stop accepting, wake the accept loop, and join every handler.
    pub fn stop(&mut self) {
        // ordering: SeqCst — must be globally visible before the wake connection lands in the accept loop
        self.shutdown.store(true, Ordering::SeqCst);
        // Wake the blocking accept with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for QueryServer {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Join and drop the handlers whose connections have ended, with what is
/// kept beside each (its socket). An exited thread that is never joined
/// keeps its stack mapped, so holding every handle until shutdown would
/// grow the address space with each connection accepted.
fn reap_finished<T>(handlers: &mut Vec<(std::thread::JoinHandle<()>, T)>) {
    let mut i = 0;
    while i < handlers.len() {
        if handlers[i].0.is_finished() {
            let _ = handlers.swap_remove(i).0.join();
        } else {
            i += 1;
        }
    }
}

fn handle_connection(
    stream: TcpStream,
    published: &Published,
    shutdown: &AtomicBool,
    addr: SocketAddr,
) {
    // A bulk response ends in a short tail after the payload's large
    // write; without `TCP_NODELAY` that tail can sit behind a delayed ACK
    // for ~40 ms. Failing to set it only costs latency.
    let _ = stream.set_nodelay(true);
    let Ok(write_half) = stream.try_clone() else { return };
    let mut writer = std::io::BufWriter::new(write_half);
    let mut reader = BufReader::new(stream);
    let mut buf = Vec::new();
    loop {
        buf.clear();
        // Room for the newline: a read this long without one is over the cap.
        let cap = MAX_REQUEST_LINE as u64 + 1;
        match reader.by_ref().take(cap).read_until(b'\n', &mut buf) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        let line = buf.strip_suffix(b"\n").unwrap_or(&buf);
        if line.len() > MAX_REQUEST_LINE {
            // Close only after the error line and a FIN are on the wire,
            // so the client reads the error and then end of stream.
            let _ = Response::error("request line too long").write_to(&mut writer);
            let _ = writer.get_ref().shutdown(Shutdown::Write);
            break;
        }
        let Ok(line) = std::str::from_utf8(line) else { break };
        let line = line.strip_suffix('\r').unwrap_or(line);
        if line.trim().is_empty() {
            continue;
        }
        let view = published.current();
        let response = route(line, &view);
        if response.write_to(&mut writer).is_err() {
            break;
        }
        if response.stop {
            // ordering: SeqCst — must be globally visible before the wake connection below reaches accept
            shutdown.store(true, Ordering::SeqCst);
            // Wake the accept loop so it observes the flag.
            let _ = TcpStream::connect(addr);
            break;
        }
    }
}

/// One-shot client: send a single request line, return the response
/// line. What `repro query` and the smoke tests use.
///
/// # Errors
///
/// Connection or I/O failures talking to the server.
pub fn query_line(addr: SocketAddr, line: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut response = String::new();
    reader.read_line(&mut response)?;
    Ok(response.trim_end().to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn view() -> ServedView {
        ServedView {
            committed_days: 2,
            total_days: 3,
            records: 100,
            failures: 3,
            full: Some("{\"a\":1}".into()),
            last_day: Some("{\"a\":2}".into()),
            last_week: Some("{\"a\":3}".into()),
            retained_days: 2,
            sections: vec![("ho_types".into(), "{\"t\":1}".into())],
        }
    }

    #[test]
    fn reaping_joins_finished_handlers_and_keeps_blocked_ones() {
        let gate = Arc::new(Mutex::new(()));
        let held = gate.lock().unwrap();
        let blocked = Arc::clone(&gate);
        let mut handlers = vec![
            (std::thread::spawn(|| {}), ()),
            (std::thread::spawn(move || drop(blocked.lock())), ()),
            (std::thread::spawn(|| {}), ()),
        ];
        while handlers.iter().filter(|(h, _)| h.is_finished()).count() < 2 {
            std::thread::yield_now();
        }
        // Joining the blocked handler here would hang the test.
        reap_finished(&mut handlers);
        assert_eq!(handlers.len(), 1, "the two finished handlers are removed");
        assert!(!handlers[0].0.is_finished(), "the blocked handler is kept");

        drop(held);
        while !handlers[0].0.is_finished() {
            std::thread::yield_now();
        }
        reap_finished(&mut handlers);
        assert!(handlers.is_empty());
    }

    #[test]
    fn request_routing() {
        let v = view();
        let (status, stop) = handle_request("{\"query\":\"status\"}", &v);
        assert!(status.contains("\"committed_days\":2") && !stop);
        let (outputs, _) = handle_request("{\"query\":\"outputs\"}", &v);
        assert!(outputs.contains("\"outputs\":{\"a\":1}"), "{outputs}");
        let (sec, _) = handle_request("{\"query\":\"table\",\"name\":\"ho_types\"}", &v);
        assert!(sec.contains("\"section\":{\"t\":1}"), "{sec}");
        let (day, _) = handle_request("{\"query\":\"window\",\"days\":1}", &v);
        assert!(day.contains("{\"a\":2}"), "{day}");
        let (week, _) = handle_request("{\"query\":\"window\",\"days\":7}", &v);
        assert!(week.contains("{\"a\":3}"), "{week}");
        let (_, stop) = handle_request("{\"query\":\"shutdown\"}", &v);
        assert!(stop);
        let (bad, _) = handle_request("{\"query\":\"window\",\"days\":3}", &v);
        assert!(bad.contains("\"ok\":false"), "{bad}");
        let (garbage, _) = handle_request("not json", &v);
        assert!(garbage.contains("\"ok\":false"));
        // Error lines are JSON too, quotes in the message included.
        let (missing, _) = handle_request("{\"name\":\"x\"}", &v);
        assert_eq!(missing, r#"{"ok":false,"error":"missing \"query\" field"}"#);
    }

    #[test]
    fn window_beyond_retention_names_it() {
        let v = ServedView { committed_days: 4, last_week: None, ..view() };
        let (week, _) = handle_request("{\"query\":\"window\",\"days\":7}", &v);
        assert_eq!(
            week,
            r#"{"ok":false,"error":"a 7-day window needs the last 4 days, but only 2 are retained"}"#
        );
    }

    #[test]
    fn empty_view_reports_no_data() {
        let v = ServedView { total_days: 3, ..ServedView::default() };
        let (outputs, _) = handle_request("{\"query\":\"outputs\"}", &v);
        assert!(outputs.contains("no day committed yet"), "{outputs}");
        let (sec, _) = handle_request("{\"query\":\"section\",\"name\":\"x\"}", &v);
        assert!(sec.contains("no day committed yet"), "{sec}");
    }

    #[test]
    fn poisoned_view_lock_still_serves_and_publishes() {
        let published = Arc::new(Published::new(view()));
        let holder = Arc::clone(&published);
        let panicked = std::thread::spawn(move || {
            let _guard = holder.view.lock().unwrap();
            panic!("lock holder panics");
        })
        .join();
        assert!(panicked.is_err() && published.view.is_poisoned());
        assert_eq!(published.current().records, 100);
        published.publish(ServedView { records: 7, ..view() });
        assert_eq!(published.current().records, 7);
    }

    #[test]
    fn request_line_over_the_cap_is_refused_and_closed() {
        let published = Arc::new(Published::new(view()));
        let mut server = QueryServer::start(published, 0).unwrap();
        let addr = server.addr();

        // A line of exactly the cap is read and answered; the connection
        // stays open.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer.write_all(&[vec![b' '; MAX_REQUEST_LINE - 1], b"x\n".to_vec()].concat()).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"ok\":false,\"error\":\"request is not valid JSON\"}\n");
        writer.write_all(b"{\"query\":\"status\"}\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.contains("\"records\":100"), "{line}");
        drop((reader, writer));

        // 1 MiB without a newline: the error line, then end of stream.
        // The server stops reading at the cap, so the writer may never
        // finish; its error is ignored.
        let stream = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut flood = stream;
        let sender = std::thread::spawn(move || {
            let _ = flood.write_all(&vec![b'x'; 1 << 20]);
        });
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line, "{\"ok\":false,\"error\":\"request line too long\"}\n");
        let mut rest = Vec::new();
        assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "connection left open");
        sender.join().unwrap();

        // A fresh connection is served as before.
        let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
        assert!(status.contains("\"records\":100"), "{status}");
        server.stop();
    }

    #[test]
    fn stop_returns_with_an_idle_client_connected() {
        let published = Arc::new(Published::new(view()));
        let mut server = QueryServer::start(published, 0).unwrap();
        // One served query proves the handler runs; then the client goes
        // silent without hanging up.
        let mut idle = TcpStream::connect(server.addr()).unwrap();
        idle.write_all(b"{\"query\":\"status\"}\n").unwrap();
        let mut line = String::new();
        BufReader::new(idle.try_clone().unwrap()).read_line(&mut line).unwrap();
        assert!(line.contains("\"records\":100"), "{line}");

        let (stopped, done) = std::sync::mpsc::channel();
        let stopper = std::thread::spawn(move || {
            server.stop();
            let _ = stopped.send(());
        });
        assert!(
            done.recv_timeout(std::time::Duration::from_secs(2)).is_ok(),
            "stop() waited on a silent client"
        );
        stopper.join().unwrap();
        let mut rest = Vec::new();
        assert_eq!(idle.read_to_end(&mut rest).unwrap(), 0, "the server closed the connection");
    }

    #[test]
    fn server_round_trip_and_shutdown() {
        let published = Arc::new(Published::new(view()));
        let mut server = QueryServer::start(Arc::clone(&published), 0).unwrap();
        let addr = server.addr();
        let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
        assert!(status.contains("\"records\":100"), "{status}");
        // Publishing swaps what subsequent queries see.
        let mut next = view();
        next.records = 250;
        published.publish(next);
        let status = query_line(addr, "{\"query\":\"status\"}").unwrap();
        assert!(status.contains("\"records\":250"), "{status}");
        let bye = query_line(addr, "{\"query\":\"shutdown\"}").unwrap();
        assert!(bye.contains("shutting_down"), "{bye}");
        server.stop();
        assert!(server.shutdown_requested());
    }
}
