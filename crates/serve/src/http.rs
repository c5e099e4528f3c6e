//! A deliberately minimal HTTP/1.1 codec: request line + headers +
//! `Content-Length` body in, status + JSON body out, `Connection: close`
//! on every exchange. The daemon serves `curl` and scripts on localhost,
//! not browsers on the open internet — no chunked transfer, no keep-alive,
//! no TLS — and staying inside `std` keeps the workspace offline.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on a request body (a raw fleet dump batch); larger
/// submissions should be split — this is a backpressure boundary, not a
/// parsing limit.
pub const MAX_BODY: usize = 64 * 1024 * 1024;

/// Upper bound on the request line plus headers.
const MAX_HEAD: usize = 64 * 1024;

/// One parsed request.
#[derive(Debug, Clone)]
pub struct HttpRequest {
    /// Upper-cased method (`GET`, `POST`, …).
    pub method: String,
    /// Path without the query string (e.g. `/knn`).
    pub path: String,
    /// Raw `key=value` query parameters, in order.
    pub query: Vec<(String, String)>,
    /// The body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
}

impl HttpRequest {
    /// First value of a query parameter.
    pub fn param(&self, key: &str) -> Option<&str> {
        self.query
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// `true` when a flag-style parameter is present and not disabled
    /// (`?lenient=1`, `?lenient=true`, bare `?lenient`).
    pub fn flag(&self, key: &str) -> bool {
        match self.param(key) {
            None => false,
            Some(v) => !matches!(v, "0" | "false" | "no"),
        }
    }

    /// The body as UTF-8 text.
    pub fn body_text(&self) -> Result<&str, HttpError> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Bad("request body is not UTF-8".into()))
    }

    /// Reads one request from a buffered connection. `Ok(None)` means the
    /// peer closed without sending one (a health probe, or the shutdown
    /// wake-up connection).
    pub fn read_from(reader: &mut impl BufRead) -> Result<Option<HttpRequest>, HttpError> {
        let mut head = String::new();
        let mut content_length = 0usize;
        let mut request_line: Option<String> = None;
        // Bytes of head still allowed. Each line is read through a `take`
        // of the remaining budget, so a client that never sends a newline
        // cannot make the daemon buffer more than `MAX_HEAD` bytes.
        let mut budget = MAX_HEAD;
        loop {
            head.clear();
            let n = reader
                .by_ref()
                .take(budget as u64)
                .read_line(&mut head)
                .map_err(HttpError::Io)?;
            budget -= n;
            if budget == 0 && !head.ends_with('\n') {
                return Err(HttpError::Bad(format!(
                    "request head exceeds {MAX_HEAD} bytes"
                )));
            }
            if n == 0 {
                return if request_line.is_none() {
                    Ok(None)
                } else {
                    Err(HttpError::Bad("connection closed mid-headers".into()))
                };
            }
            let line = head.trim_end_matches(['\r', '\n']);
            match &request_line {
                None => {
                    if line.is_empty() {
                        continue; // tolerate leading blank lines
                    }
                    request_line = Some(line.to_string());
                }
                Some(_) => {
                    if line.is_empty() {
                        break; // end of headers
                    }
                    if let Some((key, value)) = line.split_once(':') {
                        if key.eq_ignore_ascii_case("content-length") {
                            content_length = value
                                .trim()
                                .parse()
                                .map_err(|_| HttpError::Bad("bad Content-Length".into()))?;
                        }
                    }
                }
            }
        }
        let request_line = request_line.expect("loop breaks only after a request line");
        let mut parts = request_line.split_whitespace();
        let (method, target) = match (parts.next(), parts.next()) {
            (Some(m), Some(t)) => (m.to_ascii_uppercase(), t),
            _ => return Err(HttpError::Bad(format!("bad request line {request_line:?}"))),
        };
        let (path, query_str) = match target.split_once('?') {
            Some((p, q)) => (p, q),
            None => (target, ""),
        };
        let query = query_str
            .split('&')
            .filter(|s| !s.is_empty())
            .map(|pair| match pair.split_once('=') {
                Some((k, v)) => (k.to_string(), v.to_string()),
                None => (pair.to_string(), String::new()),
            })
            .collect();
        if content_length > MAX_BODY {
            return Err(HttpError::TooLarge(content_length));
        }
        let mut body = vec![0u8; content_length];
        reader.read_exact(&mut body).map_err(HttpError::Io)?;
        Ok(Some(HttpRequest {
            method,
            path: path.to_string(),
            query,
            body,
        }))
    }
}

/// Why a request could not be read.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request framing.
    Bad(String),
    /// Declared body exceeds [`MAX_BODY`].
    TooLarge(usize),
    /// The socket failed underneath us.
    Io(io::Error),
}

/// One response: status, body, `Connection: close`.
#[derive(Debug, Clone)]
pub struct HttpResponse {
    /// HTTP status code.
    pub status: u16,
    /// Response body (JSON on every endpoint except the Prometheus-text
    /// `/metrics` exposition).
    pub body: String,
    /// `Content-Type` header value.
    pub content_type: &'static str,
    /// When set, echoed back as an `X-Request-Id` header so clients can
    /// correlate responses with the daemon's span log.
    pub request_id: Option<u64>,
    /// Tells the connection worker to initiate graceful shutdown after
    /// flushing this response.
    pub shutdown: bool,
}

impl HttpResponse {
    /// A JSON response.
    pub fn json(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            status,
            body: body.into(),
            content_type: "application/json",
            request_id: None,
            shutdown: false,
        }
    }

    /// A plain-text response (the Prometheus exposition).
    pub fn text(status: u16, body: impl Into<String>) -> HttpResponse {
        HttpResponse {
            content_type: "text/plain; version=0.0.4",
            ..HttpResponse::json(status, body)
        }
    }

    /// The standard reason phrase for this response's status.
    pub fn reason(&self) -> &'static str {
        match self.status {
            200 => "OK",
            202 => "Accepted",
            400 => "Bad Request",
            404 => "Not Found",
            405 => "Method Not Allowed",
            413 => "Payload Too Large",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            _ => "Unknown",
        }
    }

    /// Serializes the response onto a connection. The head and the body
    /// are assembled in memory first and handed over in one `write_all`:
    /// formatting straight onto an unbuffered socket costs one `write`
    /// system call per literal piece and argument.
    pub fn write_to(&self, w: &mut impl Write) -> io::Result<()> {
        let mut out = Vec::with_capacity(128 + self.body.len());
        write!(
            out,
            "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\n",
            self.status,
            self.reason(),
            self.content_type,
            self.body.len()
        )?;
        if let Some(id) = self.request_id {
            write!(out, "X-Request-Id: {id}\r\n")?;
        }
        out.extend_from_slice(b"Connection: close\r\n\r\n");
        out.extend_from_slice(self.body.as_bytes());
        w.write_all(&out)?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(raw: &str) -> Result<Option<HttpRequest>, HttpError> {
        HttpRequest::read_from(&mut BufReader::new(raw.as_bytes()))
    }

    #[test]
    fn parses_request_line_query_and_body() {
        let req = parse(
            "POST /ingest?lenient=1&tag HTTP/1.1\r\nHost: x\r\nContent-Length: 5\r\n\r\nhello",
        )
        .unwrap()
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/ingest");
        assert!(req.flag("lenient"));
        assert!(req.flag("tag"));
        assert!(!req.flag("missing"));
        assert_eq!(req.body_text().unwrap(), "hello");

        let req = parse("GET /stats HTTP/1.1\r\n\r\n").unwrap().unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/stats");
        assert!(req.body.is_empty());
    }

    #[test]
    fn empty_connections_and_garbage_are_distinguished() {
        assert!(parse("").unwrap().is_none(), "clean close = no request");
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: zz\r\n\r\n").is_err());
        assert!(matches!(
            parse(&format!(
                "POST /x HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
                MAX_BODY + 1
            )),
            Err(HttpError::TooLarge(_))
        ));
        // Truncated body: the read fails rather than hanging forever.
        assert!(parse("POST /x HTTP/1.1\r\nContent-Length: 10\r\n\r\nabc").is_err());
    }

    /// A reader that counts the bytes it hands out.
    struct Counting<R> {
        inner: R,
        consumed: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    #[test]
    fn head_limit_bounds_the_bytes_read() {
        // One endless line: the read stops at the head budget, not at a
        // newline that never comes.
        let flood = vec![b'a'; 16 * MAX_HEAD];
        let mut reader = BufReader::new(Counting {
            inner: flood.as_slice(),
            consumed: 0,
        });
        let capacity = reader.capacity();
        assert!(matches!(
            HttpRequest::read_from(&mut reader),
            Err(HttpError::Bad(_))
        ));
        let consumed = reader.get_ref().consumed;
        assert!(
            consumed <= MAX_HEAD + capacity,
            "read {consumed} bytes of a newline-free flood"
        );

        // The budget covers the request line plus all headers, not each
        // line alone.
        let header = format!("X-Pad: {}\r\n", "p".repeat(1000));
        let many = format!(
            "GET /stats HTTP/1.1\r\n{}\r\n",
            header.repeat(MAX_HEAD / header.len() + 1)
        );
        assert!(matches!(parse(&many), Err(HttpError::Bad(_))));
        let fitting = format!(
            "GET /stats HTTP/1.1\r\n{}\r\n",
            header.repeat(MAX_HEAD / header.len() - 1)
        );
        assert_eq!(parse(&fitting).unwrap().unwrap().path, "/stats");
    }

    #[test]
    fn responses_have_close_framing_and_exact_length() {
        let mut out = Vec::new();
        HttpResponse::json(429, "{\"status\":\"error\"}")
            .write_to(&mut out)
            .unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.contains("Content-Length: 18\r\n"));
        assert!(text.contains("Content-Type: application/json\r\n"));
        assert!(!text.contains("X-Request-Id"));
        assert!(text.ends_with("{\"status\":\"error\"}"));
    }

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_unchanged_bytes() {
        let body = r#"{"status":"ok","epoch":3,"matches":[[0,1]]}"#;
        let mut response = HttpResponse::json(200, body);
        for (request_id, head) in [
            (
                None,
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 43\r\nConnection: close\r\n\r\n",
            ),
            (
                Some(17),
                "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
                 Content-Length: 43\r\nX-Request-Id: 17\r\nConnection: close\r\n\r\n",
            ),
        ] {
            response.request_id = request_id;
            let mut w = CountingWriter::default();
            response.write_to(&mut w).unwrap();
            assert_eq!(w.writes, 1, "{request_id:?}");
            assert_eq!(String::from_utf8(w.bytes).unwrap(), format!("{head}{body}"));
        }
    }

    #[test]
    fn text_responses_carry_content_type_and_request_id() {
        let mut response = HttpResponse::text(200, "m_total 1\n");
        response.request_id = Some(42);
        let mut out = Vec::new();
        response.write_to(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Content-Type: text/plain; version=0.0.4\r\n"));
        assert!(text.contains("X-Request-Id: 42\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("m_total 1\n"));
    }
}
