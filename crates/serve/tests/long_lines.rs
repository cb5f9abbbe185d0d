//! `serve_lines` caps a request line at `MAX_LINE_BYTES`: a longer line
//! is answered `err bad-request` naming the limit, counted as a rejected
//! request, and the connection keeps serving. This is its own test
//! binary because the serving counters are process-global.

use pbc_serve::{serve_lines, Disposition, ServeEngine, MAX_LINE_BYTES};
use pbc_trace::names;
use std::io::{self, BufReader, Read};
use std::sync::atomic::AtomicBool;

#[test]
fn an_over_long_line_is_refused_and_the_connection_keeps_serving() {
    let requests = pbc_trace::counter(names::SERVE_REQUESTS);
    let served = pbc_trace::counter(names::SERVE_SERVED_REQUESTS);
    let rejected = pbc_trace::counter(names::SERVE_REJECTED_REQUESTS);
    let before = (requests.get(), served.get(), rejected.get());

    // A line at the cap (newline included) is still read and parsed; one
    // byte more is refused unread, as is a line many times the cap.
    let at_cap = "x".repeat(MAX_LINE_BYTES - 1);
    let past_cap = "y".repeat(MAX_LINE_BYTES);
    let head = format!("{at_cap}\n{past_cap}\nping\n");
    let input = head
        .as_bytes()
        .chain(io::repeat(b'z').take(8 * MAX_LINE_BYTES as u64))
        .chain(&b"\nping\n"[..]);
    let mut replies = Vec::new();
    let end = serve_lines(
        &ServeEngine::new(),
        BufReader::new(input),
        &mut replies,
        &AtomicBool::new(false),
    );
    assert_eq!(end, Disposition::Quit);

    let replies = String::from_utf8(replies).unwrap();
    let mut lines = replies.lines();
    // The line at the cap reached the parser, which knows no such verb.
    let first = lines.next().unwrap();
    assert!(
        first.starts_with("err bad-request unknown verb \"xxx"),
        "{first:.60}"
    );
    let refused = format!("err bad-request request line longer than {MAX_LINE_BYTES} bytes");
    assert_eq!(
        lines.collect::<Vec<_>>(),
        [refused.as_str(), "ok pong", refused.as_str(), "ok pong"]
    );

    let requests = requests.get() - before.0;
    let served = served.get() - before.1;
    let rejected = rejected.get() - before.2;
    assert_eq!((requests, served, rejected), (5, 2, 3));
    assert_eq!(served + rejected, requests, "served + rejected != requests");
}
