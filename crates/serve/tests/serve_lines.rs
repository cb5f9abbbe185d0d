//! `serve_lines` ends a session at its first failed write, as when a
//! client or `pbc serve`'s stdout goes away, and every request it
//! dispatched is still counted as served or rejected. This is its own
//! test binary because the serving counters are process-global.

use pbc_serve::{serve_lines, Disposition, ServeEngine};
use pbc_trace::names;
use std::io::{self, BufReader, Write};
use std::sync::atomic::AtomicBool;

/// A writer whose every write fails, as a closed pipe's does.
struct ClosedPipe;

impl Write for ClosedPipe {
    fn write(&mut self, _: &[u8]) -> io::Result<usize> {
        Err(io::ErrorKind::BrokenPipe.into())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

#[test]
fn a_failed_write_ends_the_session_and_the_law_holds() {
    let requests = pbc_trace::counter(names::SERVE_REQUESTS);
    let served = pbc_trace::counter(names::SERVE_SERVED_REQUESTS);
    let rejected = pbc_trace::counter(names::SERVE_REJECTED_REQUESTS);
    let before = (requests.get(), served.get(), rejected.get());

    let engine = ServeEngine::new();
    let input: &[u8] = b"node 1 ivybridge stream 208\nnode 2 ivybridge stream 208\nbogus\n";
    let end = serve_lines(&engine, BufReader::new(input), ClosedPipe, &AtomicBool::new(false));

    assert_eq!(end, Disposition::Quit);
    assert_eq!(engine.session_count(), 1, "a line after the failed write was dispatched");
    let requests = requests.get() - before.0;
    let served = served.get() - before.1;
    let rejected = rejected.get() - before.2;
    assert_eq!(requests, 1);
    assert_eq!(served + rejected, requests, "served + rejected != requests");
}
