//! Hostile counts and id ranges get an `err` answer, never a panic.
//!
//! Each rejected line below once panicked inside
//! `ServeEngine::dispatch_into`: a huge `provision` count or fleet spec
//! overflowed the capacity of a slot or node vector, and a `provision`
//! after a node at `u64::MAX` overflowed the base id (a release build
//! wrapped it to 0 and silently replaced session 0). The panic ended the
//! connection thread after `serve.requests` was counted, breaking
//! `served + rejected == requests`. This is its own test binary because
//! the serving counters are process-global.

use pbc_serve::ServeEngine;
use pbc_trace::names;

#[test]
fn hostile_counts_and_id_ranges_are_rejected_and_counted() {
    let requests = pbc_trace::counter(names::SERVE_REQUESTS);
    let served = pbc_trace::counter(names::SERVE_SERVED_REQUESTS);
    let rejected = pbc_trace::counter(names::SERVE_REJECTED_REQUESTS);
    let before = (requests.get(), served.get(), rejected.get());

    let engine = ServeEngine::new();
    let mut out = String::new();
    engine.dispatch_into("provision 1 ivybridge stream 208", &mut out);
    assert!(out.starts_with("ok provision base=0 count=1 "), "{out}");
    engine.dispatch_into("node 18446744073709551615 ivybridge stream 200", &mut out);
    assert!(out.starts_with("alloc 18446744073709551615 "), "{out}");

    let hostile = [
        "provision 18446744073709551615 ivybridge stream 208",
        "provision 65537 ivybridge stream 208",
        "fleet init 800 18446744073709551615:ivybridge:stream",
        "fleet init 800 40000:ivybridge:stream,40000:haswell:dgemm",
        "provision 2 ivybridge stream 200",
        "provision 1 ivybridge stream 200",
    ];
    for line in hostile {
        engine.dispatch_into(line, &mut out);
        assert!(out.starts_with("err "), "{line} -> {out}");
    }

    // Nothing was replaced or added, and the engine still serves.
    assert_eq!(engine.session_count(), 2);
    engine.dispatch_into("query 0", &mut out);
    assert!(out.contains(" budget=208 "), "session 0 changed: {out}");
    engine.dispatch_into("fleet init 800 2:ivybridge:stream", &mut out);
    assert!(out.starts_with("ok fleet nodes=2 "), "{out}");

    let requests = requests.get() - before.0;
    let served = served.get() - before.1;
    let rejected = rejected.get() - before.2;
    assert_eq!(rejected, hostile.len() as u64);
    assert_eq!(served + rejected, requests, "served + rejected != requests");
}
