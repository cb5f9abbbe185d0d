//! A finished connection gives its handler thread back: after a warm-up,
//! hundreds of sequential one-`ping` connections leave the process
//! holding about as many memory mappings as before. A handler kept
//! unjoined until drain keeps its stack mapped (two mappings a thread).
//! Linux only: it counts the lines of `/proc/self/maps`.
#![cfg(target_os = "linux")]

use pbc_serve::{ServeEngine, Server, ServerConfig};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;

/// One connection: `ping`, read the reply, close.
fn ping(addr: SocketAddr) {
    let mut stream = TcpStream::connect(addr).expect("connect to daemon");
    stream.write_all(b"ping\n").expect("send ping");
    let mut reply = String::new();
    BufReader::new(stream).read_line(&mut reply).expect("read reply");
    assert_eq!(reply, "ok pong\n");
}

#[test]
fn finished_handlers_release_their_threads() {
    let server = Server::start(Arc::new(ServeEngine::new()), ServerConfig::default())
        .expect("server boots");
    let addr = server.local_addr();
    let mappings = || std::fs::read_to_string("/proc/self/maps").expect("maps").lines().count();
    (0..50).for_each(|_| ping(addr));
    let before = mappings();
    (0..300).for_each(|_| ping(addr));
    let added = mappings().saturating_sub(before);
    server.drain().expect("drain");
    assert!(added < 100, "300 finished connections added {added} mappings");
}
