//! Relative HTTP-overhead gate: a `GET /healthz` round trip through `serve` must
//! cost at most a small multiple of a round trip to a bare `std::net` server in the
//! same process.
//!
//! Both servers run on this machine at the same time, and their round trips are
//! interleaved, so the gate is a ratio measured within one run; load on the host
//! slows both sides alike. A server that polls its listener instead of blocking in
//! `accept` pays about half its poll period per request, which at 2 ms puts the
//! ratio near 20×.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Instant;

use nc_service::client;
use nc_service::http::{serve, ServiceHandle};
use tiny_http::Server;

/// Round trips per side.
const ROUND_TRIPS: usize = 100;
/// Largest accepted ratio of the two medians.
const MAX_RATIO: f64 = 4.0;

const FIXED_RESPONSE: &[u8] =
    b"HTTP/1.1 200 OK\r\nContent-Length: 3\r\nContent-Type: text/plain\r\nConnection: close\r\n\r\nok\n";

/// A bare server: reads each request head, writes [`FIXED_RESPONSE`], closes.
/// Serves `connections` connections, then returns.
fn spawn_bare_server(connections: usize) -> (SocketAddr, std::thread::JoinHandle<()>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("addr");
    let handle = std::thread::spawn(move || {
        for _ in 0..connections {
            let (mut stream, _) = listener.accept().expect("accept");
            let mut head = Vec::new();
            let mut chunk = [0u8; 1024];
            while !head.windows(4).any(|w| w == b"\r\n\r\n") {
                let read = stream.read(&mut chunk).expect("read");
                if read == 0 {
                    break;
                }
                head.extend_from_slice(&chunk[..read]);
            }
            stream.write_all(FIXED_RESPONSE).expect("write");
        }
    });
    (addr, handle)
}

fn round_trip_ms(addr: SocketAddr) -> f64 {
    let started = Instant::now();
    let exchange = client::request(addr, "GET", "/healthz", "").expect("round trip");
    let ms = started.elapsed().as_secs_f64() * 1e3;
    assert_eq!(exchange.status, 200);
    assert_eq!(exchange.body, "ok\n");
    ms
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

#[test]
fn a_served_round_trip_costs_at_most_a_few_bare_ones() {
    let server = Server::http("127.0.0.1:0").expect("bind");
    let served_addr = server.server_addr().expect("addr");
    let stopper = server.stopper();
    let service = ServiceHandle::new(1);
    let stop = Arc::new(AtomicBool::new(false));
    let serving = {
        let (service, stop) = (service.clone(), Arc::clone(&stop));
        std::thread::spawn(move || serve(&server, &service, &stop))
    };
    let (bare_addr, bare) = spawn_bare_server(ROUND_TRIPS);

    let mut served = Vec::with_capacity(ROUND_TRIPS);
    let mut plain = Vec::with_capacity(ROUND_TRIPS);
    for _ in 0..ROUND_TRIPS {
        served.push(round_trip_ms(served_addr));
        plain.push(round_trip_ms(bare_addr));
    }
    stopper.stop();
    serving.join().expect("serve returns after stop");
    bare.join().expect("bare server joins");

    let (served, plain) = (median(served), median(plain));
    let ratio = served / plain;
    assert!(
        ratio <= MAX_RATIO,
        "serve round trip {served:.3} ms is {ratio:.1}x the bare {plain:.3} ms (cap {MAX_RATIO}x)"
    );
}
