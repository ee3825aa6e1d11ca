//! A drain is counted once however many ways it is requested.
//!
//! The obs registry is process-global and every other suite drains
//! daemons concurrently, so this check owns its test binary: the only
//! drain recorded here is this test's.

use std::time::Duration;

use cyclesteal_svc::client::Client;
use cyclesteal_svc::json::Value;
use cyclesteal_svc::server::{Server, ServerConfig};

/// Two client `drain` frames and a `Server::drain` close admission once,
/// so `svc.drain.requested` reads exactly 1.
#[test]
fn repeated_drain_requests_count_once() {
    if !cyclesteal_obs::compiled() {
        return; // the counter lives in the obs registry
    }
    let session = cyclesteal_obs::Session::start();
    let server = Server::start(ServerConfig::default()).expect("start");
    let mut client = Client::connect(server.addr()).expect("connect");
    client
        .set_timeout(Some(Duration::from_secs(30)))
        .expect("timeout");
    for _ in 0..2 {
        let resp = client.drain().expect("drain");
        assert_eq!(resp.get("draining").and_then(Value::as_bool), Some(true));
    }
    server.drain();
    server.join().expect("join");
    let snap = session.snapshot();
    assert_eq!(snap.counter("svc.drain.requested"), 1);
    assert_eq!(snap.counter("svc.drain.completed"), 1);
    drop(session);
}
