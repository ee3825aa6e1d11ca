//! Connection lifecycle: a closed connection must release its sockets and
//! reader thread while the daemon runs, not only at drain. Kept as its own
//! test binary so no other test shares the process's fd table.
#![cfg(target_os = "linux")]

use std::time::{Duration, Instant};

use cyclesteal_svc::client::Client;
use cyclesteal_svc::server::{Server, ServerConfig};

const CONNECTIONS: usize = 300;
/// Fds the process may legitimately hold beyond the baseline.
const SLACK: usize = 8;

fn open_fds() -> usize {
    std::fs::read_dir("/proc/self/fd")
        .expect("read /proc/self/fd")
        .count()
}

#[test]
fn closed_connections_release_their_fds() {
    let server = Server::start(ServerConfig::default()).expect("start");
    let baseline = open_fds();

    for _ in 0..CONNECTIONS {
        let mut client = Client::connect(server.addr()).expect("connect");
        client
            .set_timeout(Some(Duration::from_secs(30)))
            .expect("timeout");
        assert!(client.ping().expect("ping"));
    }

    // Readers notice the close asynchronously; give them time to reap.
    let deadline = Instant::now() + Duration::from_secs(20);
    let mut open = open_fds();
    while open > baseline + SLACK && Instant::now() < deadline {
        std::thread::sleep(Duration::from_millis(20));
        open = open_fds();
    }
    assert!(
        open <= baseline + SLACK,
        "{CONNECTIONS} closed connections left {} fds open beyond the baseline of {baseline}",
        open - baseline
    );

    server.drain();
    server.join().expect("join");
}
