//! The `cocoa-serve` accept loop: it takes each connection as it
//! arrives, and the process-wide shutdown flag, which SIGTERM and SIGINT
//! raise, wakes it from a blocked accept into a drain. A test binary of
//! its own: raising the flag stops every server in the process, and no
//! other test loads the host while the round trips are timed.

use std::sync::mpsc;
use std::time::{Duration, Instant};

use cocoa_core::serve::{client, ServeConfig, Server};

#[test]
fn accept_takes_each_connection_at_once_and_the_signal_flag_wakes_it() {
    let server = Server::start(ServeConfig {
        quiet: true,
        ..ServeConfig::default()
    })
    .expect("server starts");
    let addr = server.local_addr().to_string();
    let round_trip = || {
        let t0 = Instant::now();
        assert_eq!(client::get(&addr, "/healthz").expect("healthz").status, 200);
        t0.elapsed()
    };
    // The first connection may reach the listener before the accept loop
    // first looks; the later ones arrive back to back, and an accept loop
    // that sleeps between polls of an idle listener makes each of them
    // wait out a poll.
    round_trip();
    let mut times: Vec<Duration> = (0..21).map(|_| round_trip()).collect();
    times.sort();
    assert!(
        times[10] < Duration::from_millis(1),
        "the median of 21 /healthz round trips took {:?}",
        times[10]
    );
    cocoa_signal::request_shutdown();
    let (done, drained) = mpsc::channel();
    let waiter = std::thread::spawn(move || {
        server.wait();
        let _ = done.send(());
    });
    drained
        .recv_timeout(Duration::from_secs(30))
        .expect("the raised flag must wake the accept and drain");
    waiter.join().expect("drain waiter");
    cocoa_signal::reset_shutdown();
}
