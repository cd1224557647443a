//! Lost-wakeup tests for the simulated wire and the readiness registry.
//!
//! Every wake in `dpc-net` is decided under a lock and delivered after the
//! lock is released, and only to a thread that is parked: a pipe or an
//! accept queue counts the threads parked on its condvar, the registry
//! flags a parked poller. A transition that misreads those counts loses a
//! wake, and the thread it owed sleeps for ever. Each case below runs a
//! fixed number of rounds that park and wake back to back, under a
//! watchdog that fails the case instead of hanging the suite.

use std::io::{self, Read, Write};
use std::sync::mpsc;
use std::sync::Arc;
use std::thread;
use std::time::Duration;

use dpc_net::{
    Connector, Listener, Meter, NbStream, Poller, ProtocolModel, Ready, SimNetwork, SimStream,
};

/// How long a case may run before it counts as a lost wakeup.
const WATCHDOG: Duration = Duration::from_secs(10);

/// Run `case` on its own thread and fail if it has not finished within
/// the watchdog. A panic inside the case fails the test with its message.
fn within_watchdog(name: &str, case: impl FnOnce() + Send + 'static) {
    let (done_tx, done_rx) = mpsc::channel();
    let worker = thread::spawn(move || {
        case();
        let _ = done_tx.send(());
    });
    match done_rx.recv_timeout(WATCHDOG) {
        Ok(()) => worker.join().expect("case thread"),
        Err(mpsc::RecvTimeoutError::Disconnected) => {
            if let Err(panic) = worker.join() {
                std::panic::resume_unwind(panic);
            }
        }
        Err(mpsc::RecvTimeoutError::Timeout) => {
            panic!("{name}: not finished after {WATCHDOG:?}; a wake was lost")
        }
    }
}

/// Echo every `msg_len`-byte message on `stream`, nonblocking, driven by a
/// poller, until the peer closes. Reads drain to `WouldBlock`; a reply the
/// pipe cannot take yet waits for the `WRITABLE` event its reader's drain
/// pushes.
fn poller_echo(mut stream: SimStream, msg_len: usize) -> u64 {
    let poller = Poller::new();
    stream.register(poller.registry(), 1);
    let mut events = Vec::new();
    let mut buf = vec![0u8; 4096];
    let mut inbox: Vec<u8> = Vec::new();
    let mut outbox: Vec<u8> = Vec::new();
    let mut echoed = 0;
    let mut eof = false;
    loop {
        while !eof {
            match stream.try_read(&mut buf) {
                Ok(0) => eof = true,
                Ok(n) => inbox.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("echo read: {e}"),
            }
        }
        let whole = inbox.len() / msg_len * msg_len;
        echoed += (whole / msg_len) as u64;
        outbox.extend(inbox.drain(..whole));
        while !outbox.is_empty() {
            match stream.try_write(&outbox) {
                Ok(n) => drop(outbox.drain(..n)),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("echo write: {e}"),
            }
        }
        if eof && outbox.is_empty() {
            return echoed;
        }
        poller.wait(&mut events, None);
    }
}

/// `rounds` blocking round trips of `msg_len`-byte messages against a
/// poller-driven echo, each message stamped with its round.
fn round_trips(capacity: Option<usize>, msg_len: usize, rounds: u64) {
    let (mut client, server) = SimStream::pair_with_capacity(
        "wakes",
        ProtocolModel::ideal(),
        Meter::new(),
        Meter::new(),
        capacity,
    );
    let echo = thread::spawn(move || poller_echo(server, msg_len));
    let mut msg = vec![0u8; msg_len];
    let mut reply = vec![0u8; msg_len];
    for round in 0..rounds {
        msg.fill(round as u8);
        msg[..8].copy_from_slice(&round.to_le_bytes());
        client.write_all(&msg).expect("client write");
        client.read_exact(&mut reply).expect("client read");
        assert_eq!(reply, msg, "round {round} echoed other bytes");
    }
    drop(client);
    assert_eq!(echo.join().expect("echo thread"), rounds);
}

#[test]
fn blocking_endpoint_against_a_poller_driven_one() {
    within_watchdog("unbounded round trips", || round_trips(None, 8, 20_000));
}

#[test]
fn full_pipe_parks_the_blocking_writer_and_blocks_the_nonblocking_one() {
    // 1 KiB through a 64-byte pipe: the blocking client parks on a full
    // pipe sixteen times per message, and the echo's replies hit
    // `WouldBlock` and wait for the client's drain to push `WRITABLE`.
    within_watchdog("64-byte pipe round trips", || {
        round_trips(Some(64), 1024, 2_000)
    });
}

#[test]
fn registry_notify_and_wake_race_the_poller_park() {
    const ROUNDS: u64 = 20_000;
    within_watchdog("notify/wake against wait", || {
        let poller = Poller::new();
        let registry = Arc::clone(poller.registry());
        // The poller names each round as it is about to wait; the other
        // thread answers it at once, so the answer lands before, during
        // or after the park.
        let (round_tx, round_rx) = mpsc::channel::<u64>();
        let notifier = thread::spawn(move || {
            for round in round_rx {
                if round % 3 == 2 {
                    registry.wake();
                } else {
                    registry.notify(round, Ready::READABLE);
                }
            }
        });
        let mut events = Vec::new();
        for round in 0..ROUNDS {
            round_tx.send(round).expect("notifier alive");
            // Even rounds park without a deadline, odd ones with 1 ms: a
            // timeout only loops, the answer must still arrive.
            let timeout = (round % 2 == 1).then(|| Duration::from_millis(1));
            while !poller.wait(&mut events, timeout) {}
            if round % 3 == 2 {
                assert!(events.is_empty(), "round {round}: a wake carries no event");
            } else {
                assert_eq!(events, vec![(round, Ready::READABLE)], "round {round}");
            }
        }
        drop(round_tx);
        notifier.join().expect("notifier thread");
    });
}

#[test]
fn blocking_accept_races_dial() {
    const ROUNDS: usize = 5_000;
    within_watchdog("accept against dial", || {
        let net = SimNetwork::with_defaults();
        let listener = net.listen("wakes");
        // The acceptor parks in `accept` again as soon as it answered the
        // last connection, so every dial races that park.
        let acceptor = thread::spawn(move || {
            for _ in 0..ROUNDS {
                let mut conn = listener.accept().expect("accept");
                conn.write_all(b"!").expect("greet");
            }
        });
        let connector = net.connector();
        let mut greeting = [0u8; 1];
        for _ in 0..ROUNDS {
            let mut conn = connector.connect("wakes").expect("dial");
            conn.read_exact(&mut greeting).expect("greeting");
            assert_eq!(&greeting, b"!");
        }
        acceptor.join().expect("acceptor thread");
    });
}
