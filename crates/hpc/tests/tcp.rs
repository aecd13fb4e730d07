//! Integration tests of the TCP transport: the same cluster semantics as
//! the thread backend, exercised over real loopback sockets (rendezvous,
//! framing, reader threads, death by disconnect). The death-handling
//! cases are rank programs generic over the backend and run on both.

use std::time::{Duration, Instant};

use dt_hpc::{
    CommError, Communicator, FaultPlan, RankOutcome, TcpCluster, ThreadCluster, Transport,
};

/// Receive deadline for paths where the message is known to be coming.
const PATIENCE: Duration = Duration::from_secs(30);

#[test]
fn single_rank_cluster_bootstraps() {
    let results = TcpCluster::run_loopback(1, FaultPlan::none(), |comm| {
        comm.barrier().unwrap();
        let mut v = vec![2.5];
        comm.allreduce_sum(&mut v).unwrap();
        (comm.rank(), comm.size(), v[0])
    });
    match &results[0] {
        RankOutcome::Completed(r) => assert_eq!(r, &(0, 1, 2.5)),
        dead => panic!("rank died: {dead:?}"),
    }
}

#[test]
fn ring_ping_pong_over_sockets() {
    let size = 4;
    let results = TcpCluster::run_loopback(size, FaultPlan::none(), |comm| {
        let me = comm.rank();
        let next = (me + 1) % comm.size();
        let prev = (me + comm.size() - 1) % comm.size();
        for round in 0..5u8 {
            comm.send(next, 7, vec![me as u8, round]);
        }
        let mut got = Vec::new();
        for _ in 0..5 {
            got.push(comm.recv_timeout(prev, 7, PATIENCE).unwrap());
        }
        (prev, got)
    });
    for outcome in results {
        let (prev, got) = outcome.completed().expect("rank completed");
        for (round, msg) in got.iter().enumerate() {
            assert_eq!(msg[0] as usize, prev, "messages must arrive from prev");
            assert_eq!(msg[1] as usize, round, "per-(peer, tag) FIFO order");
        }
    }
}

#[test]
fn collectives_match_thread_semantics() {
    let size = 4;
    let results = TcpCluster::run_loopback(size, FaultPlan::none(), |comm| {
        let mut acc = 0.0;
        for _ in 0..6 {
            comm.barrier().unwrap();
            let mut v = vec![comm.rank() as f64, 1.0];
            comm.allreduce_sum(&mut v).unwrap();
            acc += v[0] + v[1];
        }
        acc
    });
    let expected = 6.0 * ((1 + 2 + 3) as f64 + 4.0);
    for outcome in results {
        assert_eq!(outcome.completed().expect("completed"), expected);
    }
}

#[test]
fn messages_sent_before_exit_survive_the_disconnect() {
    // Rank 1 sends its payload and returns immediately; its transport is
    // dropped and the socket closed. Rank 0 must still receive the
    // buffered frame (orderly shutdown delivers data before EOF), and
    // only then see the death.
    let results = TcpCluster::run_loopback(2, FaultPlan::none(), |comm| {
        if comm.rank() == 0 {
            std::thread::sleep(Duration::from_millis(100));
            let first = comm.recv_timeout(1, 3, PATIENCE);
            let second = comm.recv_timeout(1, 3, PATIENCE);
            (first, second)
        } else {
            comm.send(0, 3, vec![42]);
            (Ok(vec![]), Ok(vec![]))
        }
    });
    match &results[0] {
        RankOutcome::Completed((first, second)) => {
            assert_eq!(first, &Ok(vec![42]), "buffered frame must be drained");
            assert_eq!(second, &Err(CommError::RankDead(1)));
        }
        dead => panic!("rank 0 died: {dead:?}"),
    }
}

#[test]
fn killed_rank_surfaces_as_rank_dead_and_collectives_survive() {
    // Rank 2 (non-coordinator) dies at round 0; the others must see
    // RankDead on receives and still complete a barrier + allreduce over
    // the survivors.
    fn body<T: Transport>(comm: Communicator<T>) -> (f64, usize) {
        if comm.rank() == 2 {
            comm.poll_faults(0);
            unreachable!("rank 2 must die at poll");
        }
        let r = comm.recv_timeout(2, 9, PATIENCE);
        assert_eq!(r, Err(CommError::RankDead(2)));
        // Sample live_count before the barrier: the other survivor cannot
        // have exited yet (it is blocked in the same barrier), so exactly
        // rank 2's death is visible here.
        let live = comm.live_count();
        comm.barrier().unwrap();
        let mut v = vec![1.0];
        comm.allreduce_sum(&mut v).unwrap();
        (v[0], live)
    }
    let plan = FaultPlan::none().kill_at_round(2, 0);
    for results in [
        ThreadCluster::run_with_faults(3, plan.clone(), body),
        TcpCluster::run_loopback(3, plan, body),
    ] {
        assert!(results[2].is_dead());
        for (rank, outcome) in results.into_iter().enumerate() {
            if rank == 2 {
                continue;
            }
            let (sum, live) = outcome.completed().expect("survivor completed");
            assert_eq!(sum, 2.0, "allreduce must cover exactly the survivors");
            assert_eq!(live, 2);
        }
    }
}

#[test]
fn dead_coordinator_fails_collectives_cleanly() {
    fn body<T: Transport>(comm: Communicator<T>) -> Result<(), CommError> {
        if comm.rank() == 0 {
            comm.poll_faults(0);
            unreachable!();
        }
        comm.barrier()
    }
    let plan = FaultPlan::none().kill_at_round(0, 0);
    for results in [
        ThreadCluster::run_with_faults(2, plan.clone(), body),
        TcpCluster::run_loopback(2, plan, body),
    ] {
        assert!(results[0].is_dead());
        match &results[1] {
            RankOutcome::Completed(r) => assert_eq!(r, &Err(CommError::RankDead(0))),
            dead => panic!("rank 1 died: {dead:?}"),
        }
    }
}

#[test]
fn fault_plan_drops_and_delays_apply_on_the_wire() {
    let plan =
        FaultPlan::none()
            .drop_message(1, 0, 0)
            .delay_message(1, 0, 1, Duration::from_millis(80));
    let results = TcpCluster::run_loopback(2, plan, |comm| {
        if comm.rank() == 0 {
            let dropped = comm.recv_timeout(1, 5, Duration::from_millis(60));
            let started = Instant::now();
            let delayed = comm.recv_timeout(1, 5, PATIENCE);
            (dropped, delayed, started.elapsed())
        } else {
            comm.send(0, 5, vec![1]); // dropped by the plan
            comm.send(0, 5, vec![2]); // delayed by the plan
            std::thread::sleep(Duration::from_millis(300)); // stay alive
            (Ok(vec![]), Ok(vec![]), Duration::ZERO)
        }
    });
    match &results[0] {
        RankOutcome::Completed((dropped, delayed, _)) => {
            assert_eq!(dropped, &Err(CommError::Timeout { from: 1, tag: 5 }));
            assert_eq!(delayed, &Ok(vec![2]), "delayed frame must still arrive");
        }
        dead => panic!("rank 0 died: {dead:?}"),
    }
}

#[test]
fn traffic_counters_work_over_tcp() {
    let results = TcpCluster::run_loopback(2, FaultPlan::none(), |comm| {
        if comm.rank() == 0 {
            comm.send(1, 1, vec![0; 10]);
            comm.barrier().unwrap();
            comm.traffic()
        } else {
            let got = comm.recv_timeout(0, 1, PATIENCE).unwrap();
            assert_eq!(got.len(), 10);
            comm.barrier().unwrap();
            comm.traffic()
        }
    });
    let mut it = results.into_iter();
    let t0 = it.next().unwrap().completed().expect("rank 0");
    let t1 = it.next().unwrap().completed().expect("rank 1");
    // Collective traffic is not counted, matching the thread backend.
    assert_eq!((t0.sends, t0.send_bytes), (1, 10));
    assert_eq!((t1.recvs, t1.recv_bytes), (1, 10));
}

/// A frame header naming more than `MAX_FRAME_BYTES` must end the
/// connection — the peer reads as dead — before any buffer is sized from
/// it. Rank 1 is played by hand over raw sockets so the header can lie.
#[test]
fn oversize_frame_header_is_connection_death_not_an_allocation() {
    use dt_hpc::tcp::{encode_frame, MAX_FRAME_BYTES};
    use dt_hpc::TcpRendezvous;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};

    let rendezvous = TcpRendezvous::bind("127.0.0.1:0").unwrap();
    let addr = rendezvous.local_addr().unwrap();
    let root = std::thread::spawn(move || {
        let transport = rendezvous.into_transport(2).unwrap();
        let good = transport.recv_timeout(1, 6, PATIENCE);
        let after_bogus = transport.recv_timeout(1, 7, Duration::from_secs(10));
        (good, after_bogus, transport.is_alive(1))
    });

    // Check in as rank 1, learn rank 0's data port, dial the mesh.
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let mut checkin = TcpStream::connect(addr).unwrap();
    checkin.write_all(&1u32.to_le_bytes()).unwrap();
    let my_port = listener.local_addr().unwrap().port();
    checkin.write_all(&my_port.to_le_bytes()).unwrap();
    let mut table = [0u8; 4];
    checkin.read_exact(&mut table).unwrap();
    let root_port = u16::from_le_bytes([table[0], table[1]]);
    let mut mesh = TcpStream::connect(("127.0.0.1", root_port)).unwrap();
    mesh.write_all(&1u32.to_le_bytes()).unwrap();

    // A well-formed frame first: the hand-built peer speaks the protocol.
    mesh.write_all(&encode_frame(6, 0, b"ok")).unwrap();
    // Then a header claiming one byte more than the bound. The socket
    // stays open, so only the bound — not an EOF — can end the read.
    let mut bogus = encode_frame(7, 0, b"");
    bogus[..4].copy_from_slice(&(MAX_FRAME_BYTES as u32 + 1).to_le_bytes());
    mesh.write_all(&bogus).unwrap();
    mesh.write_all(b"not four gigabytes").unwrap();

    let (good, after_bogus, alive) = root.join().unwrap();
    assert_eq!(good, Ok(b"ok".to_vec()));
    assert_eq!(after_bogus, Err(CommError::RankDead(1)));
    assert!(!alive);
    drop(mesh);
}
