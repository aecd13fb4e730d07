//! The TCP backend: ranks are processes (or threads, in tests) connected
//! by real `std::net` loopback sockets.
//!
//! Implements the same [`Transport`] contract as the thread backend —
//! a send ends in the destination rank's [`Mailbox`], a death is marked in
//! its peers' — so everything above it (collectives, fault injection,
//! timeouts, the exchange protocol, checkpointing) is the same code over
//! genuine inter-process message passing (`deepthermo run --cluster
//! tcp:<n>`).
//!
//! ## Topology
//!
//! A run bootstraps through a **rank-0 rendezvous**: rank 0 binds a
//! [`TcpRendezvous`] listener whose address workers are given. Each worker
//! binds its own data listener, dials the rendezvous, and announces
//! `[rank: u32][data_port: u16]`; once all workers have checked in, rank 0
//! answers every worker with the full port table. The mesh is then built
//! deterministically: rank *i* dials every rank *j < i* at its data port
//! (announcing itself with a `[rank: u32]` hello), so every pair of ranks
//! shares exactly one connection.
//!
//! ## Wire format
//!
//! Each message is one length-prefixed frame:
//! `[payload_len: u32][tag: u64][delay_micros: u64][payload]`, all little
//! endian. `delay_micros` carries fault-injected delivery delays: the
//! *receiver* holds the message until the delay elapses, mirroring the
//! thread backend's in-flight delay semantics.
//!
//! A reader thread per peer connection demultiplexes frames into the
//! rank's [`Mailbox`]. A closed or broken connection marks that peer dead,
//! which unblocks pending receives with
//! [`CommError::RankDead`](crate::CommError) — process exit (clean or
//! crashed) is death notification, no extra protocol needed. Orderly TCP
//! shutdown delivers buffered frames before the EOF, so messages sent just
//! before a rank exits still arrive.
//!
//! The mesh is fixed for the life of a run: a dead peer stays dead. Getting
//! past a death — restarting every rank from the newest complete
//! checkpoint — is the job of whoever launched the processes.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use dt_codec::bin::{Reader, Writer};

use crate::comm::Communicator;
use crate::fault::FaultPlan;
use crate::thread_fabric::{run_rank, spawn_ranks, RankOutcome};
use crate::transport::{lock, Mailbox, Transport};

/// The rank-0 rendezvous point workers dial to join a run.
pub struct TcpRendezvous {
    listener: TcpListener,
}

impl TcpRendezvous {
    /// Bind the rendezvous listener. Use `"127.0.0.1:0"` to let the OS
    /// pick a free port, then read it back with [`Self::local_addr`].
    ///
    /// # Errors
    /// Any `bind(2)` failure.
    pub fn bind(addr: &str) -> io::Result<Self> {
        Ok(TcpRendezvous {
            listener: TcpListener::bind(addr)?,
        })
    }

    /// The address workers must dial.
    ///
    /// # Errors
    /// Any `getsockname(2)` failure.
    pub fn local_addr(&self) -> io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Complete the rendezvous as rank 0 of a `size`-rank cluster: wait
    /// for all `size - 1` workers to check in, distribute the port table,
    /// and accept the mesh connections. Blocks until the cluster is
    /// fully connected.
    ///
    /// # Errors
    /// Socket failures, or a malformed/duplicate worker hello.
    pub fn into_transport(self, size: usize) -> io::Result<TcpTransport> {
        assert!(size > 0, "cluster needs at least one rank");
        let data_listener = TcpListener::bind("127.0.0.1:0")?;
        let mut ports = vec![0u16; size];
        ports[0] = data_listener.local_addr()?.port();

        // Phase 1: collect worker hellos over the rendezvous listener.
        let mut worker_streams: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        for _ in 1..size {
            let (mut s, _) = self.listener.accept()?;
            let rank = read_u32(&mut s)? as usize;
            let port = read_u16(&mut s)?;
            if rank == 0 || rank >= size || worker_streams[rank].is_some() {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("bad or duplicate worker hello for rank {rank}"),
                ));
            }
            ports[rank] = port;
            worker_streams[rank] = Some(s);
        }

        // Phase 2: every listener is now bound — publish the table.
        let table = ports
            .iter()
            .fold(&mut Writer::new(), |w, &p| w.u16(p))
            .finish();
        for s in worker_streams.iter_mut().flatten() {
            s.write_all(&table)?;
        }

        // Phase 3: rank 0 dials nobody; accept all mesh connections.
        TcpTransport::finish(0, size, accept_mesh(&data_listener, size, &[])?)
    }
}

/// Accept the inbound half of the mesh: one connection from every rank
/// not in `outbound` (and not ourselves), identified by its hello.
fn accept_mesh(
    listener: &TcpListener,
    size: usize,
    outbound: &[usize],
) -> io::Result<Vec<Option<TcpStream>>> {
    let mut peers: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
    let expected = size - 1 - outbound.len();
    for _ in 0..expected {
        let (mut s, _) = listener.accept()?;
        let rank = read_u32(&mut s)? as usize;
        if rank >= size || peers[rank].is_some() {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("bad or duplicate mesh hello for rank {rank}"),
            ));
        }
        peers[rank] = Some(s);
    }
    Ok(peers)
}

/// A rank's handle to the socket mesh — the TCP backend of [`Transport`].
pub struct TcpTransport {
    rank: usize,
    size: usize,
    /// Fed by the per-peer reader threads, which hold clones.
    mailbox: Arc<Mailbox>,
    /// Write halves, one per peer (`None` at our own index).
    peers: Vec<Option<Mutex<TcpStream>>>,
}

// Compile-time proof the transport is shareable across threads; the
// serving fleet hands one `Arc<TcpTransport>` to every router worker.
const _: fn() = || {
    fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<TcpTransport>();
};

impl TcpTransport {
    /// Join a cluster as worker `rank` by dialing rank 0's rendezvous at
    /// `addr`. Blocks until the mesh is fully connected.
    ///
    /// # Errors
    /// Socket failures, or a malformed rendezvous reply.
    pub fn connect(addr: &str, rank: usize, size: usize) -> io::Result<TcpTransport> {
        assert!(rank > 0 && rank < size, "worker rank out of range");
        let data_listener = TcpListener::bind("127.0.0.1:0")?;

        // Check in with rank 0 and learn everyone's data port.
        let mut rendezvous = TcpStream::connect(addr)?;
        rendezvous.write_all(&(rank as u32).to_le_bytes())?;
        rendezvous.write_all(&data_listener.local_addr()?.port().to_le_bytes())?;
        let mut table = vec![0u8; 2 * size];
        rendezvous.read_exact(&mut table)?;
        let ports: Vec<u16> = table
            .chunks_exact(2)
            .map(|c| u16::from_le_bytes([c[0], c[1]]))
            .collect();

        // Dial every lower rank, then accept every higher one.
        let lower: Vec<usize> = (0..rank).collect();
        let mut peers = accept_mesh(&data_listener, size, &lower)?;
        for &j in &lower {
            let mut s = TcpStream::connect(("127.0.0.1", ports[j]))?;
            s.write_all(&(rank as u32).to_le_bytes())?;
            peers[j] = Some(s);
        }
        Self::finish(rank, size, peers)
    }

    /// Wrap a fully connected mesh: spawn one reader thread per peer and
    /// assemble the transport.
    fn finish(rank: usize, size: usize, peers: Vec<Option<TcpStream>>) -> io::Result<TcpTransport> {
        let mailbox = Arc::new(Mailbox::new(size));
        let mut writers = Vec::with_capacity(size);
        for (from, stream) in peers.into_iter().enumerate() {
            let Some(stream) = stream else {
                writers.push(None);
                continue;
            };
            stream.set_nodelay(true)?;
            let reader = stream.try_clone()?;
            let mailbox = Arc::clone(&mailbox);
            std::thread::Builder::new()
                .name(format!("tcp-reader-{rank}-from-{from}"))
                .spawn(move || reader_loop(reader, from, &mailbox))?;
            writers.push(Some(Mutex::new(stream)));
        }
        Ok(TcpTransport {
            rank,
            size,
            mailbox,
            peers: writers,
        })
    }
}

/// Demultiplex frames from one peer into the rank's mailbox until the
/// connection closes, then declare the peer dead — on this thread, after
/// every buffered frame was pushed, so the death can never overtake a
/// delivered message.
fn reader_loop(mut stream: TcpStream, from: usize, mailbox: &Mailbox) {
    loop {
        let mut head = [0u8; FRAME_HEADER_BYTES];
        if stream.read_exact(&mut head).is_err() {
            break;
        }
        // A header that fails its bound is a corrupt or hostile stream:
        // nothing after it can be trusted to be framed, so the connection
        // dies exactly as on EOF — before any buffer is sized from it.
        let Some((len, tag, delay_us)) = decode_frame_header(&head) else {
            break;
        };
        let mut payload = vec![0u8; len];
        if stream.read_exact(&mut payload).is_err() {
            break;
        }
        mailbox.push(from, tag, payload, Duration::from_micros(delay_us));
    }
    mailbox.mark_dead(from);
}

impl Transport for TcpTransport {
    fn rank(&self) -> usize {
        self.rank
    }

    fn size(&self) -> usize {
        self.size
    }

    fn send(&self, to: usize, tag: u64, data: Vec<u8>, delay: Option<Duration>) {
        assert!(to < self.size, "send to invalid rank {to}");
        if !self.is_alive(to) {
            return;
        }
        let delay = delay.unwrap_or_default();
        let Some(stream) = &self.peers[to] else {
            // Our own index: loop back into the mailbox.
            self.mailbox.push(to, tag, data, delay);
            return;
        };
        let frame = encode_frame(tag, delay.as_micros() as u64, &data);
        // A write failure means the peer is gone; its reader thread will
        // notice the EOF — drop the message like any send to the dead.
        let _ = lock(stream).write_all(&frame);
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }
}

impl Drop for TcpTransport {
    /// Shut every peer connection down explicitly. The FIN is sent after
    /// all queued data, so peers drain our remaining messages and *then*
    /// observe the death — this is what makes "send results, then exit"
    /// and "panic mid-round" both behave correctly.
    fn drop(&mut self) {
        for stream in self.peers.iter().flatten() {
            let _ = lock(stream).shutdown(std::net::Shutdown::Both);
        }
    }
}

/// Largest payload a frame may carry. A length read off a socket is
/// checked against this before a buffer is sized from it, so one corrupt
/// header cannot demand gigabytes.
pub const MAX_FRAME_BYTES: usize = 1 << 28;

/// Size of the `[payload_len: u32][tag: u64][delay_micros: u64]` header.
pub const FRAME_HEADER_BYTES: usize = 20;

/// Encode one wire frame (see the module docs for the layout).
///
/// # Panics
/// When `data` is longer than [`MAX_FRAME_BYTES`].
pub fn encode_frame(tag: u64, delay_us: u64, data: &[u8]) -> Vec<u8> {
    assert!(
        data.len() <= MAX_FRAME_BYTES,
        "frame payload of {} bytes exceeds MAX_FRAME_BYTES",
        data.len()
    );
    Writer::with_capacity(FRAME_HEADER_BYTES + data.len())
        .u32(data.len() as u32)
        .u64(tag)
        .u64(delay_us)
        .raw(data)
        .finish()
}

/// Decode a frame header into `(payload_len, tag, delay_micros)`; `None`
/// when it is short or names a payload above [`MAX_FRAME_BYTES`].
pub fn decode_frame_header(head: &[u8]) -> Option<(usize, u64, u64)> {
    let mut r = Reader::new(head);
    let header = (r.u32().ok()? as usize, r.u64().ok()?, r.u64().ok()?);
    (header.0 <= MAX_FRAME_BYTES).then_some(header)
}

fn read_u32(s: &mut TcpStream) -> io::Result<u32> {
    let mut b = [0u8; 4];
    s.read_exact(&mut b)?;
    Ok(u32::from_le_bytes(b))
}

fn read_u16(s: &mut TcpStream) -> io::Result<u16> {
    let mut b = [0u8; 2];
    s.read_exact(&mut b)?;
    Ok(u16::from_le_bytes(b))
}

/// In-process harness for the TCP backend: runs `size` ranks on threads,
/// each owning a real socket-mesh [`TcpTransport`] over loopback. Gives
/// tests the full wire path (rendezvous, framing, reader threads, death
/// by disconnect) without spawning processes.
pub struct TcpCluster;

impl TcpCluster {
    /// Run a cluster program over loopback sockets under a fault plan.
    /// Mirrors [`crate::ThreadCluster::run_with_faults`]: a panicking
    /// rank becomes [`RankOutcome::Died`] and its dropped transport's
    /// disconnects announce the death to its peers.
    pub fn run_loopback<T, F>(size: usize, plan: FaultPlan, f: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(Communicator<TcpTransport>) -> T + Sync,
    {
        let rendezvous = TcpRendezvous::bind("127.0.0.1:0").expect("bind rendezvous");
        let addr = rendezvous
            .local_addr()
            .expect("rendezvous address")
            .to_string();
        let rendezvous = Mutex::new(Some(rendezvous));
        spawn_ranks(size, |rank| {
            let transport = if rank == 0 {
                let rendezvous = lock(&rendezvous).take().expect("rank 0 runs once");
                rendezvous.into_transport(size)
            } else {
                TcpTransport::connect(&addr, rank, size)
            };
            let comm = Communicator::new(transport.expect("mesh setup"), plan.clone());
            run_rank(|| f(comm))
        })
    }
}
