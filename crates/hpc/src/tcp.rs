//! The TCP backend: ranks are processes (or threads, in tests) connected
//! by real `std::net` loopback sockets.
//!
//! Implements the same [`Transport`] contract as the thread backend —
//! a send ends in the destination rank's [`Mailbox`], a death is marked in
//! the survivors' — so everything above it (collectives, fault injection,
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
//! ## Recovery
//!
//! The recovering constructors ([`TcpRendezvous::into_transport_recovering`],
//! [`TcpTransport::connect_recovering`], [`TcpTransport::reconnect`]) add a
//! self-healing layer on top of the same mesh:
//!
//! * every rank keeps its data listener open behind a **re-admission
//!   acceptor** thread, so a replacement process can dial in at any time;
//!   an installed replacement connection *revives* the peer (dead flag
//!   cleared, live count restored). Per-peer connection generations stop a
//!   stale reader's EOF from killing a freshly revived peer;
//! * rank 0 keeps the **rendezvous** listener open: a replacement
//!   announces `[rank][new_port]` exactly like bootstrap, the port table
//!   is updated, and the current table is replied so the replacement can
//!   re-dial the whole mesh;
//! * optional **heartbeats** ([`Transport::start_heartbeats`]): every
//!   frame arrival stamps a per-peer last-seen clock, a ping keeps idle
//!   links warm, and a monitor declares peers dead on deadline — an
//!   active failure detector instead of EOF-only. A monitor verdict is
//!   *reversible*: the next frame over the still-open connection revives
//!   the peer, and a monitor that was itself starved of CPU re-arms the
//!   clocks rather than condemning the mesh on stale testimony (only an
//!   EOF is final);
//! * the collective coordinator's patience with a dead contributor is
//!   [`Communicator::set_recovery`], not a transport matter.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dt_codec::bin::{Reader, Writer};

use crate::comm::{coll_tag, Communicator, K_HEARTBEAT};
use crate::fault::FaultPlan;
use crate::thread_fabric::{run_rank, spawn_ranks, RankOutcome};
use crate::transport::{lock, Mailbox, Transport};

/// Poll cadence of the re-admission acceptor threads.
const ACCEPT_POLL: Duration = Duration::from_millis(20);

/// The fixed heartbeat tag (generation-free: pings are not sequenced).
fn hb_tag() -> u64 {
    coll_tag(K_HEARTBEAT, 0)
}

/// State shared between a rank's main thread, its per-peer reader
/// threads, and (in recovery mode) its acceptor/heartbeat threads.
struct Shared {
    mailbox: Mailbox,
    /// Connection generation per peer: bumped when a replacement stream
    /// is installed, so the EOF of a superseded reader cannot kill a
    /// revived peer.
    conn_gen: Vec<AtomicU64>,
    /// When each peer last delivered any frame (heartbeat or data).
    last_seen: Vec<Mutex<Instant>>,
    /// Peers declared dead by the heartbeat monitor (deadline missed).
    hb_misses: AtomicU64,
    /// Tells acceptor/heartbeat threads to exit (set on transport drop).
    shutdown: AtomicBool,
}

impl Shared {
    fn new(size: usize) -> Self {
        Shared {
            mailbox: Mailbox::new(size),
            conn_gen: (0..size).map(|_| AtomicU64::new(0)).collect(),
            last_seen: (0..size).map(|_| Mutex::new(Instant::now())).collect(),
            hb_misses: AtomicU64::new(0),
            shutdown: AtomicBool::new(false),
        }
    }

    /// Whether the reader created at connection generation `gen` still
    /// speaks for `rank`: once a replacement connection is installed, the
    /// stale reader may neither kill nor resurrect the peer.
    fn is_current(&self, rank: usize, gen: u64) -> bool {
        self.conn_gen[rank].load(Ordering::SeqCst) == gen
    }

    fn touch(&self, rank: usize) {
        *lock(&self.last_seen[rank]) = Instant::now();
    }
}

/// Replaceable write halves, one slot per peer (`None` at our own index
/// and for peers whose connection is currently down). Shared with the
/// re-admission acceptor so replacement connections can be installed
/// while the rank runs.
type PeerSlots = Vec<Mutex<Option<TcpStream>>>;

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
        self.into_transport_inner(size, false)
    }

    /// Like [`Self::into_transport`], but keeps both the rendezvous and
    /// the data listener alive behind acceptor threads so killed workers
    /// can be replaced mid-run: a replacement re-announces
    /// `[rank][new_port]` over the rendezvous exactly as at bootstrap and
    /// receives the updated port table, and its mesh dial-ins are
    /// installed live (see [`TcpTransport::reconnect`]).
    ///
    /// # Errors
    /// Socket failures, or a malformed/duplicate worker hello.
    pub fn into_transport_recovering(self, size: usize) -> io::Result<TcpTransport> {
        self.into_transport_inner(size, true)
    }

    fn into_transport_inner(self, size: usize, recovering: bool) -> io::Result<TcpTransport> {
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
        let table = port_table(&ports);
        for s in worker_streams.iter_mut().flatten() {
            s.write_all(&table)?;
        }

        // Phase 3: rank 0 dials nobody; accept all mesh connections.
        let transport = TcpTransport::finish(0, size, accept_mesh(&data_listener, size, &[])?)?;
        if !recovering {
            return Ok(transport);
        }
        let transport = transport.enable_recovery(data_listener)?;
        self.listener.set_nonblocking(true)?;
        let shared = Arc::clone(&transport.shared);
        std::thread::Builder::new()
            .name("tcp-rendezvous-0".into())
            .spawn(move || rendezvous_loop(self.listener, ports, shared))?;
        Ok(transport)
    }
}

/// Rank 0's re-admission service: answer `[rank][new_port]` announcements
/// from replacement workers with the up-to-date port table, forever (until
/// the transport shuts down). The same wire exchange as bootstrap, so
/// [`TcpTransport::reconnect`] needs no second protocol.
fn rendezvous_loop(listener: TcpListener, mut ports: Vec<u16>, shared: Arc<Shared>) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut s, _)) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                let Ok(rank) = read_u32(&mut s) else { continue };
                let Ok(port) = read_u16(&mut s) else { continue };
                let rank = rank as usize;
                if rank == 0 || rank >= ports.len() {
                    continue;
                }
                ports[rank] = port;
                let _ = s.write_all(&port_table(&ports));
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// The rendezvous reply: every rank's data port, `u16` each.
fn port_table(ports: &[u16]) -> Vec<u8> {
    ports
        .iter()
        .fold(&mut Writer::new(), |w, &p| w.u16(p))
        .finish()
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
    shared: Arc<Shared>,
    /// Replaceable write halves, one slot per peer (`None` at our own
    /// index). Reader threads own cloned handles; the re-admission
    /// acceptor installs replacement streams in place.
    peers: Arc<PeerSlots>,
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
        Self::connect_inner(addr, rank, size, false)
    }

    /// Like [`Self::connect`], but keeps the data listener alive behind a
    /// re-admission acceptor so replacement peers can dial in mid-run.
    /// Use together with [`TcpRendezvous::into_transport_recovering`].
    ///
    /// # Errors
    /// Socket failures, or a malformed rendezvous reply.
    pub fn connect_recovering(addr: &str, rank: usize, size: usize) -> io::Result<TcpTransport> {
        Self::connect_inner(addr, rank, size, true)
    }

    fn connect_inner(
        addr: &str,
        rank: usize,
        size: usize,
        recovering: bool,
    ) -> io::Result<TcpTransport> {
        assert!(rank > 0 && rank < size, "worker rank out of range");
        let data_listener = TcpListener::bind("127.0.0.1:0")?;

        // Check in with rank 0 and learn everyone's data port.
        let ports = announce_to_rendezvous(addr, rank, size, &data_listener)?;

        // Dial every lower rank, then accept every higher one.
        let lower: Vec<usize> = (0..rank).collect();
        let mut peers = accept_mesh(&data_listener, size, &lower)?;
        for &j in &lower {
            let mut s = TcpStream::connect(("127.0.0.1", ports[j]))?;
            s.write_all(&(rank as u32).to_le_bytes())?;
            peers[j] = Some(s);
        }
        let transport = Self::finish(rank, size, peers)?;
        if recovering {
            transport.enable_recovery(data_listener)
        } else {
            Ok(transport)
        }
    }

    /// Rejoin a running cluster as a *replacement* for a dead worker
    /// `rank`: re-announce over the still-open rendezvous, learn the
    /// current port table, and dial every peer's re-admission acceptor.
    /// Peers that are themselves down right now stay marked dead until
    /// they dial back in. The returned transport is always in recovery
    /// mode (listener kept alive, acceptor running).
    ///
    /// # Errors
    /// Socket failures, or a malformed rendezvous reply — the supervisor
    /// treats these as a failed restart attempt.
    pub fn reconnect(addr: &str, rank: usize, size: usize) -> io::Result<TcpTransport> {
        assert!(rank > 0 && rank < size, "worker rank out of range");
        let data_listener = TcpListener::bind("127.0.0.1:0")?;
        let ports = announce_to_rendezvous(addr, rank, size, &data_listener)?;

        // Dial the whole mesh: every survivor's acceptor installs our
        // connection and revives us on its side.
        let mut peers: Vec<Option<TcpStream>> = (0..size).map(|_| None).collect();
        let mut unreachable = Vec::new();
        for (j, slot) in peers.iter_mut().enumerate() {
            if j == rank {
                continue;
            }
            match TcpStream::connect(("127.0.0.1", ports[j])) {
                Ok(mut s) => {
                    s.write_all(&(rank as u32).to_le_bytes())?;
                    *slot = Some(s);
                }
                Err(_) => unreachable.push(j),
            }
        }
        let transport = Self::finish(rank, size, peers)?;
        for j in unreachable {
            transport.shared.mailbox.mark_dead(j);
        }
        transport.enable_recovery(data_listener)
    }

    /// Wrap a fully connected mesh: spawn reader threads and assemble the
    /// transport.
    fn finish(rank: usize, size: usize, peers: Vec<Option<TcpStream>>) -> io::Result<TcpTransport> {
        let shared = Arc::new(Shared::new(size));
        let slots: Arc<PeerSlots> = Arc::new((0..size).map(|_| Mutex::new(None)).collect());
        for (peer, stream) in peers.into_iter().enumerate() {
            if let Some(s) = stream {
                install_peer(&shared, &slots, rank, peer, s)?;
            }
        }
        Ok(TcpTransport {
            rank,
            size,
            shared,
            peers: slots,
        })
    }

    /// Park `listener` behind the re-admission acceptor thread so
    /// replacement peers can join later.
    fn enable_recovery(self, listener: TcpListener) -> io::Result<TcpTransport> {
        listener.set_nonblocking(true)?;
        let shared = Arc::clone(&self.shared);
        let peers = Arc::clone(&self.peers);
        let rank = self.rank;
        std::thread::Builder::new()
            .name(format!("tcp-acceptor-{rank}"))
            .spawn(move || acceptor_loop(listener, rank, shared, peers))?;
        Ok(self)
    }
}

/// One `[rank][data_port]` check-in over the rendezvous (bootstrap and
/// re-admission use the identical exchange); returns the port table.
fn announce_to_rendezvous(
    addr: &str,
    rank: usize,
    size: usize,
    data_listener: &TcpListener,
) -> io::Result<Vec<u16>> {
    let mut rendezvous = TcpStream::connect(addr)?;
    rendezvous.write_all(&(rank as u32).to_le_bytes())?;
    rendezvous.write_all(&data_listener.local_addr()?.port().to_le_bytes())?;
    let mut table = vec![0u8; 2 * size];
    rendezvous.read_exact(&mut table)?;
    Ok(table
        .chunks_exact(2)
        .map(|c| u16::from_le_bytes([c[0], c[1]]))
        .collect())
}

/// Wire a (possibly replacement) connection from `from` into the mesh:
/// bump the connection generation *first* (so a superseded reader's EOF is
/// ignored from here on), install the write half, spawn the reader — which
/// revives the peer before it reads.
fn install_peer(
    shared: &Arc<Shared>,
    peers: &Arc<PeerSlots>,
    my_rank: usize,
    from: usize,
    stream: TcpStream,
) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let reader = stream.try_clone()?;
    let gen = shared.conn_gen[from].fetch_add(1, Ordering::SeqCst) + 1;
    shared.touch(from);
    *lock(&peers[from]) = Some(stream);
    let shared_reader = Arc::clone(shared);
    std::thread::Builder::new()
        .name(format!("tcp-reader-{my_rank}-from-{from}"))
        .spawn(move || reader_loop(reader, from, gen, shared_reader))?;
    Ok(())
}

/// The re-admission acceptor: accept `[rank]` mesh hellos at any point in
/// the run and install the connection as a replacement for that peer.
/// Runs until the transport shuts down.
fn acceptor_loop(
    listener: TcpListener,
    my_rank: usize,
    shared: Arc<Shared>,
    peers: Arc<PeerSlots>,
) {
    while !shared.shutdown.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok((mut s, _)) => {
                let _ = s.set_nonblocking(false);
                let _ = s.set_read_timeout(Some(Duration::from_secs(5)));
                let Ok(from) = read_u32(&mut s) else { continue };
                let from = from as usize;
                if from >= peers.len() || from == my_rank {
                    continue;
                }
                let _ = s.set_read_timeout(None);
                let _ = install_peer(&shared, &peers, my_rank, from, s);
            }
            Err(_) => std::thread::sleep(ACCEPT_POLL),
        }
    }
}

/// Demultiplex frames from one peer into the rank's mailbox. The peer is
/// alive while its reader runs: revived on entry (a no-op unless this is a
/// replacement connection), declared dead when the connection closes —
/// unless a newer connection generation has replaced this one in the
/// meantime. Both on this thread, so a connection already closed when it
/// is installed still ends up dead.
fn reader_loop(mut stream: TcpStream, from: usize, gen: u64, shared: Arc<Shared>) {
    if shared.is_current(from, gen) {
        shared.mailbox.revive(from);
    }
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
        shared.touch(from);
        // A frame can only arrive over an open connection: a peer the
        // heartbeat monitor wrote off during a scheduling stall is
        // demonstrably still here, so reverse the verdict. EOF death
        // stays final — this reader has exited by then and a stale
        // generation cannot resurrect a genuinely replaced peer.
        if shared.mailbox.is_dead(from) && shared.is_current(from, gen) {
            shared.mailbox.revive(from);
        }
        if tag == hb_tag() {
            // Heartbeats only feed the liveness clock; never the mailbox.
            continue;
        }
        shared
            .mailbox
            .push(from, tag, payload, Duration::from_micros(delay_us));
    }
    // EOF is reached only after every buffered frame above was pushed, so
    // the death can never overtake a delivered message.
    if shared.is_current(from, gen) {
        shared.mailbox.mark_dead(from);
    }
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
        if to == self.rank {
            self.shared.mailbox.push(to, tag, data, delay);
            return;
        }
        let frame = encode_frame(tag, delay.as_micros() as u64, &data);
        // A write failure (or an empty slot while a replacement connects)
        // means the peer is gone; its reader thread will notice the EOF —
        // drop the message like any send to the dead.
        if let Some(stream) = lock(&self.peers[to]).as_mut() {
            let _ = stream.write_all(&frame);
        }
    }

    fn mailbox(&self) -> &Mailbox {
        &self.shared.mailbox
    }

    fn start_heartbeats(&self, interval: Duration, deadline: Duration) {
        // Reset every liveness clock so peers idle since bootstrap don't
        // trip the deadline on the very first monitor pass.
        for j in 0..self.size {
            self.shared.touch(j);
        }
        let shared = Arc::clone(&self.shared);
        let peers = Arc::clone(&self.peers);
        let me = self.rank;
        std::thread::Builder::new()
            .name(format!("tcp-hb-send-{me}"))
            .spawn(move || {
                let frame = encode_frame(hb_tag(), 0, &[]);
                while !shared.shutdown.load(Ordering::SeqCst) {
                    for (j, slot) in peers.iter().enumerate() {
                        if j == me || shared.mailbox.is_dead(j) {
                            continue;
                        }
                        if let Some(s) = lock(slot).as_mut() {
                            let _ = s.write_all(&frame);
                        }
                    }
                    std::thread::sleep(interval);
                }
            })
            .expect("spawn heartbeat sender");
        let shared = Arc::clone(&self.shared);
        let me = self.rank;
        let size = self.size;
        std::thread::Builder::new()
            .name(format!("tcp-hb-mon-{me}"))
            .spawn(move || {
                let poll = (deadline / 4).max(Duration::from_millis(1));
                let mut last_pass = Instant::now();
                while !shared.shutdown.load(Ordering::SeqCst) {
                    if last_pass.elapsed() > poll + deadline / 2 {
                        // The monitor itself just lost the CPU for longer
                        // than half the deadline (single-core contention,
                        // respawn exec storm): every liveness clock is
                        // stale testimony. Re-arm them instead of
                        // declaring the whole mesh dead.
                        for j in 0..size {
                            if j != me {
                                shared.touch(j);
                            }
                        }
                    } else {
                        for j in 0..size {
                            if j == me || shared.mailbox.is_dead(j) {
                                continue;
                            }
                            if lock(&shared.last_seen[j]).elapsed() > deadline {
                                shared.hb_misses.fetch_add(1, Ordering::SeqCst);
                                shared.mailbox.mark_dead(j);
                            }
                        }
                    }
                    last_pass = Instant::now();
                    std::thread::sleep(poll);
                }
            })
            .expect("spawn heartbeat monitor");
    }

    fn heartbeat_misses(&self) -> u64 {
        self.shared.hb_misses.load(Ordering::SeqCst)
    }
}

impl Drop for TcpTransport {
    /// Shut every peer connection down explicitly. The FIN is sent after
    /// all queued data, so peers drain our remaining messages and *then*
    /// observe the death — this is what makes "send results, then exit"
    /// and "panic mid-round" both behave correctly. Also releases this
    /// rank's acceptor and heartbeat threads (and, on rank 0, the
    /// rendezvous service).
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        for slot in self.peers.iter() {
            if let Some(stream) = lock(slot).as_ref() {
                let _ = stream.shutdown(std::net::Shutdown::Both);
            }
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
    /// disconnects announce the death to the survivors.
    pub fn run_loopback<T, F>(size: usize, plan: FaultPlan, f: F) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(Communicator<TcpTransport>) -> T + Sync,
    {
        Self::run_loopback_recovering(size, plan, 0, |comm, _| f(comm))
    }

    /// [`Self::run_loopback`] with self-healing when `max_restarts > 0`:
    /// the mesh keeps its listeners open, communicators start in recovery
    /// mode, and a worker rank that dies with restart budget left waits
    /// out a bounded exponential backoff, rebuilds its connections through
    /// the still-open rendezvous ([`TcpTransport::reconnect`]), disarms
    /// the kills that already fired, and re-runs `f` with the incremented
    /// respawn count — the in-process twin of the dt-core process
    /// supervisor. Rank 0 (rendezvous + collective coordinator) is never
    /// respawned; its death ends the run as usual.
    ///
    /// `f` receives `(comm, respawns)` so the program can rejoin from its
    /// checkpoint rather than start over.
    pub fn run_loopback_recovering<T, F>(
        size: usize,
        plan: FaultPlan,
        max_restarts: u64,
        f: F,
    ) -> Vec<RankOutcome<T>>
    where
        T: Send,
        F: Fn(Communicator<TcpTransport>, u64) -> T + Sync,
    {
        let rendezvous = TcpRendezvous::bind("127.0.0.1:0").expect("bind rendezvous");
        let addr = rendezvous
            .local_addr()
            .expect("rendezvous address")
            .to_string();
        let rendezvous = Mutex::new(Some(rendezvous));
        let recovering = max_restarts > 0;
        spawn_ranks(size, |rank| {
            let mut respawns = 0u64;
            loop {
                let transport = if rank == 0 {
                    let rendezvous = lock(&rendezvous).take().expect("rank 0 has one life");
                    rendezvous.into_transport_inner(size, recovering)
                } else if respawns == 0 {
                    TcpTransport::connect_inner(&addr, rank, size, recovering)
                } else {
                    TcpTransport::reconnect(&addr, rank, size)
                };
                let transport = transport.expect("mesh setup");
                let comm = Communicator::new(transport, plan.disarm_kills(rank, respawns));
                comm.set_recovery(recovering);
                match run_rank(|| f(comm, respawns)) {
                    RankOutcome::Died { .. } if rank != 0 && respawns < max_restarts => {
                        std::thread::sleep(Duration::from_millis(10 << respawns.min(4)));
                        respawns += 1;
                    }
                    outcome => return outcome,
                }
            }
        })
    }
}
