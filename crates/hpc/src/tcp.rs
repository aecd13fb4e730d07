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
//! ## Receiving
//!
//! No thread reads a socket but one that waits for a message from it,
//! and the transport spawns no thread: a TCP rank is one thread (plus
//! whatever threads its program shares the transport with). A receive of
//! `(from, tag)` takes the message from the [`Mailbox`] if it is there.
//! Otherwise it takes `from`'s *read slot* and reads that socket itself,
//! into a per-peer buffer, until its frame comes or its deadline passes
//! (a blocking `read(2)` bounded by `SO_RCVTIMEO`). Frames for other
//! tags go to the mailbox on the way, for the threads waiting on them. A
//! frame cut short by the deadline stays in the buffer for the next
//! read. Threads that find the slot taken wait on the mailbox's signal;
//! the slot changes hands under the mailbox lock, so whoever needs it
//! next takes it the moment it is released. One message is one wake-up:
//! the sender's write wakes the receiving thread itself. A receive that
//! has waited 20 ms alone reads every socket nobody else is reading for
//! as long, then its own again, and so on: a peer blocked sending to us
//! while the peer we wait for waits on it must not deadlock the three.
//!
//! **Death** is the end of a socket: EOF, a broken connection, or a
//! header that fails its bound. The reader marks the peer dead only
//! after every frame read before the end is in the mailbox, and that
//! unblocks pending receives with [`CommError::RankDead`] — process exit
//! (clean or crashed) is death notification, no extra protocol needed.
//! Orderly TCP shutdown delivers buffered frames before the EOF, so
//! messages sent just before a rank exits still arrive. A death is seen
//! when a socket is read — by a receive or a blocked send, or by
//! [`Transport::is_alive`], which probes a socket nobody is reading with
//! a zero-timeout `poll(2)` (the serving router's health check) — or
//! when a write fails, which marks the peer dead itself.
//!
//! **Sends drain.** A write that cannot finish — the peer's socket
//! buffers are full — reads every socket nobody else is reading into the
//! mailbox while it waits (`poll(2)` for writable or readable). Two
//! ranks that each send more than the buffers hold before they receive
//! would otherwise wait on each other forever. Writes wait at most
//! `SO_SNDTIMEO` before they return; `O_NONBLOCK` is never set, as it
//! would be on a descriptor that the other direction shares.
//!
//! The mesh is fixed for the life of a run: a dead peer stays dead. Getting
//! past a death — restarting every rank from the newest complete
//! checkpoint — is the job of whoever launched the processes.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::Mutex;
use std::time::{Duration, Instant};

use dt_codec::bin::{Reader, Writer};

use crate::comm::{CommError, Communicator};
use crate::fault::FaultPlan;
use crate::sys::{poll_fds, PollFd, POLLIN, POLLOUT};
use crate::thread_fabric::{run_rank, spawn_ranks, RankOutcome};
use crate::transport::{lock, Mailbox, Next, Transport};

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
    /// Filled by this rank's own receiving threads (see the module docs).
    mailbox: Mailbox,
    /// One connection per peer (`None` at our own index).
    peers: Vec<Option<Peer>>,
}

/// One peer's connection. Sends and receives share the socket: sends
/// take turns on `sending`, and only the holder of the peer's read slot
/// in the [`Mailbox`] touches `inbound`, so that lock is never contended.
struct Peer {
    stream: TcpStream,
    sending: Mutex<()>,
    inbound: Mutex<Inbound>,
}

/// A frame off the wire: `(tag, payload, delay)`.
type Frame = (u64, Vec<u8>, Duration);

/// How long a write waits for buffer space before it returns what it
/// wrote, so a blocked send gets to read its peers' sockets.
const SEND_WAIT: Duration = Duration::from_millis(1);

/// How long a receive reads its own peer's socket alone before it reads
/// every free one for as long (see the module docs). Also the longest
/// `poll(2)` nap of a blocked send, which holds read slots while it naps.
const NAP: Duration = Duration::from_millis(20);

/// Read size, and the buffer a connection shrinks back to once a larger
/// frame has gone through.
const READ_CHUNK: usize = 64 << 10;

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

    /// Wrap a fully connected mesh.
    fn finish(
        rank: usize,
        size: usize,
        streams: Vec<Option<TcpStream>>,
    ) -> io::Result<TcpTransport> {
        let peers = streams
            .into_iter()
            .map(|s| s.map(Peer::new).transpose())
            .collect::<io::Result<Vec<_>>>()?;
        Ok(TcpTransport {
            rank,
            size,
            mailbox: Mailbox::new(size, |r| peers[r].is_some()),
            peers,
        })
    }

    fn peer(&self, rank: usize) -> &Peer {
        self.peers[rank].as_ref().expect("a read slot has a socket")
    }

    /// Read `from`'s socket under its read slot (see [`Peer::read`]) and
    /// hand the slot back with what was read; whether a frame tagged
    /// `want` came. A peer already marked dead by a failed write is read
    /// to the end of what it holds, and its slot closes with it.
    fn read_peer(&self, from: usize, until: Option<Instant>, want: Option<u64>) -> bool {
        let (frames, end) = self
            .peer(from)
            .read(until, want, |f| self.mailbox.stash(from, f));
        let came = frames.iter().any(|f| Some(f.0) == want);
        let closed = end || (until.is_none() && self.mailbox.is_dead(from));
        self.mailbox.release(from, frames, closed);
        came
    }

    /// Write `frame` to `stream` whole. A write that cannot finish reads
    /// every socket nobody else is reading into the mailbox while it
    /// waits: two ranks that each send more than the socket buffers hold
    /// before they receive would otherwise wait on each other forever.
    fn write_frame(&self, stream: &TcpStream, mut frame: &[u8]) -> io::Result<()> {
        while !frame.is_empty() {
            match (&*stream).write(frame) {
                Ok(0) => return Err(ErrorKind::WriteZero.into()),
                Ok(n) => frame = &frame[n..],
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                    self.drain(Some(stream), NAP);
                }
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(())
    }

    /// Wait up to `nap` for a socket nobody else is reading to have bytes
    /// (or `writable` to take some), then read what each holds into the
    /// mailbox.
    fn drain(&self, writable: Option<&TcpStream>, nap: Duration) {
        let claimed = self.mailbox.claim_free();
        if claimed.is_empty() && writable.is_none() {
            return;
        }
        let mut fds: Vec<PollFd> = writable
            .map(|s| (s, POLLOUT))
            .into_iter()
            .chain(claimed.iter().map(|&r| (&self.peer(r).stream, POLLIN)))
            .map(|(s, events)| PollFd {
                fd: s.as_raw_fd(),
                events,
                revents: 0,
            })
            .collect();
        let _ = poll_fds(&mut fds, nap.as_millis().max(1) as i32);
        for from in claimed {
            self.read_peer(from, None, None);
        }
    }
}

impl Peer {
    fn new(stream: TcpStream) -> io::Result<Peer> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(SEND_WAIT))?;
        Ok(Peer {
            stream,
            sending: Mutex::new(()),
            inbound: Mutex::new(Inbound::default()),
        })
    }

    /// Read frames off the socket while holding its read slot: until a
    /// frame tagged `want` is among them, or until `until` passes
    /// (`None`: until nothing more is ready). Frames for other receivers
    /// go to `stash` as they come. Returns the frames not yet stashed and
    /// whether the socket's end was read.
    ///
    /// A header that fails its bound is a corrupt or hostile stream:
    /// nothing after it can be trusted to be framed, so the connection
    /// ends there exactly as at EOF — before any buffer is sized from it.
    fn read(
        &self,
        until: Option<Instant>,
        want: Option<u64>,
        stash: impl Fn(Vec<Frame>),
    ) -> (Vec<Frame>, bool) {
        let mut inbound = lock(&self.inbound);
        let mut frames = Vec::new();
        loop {
            let mut mine = false;
            loop {
                match inbound.frame() {
                    Ok(Some(frame)) => {
                        mine |= Some(frame.0) == want;
                        frames.push(frame);
                    }
                    Ok(None) => break,
                    Err(()) => return (frames, true),
                }
            }
            if mine {
                return (frames, false);
            }
            if !frames.is_empty() {
                stash(std::mem::take(&mut frames));
            }
            match inbound.fill(&self.stream, until) {
                Fill::Bytes => {}
                Fill::End => return (frames, true),
                Fill::Nothing if until.is_some_and(|t| Instant::now() < t) => {}
                Fill::Nothing => return (frames, false),
            }
        }
    }
}

/// Bytes read off one connection and not yet framed: `buf[start..end]`.
/// A frame cut short by a receive's timeout waits here for its rest.
struct Inbound {
    buf: Vec<u8>,
    start: usize,
    end: usize,
    /// The `SO_RCVTIMEO` last set on the socket.
    timeout: Option<Duration>,
}

/// What one `read(2)` brought.
enum Fill {
    Bytes,
    Nothing,
    /// EOF or a broken connection.
    End,
}

impl Default for Inbound {
    fn default() -> Self {
        Inbound {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
            timeout: None,
        }
    }
}

impl Inbound {
    /// One `read(2)` into the buffer. With `until` it blocks until bytes
    /// come or `until` passes, bounded by `SO_RCVTIMEO`; with `None` it
    /// reads only when `poll(2)` says bytes (or the end) are ready.
    fn fill(&mut self, stream: &TcpStream, until: Option<Instant>) -> Fill {
        if let Some(until) = until {
            let left = until.saturating_duration_since(Instant::now());
            if left.is_zero() {
                return Fill::Nothing;
            }
            // Re-arm only a timeout that would overshoot `until` by more
            // than 1/64 or is under half of what is left, so receives
            // with like deadlines set it once.
            if self
                .timeout
                .is_none_or(|t| t > left + left / 64 || t < left / 2)
            {
                if stream.set_read_timeout(Some(left)).is_err() {
                    return Fill::End;
                }
                self.timeout = Some(left);
            }
        } else {
            let mut fd = [PollFd {
                fd: stream.as_raw_fd(),
                events: POLLIN,
                revents: 0,
            }];
            if !matches!(poll_fds(&mut fd, 0), Ok(1)) {
                return Fill::Nothing;
            }
        }
        if self.end == self.buf.len() {
            self.make_room(READ_CHUNK);
        }
        match (&*stream).read(&mut self.buf[self.end..]) {
            Ok(0) => Fill::End,
            Ok(n) => {
                self.end += n;
                Fill::Bytes
            }
            Err(e)
                if matches!(
                    e.kind(),
                    ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted
                ) =>
            {
                Fill::Nothing
            }
            Err(_) => Fill::End,
        }
    }

    /// Move the unframed bytes to the front, with room for `extra` more.
    fn make_room(&mut self, extra: usize) {
        self.buf.copy_within(self.start..self.end, 0);
        self.end -= self.start;
        self.start = 0;
        if self.buf.len() < self.end + extra {
            self.buf.resize(self.end + extra, 0);
        }
    }

    /// The next whole frame in the buffer; `Err` for a header that fails
    /// its bound.
    fn frame(&mut self) -> Result<Option<Frame>, ()> {
        let unframed = self.end - self.start;
        if unframed < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let head = &self.buf[self.start..self.start + FRAME_HEADER_BYTES];
        let (len, tag, delay_us) = decode_frame_header(head).ok_or(())?;
        let whole = FRAME_HEADER_BYTES + len;
        if unframed < whole {
            if self.buf.len() - self.start < whole {
                self.make_room(whole - unframed);
            }
            return Ok(None);
        }
        let body = self.start + FRAME_HEADER_BYTES;
        let payload = self.buf[body..body + len].to_vec();
        self.start += whole;
        if self.start == self.end {
            (self.start, self.end) = (0, 0);
            if self.buf.len() > READ_CHUNK {
                self.buf = vec![0; READ_CHUNK];
            }
        }
        Ok(Some((tag, payload, Duration::from_micros(delay_us))))
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
        if self.mailbox.is_dead(to) {
            return;
        }
        let delay = delay.unwrap_or_default();
        let Some(peer) = &self.peers[to] else {
            // Our own index: loop back into the mailbox.
            self.mailbox.push(to, tag, data, delay);
            return;
        };
        let frame = encode_frame(tag, delay.as_micros() as u64, &data);
        let _turn = lock(&peer.sending);
        if self.write_frame(&peer.stream, &frame).is_err() {
            // A broken connection: the peer is gone. The message is
            // dropped like any send to the dead.
            self.mailbox.mark_dead(to);
        }
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }

    /// Probes `rank`'s socket without blocking (unless another thread is
    /// reading it), so a peer that died since the last receive from it
    /// is seen.
    fn is_alive(&self, rank: usize) -> bool {
        if !self.mailbox.is_dead(rank) && self.mailbox.claim(rank) {
            self.read_peer(rank, None, None);
        }
        !self.mailbox.is_dead(rank)
    }

    fn recv_timeout(&self, from: usize, tag: u64, timeout: Duration) -> Result<Vec<u8>, CommError> {
        let deadline = Instant::now() + timeout;
        let mut probed = false;
        loop {
            match self.mailbox.next(from, tag, deadline, probed)? {
                Next::Deliver(payload) => return Ok(payload),
                Next::Read(until) => {
                    probed = true;
                    // `from`'s socket alone for a while, then every free
                    // one for a while, until the message or `until`.
                    let alone = until.map(|t| t.min(Instant::now() + NAP));
                    if !self.read_peer(from, alone, Some(tag)) && alone != until {
                        let left = until.map_or(Duration::ZERO, |t| {
                            t.saturating_duration_since(Instant::now())
                        });
                        if !left.is_zero() {
                            self.drain(None, left.min(NAP));
                        }
                    }
                }
            }
        }
    }
}

impl Drop for TcpTransport {
    /// Shut every peer connection down explicitly. The FIN is sent after
    /// all queued data, so peers drain our remaining messages and *then*
    /// observe the death — this is what makes "send results, then exit"
    /// and "panic mid-round" both behave correctly.
    fn drop(&mut self) {
        for peer in self.peers.iter().flatten() {
            let _ = peer.stream.shutdown(std::net::Shutdown::Both);
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
/// tests the full wire path (rendezvous, framing, receives reading their
/// sockets, death by disconnect) without spawning processes.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A frame that arrives in pieces, with receives timing out between
    /// them — one cut inside the header, one inside the payload — is
    /// delivered whole by the receive after its last byte.
    #[test]
    fn a_receive_that_times_out_mid_frame_loses_nothing() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let mut peer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let ours = listener.accept().unwrap().0;
        let transport = TcpTransport::finish(0, 2, vec![None, Some(ours)]).unwrap();

        let body = (0..1000u32).map(|i| i as u8).collect::<Vec<u8>>();
        let frame = encode_frame(5, 0, &body);
        let short = Duration::from_millis(30);
        for piece in [&frame[..10], &frame[10..500]] {
            peer.write_all(piece).unwrap();
            let got = transport.recv_timeout(1, 5, short);
            assert_eq!(got, Err(CommError::Timeout { from: 1, tag: 5 }));
        }
        peer.write_all(&frame[500..]).unwrap();
        assert_eq!(
            transport.recv_timeout(1, 5, Duration::from_secs(30)),
            Ok(body)
        );
        assert!(transport.is_alive(1));
        drop(peer);
        assert_eq!(
            transport.recv_timeout(1, 5, Duration::from_secs(30)),
            Err(CommError::RankDead(1))
        );
    }
}
