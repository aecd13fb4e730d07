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
//! A TCP transport belongs to one thread, and it spawns none: a TCP rank
//! is one thread, which reads its sockets itself. A receive of
//! `(from, tag)` takes the message from the [`Mailbox`] if it is there.
//! Otherwise it reads `from`'s socket through that peer's
//! [`FrameDecoder`] until its frame comes or its deadline passes (a
//! blocking `read(2)` bounded by `SO_RCVTIMEO`), queueing frames for
//! other tags on the way. A frame cut short by the deadline stays in the
//! decoder for the next read. A receive that has waited 20 ms on its own
//! peer reads every socket for as long, then its own again, and so on: a
//! peer blocked sending to us while the peer we wait for waits on it
//! must not deadlock the three.
//!
//! **Death** is the end of a socket: EOF, a broken connection, or a
//! header that fails its bound. The peer is marked dead only after every
//! frame read before the end is in the mailbox, and that fails pending
//! receives with [`CommError::RankDead`] — process exit (clean or
//! crashed) is death notification, no extra protocol needed. Orderly TCP
//! shutdown delivers buffered frames before the EOF, so messages sent
//! just before a rank exits still arrive. A death is seen when a socket
//! is read — by a receive or a blocked send — or when a write fails,
//! which reads what the peer sent before it died and marks it dead.
//!
//! **Sends drain.** A write that cannot finish — the peer's socket
//! buffers are full — reads every socket into the mailbox while it waits
//! (`poll(2)` for writable or readable). Two ranks that each send more
//! than the buffers hold before they receive would otherwise wait on
//! each other forever. Writes wait at most `SO_SNDTIMEO` before they
//! return; `O_NONBLOCK` is never set, as it would be on a descriptor that
//! the other direction shares.
//!
//! The mesh is fixed for the life of a run: a dead peer stays dead. Getting
//! past a death — restarting every rank from the newest complete
//! checkpoint — is the job of whoever launched the processes.

use std::cell::RefCell;
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
/// It belongs to one thread (see the module docs).
pub struct TcpTransport {
    rank: usize,
    size: usize,
    /// Filled by this rank's own reads (see the module docs).
    mailbox: Mailbox,
    /// One connection per peer (`None` at our own index).
    peers: Vec<Option<Peer>>,
}

/// One peer's connection: sends and receives share the socket.
struct Peer {
    stream: TcpStream,
    inbound: RefCell<Inbound>,
}

/// How long a write waits for buffer space before it returns what it
/// wrote, so a blocked send gets to read its peers' sockets.
const SEND_WAIT: Duration = Duration::from_millis(1);

/// How long a receive reads its own peer's socket alone before it reads
/// every one for as long (see the module docs). Also the longest
/// `poll(2)` nap of a blocked send.
const NAP: Duration = Duration::from_millis(20);

/// Read size, and the buffer a decoder shrinks back to once a larger
/// frame has gone through.
const READ_CHUNK: usize = 64 << 10;

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
            mailbox: Mailbox::new(size),
            peers,
        })
    }

    /// Hand over the mesh's sockets, one per peer (`None` at our own
    /// index), as plain blocking sockets, for a program that drives them
    /// itself: the serving fleet uses the mesh to bootstrap only. Call it
    /// before any receive, as bytes already read stay behind.
    ///
    /// # Errors
    /// A socket whose timeouts cannot be cleared.
    pub fn into_streams(mut self) -> io::Result<Vec<Option<TcpStream>>> {
        std::mem::take(&mut self.peers)
            .into_iter()
            .map(|peer| {
                peer.map(|p| {
                    p.stream.set_write_timeout(None)?;
                    p.stream.set_read_timeout(None)?;
                    Ok(p.stream)
                })
                .transpose()
            })
            .collect()
    }

    fn peer(&self, rank: usize) -> &Peer {
        self.peers[rank].as_ref().expect("a socket to read")
    }

    /// Whether `rank`'s socket may still bring something: it exists and
    /// its end has not been read.
    fn readable(&self, rank: usize) -> bool {
        self.peers[rank].is_some() && !self.mailbox.is_dead(rank)
    }

    /// Read `from`'s socket into the mailbox: until a frame tagged `want`
    /// is among what came, or until `until` passes (`None`: only what is
    /// ready now). Whether it came. The socket's end marks `from` dead,
    /// after every frame read before it is queued.
    ///
    /// A header that fails its bound is a corrupt or hostile stream:
    /// nothing after it can be trusted to be framed, so the connection
    /// ends there exactly as at EOF — before any buffer is sized from it.
    fn read_peer(&self, from: usize, until: Option<Instant>, want: Option<u64>) -> bool {
        let peer = self.peer(from);
        let mut inbound = peer.inbound.borrow_mut();
        let mut came = false;
        loop {
            loop {
                match inbound.frames.next_frame() {
                    Ok(Some(f)) => {
                        came |= Some(f.tag) == want;
                        self.mailbox.push(from, f.tag, f.payload, f.delay);
                    }
                    Ok(None) => break,
                    Err(FrameTooLarge) => {
                        self.mailbox.mark_dead(from);
                        return came;
                    }
                }
            }
            if came {
                return true;
            }
            match inbound.fill(&peer.stream, until) {
                Fill::Bytes => {}
                Fill::End => {
                    self.mailbox.mark_dead(from);
                    return false;
                }
                Fill::Nothing if until.is_some_and(|t| Instant::now() < t) => {}
                Fill::Nothing => return false,
            }
        }
    }

    /// Write `frame` to `stream` whole. A write that cannot finish reads
    /// every socket into the mailbox while it waits: two ranks that each
    /// send more than the socket buffers hold before they receive would
    /// otherwise wait on each other forever.
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

    /// Wait up to `nap` for a socket to have bytes (or `writable` to take
    /// some), then read what each holds into the mailbox.
    fn drain(&self, writable: Option<&TcpStream>, nap: Duration) {
        let live: Vec<usize> = (0..self.size).filter(|&r| self.readable(r)).collect();
        let mut fds: Vec<PollFd> = writable
            .map(|s| (s, POLLOUT))
            .into_iter()
            .chain(live.iter().map(|&r| (&self.peer(r).stream, POLLIN)))
            .map(|(s, events)| PollFd {
                fd: s.as_raw_fd(),
                events,
                revents: 0,
            })
            .collect();
        let _ = poll_fds(&mut fds, nap.as_millis().max(1) as i32);
        let polled = &fds[usize::from(writable.is_some())..];
        for (&from, fd) in live.iter().zip(polled) {
            if fd.revents != 0 {
                self.read_peer(from, None, None);
            }
        }
    }
}

impl Peer {
    fn new(stream: TcpStream) -> io::Result<Peer> {
        stream.set_nodelay(true)?;
        stream.set_write_timeout(Some(SEND_WAIT))?;
        Ok(Peer {
            stream,
            inbound: RefCell::new(Inbound::default()),
        })
    }
}

/// The receiving half of one connection.
#[derive(Default)]
struct Inbound {
    frames: FrameDecoder,
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

impl Inbound {
    /// One `read(2)` into the decoder. With `until` it blocks until bytes
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
        match self.frames.read_from(stream) {
            Ok(0) => Fill::End,
            Ok(_) => Fill::Bytes,
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
}

/// A frame off the wire.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Frame {
    /// The tag it was sent under.
    pub tag: u64,
    /// How long the receiver holds it before delivery (fault injection).
    pub delay: Duration,
    /// The message.
    pub payload: Vec<u8>,
}

/// A frame header naming a payload over [`MAX_FRAME_BYTES`]: a corrupt or
/// hostile stream, nothing after which can be trusted to be framed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FrameTooLarge;

/// The one decoder of the frame format (see the module docs), without a
/// socket: bytes go in through [`Self::read_from`], whole frames come out
/// of [`Self::next_frame`]. A frame cut short by a read's timeout waits
/// here for its rest. The TCP transport, the serving router and its
/// shards each read their sockets through one decoder per connection.
pub struct FrameDecoder {
    /// Bytes read and not yet framed: `buf[start..end]`.
    buf: Vec<u8>,
    start: usize,
    end: usize,
}

impl Default for FrameDecoder {
    fn default() -> Self {
        FrameDecoder {
            buf: vec![0; READ_CHUNK],
            start: 0,
            end: 0,
        }
    }
}

impl FrameDecoder {
    /// One `read` from `src` into the buffer; `Ok(0)` is the end of the
    /// stream.
    ///
    /// # Errors
    /// Those of the read.
    pub fn read_from(&mut self, mut src: impl Read) -> io::Result<usize> {
        if self.end == self.buf.len() {
            self.make_room(READ_CHUNK);
        }
        let n = src.read(&mut self.buf[self.end..])?;
        self.end += n;
        Ok(n)
    }

    /// The next whole frame in the buffer, if one is.
    ///
    /// # Errors
    /// [`FrameTooLarge`] for a header over its bound, before any buffer
    /// is sized from it.
    pub fn next_frame(&mut self) -> Result<Option<Frame>, FrameTooLarge> {
        let unframed = self.end - self.start;
        if unframed < FRAME_HEADER_BYTES {
            return Ok(None);
        }
        let head = &self.buf[self.start..self.start + FRAME_HEADER_BYTES];
        let (len, tag, delay_us) = decode_frame_header(head).ok_or(FrameTooLarge)?;
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
        Ok(Some(Frame {
            tag,
            delay: Duration::from_micros(delay_us),
            payload,
        }))
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
        if self.write_frame(&peer.stream, &frame).is_err() {
            // A broken connection: the peer is gone. What it sent before
            // is read first; the message is dropped like any send to the
            // dead.
            self.read_peer(to, None, None);
            self.mailbox.mark_dead(to);
        }
    }

    fn mailbox(&self) -> &Mailbox {
        &self.mailbox
    }

    fn recv_timeout(&self, from: usize, tag: u64, timeout: Duration) -> Result<Vec<u8>, CommError> {
        let deadline = Instant::now() + timeout;
        let mut probed = false;
        loop {
            let until = match self.mailbox.next(from, tag, deadline) {
                Ok(Next::Deliver(payload)) => return Ok(payload),
                Ok(Next::Wait(until)) => Some(until),
                // A receive past its deadline still reads once what is
                // ready.
                Err(CommError::Timeout { .. }) if !probed => None,
                Err(e) => return Err(e),
            };
            probed = true;
            // `from`'s socket alone for a while, then every socket for a
            // while, until the message or `until`.
            if self.readable(from) {
                let alone = until.map(|t| t.min(Instant::now() + NAP));
                if self.read_peer(from, alone, Some(tag)) || alone == until {
                    continue;
                }
            }
            let left = until.map_or(Duration::ZERO, |t| {
                t.saturating_duration_since(Instant::now())
            });
            if !left.is_zero() {
                self.drain(None, left.min(NAP));
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
