//! The workspace's one binding to `poll(2)`: the TCP transport's
//! non-blocking probes and blocked-send waits, and dt-serve's reactor.
//! `std` links libc on every Unix target, so no external crate is
//! needed. `#![deny(unsafe_code)]` holds for the rest of the crate; this
//! module carries the single scoped allow.

#![allow(unsafe_code)]

use std::ffi::{c_int, c_ulong};
use std::io;
use std::os::unix::io::RawFd;

/// Readable (POSIX `POLLIN`).
pub const POLLIN: i16 = 0x001;
/// Writable (POSIX `POLLOUT`).
pub const POLLOUT: i16 = 0x004;

/// Mirror of C `struct pollfd` (`<poll.h>`).
#[repr(C)]
#[derive(Clone, Copy)]
pub struct PollFd {
    /// File descriptor to watch.
    pub fd: RawFd,
    /// Requested events.
    pub events: i16,
    /// Returned events (`POLLERR`/`POLLHUP`/`POLLNVAL` may appear
    /// even when unrequested).
    pub revents: i16,
}

extern "C" {
    fn poll(fds: *mut PollFd, nfds: c_ulong, timeout: c_int) -> c_int;
}

/// Block until an fd is ready or `timeout_ms` elapses (`0` returns at
/// once, `-1` waits forever). `EINTR` is reported as zero ready fds —
/// the caller's loop just re-polls.
///
/// # Errors
/// Any other `poll(2)` failure.
pub fn poll_fds(fds: &mut [PollFd], timeout_ms: i32) -> io::Result<usize> {
    // SAFETY: `fds` is an exclusively borrowed slice of `#[repr(C)]`
    // pollfd records, valid for the whole call; the kernel writes only
    // the `revents` fields.
    let rc = unsafe {
        poll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            c_int::from(timeout_ms),
        )
    };
    if rc < 0 {
        let e = io::Error::last_os_error();
        if e.kind() == io::ErrorKind::Interrupted {
            return Ok(0);
        }
        return Err(e);
    }
    Ok(rc as usize)
}
