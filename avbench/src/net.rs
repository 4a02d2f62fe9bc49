//! Non-blocking client sockets that one thread drives: `ppoll` wakes
//! the generator when a reply arrives or when the next request is due.

use avdb_wire::Decoder;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: std::ffi::c_int,
    events: std::ffi::c_short,
    revents: std::ffi::c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: std::ffi::c_long,
    tv_nsec: std::ffi::c_long,
}

const POLLIN: std::ffi::c_short = 0x1;
const POLLOUT: std::ffi::c_short = 0x4;
const PR_SET_TIMERSLACK: std::ffi::c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: std::ffi::c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> std::ffi::c_int;
    fn prctl(option: std::ffi::c_int, ...) -> std::ffi::c_int;
}

/// Sleeps until a socket is readable (or writable, where frames wait),
/// or `timeout` passes. `ppoll` takes a nanosecond timeout, so the
/// generator wakes on time for the next due request.
pub fn wait(conns: &[Conn], timeout: Duration) {
    let mut fds: Vec<PollFd> = conns
        .iter()
        .map(|c| {
            use std::os::fd::AsRawFd;
            let mut events = POLLIN;
            if c.unsent() > 0 {
                events |= POLLOUT;
            }
            PollFd {
                fd: c.stream.as_raw_fd(),
                events,
                revents: 0,
            }
        })
        .collect();
    let ts = Timespec {
        tv_sec: timeout.as_secs() as std::ffi::c_long,
        tv_nsec: timeout.subsec_nanos() as std::ffi::c_long,
    };
    // SAFETY: `fds` is a live, exclusively borrowed array of `fds.len()`
    // `pollfd`-layout structs holding open descriptors owned by `conns`;
    // `ts` outlives the call; a null signal mask is allowed by ppoll(2).
    // Interrupts and errors only end the wait early, which the caller's
    // loop handles by re-checking the sockets and the clock.
    unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as std::ffi::c_ulong,
            &ts,
            std::ptr::null(),
        );
    }
}

/// Asks the kernel to wake this thread within 1 µs of a timeout instead
/// of the default 50 µs, so the generator's own lateness stays small.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and only
    // changes this thread's timer slack; a failure leaves the default.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1000 as std::ffi::c_ulong);
    }
}

/// One client connection: its socket, the bytes not yet written, and the
/// reply decoder.
pub struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    /// Stream offsets at which the unwritten frames end.
    frame_ends: VecDeque<usize>,
    pub dec: Decoder,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream
            .set_nodelay(true)
            .map_err(|e| format!("nodelay: {e}"))?;
        stream
            .set_nonblocking(true)
            .map_err(|e| format!("nonblocking: {e}"))?;
        Ok(Conn {
            stream,
            out: Vec::new(),
            written: 0,
            frame_ends: Default::default(),
            dec: Decoder::new(),
        })
    }

    pub fn unsent(&self) -> usize {
        self.frame_ends.len()
    }

    pub fn queue(&mut self, frame: &[u8]) {
        self.out.extend_from_slice(frame);
        self.frame_ends.push_back(self.out.len());
    }

    /// Writes what the socket takes without blocking.
    pub fn flush(&mut self) -> Result<(), String> {
        while self.written < self.out.len() {
            match self.stream.write(&self.out[self.written..]) {
                Ok(0) => return Err("gateway closed the connection".into()),
                Ok(n) => self.written += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("write: {e}")),
            }
        }
        while self
            .frame_ends
            .front()
            .is_some_and(|end| *end <= self.written)
        {
            self.frame_ends.pop_front();
        }
        if self.written == self.out.len() {
            self.out.clear();
            self.written = 0;
            self.frame_ends.clear();
        }
        Ok(())
    }

    /// Reads what has arrived without blocking.
    pub fn fill(&mut self, chunk: &mut [u8]) -> Result<(), String> {
        loop {
            match self.stream.read(chunk) {
                Ok(0) => return Err("gateway closed the connection".into()),
                Ok(n) => self.dec.extend(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(()),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) => return Err(format!("read: {e}")),
            }
        }
    }
}
