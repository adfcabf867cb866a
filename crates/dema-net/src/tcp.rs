//! TCP transport: real sockets, length-prefixed frames, same accounting as
//! the in-memory links.
//!
//! One `TcpStream` carries one unidirectional message flow (the cluster
//! wires two streams per node pair). `TCP_NODELAY` is set on both ends —
//! the protocol is request/response-ish per window, so Nagle would
//! serialize the identification/calculation round trips.
//!
//! [`TcpSender`] and [`TcpReceiver`] are only connect/accept handles; they
//! carry no message. `into_nonblocking` turns them into [`NbTcpSender`]
//! and [`NbTcpReceiver`], the ends the reactor hosts. Each connection owns
//! one outbound buffer, to which `send` appends frames with
//! [`encode_frame_into`] and which drains as fast as the socket accepts,
//! and one inbound buffer, which nonblocking reads fill and
//! [`decode_frame`] parses. Neither end ever waits on the socket.

use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::time::Duration;

use dema_wire::frame::{decode_frame, encode_frame_into};
use dema_wire::Message;

use crate::{MsgReceiver, MsgSender, NetError, SharedCounters};

/// `true` for the I/O error kinds that mean "the peer is gone" rather than
/// a transient or environmental failure.
fn is_disconnect(kind: ErrorKind) -> bool {
    matches!(
        kind,
        ErrorKind::BrokenPipe
            | ErrorKind::ConnectionReset
            | ErrorKind::ConnectionAborted
            | ErrorKind::UnexpectedEof
    )
}

/// Connected sending end of a TCP link, before conversion.
pub struct TcpSender {
    stream: TcpStream,
    counters: SharedCounters,
}

/// Accepted receiving end of a TCP link, before conversion.
pub struct TcpReceiver {
    stream: TcpStream,
}

impl TcpSender {
    /// Connect to a listening peer, failing after `timeout` instead of
    /// hanging on an unresponsive address. The resulting I/O error (timed
    /// out, refused, unreachable…) is surfaced as [`NetError::Io`].
    pub fn connect_timeout(
        addr: SocketAddr,
        counters: SharedCounters,
        timeout: Duration,
    ) -> Result<TcpSender, NetError> {
        let stream = TcpStream::connect_timeout(&addr, timeout).map_err(NetError::Io)?;
        stream.set_nodelay(true).map_err(NetError::Io)?;
        Ok(TcpSender { stream, counters })
    }

    /// Convert into the reactor-hosted nonblocking sender.
    pub fn into_nonblocking(self) -> Result<NbTcpSender, NetError> {
        self.stream.set_nonblocking(true).map_err(NetError::Io)?;
        Ok(NbTcpSender {
            stream: self.stream,
            pending: Vec::new(),
            flushed: 0,
            counters: self.counters,
        })
    }
}

/// Nonblocking TCP sender for reactor hosting. A `send` frames the message
/// into a per-connection outbound buffer and writes as much as the socket
/// accepts; on `WouldBlock` the remainder stays buffered and
/// [`MsgSender::flush_pending`] retries it when the reactor reports the
/// socket writable again. Byte accounting happens at frame time, so
/// counters are independent of how the kernel slices the writes.
pub struct NbTcpSender {
    stream: TcpStream,
    /// Framed-but-unwritten bytes; `flushed` marks how far the socket got.
    pending: Vec<u8>,
    flushed: usize,
    counters: SharedCounters,
}

impl NbTcpSender {
    /// Bytes buffered and not yet accepted by the socket.
    pub fn pending_bytes(&self) -> usize {
        self.pending.len() - self.flushed
    }
}

impl MsgSender for NbTcpSender {
    fn send(&mut self, msg: &Message) -> Result<(), NetError> {
        let before = self.pending.len();
        encode_frame_into(msg, &mut self.pending);
        self.counters
            .record((self.pending.len() - before) as u64, msg.event_units());
        self.flush_pending().map(|_| ())
    }

    fn flush_pending(&mut self) -> Result<bool, NetError> {
        while self.flushed < self.pending.len() {
            match self.stream.write(&self.pending[self.flushed..]) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.flushed += n,
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(false),
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(e) if is_disconnect(e.kind()) => return Err(NetError::Disconnected),
                Err(e) => return Err(NetError::Io(e)),
            }
        }
        self.pending.clear();
        self.flushed = 0;
        Ok(true)
    }
}

impl TcpReceiver {
    /// Convert into the reactor-hosted nonblocking receiver.
    pub fn into_nonblocking(self) -> Result<NbTcpReceiver, NetError> {
        self.stream.set_nonblocking(true).map_err(NetError::Io)?;
        Ok(NbTcpReceiver {
            stream: self.stream,
            buf: Vec::new(),
            start: 0,
            closed: false,
        })
    }
}

/// Nonblocking TCP receiver for reactor hosting: an incremental frame
/// parser over a nonblocking socket. Each poll reads whatever the socket
/// has, returning one decoded message at a time; partial frames stay
/// buffered across polls.
pub struct NbTcpReceiver {
    stream: TcpStream,
    /// Raw bytes read but not yet parsed; `start` is the parse offset.
    buf: Vec<u8>,
    start: usize,
    closed: bool,
}

impl NbTcpReceiver {
    /// Parse one frame out of the buffer, if a complete one is there.
    fn take_frame(&mut self) -> Result<Option<Message>, NetError> {
        let Some((msg, used)) =
            decode_frame(&self.buf[self.start..]).map_err(|e| NetError::Corrupt(e.to_string()))?
        else {
            return Ok(None);
        };
        self.start += used;
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        }
        Ok(Some(msg))
    }
}

impl MsgReceiver for NbTcpReceiver {
    /// Reads whatever the socket holds and returns the first complete
    /// frame. [`NetError::Disconnected`] once the peer has closed cleanly
    /// between frames; a close mid-frame is corruption.
    fn try_recv(&mut self) -> Result<Option<Message>, NetError> {
        loop {
            if let Some(msg) = self.take_frame()? {
                return Ok(Some(msg));
            }
            if self.closed {
                return if self.start < self.buf.len() {
                    Err(NetError::Corrupt("stream ended mid-frame".to_string()))
                } else {
                    Err(NetError::Disconnected)
                };
            }
            // Compact before growing so the buffer stays bounded by the
            // largest in-flight frame, not the connection's history.
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => self.closed = true,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if is_disconnect(e.kind()) => self.closed = true,
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}

/// Bind a listener on `addr` (use port 0 for an ephemeral port).
pub fn listen(addr: SocketAddr) -> Result<TcpListener, NetError> {
    TcpListener::bind(addr).map_err(NetError::Io)
}

/// Accept one inbound link.
pub fn accept(listener: &TcpListener) -> Result<TcpReceiver, NetError> {
    let (stream, _) = listener.accept().map_err(NetError::Io)?;
    stream.set_nodelay(true).map_err(NetError::Io)?;
    Ok(TcpReceiver { stream })
}

#[cfg(test)]
mod tests {
    use super::*;
    use dema_core::event::{Event, NodeId, WindowId};
    use dema_metrics::NetworkCounters;
    use dema_wire::frame::MAX_FRAME;
    use std::time::Instant;

    fn loopback_pair() -> (NbTcpSender, NbTcpReceiver, SharedCounters) {
        let listener = listen("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let counters = NetworkCounters::new_shared();
        let tx = TcpSender::connect_timeout(
            addr,
            SharedCounters::clone(&counters),
            Duration::from_secs(5),
        )
        .unwrap();
        let rx = accept(&listener).unwrap();
        (
            tx.into_nonblocking().unwrap(),
            rx.into_nonblocking().unwrap(),
            counters,
        )
    }

    /// A raw socket writing into a live receiver, for hand-made byte
    /// streams.
    fn raw_pair() -> (TcpStream, NbTcpReceiver) {
        let listener = listen("127.0.0.1:0".parse().unwrap()).unwrap();
        let writer = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        writer.set_nodelay(true).unwrap();
        let rx = accept(&listener).unwrap().into_nonblocking().unwrap();
        (writer, rx)
    }

    /// Poll until the receiver yields a message or an error.
    fn next(rx: &mut NbTcpReceiver) -> Result<Message, NetError> {
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            if let Some(msg) = rx.try_recv()? {
                return Ok(msg);
            }
            assert!(Instant::now() < deadline, "nothing arrived in 10 s");
            std::thread::yield_now();
        }
    }

    fn msg(n: u64) -> Message {
        Message::EventBatch {
            node: NodeId(1),
            window: WindowId(2),
            sorted: true,
            events: (0..n).map(|i| Event::new(i as i64 - 5, i, i)).collect(),
        }
    }

    #[test]
    fn roundtrip_over_loopback() {
        let (mut tx, mut rx, counters) = loopback_pair();
        let m = msg(50);
        tx.send(&m).unwrap();
        assert_eq!(next(&mut rx).unwrap(), m);
        let s = counters.snapshot();
        assert_eq!(s.bytes, m.encoded_len() as u64 + 4);
        assert_eq!(s.events, 50);
    }

    #[test]
    fn many_messages_in_order() {
        let (mut tx, mut rx, _) = loopback_pair();
        let h = std::thread::spawn(move || {
            for i in 0..500 {
                tx.send(&Message::GammaUpdate { gamma: i }).unwrap();
            }
            while !tx.flush_pending().unwrap() {
                std::thread::yield_now();
            }
        });
        for i in 0..500 {
            assert_eq!(next(&mut rx).unwrap(), Message::GammaUpdate { gamma: i });
        }
        h.join().unwrap();
    }

    #[test]
    fn recv_timeout_returns_none() {
        // An idle link with a live sender waited out to a caller-side
        // deadline yields nothing and no error.
        let (_tx, mut rx, _) = loopback_pair();
        let deadline = Instant::now() + Duration::from_millis(30);
        while Instant::now() < deadline {
            assert!(rx.try_recv().unwrap().is_none());
            std::thread::yield_now();
        }
    }

    #[test]
    fn timeout_then_delivery_still_works() {
        // A caller-side timeout: poll the idle link until a deadline passes.
        let (mut tx, mut rx, _) = loopback_pair();
        let deadline = Instant::now() + Duration::from_millis(10);
        while Instant::now() < deadline {
            assert!(rx.try_recv().unwrap().is_none());
            std::thread::yield_now();
        }
        tx.send(&Message::GammaUpdate { gamma: 9 }).unwrap();
        assert_eq!(next(&mut rx).unwrap(), Message::GammaUpdate { gamma: 9 });
    }

    #[test]
    fn peer_close_is_disconnect() {
        // Frames sent before the close are delivered before the close.
        let (mut tx, mut rx, _) = loopback_pair();
        tx.send(&Message::GammaUpdate { gamma: 4 }).unwrap();
        drop(tx);
        assert_eq!(next(&mut rx).unwrap(), Message::GammaUpdate { gamma: 4 });
        assert!(matches!(next(&mut rx), Err(NetError::Disconnected)));
    }

    #[test]
    fn nonblocking_peer_close_is_disconnect() {
        let (tx, mut rx, _) = loopback_pair();
        drop(tx);
        assert!(matches!(next(&mut rx), Err(NetError::Disconnected)));
    }

    #[test]
    fn connect_timeout_connects_and_surfaces_refusal() {
        // Happy path: a listener is up, the bounded connect succeeds.
        let listener = listen("127.0.0.1:0".parse().unwrap()).unwrap();
        let addr = listener.local_addr().unwrap();
        let tx =
            TcpSender::connect_timeout(addr, NetworkCounters::new_shared(), Duration::from_secs(5))
                .unwrap();
        let mut tx = tx.into_nonblocking().unwrap();
        let mut rx = accept(&listener).unwrap().into_nonblocking().unwrap();
        tx.send(&Message::GammaUpdate { gamma: 3 }).unwrap();
        assert_eq!(next(&mut rx).unwrap(), Message::GammaUpdate { gamma: 3 });

        // Nothing listening: the error comes back as a real NetError::Io
        // instead of a hang or a panic.
        drop(listener);
        drop(rx);
        let err = TcpSender::connect_timeout(
            addr,
            NetworkCounters::new_shared(),
            Duration::from_millis(500),
        );
        assert!(matches!(err, Err(NetError::Io(_))));
    }

    #[test]
    fn nonblocking_sender_buffers_on_full_socket_and_drains() {
        // Fill the loopback socket until a write would block: the sender
        // must buffer the remainder instead of erroring, then finish the
        // job via flush_pending as the reader drains.
        let (mut tx, mut rx, _) = loopback_pair();
        let big = msg(20_000);
        let mut sent = 0u64;
        while tx.pending_bytes() == 0 && sent < 256 {
            tx.send(&big).unwrap();
            sent += 1;
        }
        assert!(tx.pending_bytes() > 0, "socket never filled");
        assert!(!tx.flush_pending().unwrap(), "still pending while unread");
        let mut got = 0u64;
        while got < sent {
            let _ = tx.flush_pending().unwrap();
            match rx.try_recv().unwrap() {
                Some(m) => {
                    assert_eq!(m, big);
                    got += 1;
                }
                None => std::thread::yield_now(),
            }
        }
        assert!(tx.flush_pending().unwrap(), "fully drained");
        assert_eq!(tx.pending_bytes(), 0);
    }

    #[test]
    fn oversize_prefix_is_corrupt_without_waiting_for_payload() {
        // The writer stays open and sends no payload: the prefix alone
        // must be rejected.
        let (mut writer, mut rx) = raw_pair();
        writer.write_all(&(MAX_FRAME + 1).to_le_bytes()).unwrap();
        assert!(matches!(next(&mut rx), Err(NetError::Corrupt(_))));
    }

    #[test]
    fn half_frame_then_close_is_corrupt() {
        let (mut writer, mut rx) = raw_pair();
        let mut frame = Vec::new();
        encode_frame_into(&msg(10), &mut frame);
        writer.write_all(&frame[..frame.len() / 2]).unwrap();
        drop(writer);
        match next(&mut rx) {
            Err(NetError::Corrupt(why)) => assert_eq!(why, "stream ended mid-frame"),
            other => panic!("expected a mid-frame corruption, got {other:?}"),
        }
    }

    #[test]
    fn frame_written_byte_by_byte_decodes_intact() {
        let (mut writer, mut rx) = raw_pair();
        let m = msg(3);
        let mut frame = Vec::new();
        encode_frame_into(&m, &mut frame);
        let (last, head) = frame.split_last().unwrap();
        for (i, byte) in head.iter().enumerate() {
            writer.write_all(&[*byte]).unwrap();
            // Poll until the receiver has buffered this byte: every poll
            // before the frame's last byte must come back empty.
            let deadline = Instant::now() + Duration::from_secs(10);
            while rx.buf.len() - rx.start < i + 1 {
                assert!(rx.try_recv().unwrap().is_none(), "frame done at byte {i}");
                assert!(Instant::now() < deadline, "byte {i} never arrived");
                std::thread::yield_now();
            }
        }
        writer.write_all(&[*last]).unwrap();
        assert_eq!(next(&mut rx).unwrap(), m);
        assert!(rx.try_recv().unwrap().is_none());
    }
}
