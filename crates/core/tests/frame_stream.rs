//! [`FrameStream`]: what comes off a stream is what went onto it however
//! the bytes were cut up, the syscall budget of a round trip, and the
//! stall and end-of-stream outcomes a serving loop tells apart.

use proptest::prelude::*;
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::{Duration, Instant};
use sysplex_core::wire::{FrameStream, ReadDeadline, WireError, MAX_FRAME_BYTES, MID_FRAME_STALL};

/// The bytes of frames numbered from `first_seq` carrying `bodies`.
fn framed(first_seq: u32, bodies: &[Vec<u8>]) -> Vec<u8> {
    let mut link = FrameStream::new(Vec::new());
    for (i, body) in bodies.iter().enumerate() {
        link.send(first_seq + i as u32, |w| w.put_raw(body)).unwrap();
    }
    link.into_inner()
}

/// A stream that hands out `data` in reads of the given sizes, cycled.
struct Chunked<'a> {
    data: &'a [u8],
    sizes: &'a [usize],
    reads: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self.sizes[self.reads % self.sizes.len()].min(buf.len()).min(self.data.len());
        self.reads += 1;
        buf[..n].copy_from_slice(&self.data[..n]);
        self.data = &self.data[n..];
        Ok(n)
    }
}

proptest! {
    #[test]
    fn frames_survive_any_chunking(
        bodies in proptest::collection::vec(proptest::collection::vec(any::<u8>(), 0..3000), 0..8),
        sizes in proptest::collection::vec(1usize..6000, 1..12),
        first_seq in any::<u16>(),
        partial in any::<u16>(),
    ) {
        let mut bytes = framed(first_seq as u32, &bodies);
        // A trailing piece of one more frame (none when `partial` cuts at 0).
        let extra = framed(0, &[vec![0xEE; 40]]);
        let cut = partial as usize % extra.len();
        bytes.extend_from_slice(&extra[..cut]);

        let mut link = FrameStream::new(Chunked { data: &bytes, sizes: &sizes, reads: 0 });
        for (i, body) in bodies.iter().enumerate() {
            let frame = link.recv().unwrap();
            prop_assert_eq!((frame.seq, frame.body()), (first_seq as u32 + i as u32, body.as_slice()));
        }
        let end = if cut == 0 { ErrorKind::UnexpectedEof } else { ErrorKind::ConnectionAborted };
        prop_assert_eq!(link.recv().unwrap_err().kind(), end);
    }
}

/// A frame larger than the buffer's first size grows it, and the buffer
/// is given back once the frame has been consumed.
#[test]
fn a_large_frame_grows_the_buffer_only_while_it_is_held() {
    let bodies = [vec![7u8; 300 * 1024], b"after".to_vec()];
    let bytes = framed(0, &bodies);
    let mut link = FrameStream::new(Chunked { data: &bytes, sizes: &[7000], reads: 0 });
    assert_eq!(link.recv().unwrap().body(), bodies[0]);
    assert!(link.read_buffer_bytes() >= bodies[0].len());
    // The next read that starts from an empty buffer starts from a new one.
    assert_eq!(link.recv().unwrap().body(), b"after");
    assert_eq!(link.recv().unwrap_err().kind(), ErrorKind::UnexpectedEof);
    assert!(link.read_buffer_bytes() <= 64 * 1024, "kept {} bytes", link.read_buffer_bytes());
}

/// The length in a header is a claim by whoever is at the other end:
/// memory is committed as bytes arrive, not when the claim is read.
#[test]
fn an_announced_length_allocates_nothing_until_bytes_arrive() {
    let mut bytes = framed(0, &[Vec::new()]);
    bytes[5..9].copy_from_slice(&(MAX_FRAME_BYTES as u32).to_le_bytes());
    bytes.extend_from_slice(&[0xAB; 100]);
    let mut link = FrameStream::new(&bytes[..]);
    assert_eq!(link.recv().unwrap_err().kind(), ErrorKind::ConnectionAborted);
    assert!(link.read_buffer_bytes() <= 128 * 1024, "committed {} bytes", link.read_buffer_bytes());
}

/// A stream that counts what a socket would charge a syscall for. Each
/// read delivers the next scripted arrival, as a socket delivers what has
/// come in since the last one.
#[derive(Default)]
struct Counted {
    arrivals: VecDeque<Vec<u8>>,
    sent: Vec<u8>,
    reads: usize,
    writes: usize,
    deadlines: Vec<Option<Duration>>,
}

impl Read for Counted {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        self.reads += 1;
        let Some(arrival) = self.arrivals.pop_front() else { return Ok(0) };
        assert!(arrival.len() <= buf.len(), "the reader offered less room than one arrival");
        buf[..arrival.len()].copy_from_slice(&arrival);
        Ok(arrival.len())
    }
}

impl Write for Counted {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.writes += 1;
        self.sent.extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl ReadDeadline for Counted {
    fn set_read_deadline(&mut self, deadline: Option<Duration>) -> std::io::Result<()> {
        self.deadlines.push(deadline);
        Ok(())
    }
}

/// The tripwire on the round trip's syscall budget: one write per frame
/// sent, at most one read per frame that arrived whole, and the read
/// deadline never touched on that path.
#[test]
fn a_whole_frame_costs_one_write_one_read_and_no_deadline() {
    let bodies: Vec<Vec<u8>> = (0..20).map(|i| vec![i as u8; 50 * i]).collect();
    let mut link = FrameStream::new(Counted::default());
    for (i, body) in bodies.iter().enumerate() {
        link.send(i as u32, |w| w.put_raw(body)).unwrap();
        assert_eq!(link.get_ref().writes, i + 1, "frame {i} took more than one write");
    }
    let sent = link.into_inner().sent;
    assert_eq!(sent, framed(0, &bodies));

    // Lockstep: each frame is there, whole, when the reader asks.
    let lockstep =
        bodies.iter().enumerate().map(|(i, b)| framed(i as u32, std::slice::from_ref(b))).collect();
    let mut link = FrameStream::new(Counted { arrivals: lockstep, ..Counted::default() });
    for (i, body) in bodies.iter().enumerate() {
        assert_eq!(link.recv_patient().unwrap().body(), body);
        assert_eq!(link.get_ref().reads, i + 1, "frame {i} took more than one read");
    }
    assert!(link.get_ref().deadlines.is_empty(), "deadline touched: {:?}", link.get_ref().deadlines);

    // Frames that arrived together share the one read.
    let mut link =
        FrameStream::new(Counted { arrivals: [framed(0, &bodies[..5])].into(), ..Counted::default() });
    for body in &bodies[..5] {
        assert_eq!(link.recv_patient().unwrap().body(), body);
    }
    assert_eq!((link.get_ref().reads, link.get_ref().deadlines.len()), (1, 0));
}

/// Only a frame that arrives in pieces puts the stream on the clock, and
/// the clock is off again when the frame is out.
#[test]
fn a_frame_in_pieces_arms_the_deadline_once_and_disarms_it() {
    let bytes = framed(3, &[b"in three pieces".to_vec()]);
    let arrivals = [bytes[..5].to_vec(), bytes[5..20].to_vec(), bytes[20..].to_vec()].into();
    let mut link = FrameStream::new(Counted { arrivals, ..Counted::default() });
    assert_eq!(link.recv_patient().unwrap().body(), b"in three pieces");
    assert_eq!(link.get_ref().deadlines, [Some(MID_FRAME_STALL), None]);
    assert_eq!(link.get_ref().reads, 3);
}

/// `call` returns the response that echoes its request's number and
/// skips the others, wherever they sit in the stream.
#[test]
fn call_skips_responses_that_are_not_the_outstanding_one() {
    let stale = framed(77, &[b"stale".to_vec()]);
    let arrivals = [
        [stale.clone(), framed(0, &[b"first".to_vec()]), framed(0, &[b"first".to_vec()])].concat(),
        framed(1, &[b"second".to_vec()]),
    ]
    .into();
    let mut link = FrameStream::new(Counted { arrivals, ..Counted::default() });
    assert_eq!(link.call(0, |w| w.put_raw(b"a")).unwrap(), b"first");
    // The duplicate of "first" is still buffered; it is not "second".
    assert_eq!(link.call(1, |w| w.put_raw(b"b")).unwrap(), b"second");
    assert_eq!(link.get_ref().sent, [framed(0, &[b"a".to_vec()]), framed(1, &[b"b".to_vec()])].concat());
}

fn socket_pair() -> (TcpStream, FrameStream<TcpStream>) {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
    near.set_nodelay(true).unwrap();
    (near, FrameStream::new(listener.accept().unwrap().0))
}

#[test]
fn end_of_stream_at_a_boundary_is_clean_and_inside_a_frame_is_an_abort() {
    let bytes = framed(0, &[b"whole".to_vec(), b"cut short".to_vec()]);
    let (mut near, mut far) = socket_pair();
    near.write_all(&bytes[..bytes.len() - 4]).unwrap();
    drop(near);
    assert_eq!(far.recv_patient().unwrap().body(), b"whole");
    assert_eq!(far.recv_patient().unwrap_err().kind(), ErrorKind::ConnectionAborted);

    let (near, mut far) = socket_pair();
    drop(near);
    assert_eq!(far.recv_patient().unwrap_err().kind(), ErrorKind::UnexpectedEof);
}

#[test]
fn silence_inside_a_frame_times_out_and_idling_between_frames_does_not() {
    let bytes = framed(0, &[b"then nothing".to_vec()]);
    let (mut near, mut far) = socket_pair();
    let idle = MID_FRAME_STALL + Duration::from_millis(200);
    let writer = std::thread::spawn(move || {
        // Longer than the stall budget, but between frames: not a stall.
        std::thread::sleep(idle);
        near.write_all(&bytes).unwrap();
        near.write_all(&bytes[..bytes.len() / 2]).unwrap();
        near
    });
    assert_eq!(far.recv_patient().unwrap().body(), b"then nothing");
    let started = Instant::now();
    assert_eq!(far.recv_patient().unwrap_err().kind(), ErrorKind::TimedOut);
    assert!(started.elapsed() >= MID_FRAME_STALL * 9 / 10, "gave up after {:?}", started.elapsed());
    assert_eq!(far.get_ref().read_timeout().unwrap(), None, "the deadline outlived its frame");
    drop(writer.join().unwrap());
}

#[test]
fn a_frame_dribbled_byte_by_byte_is_served() {
    let bytes = framed(9, &[b"slow, not dead".to_vec()]);
    let (mut near, mut far) = socket_pair();
    let writer = std::thread::spawn(move || {
        for byte in &bytes {
            near.write_all(std::slice::from_ref(byte)).unwrap();
            std::thread::sleep(Duration::from_millis(2));
        }
        near
    });
    let frame = far.recv_patient().unwrap();
    assert_eq!((frame.seq, frame.body()), (9, &b"slow, not dead"[..]));
    assert_eq!(far.get_ref().read_timeout().unwrap(), None);
    drop(writer.join().unwrap());
}

/// Bad magic, another version (a version-1 header has no sequence field:
/// its frames must be refused, not read four bytes out of step) and an
/// oversized length are `InvalidData` naming the violation.
#[test]
fn a_bad_header_is_invalid_data_naming_the_violation() {
    let good = framed(0, &[b"x".to_vec()]);
    let corrupt = |at: usize, with: &[u8]| {
        let mut bytes = good.clone();
        bytes[at..at + with.len()].copy_from_slice(with);
        bytes
    };
    for (bytes, violation) in [
        (corrupt(0, b"Z"), WireError::BadMagic),
        (corrupt(4, &[1]), WireError::BadVersion(1)),
        (corrupt(5, &u32::MAX.to_le_bytes()), WireError::TooLarge(u32::MAX as u64)),
    ] {
        let (mut near, mut far) = socket_pair();
        near.write_all(&bytes).unwrap();
        let refused = far.recv_patient().unwrap_err();
        assert_eq!(refused.kind(), ErrorKind::InvalidData);
        assert_eq!(refused.get_ref().and_then(|e| e.downcast_ref::<WireError>()), Some(&violation));
    }
}
