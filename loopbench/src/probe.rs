//! Spans and counters the benchmark takes around its own calls into the
//! program: a client-transport probe (connections, request round trips,
//! answer statuses) installed through `HttpClient::with_transport_wrapper`,
//! and busy-time wrappers around the player's predictor and ABR
//! algorithm. Nothing inside the program is instrumented.

use crate::stats::{Busy, Samples};
use cs2p_abr::{AbrAlgorithm, AbrContext};
use cs2p_core::ThroughputPredictor;
use cs2p_net::{BoxTransport, RemotePredictor, TransportWrapper};
use std::cell::Cell;
use std::io::{self, Read, Write};
use std::rc::Rc;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

/// What the transport probe saw on every connection it wrapped.
#[derive(Debug, Default)]
pub struct WireLog {
    pub connects: u64,
    /// `/predict` and `/predict_batch` requests written.
    pub predict_calls: u64,
    /// Time from a prediction request's write to its answer's first byte.
    pub predict_rtt: Samples,
    pub status_503: u64,
    pub status_404: u64,
    /// Raw bytes of the prediction requests written, while capturing.
    pub captured: Vec<Vec<u8>>,
    pub capture_limit: usize,
}

/// A [`TransportWrapper`] that logs into a shared [`WireLog`].
#[derive(Clone, Default)]
pub struct WireProbe {
    log: Arc<Mutex<WireLog>>,
}

impl WireProbe {
    /// A probe that also keeps the bytes of the first `capture_limit`
    /// prediction requests (the replay's input).
    pub fn capturing(capture_limit: usize) -> Self {
        let probe = WireProbe::default();
        probe.lock().capture_limit = capture_limit;
        probe
    }

    pub fn lock(&self) -> MutexGuard<'_, WireLog> {
        self.log.lock().expect("wire log poisoned")
    }
}

/// Per-connection request state shared by the two halves.
#[derive(Default)]
struct Exchange {
    /// Set from a request's first write until its answer's first byte.
    pending: Option<(Instant, bool)>,
    /// The bytes of the prediction request being written, while the log
    /// still wants captures; moved into the log when its answer arrives.
    capture: Option<Vec<u8>>,
}

struct ConnShared {
    log: Arc<Mutex<WireLog>>,
    exchange: Mutex<Exchange>,
}

impl ConnShared {
    fn exchange(&self) -> MutexGuard<'_, Exchange> {
        self.exchange.lock().expect("exchange poisoned")
    }
}

struct ProbedWrite {
    inner: BoxTransport,
    shared: Arc<ConnShared>,
}

struct ProbedRead {
    inner: BoxTransport,
    shared: Arc<ConnShared>,
}

impl TransportWrapper for WireProbe {
    fn wrap(
        &self,
        _conn_seq: u64,
        read: BoxTransport,
        write: BoxTransport,
    ) -> (BoxTransport, BoxTransport) {
        self.lock().connects += 1;
        let shared = Arc::new(ConnShared {
            log: Arc::clone(&self.log),
            exchange: Mutex::new(Exchange::default()),
        });
        (
            Box::new(ProbedRead {
                inner: read,
                shared: Arc::clone(&shared),
            }),
            Box::new(ProbedWrite {
                inner: write,
                shared,
            }),
        )
    }
}

impl Write for ProbedWrite {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let mut ex = self.shared.exchange();
        if ex.pending.is_none() {
            // First write of a new request: the client writes the head
            // and body of one request before it reads anything.
            let predict = buf.starts_with(b"POST /predict");
            ex.pending = Some((Instant::now(), predict));
            let mut log = self.shared.log.lock().expect("wire log poisoned");
            if predict {
                log.predict_calls += 1;
            }
            ex.capture = (predict && log.captured.len() < log.capture_limit).then(Vec::new);
        }
        let n = self.inner.write(buf)?;
        if let Some(capture) = &mut ex.capture {
            capture.extend_from_slice(&buf[..n]);
        }
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

impl Read for ProbedRead {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        if n > 0 {
            let mut ex = self.shared.exchange();
            if let Some((sent, predict)) = ex.pending.take() {
                let rtt = sent.elapsed();
                let mut log = self.shared.log.lock().expect("wire log poisoned");
                if predict {
                    log.predict_rtt.push_duration(rtt);
                }
                if let Some(capture) = ex.capture.take() {
                    if log.captured.len() < log.capture_limit {
                        log.captured.push(capture);
                    }
                }
                match status_of(&buf[..n]) {
                    Some(503) => log.status_503 += 1,
                    Some(404) => log.status_404 += 1,
                    _ => {}
                }
            }
        }
        Ok(n)
    }
}

// A transport half is `Read + Write`; the direction a half is not used
// for passes straight through.
impl Read for ProbedWrite {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        self.inner.read(buf)
    }
}

impl Write for ProbedRead {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.inner.write(buf)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// The status code of an HTTP/1.x response head.
fn status_of(head: &[u8]) -> Option<u16> {
    let rest = head.strip_prefix(b"HTTP/1.")?;
    std::str::from_utf8(rest.get(2..5)?).ok()?.parse().ok()
}

/// The player's chunk clock: set when the simulator starts a chunk
/// (`sync_clock`), read when the ABR decision returns.
pub type ChunkStart = Rc<Cell<Option<Instant>>>;

/// Busy time of the player's calls into each layer (traced run only).
#[derive(Debug, Default, Clone, Copy)]
pub struct PlayerBusy {
    pub predict: Busy,
    pub select: Busy,
}

/// `RemotePredictor` with the chunk clock and, when traced, busy time.
/// Counts answers that were missing or degraded.
pub struct ProbedPredictor {
    pub inner: RemotePredictor,
    chunk_start: ChunkStart,
    busy: Option<Rc<Cell<PlayerBusy>>>,
    /// Predictions asked for, and how many came back missing or degraded.
    pub calls: u64,
    pub missing: u64,
    pub degraded: u64,
}

impl ProbedPredictor {
    pub fn new(
        inner: RemotePredictor,
        chunk_start: ChunkStart,
        busy: Option<Rc<Cell<PlayerBusy>>>,
    ) -> Self {
        ProbedPredictor {
            inner,
            chunk_start,
            busy,
            calls: 0,
            missing: 0,
            degraded: 0,
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce(&mut RemotePredictor) -> T) -> T {
        let Some(busy) = &self.busy else {
            return f(&mut self.inner);
        };
        let t = Instant::now();
        let out = f(&mut self.inner);
        let mut b = busy.get();
        b.predict.add(t.elapsed());
        busy.set(b);
        out
    }

    fn checked(&mut self, p: Option<f64>) -> Option<f64> {
        self.calls += 1;
        if p.is_none() {
            self.missing += 1;
        }
        if self.inner.last_degradation().is_some() {
            self.degraded += 1;
        }
        p
    }
}

impl ThroughputPredictor for ProbedPredictor {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn predict_initial(&mut self) -> Option<f64> {
        let p = self.timed(|r| r.predict_initial());
        self.checked(p)
    }

    fn predict_ahead(&mut self, k: usize) -> Option<f64> {
        let p = self.timed(|r| r.predict_ahead(k));
        self.checked(p)
    }

    fn observe(&mut self, throughput: f64) {
        self.timed(|r| r.observe(throughput));
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn sync_clock(&mut self, epoch_position: f64) {
        self.chunk_start.set(Some(Instant::now()));
        self.inner.sync_clock(epoch_position);
    }
}

/// An ABR algorithm whose decisions close the chunk clock: each decision
/// books the time since its chunk started into `chunk_us`.
pub struct ProbedAbr<'s, A> {
    inner: A,
    chunk_start: ChunkStart,
    chunk_us: &'s mut Samples,
    busy: Option<Rc<Cell<PlayerBusy>>>,
}

impl<'s, A> ProbedAbr<'s, A> {
    pub fn new(
        inner: A,
        chunk_start: ChunkStart,
        chunk_us: &'s mut Samples,
        busy: Option<Rc<Cell<PlayerBusy>>>,
    ) -> Self {
        ProbedAbr {
            inner,
            chunk_start,
            chunk_us,
            busy,
        }
    }
}

impl<A: AbrAlgorithm> AbrAlgorithm for ProbedAbr<'_, A> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn select_level(&mut self, ctx: &AbrContext) -> usize {
        let t = Instant::now();
        let level = self.inner.select_level(ctx);
        let done = Instant::now();
        if let Some(start) = self.chunk_start.take() {
            self.chunk_us.push_duration(done - start);
        }
        if let Some(busy) = &self.busy {
            let mut b = busy.get();
            b.select.add(done - t);
            busy.set(b);
        }
        level
    }

    fn reset(&mut self) {
        self.inner.reset();
    }

    fn horizon(&self) -> usize {
        self.inner.horizon()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_status_codes() {
        assert_eq!(status_of(b"HTTP/1.1 200 OK\r\n"), Some(200));
        assert_eq!(
            status_of(b"HTTP/1.1 503 Service Unavailable\r\n"),
            Some(503)
        );
        assert_eq!(status_of(b"HTTP/1.0 404 Not Found"), Some(404));
        assert_eq!(status_of(b"garbage"), None);
        assert_eq!(status_of(b"HTTP/1.1 2"), None);
    }
}
