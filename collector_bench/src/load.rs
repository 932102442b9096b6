//! The load generator: timed pushes and control requests, and the two
//! open-loop threads of the steady phase.

use crate::stats::LatencyLog;
use crate::trace::Tracer;
use crate::workload::Workload;
use ldp_bits::Mask;
use ldp_core::frame::StreamHeader;
use ldp_server::{push_with, Control, QueryRequest, QueryTarget, Request, Response};
use std::time::{Duration, Instant};

/// Fractional part of the golden ratio: sweeps each query's phase
/// evenly across the frame-send interval.
const PHASE_STEP: f64 = 0.618_033_988_749_895;

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// What one open-loop thread recorded.
#[derive(Default)]
pub struct Tally {
    pub log: LatencyLog,
    /// Frame indices the server acknowledged in full, in send order.
    pub acked_frames: Vec<usize>,
    /// Events whose send started at least one interval late.
    pub late_events: u64,
    pub max_late: Duration,
}

impl Tally {
    /// Sleep until `sched`; record how late the send actually starts.
    fn wait_until(&mut self, sched: Instant, interval: Duration, tr: &mut Tracer) {
        if let Some(wait) = sched.checked_duration_since(Instant::now()) {
            let s = tr.begin("loadgen.wait");
            std::thread::sleep(wait);
            tr.end(s);
        }
        let late = Instant::now().saturating_duration_since(sched);
        if late >= interval {
            self.late_events += 1;
        }
        self.max_late = self.max_late.max(late);
    }

    /// Fold another slice's record into this one.
    pub fn absorb(&mut self, other: Tally) {
        self.log.absorb(other.log);
        self.acked_frames.extend(other.acked_frames);
        self.late_events += other.late_events;
        self.max_late = self.max_late.max(other.max_late);
    }
}

/// Push one frame on its own connection and record its ack latency
/// from `sched`. An error, a refusal or a short ack is a failed
/// operation, never a latency sample. Returns whether it was acked.
pub fn push_one(
    addr: &str,
    header: &StreamHeader,
    frame: &[u8],
    reports: u64,
    sched: Instant,
    log: &mut LatencyLog,
    tr: &mut Tracer,
) -> bool {
    let s = tr.begin("server.push_with");
    let acked = push_with(addr, header, |fw| {
        let w = tr.begin("wire.send_frame");
        let r = fw.write_frame(frame);
        tr.end(w);
        r
    });
    tr.end(s);
    match acked {
        Ok(n) if n == reports => {
            log.ok(ms(sched.elapsed()));
            true
        }
        _ => {
            log.fail();
            false
        }
    }
}

pub fn query_request(mask: Mask) -> Request {
    Request::Query(QueryRequest {
        target: QueryTarget::Marginal(mask.bits()),
        normalize: false,
    })
}

/// One timed control request, recorded into `log`.
pub fn probe(
    control: &mut Control,
    request: &Request,
    span: &'static str,
    log: &mut LatencyLog,
    tr: &mut Tracer,
) -> Option<Response> {
    let t = Instant::now();
    let s = tr.begin(span);
    let response = control.request(request);
    tr.end(s);
    match response {
        Ok(r) => {
            log.ok(ms(t.elapsed()));
            Some(r)
        }
        Err(_) => {
            log.fail();
            None
        }
    }
}

/// Where one steady slice starts in the run-wide event sequences.
#[derive(Clone, Copy)]
pub struct Slice {
    pub t0: Instant,
    pub seconds: f64,
    pub first_send: usize,
    pub first_query: usize,
}

/// The frame sender: one frame per new connection at `send_hz`,
/// cycling through the pre-encoded population.
pub fn sender_loop(
    addr: &str,
    header: &StreamHeader,
    frames: &[Vec<u8>],
    w: &Workload,
    slice: Slice,
    mut tr: Tracer,
) -> (Tally, Tracer) {
    let mut tally = Tally::default();
    let interval = Duration::from_secs_f64(1.0 / w.send_hz);
    let events = (slice.seconds * w.send_hz).round() as usize;
    for i in 0..events {
        let sched = slice.t0 + interval.mul_f64(i as f64);
        tally.wait_until(sched, interval, &mut tr);
        let at = (slice.first_send + i) % frames.len();
        let log = &mut tally.log;
        if push_one(
            addr,
            header,
            &frames[at],
            w.frame_reports as u64,
            sched,
            log,
            &mut tr,
        ) {
            tally.acked_frames.push(at);
        }
    }
    (tally, tr)
}

/// Live queries on one control connection. Query `j` is due at
/// `j / query_hz` plus a phase that sweeps evenly across one frame-send
/// interval, so queries meet every stage of the frame pushes in fixed
/// proportion rather than at one fixed alignment.
pub fn query_loop(
    addr: &str,
    mask: Mask,
    w: &Workload,
    slice: Slice,
    mut tr: Tracer,
) -> (Tally, Tracer) {
    let mut tally = Tally::default();
    let interval = Duration::from_secs_f64(1.0 / w.query_hz);
    let events = (slice.seconds * w.query_hz).round() as usize;
    let mut control = Control::connect(addr).ok();
    let request = query_request(mask);
    for j in 0..events {
        let phase = ((slice.first_query + j) as f64 * PHASE_STEP).fract() / w.send_hz;
        let sched = slice.t0 + interval.mul_f64(j as f64) + Duration::from_secs_f64(phase);
        tally.wait_until(sched, interval, &mut tr);
        let s = tr.begin("server.query");
        let response = control.as_mut().map(|c| c.request(&request));
        tr.end(s);
        match response {
            Some(Ok(Response::Query(table))) if table.len() == mask.table_len() => {
                tally.log.ok(ms(sched.elapsed()));
            }
            _ => tally.log.fail(),
        }
    }
    (tally, tr)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::checks;
    use crate::workload::EPS;
    use ldp_core::wire::Writer;
    use ldp_core::MechanismKind;
    use ldp_oracles::pipeline::Client;
    use ldp_server::Server;

    #[test]
    fn a_push_with_a_mismatched_header_is_a_failed_operation() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let addr = server.local_addr().unwrap().to_string();
        let handle = std::thread::spawn(move || server.run());

        let good = StreamHeader::mechanism(MechanismKind::InpHt, 6, 2, EPS);
        let other = StreamHeader::mechanism(MechanismKind::InpHt, 7, 2, EPS);
        let mut w = Writer::default();
        Client::from_header(&good)
            .unwrap()
            .encode_batch(&[1, 2, 3, 4], 5, 0, &mut w);
        let frame = w.as_bytes().to_vec();
        let mut log = LatencyLog::default();
        let mut tr = Tracer::new(false);
        let now = Instant::now;

        assert!(push_one(&addr, &good, &frame, 4, now(), &mut log, &mut tr));
        assert_eq!((log.completed(), log.failed()), (1, 0));
        // The server refuses a stream whose header differs from the
        // established pipeline: a failure, not a latency sample.
        assert!(!push_one(
            &addr,
            &other,
            &frame,
            4,
            now(),
            &mut log,
            &mut tr
        ));
        assert_eq!((log.completed(), log.failed()), (1, 1));
        // A short ack (fewer reports than sent) fails the same way.
        assert!(!push_one(&addr, &good, &frame, 5, now(), &mut log, &mut tr));
        assert_eq!((log.completed(), log.failed()), (1, 2));
        assert_eq!(log.attempted(), 3);

        let mut control = Control::connect(&addr).unwrap();
        let Ok(Response::Stats(stats)) = control.request(&Request::Stats) else {
            panic!("no stats");
        };
        // Both pushes under the right header were absorbed; the refused
        // one shows up as a rejected frame.
        let err = checks::stats_reconcile(&stats, 8).unwrap_err();
        assert!(err.contains("rejected"), "{err}");
        control.request(&Request::Shutdown).unwrap();
        handle.join().unwrap().unwrap();
    }
}
