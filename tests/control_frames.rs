//! Arbitrary-bytes robustness of the control-plane decoders,
//! `Request::from_bytes` and `Response::from_bytes`.
//!
//! Random bytes (bare, or behind a control tag and a supported version
//! byte so they reach the field decoders), and valid frames of every
//! request and response kind with random byte flips and truncations,
//! never panic a decoder, and nothing decoded holds more heap bytes
//! than the input frame had.

use ldp_server::{PushRequest, QueryRequest, QueryTarget, Request, Response, ServerStats};
use marginal_ldp::core::frame::StreamHeader;
use marginal_ldp::core::wire::{tag, VERSION};
use marginal_ldp::core::MechanismKind;
use proptest::collection::vec;
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn header() -> StreamHeader {
    StreamHeader::mechanism(MechanismKind::InpHt, 8, 2, 1.1)
}

/// One valid request of every kind (both query targets, a push with
/// and without payload).
fn requests() -> Vec<Request> {
    vec![
        Request::Snapshot,
        Request::Query(QueryRequest {
            target: QueryTarget::Marginal(0b101),
            normalize: true,
        }),
        Request::Query(QueryRequest {
            target: QueryTarget::Value(42),
            normalize: false,
        }),
        Request::Stats,
        Request::Shutdown,
        Request::Push(PushRequest {
            collector: "edge-1".to_string(),
            epoch: 7,
            header: header(),
            state: vec![0x21, 4, 1, 2, 3, 4, 5, 6, 7, 8],
        }),
        Request::Push(PushRequest {
            collector: String::new(),
            epoch: 0,
            header: header(),
            state: Vec::new(),
        }),
    ]
}

/// One valid response of every kind.
fn responses() -> Vec<Response> {
    let stats = ServerStats {
        header: Some(header()),
        reports: 1000,
        workers: 2,
        connections_accepted: 9,
        connections_active: 1,
        rejected_frames: 0,
        uptime_ms: 1234,
    };
    vec![
        Response::Snapshot {
            header: header(),
            state: vec![0x21, 4, 9, 9, 9, 9],
        },
        Response::Query(vec![0.125, 0.25, 0.5, 0.125, 0.0]),
        Response::Stats(stats),
        Response::Stats(ServerStats {
            header: None,
            ..stats
        }),
        Response::Shutdown(1000),
        Response::Ingested(256),
        Response::Push {
            applied: false,
            latest_epoch: 3,
        },
        Response::Error("no report stream has been ingested yet".to_string()),
    ]
}

/// Heap bytes a decoded request holds.
fn request_heap(request: &Request) -> usize {
    match request {
        Request::Push(push) => push.collector.capacity() + push.state.capacity(),
        _ => 0,
    }
}

/// Heap bytes a decoded response holds.
fn response_heap(response: &Response) -> usize {
    match response {
        Response::Snapshot { state, .. } => state.capacity(),
        Response::Query(table) => table.capacity() * std::mem::size_of::<f64>(),
        Response::Error(message) => message.capacity(),
        _ => 0,
    }
}

/// Decode `bytes` both ways; fail the case if either decoder holds more
/// heap than `bytes.len()`. A panic fails the test on its own.
fn check_decoders(bytes: &[u8]) -> Result<(), TestCaseError> {
    if let Ok(request) = Request::from_bytes(bytes) {
        let held = request_heap(&request);
        prop_assert!(
            held <= bytes.len(),
            "{:?} holds {} heap bytes from a {}-byte frame",
            request,
            held,
            bytes.len()
        );
    }
    if let Ok(response) = Response::from_bytes(bytes) {
        let held = response_heap(&response);
        prop_assert!(
            held <= bytes.len(),
            "{:?} holds {} heap bytes from a {}-byte frame",
            response,
            held,
            bytes.len()
        );
    }
    Ok(())
}

/// XOR each `(position, mask)` flip into `bytes` (positions wrap), then
/// keep only the first `keep` bytes (when `keep` is shorter).
fn mutate(mut bytes: Vec<u8>, positions: &[usize], masks: &[u8], keep: usize) -> Vec<u8> {
    if !bytes.is_empty() {
        let len = bytes.len();
        for (&at, &mask) in positions.iter().zip(masks) {
            if let Some(byte) = bytes.get_mut(at % len) {
                *byte ^= mask;
            }
        }
    }
    bytes.truncate(keep);
    bytes
}

#[test]
fn non_utf8_error_messages_are_rejected() {
    let mut bytes = Response::Error("ok".to_string()).to_bytes();
    let len = bytes.len();
    bytes[len - 2..].copy_from_slice(&[0xFF, 0xFE]);
    assert!(Response::from_bytes(&bytes).is_err());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2000))]

    #[test]
    fn arbitrary_bytes_never_panic_or_overallocate(
        body in vec(any::<u8>(), 0..96),
        control_tag in tag::REQ_SNAPSHOT..tag::RESP_ERROR + 1,
        prefixed in any::<bool>(),
    ) {
        check_decoders(&body)?;
        if prefixed {
            let mut framed = vec![control_tag, VERSION];
            framed.extend_from_slice(&body);
            check_decoders(&framed)?;
        }
    }

    #[test]
    fn mutated_valid_frames_never_panic_or_overallocate(
        kind in 0usize..64,
        positions in vec(any::<usize>(), 0..4),
        masks in vec(1u8..255, 0..4),
        keep in 0usize..128,
        truncate in any::<bool>(),
    ) {
        let frames: Vec<Vec<u8>> = requests()
            .iter()
            .map(Request::to_bytes)
            .chain(responses().iter().map(Response::to_bytes))
            .collect();
        let valid = frames[kind % frames.len()].clone();
        check_decoders(&valid)?;
        let keep = if truncate { keep % (valid.len() + 1) } else { valid.len() };
        check_decoders(&mutate(valid, &positions, &masks, keep))?;
    }
}
