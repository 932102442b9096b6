//! Output checks. A failed check fails the run; its numbers are never
//! reported as a result.

use ldp_server::ServerStats;

/// The live snapshot must equal a serial in-process ingest of exactly
/// the frames the server acknowledged (the server's partition-invariance
/// contract).
pub fn snapshot_matches(live: &[u8], reference: &[u8]) -> Result<(), String> {
    if live == reference {
        return Ok(());
    }
    let first = live
        .iter()
        .zip(reference)
        .position(|(a, b)| a != b)
        .unwrap_or(live.len().min(reference.len()));
    Err(format!(
        "live snapshot ({} B) differs from the serial reference ({} B) at byte {first}",
        live.len(),
        reference.len()
    ))
}

/// The server's own counters must reconcile with the generator's.
pub fn stats_reconcile(stats: &ServerStats, acked_reports: u64) -> Result<(), String> {
    if stats.reports != acked_reports {
        return Err(format!(
            "server counts {} absorbed reports, the generator saw {acked_reports} acked",
            stats.reports
        ));
    }
    if stats.rejected_frames != 0 {
        return Err(format!("server rejected {} frames", stats.rejected_frames));
    }
    Ok(())
}

/// Released marginals must equal the serial reference's bit for bit.
pub fn marginals_identical(released: &[Vec<f64>], reference: &[Vec<f64>]) -> Result<(), String> {
    if released.len() != reference.len() {
        return Err(format!(
            "released {} marginals, the reference has {}",
            released.len(),
            reference.len()
        ));
    }
    for (i, (a, b)) in released.iter().zip(reference).enumerate() {
        let same = a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits());
        if !same {
            return Err(format!("released marginal #{i} differs from the reference"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_core::frame::StreamHeader;
    use ldp_core::wire::Writer;
    use ldp_core::MechanismKind;
    use ldp_oracles::pipeline::{decode_report_batch_into, Client, PipelineAccumulator};

    #[test]
    fn a_flipped_state_byte_trips_the_snapshot_check() {
        let header = StreamHeader::mechanism(MechanismKind::InpHt, 6, 2, 1.1);
        let client = Client::from_header(&header).unwrap();
        let mut w = Writer::default();
        client.encode_batch(&[1, 2, 3, 4, 5, 6, 7, 8], 9, 0, &mut w);
        let mut scratch = Vec::new();
        let n = decode_report_batch_into(w.as_bytes(), &mut scratch).unwrap();
        let mut acc = PipelineAccumulator::empty(&header).unwrap();
        acc.absorb_batch(&scratch[..n]).unwrap();
        let reference = acc.to_bytes();
        assert_eq!(snapshot_matches(&reference, &reference), Ok(()));
        for at in [0, reference.len() / 2, reference.len() - 1] {
            let mut live = reference.clone();
            live[at] ^= 0x01;
            let err = snapshot_matches(&live, &reference).unwrap_err();
            assert!(err.contains(&format!("at byte {at}")), "{err}");
        }
        assert!(snapshot_matches(&reference[..reference.len() - 1], &reference).is_err());
    }

    #[test]
    fn stats_must_reconcile() {
        let stats = ServerStats {
            header: None,
            reports: 10,
            workers: 2,
            connections_accepted: 3,
            connections_active: 0,
            rejected_frames: 0,
            uptime_ms: 1,
        };
        assert!(stats_reconcile(&stats, 10).is_ok());
        assert!(stats_reconcile(&stats, 11).is_err());
        let rejected = ServerStats {
            rejected_frames: 1,
            ..stats
        };
        assert!(stats_reconcile(&rejected, 10).is_err());
    }

    #[test]
    fn marginals_compare_bit_for_bit() {
        let a = vec![vec![0.25, 0.75], vec![0.5, 0.5]];
        assert!(marginals_identical(&a, &a).is_ok());
        let mut b = a.clone();
        b[1][0] = f64::from_bits(0.5f64.to_bits() + 1);
        assert!(marginals_identical(&b, &a).is_err());
        assert!(marginals_identical(&a[..1], &a).is_err());
    }
}
