//! Trace persistence: save/load generated traffic as classic pcap
//! (interoperable with standard tools).

use hhh_nettypes::PacketRecord;
use hhh_pcap::{PcapError, PcapReader, PcapWriter};
use std::fs::File;
use std::io::{BufReader, BufWriter};
use std::path::Path;

/// Write a packet stream as a classic pcap file (nanosecond, Ethernet).
pub fn save_pcap<I>(path: &Path, stream: I) -> Result<u64, PcapError>
where
    I: Iterator<Item = PacketRecord>,
{
    let file = File::create(path)?;
    let mut w = PcapWriter::new(BufWriter::new(file))?;
    for p in stream {
        w.write_record(&p)?;
    }
    let n = w.frames_written();
    w.into_inner()?;
    Ok(n)
}

/// Load every IPv4 record from a pcap file.
pub fn load_pcap(path: &Path) -> Result<Vec<PacketRecord>, PcapError> {
    let file = File::open(path)?;
    PcapReader::new(BufReader::new(file))?.read_all_records()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::TraceGenerator;
    use crate::model::TrafficModel;
    use hhh_nettypes::TimeSpan;

    fn tmp(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("hhh-trace-io-{}-{name}", std::process::id()));
        p
    }

    fn small_trace() -> Vec<PacketRecord> {
        let model = TrafficModel {
            duration: TimeSpan::from_secs(2),
            sources: 50,
            total_pps: 1_000.0,
            ..TrafficModel::default()
        };
        TraceGenerator::new(model, 77).collect()
    }

    #[test]
    fn pcap_roundtrip_preserves_analysis_fields() {
        let trace = small_trace();
        let path = tmp("trace.pcap");
        save_pcap(&path, trace.iter().copied()).unwrap();
        let back = load_pcap(&path).unwrap();
        assert_eq!(back.len(), trace.len());
        for (a, b) in trace.iter().zip(&back) {
            assert_eq!(a.ts, b.ts);
            assert_eq!(a.src, b.src);
            assert_eq!(a.dst, b.dst);
            // wire_len can only grow to fit headers for tiny packets.
            assert!(b.wire_len >= a.wire_len.min(42));
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn load_missing_file_errors() {
        assert!(load_pcap(Path::new("/nonexistent/definitely/missing.pcap")).is_err());
    }
}
