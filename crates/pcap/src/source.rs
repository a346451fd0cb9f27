//! A chunked pcap packet source for the `hhh-window` pipeline.
//!
//! [`PcapSource`] adapts a [`PcapReader`] to a plain
//! `Iterator<Item = PacketRecord>`, which is all it takes to be a
//! `hhh_window::PacketSource` (the pipeline's chunked pull protocol is
//! blanket-implemented over packet iterators):
//!
//! ```no_run
//! use hhh_pcap::PcapSource;
//! use std::fs::File;
//! use std::io::BufReader;
//!
//! let mut source = PcapSource::open(BufReader::new(File::open("trace.pcap")?))?;
//! // … Pipeline::new(&mut source).engine(…).sink(…).run()
//! // then: source.error() distinguishes a torn capture from clean EOF
//! # Ok::<(), hhh_pcap::PcapError>(())
//! ```
//!
//! Feed the pipeline `&mut source` (every `&mut Iterator` is itself an
//! iterator, hence a source) rather than moving the source in: after
//! the run, [`PcapSource::error`] is still reachable to check whether
//! the stream ended at end-of-file or at a tear.
//!
//! Records are read ahead in **chunks** of 4096 so file I/O happens in
//! bursts instead of one syscall-sized dribble per packet, and errors
//! are handled the way a streaming analysis wants — the stream ends
//! early and the error is kept for inspection ([`PcapSource::error`])
//! rather than panicking mid-pipeline; a torn capture still yields
//! every complete record before the tear.

use crate::error::PcapError;
use crate::reader::PcapReader;
use hhh_nettypes::PacketRecord;
use std::collections::VecDeque;
use std::io::Read;

/// Records read per file burst.
const READ_CHUNK: usize = 4096;

/// A chunked packet source over a classic pcap stream; see the
/// [module docs](self).
///
/// The read-ahead buffer here is in addition to the pipeline's own
/// chunk buffer (records flow through both, one `pop_front` each) — a
/// deliberate trade: keeping the source a plain `Iterator` is what lets
/// it double as an ordinary record iterator (`collect()`, adapters)
/// while the pipeline's blanket `PacketSource` impl handles chunking.
/// The per-record hand-off is trivial next to the file read and header
/// parse on this path.
#[derive(Debug)]
pub struct PcapSource<R> {
    reader: PcapReader<R>,
    pending: VecDeque<PacketRecord>,
    error: Option<PcapError>,
    done: bool,
}

impl<R: Read> PcapSource<R> {
    /// Open a classic pcap stream (validates the global header).
    pub fn open(inner: R) -> Result<Self, PcapError> {
        Ok(PcapSource {
            reader: PcapReader::new(inner)?,
            pending: VecDeque::new(),
            error: None,
            done: false,
        })
    }

    /// The error that ended the stream early, if any. `None` after a
    /// clean end-of-file.
    pub fn error(&self) -> Option<&PcapError> {
        self.error.as_ref()
    }

    /// The underlying reader (frame counts, snaplen, resolution…).
    pub fn reader(&self) -> &PcapReader<R> {
        &self.reader
    }

    fn refill(&mut self) {
        while self.pending.len() < READ_CHUNK {
            match self.reader.next_record() {
                Ok(Some(rec)) => self.pending.push_back(rec),
                Ok(None) => {
                    self.done = true;
                    break;
                }
                Err(e) => {
                    self.error = Some(e);
                    self.done = true;
                    break;
                }
            }
        }
    }
}

impl<R: Read> Iterator for PcapSource<R> {
    type Item = PacketRecord;

    fn next(&mut self) -> Option<PacketRecord> {
        if self.pending.is_empty() && !self.done {
            self.refill();
        }
        self.pending.pop_front()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::writer::PcapWriter;
    use hhh_nettypes::Nanos;

    fn capture(n: u64) -> (Vec<PacketRecord>, Vec<u8>) {
        let pkts: Vec<PacketRecord> = (0..n)
            .map(|i| PacketRecord::new(Nanos::from_micros(i * 10), i as u32, 1, 120))
            .collect();
        let mut buf = Vec::new();
        let mut w = PcapWriter::new(&mut buf).unwrap();
        w.write_all_records(&pkts).unwrap();
        w.flush().unwrap();
        (pkts, buf)
    }

    #[test]
    fn pcap_source_round_trips_all_records() {
        // More than two read chunks, ending mid-chunk.
        let (pkts, buf) = capture(2 * READ_CHUNK as u64 + 777);
        let got: Vec<PacketRecord> = PcapSource::open(&buf[..]).unwrap().collect();
        assert_eq!(got.len(), pkts.len());
        assert!(got.iter().zip(&pkts).all(|(a, b)| a.src == b.src && a.ts == b.ts));
    }

    #[test]
    fn truncated_capture_ends_early_with_error() {
        let (_, mut buf) = capture(100);
        buf.truncate(buf.len() - 7); // tear the last frame

        let mut src = PcapSource::open(&buf[..]).unwrap();
        let got: Vec<PacketRecord> = src.by_ref().collect();
        assert_eq!(got.len(), 99, "every complete record before the tear is delivered");
        assert!(src.error().is_some(), "the tear is kept for inspection");
    }
}
