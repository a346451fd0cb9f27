//! # hhh-pcap
//!
//! Packet-capture I/O for the `hidden-hhh` workspace.
//!
//! The paper analyses CAIDA traces, which ship as classic libpcap files.
//! Those traces are proprietary, so this workspace generates its own
//! traffic (`hhh-trace`) — but the *pipeline* is kept honest by routing
//! it through the same file formats a real deployment would use:
//!
//! * **Classic pcap** ([`PcapReader`], [`PcapWriter`]): both byte
//!   orders, microsecond and nanosecond timestamp resolutions, Ethernet
//!   link type. pcap-ng is deliberately not supported.
//! * **Header parsing** ([`parse`]): zero-copy views over Ethernet
//!   (with 802.1Q VLAN), IPv4, IPv6, TCP and UDP headers, condensing a
//!   frame into the [`PacketRecord`](hhh_nettypes::PacketRecord) that
//!   every detector consumes.
//! * **Pipeline source** ([`PcapSource`]): a chunked packet iterator
//!   over a pcap stream, pluggable straight into
//!   `hhh_window::Pipeline::new` (I/O in record bursts, torn captures
//!   end the stream early with the error kept for inspection).
//!
//! ## Example: write then read a capture
//!
//! ```
//! use hhh_nettypes::{Nanos, PacketRecord};
//! use hhh_pcap::{PcapReader, PcapWriter};
//!
//! let mut buf = Vec::new();
//! let mut w = PcapWriter::new(&mut buf).unwrap();
//! w.write_record(&PacketRecord::new(Nanos::from_millis(5), 0x0A000001, 0x0A000002, 900)).unwrap();
//! w.flush().unwrap();
//!
//! let mut r = PcapReader::new(&buf[..]).unwrap();
//! let pkt = r.next_record().unwrap().unwrap();
//! assert_eq!(pkt.src, 0x0A000001);
//! assert_eq!(pkt.wire_len, 900);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
pub mod parse;
mod reader;
pub mod source;
mod writer;

pub use error::PcapError;
pub use reader::{PcapReader, RawFrame, TsResolution};
pub use source::PcapSource;
pub use writer::PcapWriter;
