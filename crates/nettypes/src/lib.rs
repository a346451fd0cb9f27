//! # hhh-nettypes
//!
//! Network primitive types shared by every crate in the `hidden-hhh`
//! workspace: nanosecond timestamps, IPv4/IPv6 prefixes with the masking
//! and containment algebra that hierarchical heavy-hitter algorithms are
//! built on, and compact packet records.
//!
//! The types here follow the smoltcp design ethos: plain data, no heap
//! allocation, no clever type-level machinery, and every invariant
//! enforced at construction time (a [`Ipv4Prefix`] always has its host
//! bits cleared, a [`Nanos`] is always a count of nanoseconds since the
//! trace epoch).
//!
//! ## Quick tour
//!
//! ```
//! use hhh_nettypes::{Ipv4Prefix, Nanos, PacketRecord, TimeSpan};
//!
//! let p: Ipv4Prefix = "10.1.2.0/24".parse().unwrap();
//! assert!(p.contains_addr(0x0A010203)); // 10.1.2.3
//! assert_eq!(p.parent().unwrap().to_string(), "10.1.2.0/23");
//!
//! let pkt = PacketRecord::new(Nanos::from_millis(1500), 0x0A010203, 0xC0A80001, 1400);
//! assert!(pkt.ts < Nanos::from_secs(2));
//! assert_eq!(TimeSpan::from_secs(2) - TimeSpan::from_millis(500), TimeSpan::from_millis(1500));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod packet;
mod prefix;
mod time;

pub use packet::{PacketRecord, Proto};
pub use prefix::{Ipv4Prefix, Ipv6Prefix, PrefixParseError};
pub use time::{Nanos, TimeSpan};
