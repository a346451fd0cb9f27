//! Restoring a `tdbf-hhh` state checks the state against the geometry
//! it claims *before* building the detector: a small v1 line or v2
//! frame that claims a large filter geometry but supplies none of it
//! is refused with the usual typed error, without ever allocating that
//! geometry.
//!
//! This is its own test binary with a single test because it installs
//! a counting global allocator and reads the process-wide peak; no
//! other test may allocate while it measures.

use hidden_hhh::core::{parse_state_line, RestoredDetector, SnapshotError};
use hidden_hhh::prelude::*;
use hidden_hhh::window::SnapshotSource;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};

/// Bytes currently allocated, and the most ever allocated at once.
static LIVE: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

struct Counting;

impl Counting {
    fn grew(by: usize) {
        let live = LIVE.fetch_add(by, SeqCst) + by;
        PEAK.fetch_max(live, SeqCst);
    }
}

// SAFETY: every call forwards to `System` unchanged; the counters only
// observe the sizes.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc_zeroed(layout);
        if !p.is_null() {
            Counting::grew(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), SeqCst);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), SeqCst);
            Counting::grew(new_size);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Run `f` and return its result with the peak bytes allocated above
/// what was live when it started.
fn peak_during<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.load(SeqCst);
    PEAK.store(base, SeqCst);
    let out = f();
    (out, PEAK.load(SeqCst) - base)
}

#[test]
fn a_small_state_claiming_a_large_geometry_is_refused_before_it_is_allocated() {
    // 5 levels × 262144 cells × 4 hashes of 8-byte cells would be
    // 40 MiB; the state supplies no filter level at all.
    let line = "{\"type\":\"state\",\"at_ns\":0,\"start_ns\":0,\"snapshot\":{\"v\":1,\
                \"kind\":\"tdbf-hhh\",\"total\":0,\"state\":{\"cells_per_level\":262144,\
                \"hashes\":4,\"half_life_ns\":5000000000,\"candidates_per_level\":512,\
                \"admit_fraction\":0.001,\"seed\":32191,\"observed\":0,\"total\":[0.0,0],\
                \"filters\":[],\"candidates\":[]}}}\n";
    let stamped = parse_state_line(line).expect("the line parses").expect("a state line");
    let frame = stamped.to_frame().expect("the state transcodes").encode();
    assert!(line.len() < 512 && frame.len() < 512, "both inputs are under 512 bytes");

    let h = Ipv4Hierarchy::bytes();
    let refused = SnapshotError::Mismatch("snapshot has 0 levels, hierarchy has 5".into());
    for (format, bytes) in [("v1", line.as_bytes()), ("v2", &frame[..])] {
        let (restored, peak) = peak_during(|| {
            let state = SnapshotSource::new(bytes).next().expect("the state record decodes");
            RestoredDetector::from_wire(&h, &state).map(|_| ())
        });
        assert_eq!(restored, Err(refused.clone()), "{format}");
        assert!(peak < 1 << 20, "{format}: restoring peaked at {peak} bytes");
    }
}
