//! A request frame costs what its value costs: the decoder rejects a
//! frame of the wrong shape at its first token, so a hostile frame as
//! long as the protocol allows takes no more memory than a short one.
//!
//! Each hostile shape is a flat JSON array (`[0,…]`, `[{},…]`, `["",…]`)
//! of 1 MiB and of 64 MiB (`MAX_FRAME_BYTES`), decoded as a
//! [`Request`] under the counting allocator. Reading a frame costs what
//! arrives: a header declaring `MAX_FRAME_BYTES` followed by 16 bytes of
//! `[0,…` and EOF allocates no more than a short frame.
//!
//! One `#[test]` on purpose: a `measure_peak` window counts every
//! thread's allocations, the harness's bookkeeping for a finished
//! sibling test included.

use coma::server::protocol::{read_message, MAX_FRAME_BYTES};
use coma::server::Request;
use coma_bench::alloc_track::{measure_peak, CountingAllocator};

/// Register the counting allocator so [`measure_peak`] reports real
/// numbers.
#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// `[item,item,…,item]`, at most `bytes` long.
fn flat_array(item: &str, bytes: usize) -> String {
    let mut frame = format!(",{item}").repeat(bytes / (item.len() + 1) - 1);
    frame.replace_range(..1, "[");
    frame.push(']');
    frame
}

#[test]
fn hostile_flat_frames_are_rejected_in_constant_memory() {
    for item in ["0", "{}", "\"\""] {
        let peaks: Vec<usize> = [1 << 20, MAX_FRAME_BYTES as usize]
            .into_iter()
            .map(|bytes| {
                let frame = flat_array(item, bytes);
                let (peak, decoded) = measure_peak(|| serde_json::from_str::<Request>(&frame));
                assert!(decoded.is_err(), "a `[{item},…]` frame decoded");
                peak
            })
            .collect();
        assert!(
            peaks[0] < 64 << 10,
            "`[{item},…]` peaked at {peaks:?} bytes"
        );
        assert_eq!(peaks[0], peaks[1], "`[{item},…]` costs more when longer");
    }

    // A frame declaring the largest length and then hanging up.
    let mut frame = MAX_FRAME_BYTES.to_be_bytes().to_vec();
    frame.extend_from_slice(b"[0,0,0,0,0,0,0,0");
    let (peak, read) = measure_peak(|| read_message::<Request>(&mut frame.as_slice()));
    let err = read.expect_err("a frame cut short after 16 bytes was read");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    assert!(peak < 64 << 10, "reading it peaked at {peak} bytes");
}
