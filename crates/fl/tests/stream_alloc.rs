//! The memory property the streamed wire codec rests on: writing a frame
//! allocates nothing the size of a model, and reading one allocates only
//! the decoded vectors, each at its exact f32 length. A counting global
//! allocator records every allocation over 64 KiB the test thread makes,
//! at Table II scale (the CNN's ψ plus the Table III CVAE decoder θ).

use fg_fl::wire::{
    encode_round_start, encode_upload, read_frame, write_frame, BlobRef, Frame, HEADER_BYTES,
};
use fg_fl::{CompressedBlob, Message, ModelUpdate, WireConfig, WireError};
use fg_nn::models::{ClassifierSpec, CvaeSpec};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Allocations above this size are recorded: the codec's chunk size.
const LARGE: usize = 64 << 10;
const SLOTS: usize = 16;

thread_local! {
    static RECORDING: Cell<bool> = const { Cell::new(false) };
}
static LARGE_COUNT: AtomicUsize = AtomicUsize::new(0);
static LARGE_SIZES: [AtomicUsize; SLOTS] = [const { AtomicUsize::new(0) }; SLOTS];

struct Counting;

fn note(size: usize) {
    if size > LARGE && RECORDING.try_with(Cell::get).unwrap_or(false) {
        let i = LARGE_COUNT.fetch_add(1, Relaxed);
        if i < SLOTS {
            LARGE_SIZES[i].store(size, Relaxed);
        }
    }
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// `f`'s result and the byte sizes of the allocations over 64 KiB it made
/// on this thread, in order.
fn large_allocations<T>(f: impl FnOnce() -> T) -> (T, Vec<usize>) {
    LARGE_COUNT.store(0, Relaxed);
    RECORDING.set(true);
    let out = f();
    RECORDING.set(false);
    let n = LARGE_COUNT.load(Relaxed);
    assert!(n <= SLOTS, "{n} large allocations");
    (out, LARGE_SIZES[..n].iter().map(|s| s.load(Relaxed)).collect())
}

#[test]
fn streamed_frames_allocate_nothing_the_size_of_a_model() {
    let psi = ClassifierSpec::TableIICnn.num_params();
    let theta = CvaeSpec::table_iii().decoder_params();
    let update = ModelUpdate {
        client_id: 3,
        params: (0..psi).map(|i| i as f32 * 1e-6).collect(),
        num_samples: 600,
        decoder: Some((0..theta).map(|i| -(i as f32) * 1e-5).collect()),
        class_coverage: Some(vec![60; 10]),
    };
    let global = &update.params;
    let cfg = WireConfig::default();

    // Writing: an Upload and a RoundStart straight from the borrowed vectors.
    let (sent, large) = large_allocations(|| {
        let upload = write_frame(&mut io::sink(), Frame::Upload { round: 5, update: &update });
        let global = BlobRef::Dense(global);
        let start =
            write_frame(&mut io::sink(), Frame::RoundStart { round: 5, participate: true, global });
        (upload.unwrap(), start.unwrap())
    });
    assert_eq!(large, Vec::<usize>::new(), "writing allocated over 64 KiB");
    let fixed = (HEADER_BYTES + 3 * 8 + 8 + 1 + 8 + 1 + 8 + 10 * 4) as u64;
    assert_eq!(sent.0, fixed + update.wire_bytes());
    assert_eq!(sent.1, (HEADER_BYTES + 8 + 1 + 8 + psi * 4) as u64);

    // Reading: the decoded vectors, each at its exact f32 length, and
    // nothing else over 64 KiB.
    let upload = encode_upload(5, &update);
    let (read, large) = large_allocations(|| read_frame(&mut &upload[..], &cfg).unwrap());
    assert_eq!(large, vec![psi * 4, theta * 4]);
    assert_eq!(read.1, upload.len() as u64);
    let Message::Upload { update: got, .. } = read.0 else { panic!("expected an Upload") };
    assert!(got.params == CompressedBlob::Dense(update.params.clone()));
    assert!(got.decoder == update.decoder.clone().map(CompressedBlob::Dense));

    let start = encode_round_start(5, true, global);
    let (read, large) = large_allocations(|| read_frame(&mut &start[..], &cfg).unwrap());
    assert_eq!(large, vec![psi * 4]);
    assert!(
        read.0
            == Message::RoundStart {
                round: 5,
                participate: true,
                global: CompressedBlob::Dense(global.clone())
            }
    );

    // A count past the declared payload fails before anything is allocated:
    // the RoundStart's first 1,000 value bytes, declared as the payload.
    let mut overrun = start[..HEADER_BYTES + 17 + 1_000].to_vec();
    overrun[5..HEADER_BYTES].copy_from_slice(&(17u32 + 1_000).to_le_bytes());
    let (read, large) = large_allocations(|| read_frame(&mut &overrun[..], &cfg).map(|(m, _)| m));
    assert_eq!(read, Err(WireError::Malformed("inner length overruns payload")));
    assert_eq!(large, Vec::<usize>::new());
}
