//! The client's response reader takes whatever bytes a peer sends and
//! answers with a response or a typed error: no panic, and no
//! allocation sized by a length the peer only declares.
//!
//! This binary installs an allocator that keeps the largest single
//! allocation each thread asked for; every test here checks its own
//! stays under [`ALLOCATION_CEILING`].

use hpcfail_serve::client::{read_response, Client};
use hpcfail_serve::http::{write_response, MAX_HEADERS, MAX_LINE, MAX_UPLOAD_BODY};
use proptest::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::{self, Write};
use std::net::TcpListener;

thread_local! {
    /// The largest allocation this thread asked for.
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// Passes every call to the system allocator, keeping the largest
/// request size per thread, so each test sees only its own.
struct Largest;

fn note(size: usize) {
    // Thread-local storage being torn down only skips the note.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

// SAFETY: every call forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; `note` neither allocates
// nor unwinds.
unsafe impl GlobalAlloc for Largest {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOCATOR: Largest = Largest;

/// No input in this file is larger than a few kilobytes, so no
/// allocation needs to come near this.
const ALLOCATION_CEILING: usize = 1 << 20;

fn largest_allocation() -> usize {
    LARGEST.with(Cell::get)
}

fn assert_allocations_bounded() {
    let largest = largest_allocation();
    assert!(
        largest < ALLOCATION_CEILING,
        "an allocation of {largest} bytes"
    );
}

/// A response as the server writes it.
fn real_response() -> Vec<u8> {
    let mut out = Vec::new();
    write_response(
        &mut out,
        200,
        "OK",
        &[("x-cache", "miss")],
        "{\"analysis\": \"trace-summary\", \"systems\": 22}",
        true,
    )
    .expect("write to a vector");
    out
}

/// A response head declaring `length`, followed by a two-byte body.
fn with_length(length: &str) -> Vec<u8> {
    format!("HTTP/1.1 200 OK\r\ncontent-length: {length}\r\n\r\n{{}}").into_bytes()
}

fn read(bytes: &[u8]) -> io::Result<hpcfail_serve::Response> {
    read_response(&mut &bytes[..])
}

/// Errors a byte slice can produce: the peer's bytes are wrong, or
/// they stop too early.
fn is_typed(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof
    )
}

/// Applies `(position, byte, op)` edits: 0 overwrites, 1 inserts, 2
/// deletes. Positions wrap around the current length.
fn mutate(base: &[u8], edits: &[(usize, u8, u8)]) -> Vec<u8> {
    let mut bytes = base.to_vec();
    for &(position, byte, op) in edits {
        let at = position % (bytes.len() + 1);
        match op {
            0 if at < bytes.len() => bytes[at] = byte,
            1 => bytes.insert(at, byte),
            _ if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => {}
        }
    }
    bytes
}

#[test]
fn a_real_response_reads_back() {
    let response = read(&real_response()).expect("a well-formed response");
    assert_eq!(response.status, 200);
    assert_eq!(response.header("x-cache"), Some("miss"));
    assert_eq!(
        response.body,
        "{\"analysis\": \"trace-summary\", \"systems\": 22}"
    );
    // Without a content-length the body runs to the end of the stream.
    let response = read(b"HTTP/1.1 200 OK\r\n\r\nall of it").expect("unsized body");
    assert_eq!(response.body, "all of it");
    assert_allocations_bounded();
}

#[test]
fn declared_lengths_are_checked_before_anything_is_allocated() {
    let too_long = [
        u64::MAX.to_string(),
        (MAX_UPLOAD_BODY as u64 + 1).to_string(),
        (1u64 << 40).to_string(),
        "340282366920938463463374607431768211456".to_owned(),
    ];
    for length in &too_long {
        let e = read(&with_length(length)).expect_err(length);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{length}: {e}");
    }
    for length in ["", "-2", "+2", "2 2", "0x2", "２"] {
        let e = read(&with_length(length)).expect_err(length);
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{length:?}: {e}");
    }
    // At the cap, a peer that sends two bytes costs two bytes.
    let e = read(&with_length(&MAX_UPLOAD_BODY.to_string())).expect_err("short body");
    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
    assert_eq!(read(&with_length("2")).expect("exact").body, "{}");
    assert_eq!(read(&with_length("1")).expect("prefix").body, "{");
    assert_allocations_bounded();
}

#[test]
fn head_lines_and_header_counts_are_bounded() {
    let long_line = format!("HTTP/1.1 200 OK\r\nx: {}\r\n\r\n", "a".repeat(MAX_LINE));
    let e = read(long_line.as_bytes()).expect_err("line over MAX_LINE");
    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");

    let mut many = String::from("HTTP/1.1 200 OK\r\n");
    for i in 0..=MAX_HEADERS {
        many.push_str(&format!("x-{i}: y\r\n"));
    }
    many.push_str("\r\n");
    let e = read(many.as_bytes()).expect_err("more than MAX_HEADERS");
    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");

    // No response at all is cut short; a head the stream ends inside,
    // or a header without a colon, is malformed.
    let e = read(b"").expect_err("empty stream");
    assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof, "{e}");
    for malformed in [
        &b"HTTP/1.1 200"[..],
        b"HTTP/1.1 200 OK\r\nx: y\r\n",
        b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n",
    ] {
        let e = read(malformed).expect_err("malformed head");
        assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    }
    assert_allocations_bounded();
}

/// The whole client against a peer that declares an impossible body:
/// a typed error, where an unbounded reader panics.
#[test]
fn client_refuses_a_hostile_content_length_from_a_live_peer() {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
    let addr = listener.local_addr().expect("local addr");
    let peer = std::thread::spawn(move || {
        let (mut stream, _) = listener.accept().expect("accept");
        // Wait for the request, so closing cannot reset the socket
        // before the client reads the answer.
        let mut request = [0u8; 4096];
        let _ = io::Read::read(&mut stream, &mut request);
        stream
            .write_all(b"HTTP/1.1 200 OK\r\ncontent-length: 18446744073709551615\r\n\r\n{}")
            .expect("write");
    });
    let e = Client::new(addr.to_string())
        .get("/v1/healthz")
        .expect_err("an impossible length");
    assert_eq!(e.kind(), io::ErrorKind::InvalidData, "{e}");
    peer.join().expect("peer thread");
    assert_allocations_bounded();
}

proptest! {
    #[test]
    fn arbitrary_bytes_give_a_response_or_a_typed_error(
        bytes in prop::collection::vec(0u8..=255, 0..512),
    ) {
        if let Err(e) = read(&bytes) {
            prop_assert!(is_typed(&e), "{:?}: {}", e.kind(), e);
        }
        prop_assert!(largest_allocation() < ALLOCATION_CEILING);
    }

    #[test]
    fn mutated_responses_give_a_response_or_a_typed_error(
        edits in prop::collection::vec((0usize..512, 0u8..=255, 0u8..3), 1..8),
    ) {
        if let Err(e) = read(&mutate(&real_response(), &edits)) {
            prop_assert!(is_typed(&e), "{:?}: {}", e.kind(), e);
        }
        prop_assert!(largest_allocation() < ALLOCATION_CEILING);
    }

    #[test]
    fn any_declared_length_is_honoured_or_refused(
        length in prop::sample::select(vec![
            0u64, 1, 2, 3, 1 << 20, MAX_UPLOAD_BODY as u64, MAX_UPLOAD_BODY as u64 + 1,
            u64::MAX,
        ]),
        noise in 0u64..=u64::MAX,
        pick_noise in 0u8..2,
    ) {
        let length = if pick_noise == 1 { noise } else { length };
        let result = read(&with_length(&length.to_string()));
        match length {
            0..=2 => {
                let body = result.expect("within the two bytes sent").body;
                prop_assert_eq!(body, &"{}"[..length as usize]);
            }
            n if n <= MAX_UPLOAD_BODY as u64 => {
                let e = result.expect_err("longer than sent");
                prop_assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
            }
            _ => {
                let e = result.expect_err("over the cap");
                prop_assert_eq!(e.kind(), io::ErrorKind::InvalidData);
            }
        }
        prop_assert!(largest_allocation() < ALLOCATION_CEILING);
    }
}
