//! Hostile input at the daemon's front door: random and mutated request
//! bytes through [`http::read_request`], and random or mutated bodies
//! through the JSON decoding of [`PredictRequest`] and [`ExploreRequest`].
//!
//! Whatever a client sends, each step must either accept it or answer a
//! structured [`ApiError`] with a 4xx status — never panic. Readers here
//! are in-memory (`&[u8]` and a segmenting wrapper), so no case waits on
//! a timeout.

use pmt_api::{ApiError, AxisSpec, ExploreRequest, MachineSpec, PredictRequest, SpaceSpec};
use pmt_dse::DesignConstraints;
use pmt_serve::http::{read_request, INITIAL_BODY_BYTES};
use proptest::prelude::*;
use proptest::TestRng;
use rand::Rng;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Read;

/// The system allocator, noting per thread the largest single block
/// asked for — how a case observes what the reader reserves.
struct LargestBlock;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // At thread exit the slot may already be gone; nothing to note then.
    let _ = LARGEST.try_with(|largest| largest.set(largest.get().max(size)));
}

unsafe impl GlobalAlloc for LargestBlock {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static ALLOCATOR: LargestBlock = LargestBlock;

/// Body limit for the reader under test: large enough for every valid
/// request below, small enough that an accepted `Content-Length` never
/// allocates much.
const MAX_BODY: usize = 64 * 1024;

/// The valid bodies every mutation starts from: a named-machine predict
/// and an explore over a two-axis product space with a pre-filter and a
/// power budget, so mutations reach every nested wire type.
fn valid_bodies() -> [String; 2] {
    let predict = PredictRequest::new("astar", MachineSpec::named("nehalem"));
    let mut explore = ExploreRequest::new(
        "astar",
        SpaceSpec::product(
            Some("nehalem"),
            vec![
                AxisSpec::new("w", &[2.0, 4.0]),
                AxisSpec::new("f", &[2.0, 2.66]),
            ],
        ),
    );
    explore.objective = "energy".to_string();
    explore.top_k = 5;
    explore.constraints = Some(DesignConstraints::new().max_rob(256));
    explore.max_power_w = Some(35.0);
    [
        serde_json::to_string(&predict).unwrap(),
        serde_json::to_string(&explore).unwrap(),
    ]
}

fn valid_request(body: &str) -> Vec<u8> {
    format!(
        "POST /v1/explore HTTP/1.1\r\nHost: 127.0.0.1:7171\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    )
    .into_bytes()
}

/// `Ok`, or a structured client error: anything else (a 5xx, or a
/// panic, which fails the test by itself) is a defect.
fn assert_client_error<T>(result: &Result<T, ApiError>, ctx: &str) {
    if let Err(e) = result {
        assert!(
            (400..500).contains(&e.status),
            "{ctx}: status {} ({}: {})",
            e.status,
            e.body.code,
            e.body.message
        );
        assert!(!e.body.code.is_empty(), "{ctx}: empty error code");
    }
}

/// A deterministic mutation of `bytes`, picked and placed by `seed`.
fn mutate(bytes: &[u8], seed: u64) -> Vec<u8> {
    let mut rng: TestRng = rand::SeedableRng::seed_from_u64(seed);
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1..4usize) {
        let at = rng.gen_range(0..=out.len());
        match rng.gen_range(0..6u32) {
            // Truncate.
            0 => out.truncate(at),
            // Flip one byte.
            1 if at < out.len() => out[at] ^= 1 << rng.gen_range(0..8u32),
            // Insert random bytes.
            2 => {
                let junk: Vec<u8> = (0..rng.gen_range(1..8usize)).map(|_| rng.gen()).collect();
                out.splice(at..at, junk);
            }
            // Split a line: a stray CRLF (or a blank line) mid-block.
            3 => {
                let split: &[u8] = if rng.gen() { b"\r\n" } else { b"\r\n\r\n" };
                out.splice(at..at, split.iter().copied());
            }
            // Duplicate a slice in place.
            4 if at < out.len() => {
                let end = rng.gen_range(at..=out.len()).min(at + 32);
                let copy = out[at..end].to_vec();
                out.splice(at..at, copy);
            }
            // Delete a slice.
            _ => {
                let end = rng.gen_range(at..=out.len());
                out.drain(at..end);
            }
        }
    }
    out
}

/// A reader that hands its bytes out in segments of 1..=`max` bytes, as
/// TCP may: header blocks arrive split anywhere, even inside the blank
/// line.
struct Segmented<'a> {
    rest: &'a [u8],
    rng: TestRng,
    max: usize,
}

impl Read for Segmented<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = self
            .rng
            .gen_range(1..=self.max)
            .min(buf.len())
            .min(self.rest.len());
        buf[..n].copy_from_slice(&self.rest[..n]);
        self.rest = &self.rest[n..];
        Ok(n)
    }
}

/// Decode a body the way the daemon does (UTF-8, then JSON), then run
/// the request checks every handler runs before computing.
fn decode_predict(body: &[u8]) -> Result<(), ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad_body", "request body is not valid UTF-8"))?;
    let req: PredictRequest = serde_json::from_str(text)
        .map_err(|e| ApiError::bad_request("bad_json", format!("parsing request body: {e}")))?;
    req.check_version()?;
    req.machine.resolve()?;
    Ok(())
}

fn decode_explore(body: &[u8]) -> Result<(), ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad_body", "request body is not valid UTF-8"))?;
    let req: ExploreRequest = serde_json::from_str(text)
        .map_err(|e| ApiError::bad_request("bad_json", format!("parsing request body: {e}")))?;
    req.check_version()?;
    req.space.resolve()?;
    Ok(())
}

/// JSON-shaped token soup: random sequences of the grammar's pieces and
/// the wire's field names, which reach far deeper into the parser than
/// uniform random bytes.
fn token_soup(picks: &[u8]) -> String {
    const TOKENS: &[&str] = &[
        "{",
        "}",
        "[",
        "]",
        ":",
        ",",
        "\"",
        "null",
        "true",
        "-",
        "0",
        "1",
        "2.66",
        "1e999",
        "-0.0",
        "18446744073709551616",
        "4294967296",
        "\"\\u\"",
        "\"\\ud800\"",
        "\"\\uDFFF\\u0000\"",
        "\"\\x\"",
        "\"schema_version\"",
        "\"profile\"",
        "\"machine\"",
        "\"name\"",
        "\"config\"",
        "\"space\"",
        "\"base\"",
        "\"axes\"",
        "\"values\"",
        "\"objective\"",
        "\"top_k\"",
        "\"constraints\"",
        "\"max_power_w\"",
        "\"f\"",
        "\"nehalem\"",
        "\"big\"",
    ];
    picks
        .iter()
        .map(|&p| TOKENS[p as usize % TOKENS.len()])
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn random_bytes_never_crash_the_request_reader(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
    ) {
        assert_client_error(&read_request(&mut &bytes[..], MAX_BODY), "random bytes");
    }

    #[test]
    fn mutated_requests_never_crash_the_request_reader(
        seed in any::<u64>(),
        explore in any::<bool>(),
        max_segment in 1usize..64,
    ) {
        let valid = valid_request(&valid_bodies()[explore as usize]);
        let bytes = mutate(&valid, seed);
        let ctx = format!("seed {seed}: {:?}", String::from_utf8_lossy(&bytes));
        let whole = read_request(&mut &bytes[..], MAX_BODY);
        assert_client_error(&whole, &ctx);
        // Split delivery parses to the same outcome.
        let mut segmented = Segmented {
            rest: &bytes,
            rng: rand::SeedableRng::seed_from_u64(seed),
            max: max_segment,
        };
        let split = read_request(&mut segmented, MAX_BODY);
        assert_client_error(&split, &ctx);
        match (&whole, &split) {
            (Ok(a), Ok(b)) => {
                prop_assert_eq!(&a.body, &b.body);
                prop_assert_eq!(&a.headers, &b.headers);
            }
            (Err(a), Err(b)) => prop_assert_eq!(&a.body.code, &b.body.code),
            _ => panic!("{ctx}: whole and split delivery disagree"),
        }
    }

    #[test]
    fn hostile_content_lengths_are_client_errors(
        pick in 0usize..8,
        sent in 0usize..40,
    ) {
        let length = [
            "18446744073709551615".to_string(),
            "18446744073709551616".to_string(),
            "99999999999999999999999999999999".to_string(),
            "-1".to_string(),
            "+70000".to_string(),
            " 0x10".to_string(),
            (MAX_BODY + 1).to_string(),
            MAX_BODY.to_string(),
        ][pick]
            .clone();
        let mut raw = format!("POST /v1/predict HTTP/1.1\r\nContent-Length: {length}\r\n\r\n")
            .into_bytes();
        raw.extend(std::iter::repeat_n(b'x', sent));
        let result = read_request(&mut &raw[..], MAX_BODY);
        assert_client_error(&result, &format!("Content-Length {length:?}"));
        // None of these fits in what was sent, so none is accepted.
        prop_assert!(result.is_err());
    }

    #[test]
    fn random_bodies_decode_or_answer_a_client_error(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        picks in prop::collection::vec(any::<u8>(), 0..80),
    ) {
        let soup = token_soup(&picks);
        for body in [&bytes[..], soup.as_bytes()] {
            let ctx = format!("{:?}", String::from_utf8_lossy(body));
            assert_client_error(&decode_predict(body), &ctx);
            assert_client_error(&decode_explore(body), &ctx);
        }
    }

    #[test]
    fn mutated_bodies_decode_or_answer_a_client_error(seed in any::<u64>()) {
        for body in valid_bodies() {
            let bytes = mutate(body.as_bytes(), seed);
            let ctx = format!("seed {seed}: {:?}", String::from_utf8_lossy(&bytes));
            assert_client_error(&decode_predict(&bytes), &ctx);
            assert_client_error(&decode_explore(&bytes), &ctx);
        }
    }
}

#[test]
fn the_unmutated_requests_are_accepted() {
    let [predict, explore] = valid_bodies();
    for body in [&predict, &explore] {
        let req = read_request(&mut &valid_request(body)[..], MAX_BODY).unwrap();
        assert_eq!(req.body, body.as_bytes());
    }
    decode_predict(predict.as_bytes()).unwrap();
    decode_explore(explore.as_bytes()).unwrap();
}

/// A client that declares a 64 MiB body and sends ten bytes is answered
/// `truncated_request`, and the reader never reserves more than its
/// initial body buffer for it.
#[test]
fn a_declared_body_is_reserved_only_as_it_arrives() {
    let declared = 64 << 20;
    let mut raw =
        format!("POST /v1/predict HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
    raw.extend_from_slice(b"0123456789");
    LARGEST.with(|largest| largest.set(0));
    let err = read_request(&mut &raw[..], declared).unwrap_err();
    let largest = LARGEST.with(Cell::get);
    assert_eq!(err.status, 400);
    assert_eq!(err.body.code, "truncated_request");
    assert_eq!(
        err.body.message,
        "reading request body: failed to fill whole buffer"
    );
    assert!(
        largest <= INITIAL_BODY_BYTES,
        "reserved a {largest}-byte block for a 10-byte body"
    );
}
