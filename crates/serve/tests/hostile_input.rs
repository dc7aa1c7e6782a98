//! Hostile input at the daemon's front door: random and mutated request
//! bytes through [`http::read_request`], and random or mutated bodies
//! through the JSON decoding of [`PredictRequest`] and [`ExploreRequest`].
//!
//! Whatever a client sends, each step must either accept it or answer a
//! structured [`ApiError`] with a 4xx status — never panic. Readers here
//! are in-memory (`&[u8]` and a segmenting wrapper), so no case waits on
//! a timeout.

use pmt_api::{
    ApiError, AxisSpec, ExploreRequest, MachineSpec, PredictRequest, RegisterProfileRequest,
    SpaceSpec,
};
use pmt_dse::DesignConstraints;
use pmt_serve::http::{read_request, INITIAL_BODY_BYTES};
use pmt_uarch::MachineConfig;
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

fn decode_register(body: &[u8]) -> Result<(), ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::bad_request("bad_body", "request body is not valid UTF-8"))?;
    let req: RegisterProfileRequest = serde_json::from_str(text)
        .map_err(|e| ApiError::bad_request("bad_json", format!("parsing request body: {e}")))?;
    req.check_version()?;
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
        "\"\\ud800\\u0041\"",
        "\"\\ud800\\ud800\"",
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

/// Number tokens aimed at the decoder's all-digit fast path: digit runs
/// across the 18/19/20-digit boundary, a leading `+` or `-`, and digits
/// running into `.` or `e`.
fn hostile_numbers() -> Vec<String> {
    let mut tokens = Vec::new();
    for len in [1, 17, 18, 19, 20, 21] {
        let nines = "9".repeat(len);
        let padded = format!("{}1", "0".repeat(len - 1));
        for digits in [&nines, &padded] {
            for token in [
                digits.clone(),
                format!("+{digits}"),
                format!("-{digits}"),
                format!("{digits}."),
                format!("{digits}.5"),
                format!("{digits}e"),
                format!("{digits}e2"),
                format!("{digits}-"),
            ] {
                tokens.push(token);
            }
        }
    }
    tokens.extend([u64::MAX as u128, u64::MAX as u128 + 1].map(|v| v.to_string()));
    tokens.extend(["+", "-", ".", "e", "-0", "+0"].map(String::from));
    tokens
}

/// Byte ranges of the number tokens of `json`, skipping string literals.
fn number_spans(json: &str) -> Vec<(usize, usize)> {
    let bytes = json.as_bytes();
    let mut spans = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        match bytes[at] {
            b'"' => {
                at += 1;
                while bytes[at] != b'"' {
                    at += if bytes[at] == b'\\' { 2 } else { 1 };
                }
                at += 1;
            }
            b'-' | b'0'..=b'9' => {
                let start = at;
                while at < bytes.len() && b"+-.eE0123456789".contains(&bytes[at]) {
                    at += 1;
                }
                spans.push((start, at));
            }
            _ => at += 1,
        }
    }
    spans
}

/// Every number of the valid bodies and of a predict on an inline
/// machine, replaced in turn by each hostile token: each decode is
/// accepted or answered with a 4xx.
#[test]
fn hostile_number_tokens_decode_or_answer_a_client_error() {
    let tokens = hostile_numbers();
    let [predict, explore] = valid_bodies();
    let inline = PredictRequest::new("astar", MachineSpec::inline(MachineConfig::nehalem()));
    let inline = serde_json::to_string(&inline).unwrap();
    for body in [predict, explore, inline] {
        let spans = number_spans(&body);
        assert!(!spans.is_empty(), "no numbers in {body}");
        for (start, end) in spans {
            for token in &tokens {
                let mutated = format!("{}{token}{}", &body[..start], &body[end..]);
                assert_client_error(&decode_predict(mutated.as_bytes()), &mutated);
                assert_client_error(&decode_explore(mutated.as_bytes()), &mutated);
            }
        }
    }
}

/// A profile name whose high surrogate is not followed by a low one is
/// refused as `bad_json` (never decoded to a wrong name), in a predict,
/// an explore and an upload.
#[test]
fn malformed_surrogate_profile_names_are_refused() {
    let spec = pmt_workloads::WorkloadSpec::by_name("astar").unwrap();
    let profile = pmt_profiler::Profiler::new(pmt_profiler::ProfilerConfig::fast_test())
        .profile_named("astar", &mut spec.trace(2_000));
    let upload = serde_json::to_string(&RegisterProfileRequest::new(profile)).unwrap();
    let [predict, explore] = valid_bodies();
    for name in [r#""\ud800\u0041""#, r#""\ud800\ud800""#] {
        let named = |body: &str| body.replacen("\"astar\"", name, 1);
        for result in [
            decode_predict(named(&predict).as_bytes()),
            decode_explore(named(&explore).as_bytes()),
            decode_register(named(&upload).as_bytes()),
        ] {
            let err = result.unwrap_err();
            assert_eq!(
                (err.status, err.body.code.as_str()),
                (400, "bad_json"),
                "{name}"
            );
            assert!(
                err.body.message.contains("expected low surrogate"),
                "{name}: {}",
                err.body.message
            );
        }
    }
    decode_register(upload.as_bytes()).unwrap();
}
