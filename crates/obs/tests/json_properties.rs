//! The JSON parser reads request bodies straight off the socket, so it
//! must answer any text with a value or a `ParseError`, never a panic
//! or a stack overflow, and an accepted value must survive a write and
//! re-read unchanged.

use hpcfail_obs::json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;

/// A request body each mutation starts from.
const VALID_BODY: &str = r#"{"analysis": "checkpoint-replay", "group": "group1",
"policy": {"kind": "adaptive", "interval_hours": 24.5, "window": [1, -2e3, 0.125]},
"label": "café \"x\"\n", "flags": [true, false, null]}"#;

/// JSON punctuation and fragments, so generated text often gets past
/// the first byte.
const TOKENS: &[&str] = &[
    "{", "}", "[", "]", "\"", ":", ",", " ", "\n", "0", "-", "1.5", "e", "E+", "9e999", "true",
    "fals", "null", "\\", "\\u", "\\ud800", "00e9", "\"a\"", "é", "中",
];

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

fn all_finite(value: &Json) -> bool {
    match value {
        Json::Num(n) => n.is_finite(),
        Json::Arr(items) => items.iter().all(all_finite),
        Json::Obj(map) => map.values().all(all_finite),
        _ => true,
    }
}

/// Parses `text`: an error points inside the input, and an accepted
/// value re-parses from its own compact and pretty forms.
fn check(text: &str) -> Result<(), TestCaseError> {
    match parse(text) {
        Ok(value) => {
            for written in [value.compact(), value.pretty()] {
                let back = parse(&written);
                prop_assert!(back.is_ok(), "{:?} wrote {:?}", text, written);
                if all_finite(&value) {
                    prop_assert_eq!(back.ok(), Some(value.clone()));
                }
            }
        }
        Err(err) => prop_assert!(err.offset <= text.len(), "{:?}: {}", text, err),
    }
    Ok(())
}

/// `depth` levels of arrays and single-key objects, alternating by the
/// bits of `shape`, around a scalar.
fn nested(depth: usize, shape: u64) -> String {
    let mut open = String::new();
    let mut close = String::new();
    for level in 0..depth {
        if shape >> (level % 64) & 1 == 0 {
            open.push('[');
            close.insert(0, ']');
        } else {
            open.push_str(r#"{"k": "#);
            close.insert(0, '}');
        }
    }
    format!("{open}1{close}")
}

#[test]
fn the_mutation_base_parses() {
    let body = parse(VALID_BODY).expect("base parses");
    assert_eq!(
        body.get("label").and_then(Json::as_str),
        Some("café \"x\"\n")
    );
}

#[test]
fn nesting_far_past_the_cap_is_an_error_not_a_stack_overflow() {
    for depth in [MAX_DEPTH + 1, 10 * MAX_DEPTH, 100_000] {
        for open in ["[", r#"{"k":"#] {
            let text = open.repeat(depth);
            let err = parse(&text).expect_err("too deep");
            assert!(err.message.contains("nesting deeper than"), "{err}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_text_parses_to_a_value_or_an_error(
        text in "[ -~\t\n\ré中]{0,64}",
        raw in prop::collection::vec(0u8..=255, 0..96),
        tokens in prop::collection::vec(prop::sample::select(TOKENS.to_vec()), 0..24),
    ) {
        check(&text)?;
        check(&String::from_utf8_lossy(&raw))?;
        check(&tokens.concat())?;
    }

    #[test]
    fn mutated_request_bodies_parse_to_a_value_or_an_error(
        edits in prop::collection::vec((0usize..220, 0u8..=255, 0u8..3), 1..8),
    ) {
        check(&String::from_utf8_lossy(&mutate(VALID_BODY.as_bytes(), &edits)))?;
    }

    #[test]
    fn nesting_parses_up_to_the_cap_and_errors_past_it(
        depth in 0usize..(2 * MAX_DEPTH + 2),
        shape in 0u64..u64::MAX,
    ) {
        let text = nested(depth, shape);
        let parsed = parse(&text);
        prop_assert_eq!(parsed.is_ok(), depth <= MAX_DEPTH, "depth {}", depth);
        check(&text)?;
    }
}
