//! The JSON parser reads request bodies straight off the socket, so it
//! must answer any text with a value or a `ParseError`, never a panic
//! or a stack overflow, and an accepted value must survive a write and
//! re-read unchanged. The writer must print what a plain
//! char-by-char writer prints, whatever order an object's keys arrive
//! in.

use hpcfail_obs::json::{parse, Json, MAX_DEPTH};
use proptest::prelude::*;
use std::collections::BTreeMap;

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
        Json::Obj(fields) => fields.iter().all(|(_, v)| all_finite(v)),
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

/// The string escaper as a char-by-char loop.
fn reference_string(s: &str) -> String {
    let mut out = String::from('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The number printer through `format!`.
fn reference_number(n: f64) -> String {
    if !n.is_finite() {
        "null".to_owned()
    } else if n.fract() == 0.0 && n.abs() < 9e15 {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

/// The compact form of an object, written field by field from a map.
fn reference_object(map: &BTreeMap<String, f64>) -> String {
    let fields: Vec<String> = map
        .iter()
        .map(|(k, v)| format!("{}:{}", reference_string(k), reference_number(*v)))
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Numbers worth printing, picked by `kind` and built from the other
/// draws: edge values (zeros, ±1, one- and two-digit negatives, ±2^53,
/// the 9e15 switch to `{}` formatting, NaN, infinities), small and
/// large whole numbers, binary fractions, and arbitrary bit patterns.
fn number(kind: u8, whole: i64, shift: i32, bits: u64) -> f64 {
    let pow53 = 2f64.powi(53);
    let edges = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        -0.5,
        -9.0,
        -10.0,
        pow53,
        -pow53,
        pow53 + 2.0,
        9e15,
        9e15 - 1.0,
        -9e15 + 1.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        f64::MAX,
        i64::MIN as f64,
    ];
    match kind % 5 {
        0 => edges[whole.unsigned_abs() as usize % edges.len()],
        1 => (whole % 1_000_000) as f64,
        2 => whole as f64,
        3 => (whole % 1_000_000) as f64 / 2f64.powi(shift),
        _ => f64::from_bits(bits),
    }
}

/// Draws for [`number`].
fn arb_number() -> (
    std::ops::Range<u8>,
    std::ops::RangeInclusive<i64>,
    std::ops::Range<i32>,
    std::ops::RangeInclusive<u64>,
) {
    let pow53 = 1i64 << 53;
    (0..5, -pow53..=pow53, 0..12, 0..=u64::MAX)
}

/// Keys from a small alphabet, so duplicates are common, with escapes,
/// control characters and non-ASCII text among them; a `pick` past the
/// alphabet takes the generated `text`.
fn key(pick: u8, text: &str) -> String {
    const ALPHABET: [&str; 8] = ["a", "b", "ab", "B", "é", "a\"b", "", "\u{1}"];
    ALPHABET
        .get(usize::from(pick))
        .map_or_else(|| text.to_owned(), |k| (*k).to_owned())
}

const KEY_TEXT: &str = "[ab\"\\\n\u{0}-\u{1f}é中]{0,3}";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn the_writer_prints_what_a_char_by_char_writer_prints(
        text in "[ -~\t\n\r\u{0}-\u{1f}\u{7f}-\u{a0}é中\u{1F600}]{0,24}",
        raw in prop::collection::vec(0u8..=255, 0..32),
        draw in arb_number(),
    ) {
        let number = number(draw.0, draw.1, draw.2, draw.3);
        for s in [text, String::from_utf8_lossy(&raw).into_owned()] {
            let expected = reference_string(&s);
            prop_assert_eq!(Json::Str(s.clone()).compact(), expected.clone());
            prop_assert_eq!(Json::Str(s.clone()).pretty(), format!("{expected}\n"));
            prop_assert_eq!(parse(&expected).ok(), Some(Json::Str(s)));
        }
        prop_assert_eq!(Json::Num(number).compact(), reference_number(number));
        prop_assert_eq!(Json::Num(number).pretty(), format!("{}\n", reference_number(number)));
    }

    #[test]
    fn objects_write_in_key_order_and_keep_the_last_duplicate(
        draws in prop::collection::vec((0u8..12, KEY_TEXT, arb_number()), 0..12),
        shuffle in 0..=u64::MAX,
    ) {
        let pairs: Vec<(String, f64)> = draws
            .iter()
            .map(|(pick, text, n)| (key(*pick, text), number(n.0, n.1, n.2, n.3)))
            .collect();
        let mut map = BTreeMap::new();
        for (k, v) in &pairs {
            map.insert(k.clone(), *v);
        }
        let expected = reference_object(&map);
        let to_json = |pairs: &[(String, f64)]| {
            Json::obj(pairs.iter().map(|(k, v)| (k.clone(), Json::Num(*v))))
        };
        let built = to_json(&pairs);
        prop_assert_eq!(built.compact(), expected.clone());
        // The distinct keys in any order build the same object.
        let mut distinct: Vec<(String, f64)> = map.iter().map(|(k, v)| (k.clone(), *v)).collect();
        let mut state = shuffle;
        for i in (1..distinct.len()).rev() {
            state = state.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1_442_695_040_888_963_407);
            distinct.swap(i, (state >> 33) as usize % (i + 1));
        }
        let shuffled = to_json(&distinct);
        prop_assert_eq!(shuffled.compact(), expected.clone());
        prop_assert_eq!(shuffled.pretty(), built.pretty());
        // `parse` keeps the last of a duplicate key, as `Json::obj` does.
        let text = format!(
            "{{{}}}",
            pairs
                .iter()
                .map(|(k, v)| format!("{}: {}", reference_string(k), reference_number(*v)))
                .collect::<Vec<_>>()
                .join(", ")
        );
        let parsed = parse(&text).expect("a written object parses");
        prop_assert_eq!(parsed.compact(), expected);
        for (k, v) in &map {
            prop_assert_eq!(parsed.get(k).map(Json::compact), Some(reference_number(*v)));
        }
        prop_assert_eq!(parsed.get("no such key"), None);
    }
}
