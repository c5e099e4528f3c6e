//! Property-based tests for the zero-copy JSON layer.
//!
//! The reader, the trees it builds and the owned escape hatch must agree
//! with the writer on every representable document; the units below
//! additionally pin escape/surrogate decoding, integer extremes, nesting
//! bounds, malformed-input error offsets, and the unified plan decoder's
//! errors.

use proptest::prelude::*;
use uplan::core::formats::json::{self, JsonEvent, JsonReader, JsonValue, OwnedJsonValue};
use uplan::core::formats::unified;
use uplan::core::Error;

/// Strings with a healthy dose of escape-worthy content: quotes,
/// backslashes, control characters, multi-byte UTF-8 and astral-plane
/// characters (which serialize raw but decode through `\u` pairs too).
fn arb_string() -> impl Strategy<Value = String> {
    prop_oneof![
        "[a-zA-Z0-9 _.:/()<>=-]{0,24}",
        ("[a-z]{0,8}", arb_special_piece(), "[a-z]{0,8}")
            .prop_map(|(a, mid, b)| format!("{a}{mid}{b}")),
    ]
}

fn arb_special_piece() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("\""),
        Just("\\"),
        Just("/"),
        Just("\n"),
        Just("\r"),
        Just("\t"),
        Just("\u{8}"),
        Just("\u{c}"),
        Just("\u{1}"),
        Just("\u{1f}"),
        Just("é"),
        Just("汉字"),
        Just("😀"),
        Just("\u{10FFFF}"),
    ]
}

fn arb_json() -> impl Strategy<Value = OwnedJsonValue> {
    let leaf = prop_oneof![
        Just(JsonValue::Null),
        any::<bool>().prop_map(JsonValue::Bool),
        any::<i64>().prop_map(JsonValue::Int),
        Just(JsonValue::Int(i64::MIN)),
        Just(JsonValue::Int(i64::MAX)),
        // Finite floats only: JSON has no NaN/Infinity.
        (-1e15f64..1e15).prop_map(JsonValue::Float),
        arb_string().prop_map(JsonValue::from),
    ];
    leaf.prop_recursive(4, 48, 4, |inner| {
        prop_oneof![
            prop::collection::vec(inner.clone(), 0..4).prop_map(JsonValue::Array),
            prop::collection::vec((arb_string(), inner), 0..4).prop_map(|members| {
                JsonValue::Object(members.into_iter().map(|(k, v)| (k.into(), v)).collect())
            }),
        ]
    })
}

/// Pieces spliced into a written document to break it.
const SPLICES: [&str; 12] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "x", "1", " ", "\u{1}",
];

/// Drains a reader's events and finishes it, returning the first error.
/// Every event but `Eof` consumes input, so a drain that outlasts the
/// input's length has stopped making progress and fails the test.
fn drain(doc: &str) -> Result<(), Error> {
    let mut reader = JsonReader::new(doc);
    for _ in 0..=doc.len() + 1 {
        if reader.next_event()? == JsonEvent::Eof {
            return reader.finish();
        }
    }
    panic!("event drain of {doc:?} made no progress");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Borrowed parse inverts both writers.
    #[test]
    fn compact_and_pretty_round_trip(doc in arb_json()) {
        let compact = doc.to_compact();
        prop_assert_eq!(json::parse(&compact).unwrap(), doc.clone());
        let pretty = doc.to_pretty();
        prop_assert_eq!(json::parse(&pretty).unwrap(), doc);
    }

    /// Borrowed parse ≡ owned parse: `into_owned` changes representation,
    /// never value, and the owned tree outlives the input buffer.
    #[test]
    fn borrowed_equals_owned(doc in arb_json()) {
        let text = doc.to_compact();
        let borrowed = json::parse(&text).unwrap();
        let owned: OwnedJsonValue = json::parse(&text).unwrap().into_owned();
        prop_assert_eq!(&borrowed, &owned);
        prop_assert_eq!(borrowed.into_owned(), owned);
    }

    /// `skip_value` consumes exactly one value.
    #[test]
    fn skip_value_consumes_one_value(doc in arb_json()) {
        let text = doc.to_compact();
        let mut reader = JsonReader::new(&text);
        reader.skip_value().unwrap();
        reader.finish().unwrap();
    }

    /// On a written document broken by a truncation, a dropped character
    /// or a spliced-in piece, an event drain fails (or succeeds) exactly as
    /// `json::parse` does: same error text, same byte offset.
    #[test]
    fn reader_reports_the_same_offsets_as_the_parser(
        doc in arb_json(),
        cut in any::<usize>(),
        edit in 0usize..SPLICES.len() + 2,
    ) {
        let text = doc.to_compact();
        let mut at = cut % (text.len() + 1);
        while !text.is_char_boundary(at) {
            at -= 1;
        }
        let broken = match edit {
            0 => text[..at].to_owned(),
            1 => {
                let mut dropped = text.clone();
                if at < dropped.len() {
                    dropped.remove(at);
                }
                dropped
            }
            splice => format!("{}{}{}", &text[..at], SPLICES[splice - 2], &text[at..]),
        };
        prop_assert_eq!(json::parse(&broken).map(drop), drain(&broken), "on {:?}", broken);
    }

    /// The event stream is balanced and terminates in Eof.
    #[test]
    fn event_stream_is_balanced(doc in arb_json()) {
        let text = doc.to_compact();
        let mut reader = JsonReader::new(&text);
        let mut depth = 0usize;
        loop {
            match reader.next_event().unwrap() {
                JsonEvent::ObjectStart | JsonEvent::ArrayStart => depth += 1,
                JsonEvent::ObjectEnd | JsonEvent::ArrayEnd => depth -= 1,
                JsonEvent::Eof => break,
                _ => {}
            }
        }
        prop_assert_eq!(depth, 0);
    }
}

// ---------------------------------------------------------------------------
// Edge-case units
// ---------------------------------------------------------------------------

#[test]
fn escape_decoding_matrix() {
    for (text, expected) in [
        (r#""\"\\\/\n\r\t\b\f""#, "\"\\/\n\r\t\u{8}\u{c}"),
        (r#""Aé汉""#, "Aé汉"),
        // Astral plane: surrogate-pair escape and raw UTF-8 agree.
        ("\"\\ud834\\udd1e\"", "𝄞"),
        ("\"𝄞\"", "𝄞"),
        ("\"\\u001f\"", "\u{1f}"),
    ] {
        assert_eq!(
            json::parse(text).unwrap(),
            JsonValue::Str(expected.into()),
            "{text}"
        );
    }
}

#[test]
fn surrogate_errors() {
    // Lone high, unpaired high, lone low, malformed low.
    for bad in [
        r#""\ud800""#,
        r#""\ud800x""#,
        r#""\udc00""#,
        r#""\ud800A""#,
        r#""\uZZZZ""#,
    ] {
        assert!(json::parse(bad).is_err(), "{bad} should fail");
    }
}

#[test]
fn integer_extremes_and_overflow() {
    assert_eq!(
        json::parse("-9223372036854775808").unwrap(),
        JsonValue::Int(i64::MIN)
    );
    assert_eq!(
        json::parse("9223372036854775807").unwrap(),
        JsonValue::Int(i64::MAX)
    );
    // One beyond the extremes overflows into floats, not errors.
    assert!(matches!(
        json::parse("9223372036854775808").unwrap(),
        JsonValue::Float(_)
    ));
    assert!(matches!(
        json::parse("-9223372036854775809").unwrap(),
        JsonValue::Float(_)
    ));
    // And the extremes survive a write/parse round-trip.
    let doc = JsonValue::Array(vec![JsonValue::Int(i64::MIN), JsonValue::Int(i64::MAX)]);
    assert_eq!(json::parse(&doc.to_compact()).unwrap(), doc);
}

#[test]
fn nesting_bound_is_exact_enough() {
    let deep = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
    assert!(json::parse(&deep(500)).is_ok());
    assert!(json::parse(&deep(600)).is_err());
}

#[test]
fn malformed_inputs_report_exact_offsets() {
    for (doc, expected_offset) in [
        // value_start on the closing brace.
        ("{\"a\":}", 5),
        // Element expected after the comma.
        ("[1,]", 3),
        // Bad literal at the start.
        ("nul", 0),
        // Value position after padded colon.
        ("{\"a\" :  x}", 8),
        // Raw control character inside a string.
        ("\"ab\u{1}c\"", 3),
        // Missing comma between members.
        ("{\"a\":1 \"b\":2}", 7),
        // Trailing garbage after the document.
        ("{} {}", 3),
        // Missing colon.
        ("{\"a\" 1}", 5),
    ] {
        match json::parse(doc) {
            Err(Error::Parse { offset, .. }) => {
                assert_eq!(offset, expected_offset, "offset for {doc:?}");
            }
            other => panic!("{doc:?}: expected a parse error, got {other:?}"),
        }
    }
    // Truncated input is an EOF error, not an offset error.
    assert!(matches!(json::parse(""), Err(Error::UnexpectedEof(_))));
    assert!(matches!(
        json::parse("\"\\u00"),
        Err(Error::UnexpectedEof(_))
    ));
}

#[test]
fn borrowed_spans_only_allocate_for_escapes() {
    let text = r#"{"plain": "span", "esc\taped": "a\nb", "nested": ["x", "y\\z"]}"#;
    let doc = json::parse(text).unwrap();
    let members = doc.as_object().unwrap();
    assert!(matches!(&members[0].0, std::borrow::Cow::Borrowed(_)));
    assert!(matches!(
        &members[0].1,
        JsonValue::Str(std::borrow::Cow::Borrowed(_))
    ));
    assert!(matches!(&members[1].0, std::borrow::Cow::Owned(_)));
    assert!(matches!(
        &members[1].1,
        JsonValue::Str(std::borrow::Cow::Owned(_))
    ));
    let nested = members[2].1.as_array().unwrap();
    assert!(matches!(
        &nested[0],
        JsonValue::Str(std::borrow::Cow::Borrowed(_))
    ));
    assert!(matches!(
        &nested[1],
        JsonValue::Str(std::borrow::Cow::Owned(_))
    ));
}

/// Malformed unified documents and the exact error each one gets.
const MALFORMED: [(&str, &str); 5] = [
    (
        r#"{"tree": 5}"#,
        "semantic error: plan node must be an object",
    ),
    (
        r#"{"tree": {"operation": {"category": 1, "identifier": "X"}}}"#,
        "semantic error: \"category\" must be a string",
    ),
    (
        r#"{"tree": {"operation": {"category": "Producer", "identifier": "X"},
                     "children": {}}}"#,
        "semantic error: \"children\" must be an array",
    ),
    (
        r#"{"properties": [{"category": "Cost", "identifier": "c"}]}"#,
        "semantic error: property missing \"value\"",
    ),
    (
        r#"{"properties": [{"category": "Cost", "identifier": "c", "value": {"a": 1}}]}"#,
        "semantic error: property values must be scalars",
    ),
];

#[test]
fn malformed_documents_get_the_same_error_from_text_and_tree() {
    for (doc, expected) in MALFORMED {
        let err = unified::from_json(doc).unwrap_err().to_string();
        assert_eq!(err, expected, "{doc}");
    }
}
