//! Property suite for the JSON reader: strings, integers and floats
//! survive a render-parse round trip exactly, and text over the JSON
//! syntax alphabet parses to `Ok` or `Err`, never a panic.

use proptest::prelude::*;
use qassert_serve::json::{parse, Value};

/// Characters a string escapes or passes through: quote, backslash,
/// slash, control characters, DEL, and 2-, 3- and 4-byte characters.
const STRING_ALPHABET: &str = "\"\\/\u{1}\n\t\u{7f}a\u{e9}\u{20ac}\u{1F600}";

/// JSON syntax, digits, number signs, the letters of the literals,
/// whitespace and one multi-byte character.
const SYNTAX_ALPHABET: &str = "{}[]\",:\\0123456789-+.eEtrufalsn \n\t\u{e9}";

fn text_over(alphabet: &str, len: std::ops::Range<usize>) -> impl Strategy<Value = String> {
    let chars: Vec<char> = alphabet.chars().collect();
    collection::vec(0..chars.len(), len)
        .prop_map(move |picks| picks.into_iter().map(|i| chars[i]).collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn strings_round_trip(s in text_over(STRING_ALPHABET, 0..48)) {
        let value = Value::Str(s);
        prop_assert_eq!(parse(&value.render()), Ok(value));
    }

    #[test]
    fn every_u64_parses_exactly_and_renders_its_digits(n in any::<u64>()) {
        let digits = n.to_string();
        let value = parse(&digits).unwrap();
        prop_assert_eq!(&value, &Value::Int(n));
        prop_assert_eq!(value.render(), digits);
    }

    #[test]
    fn finite_floats_survive_render_then_parse(
        x in any::<u64>().prop_map(f64::from_bits).prop_filter("finite", |x| x.is_finite())
    ) {
        let rendered = Value::Num(x).render();
        prop_assert_eq!(parse(&rendered).unwrap().as_num(), Some(x), "{}", rendered);
    }

    #[test]
    fn syntax_soup_parses_or_errs_without_panicking(
        text in text_over(SYNTAX_ALPHABET, 0..64)
    ) {
        let _ = parse(&text);
    }
}
