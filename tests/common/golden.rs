//! Golden text, the one pin format of the paper-facing tests.
//!
//! A pin is a file under `tests/golden/`, compared by [`assert_golden`].
//! On a mismatch the actual text is written to
//! `$CARGO_TARGET_TMPDIR/golden/<case>` (`target/tmp/golden/`) and the
//! test fails naming the first line that differs, with both values and,
//! in pretty-printed JSON, that line's key path
//! (`tol_only.mispredicts[4]`). To accept a move, copy that file over
//! the pin and commit it: the review reads the moved fields as a diff.
//!
//! Shared by `#[path]` between the `*_golden.rs` tests.

use std::fs;
use std::path::Path;

/// Compares `actual` with the pin `tests/golden/<case>`.
pub fn assert_golden(case: &str, actual: &str) {
    let pin = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden").join(case);
    let expected = fs::read_to_string(&pin).unwrap_or_default();
    let Some(difference) = first_difference(&expected, actual) else {
        return;
    };
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden").join(case);
    fs::create_dir_all(out.parent().expect("a case names a file"))
        .expect("create the output directory");
    fs::write(&out, actual).expect("write the actual text");
    panic!(
        "{case} moved: {difference}\nThe actual text is in {}; copy it over {} to accept the move.",
        out.display(),
        pin.display()
    );
}

/// Where `actual` first departs from `expected`, or `None` if the two
/// are equal: the line number, both values and, when `expected` is
/// pretty-printed JSON (it starts with `{`), the line's key path.
pub fn first_difference(expected: &str, actual: &str) -> Option<String> {
    let (mut want, mut got) = (expected.split('\n'), actual.split('\n'));
    let mut n = 0;
    let (w, g) = loop {
        match (want.next(), got.next()) {
            (None, None) => return None,
            (w, g) if w != g => break (w, g),
            _ => n += 1,
        }
    };
    let show = |line: Option<&str>| {
        line.map_or("the end of the text".into(), |l| format!("`{}`", value_of(l)))
    };
    let path = if expected.starts_with('{') { key_path(expected, n) + " " } else { String::new() };
    Some(format!("{path}(line {}): expected {}, found {}", n + 1, show(w), show(g)))
}

/// A line without its indent, trailing comma and JSON key:
/// `"cycles": 12,` is `12`.
fn value_of(line: &str) -> &str {
    let line = line.trim().trim_end_matches(',');
    split_key(line).map_or(line, |(_, value)| value)
}

fn split_key(line: &str) -> Option<(&str, &str)> {
    line.strip_prefix('"')?.split_once("\": ")
}

/// The key path of line `n` of pretty-printed JSON, one key or array
/// element per line as `serde_json::to_string_pretty` writes it.
fn key_path(text: &str, n: usize) -> String {
    // The path of every object or array open at the line, and for an
    // array the index of its next element.
    let mut open: Vec<(String, Option<usize>)> = Vec::new();
    let mut path = String::new();
    for line in text.split('\n').take(n + 1) {
        let line = line.trim().trim_end_matches(',');
        if line == "}" || line == "]" {
            path = open.pop().map(|(p, _)| p).unwrap_or_default();
            continue;
        }
        path = match (split_key(line), open.last_mut()) {
            (Some((key, _)), Some((parent, _))) if !parent.is_empty() => format!("{parent}.{key}"),
            (Some((key, _)), _) => key.to_string(),
            (None, Some((parent, Some(next)))) => {
                *next += 1;
                format!("{parent}[{}]", *next - 1)
            }
            (None, _) => String::new(),
        };
        match value_of(line) {
            "{" => open.push((path.clone(), None)),
            "[" => open.push((path.clone(), Some(0))),
            _ => {}
        }
    }
    path
}
