// Constructs an earlier line-based blanker mis-lexed, kept as a
// regression corpus for the token front end. The killer is the
// escaped-quote char literal: that blanker consumed `'\''` one char
// short, then its stray-quote recovery swallowed the `,` and the opening
// quote of the *next* literal — leaking a phantom `}` into the code
// view. Two of those collapse the `#[cfg(test)]` brace count below, so
// the genuine test-only hash iteration there would be flagged as a
// det-iter violation. The raw strings and nested comments carry
// `partial_cmp` and `seen.keys()`, which must stay blanked either way.
pub fn tricky() -> usize {
    let sql = r#"
        multi-line raw string: seen.keys() and partial_cmp stay hidden "#;
    let deep = r##"ends with "# one hash but keeps going a.partial_cmp(b)"##;
    let nested = 1; /* outer /* seen.keys() inner */ still partial_cmp */
    sql.len() + deep.len() + nested
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    #[test]
    fn quoting() {
        let a = ['\'','}']; // adjacency matters: no space after the comma
        let b = ['\'','}'];
        let seen: HashMap<u32, u32> = HashMap::from([(1, 2)]);
        assert_eq!(seen.keys().count(), 1);
        let _ = (a, b);
    }
}
