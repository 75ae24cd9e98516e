// Seeded no-panic boundary violations: CI's lint job compiles this file
// with clippy behind the forbid list of crates/serve/src/lib.rs.
fn handle(line: &str, xs: &[u8]) -> u8 {
    let v: i64 = line.parse().unwrap(); // line 4: unwrap
    let w: i64 = line.parse().expect("numeric"); // line 5: expect
    if v < 0 {
        panic!("negative"); // line 7: panic!
    }
    match w {
        0 => unreachable!("zero was filtered"), // line 10: unreachable!
        _ => {}
    }
    assert!(v > 0, "positive"); // line 13: assert!
    xs[0] // line 14: literal index
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        let v: i64 = "7".parse().unwrap(); // exempt: cfg(test)
        assert_eq!(v, 7); // exempt: cfg(test)
    }
}
