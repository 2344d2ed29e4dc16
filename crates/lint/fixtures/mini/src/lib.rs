//! Fixture library exercising every linter rule for the golden
//! report test. Nothing here is ever compiled — the linter only
//! tokenizes it.

use std::collections::HashMap;
use std::time::Instant;

/// Iterates a `HashMap` (nondeterministic order) and reads the clock.
pub fn hot_loop(m: &HashMap<u32, u32>) -> u128 {
    let t = Instant::now();
    let mut sum = 0u64;
    for (k, v) in m {
        sum += u64::from(k + v);
    }
    println!("sum = {sum}");
    t.elapsed().as_nanos()
}

/// Unwraps in library code.
pub fn panics(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// A suppression with a reason silences its finding.
pub fn excused(x: Option<u32>) -> u32 {
    // lint:allow(no-panic-in-lib): fixture — the caller guarantees Some
    x.unwrap()
}

// lint:allow(no-panic-in-lib)
/// A reasonless suppression is a finding of its own, and silences
/// nothing: the `expect` below still fires.
pub fn reasonless(x: Option<u32>) -> u32 {
    x.expect("boom")
}

/// Strings and comments must never trip a rule: the words below are
/// "HashMap", "Instant::now()" and "panic!()" as *text*, not tokens.
pub fn text_not_tokens() -> &'static str {
    /* A HashMap mentioned in a comment is fine. */
    "HashMap Instant::now() panic!() .unwrap()"
}

/// Reads the environment ad hoc; the variance local named `var` next
/// to it is not an environment read.
pub fn knob_spread() -> f64 {
    let var = std::env::var("MINI_KNOB").map_or(0.0, |v| v.len() as f64);
    var * var
}

#[cfg(test)]
mod tests {
    #[test]
    fn test_regions_are_exempt() {
        let v: Vec<u32> = vec![1];
        assert_eq!(*v.first().unwrap(), 1);
    }
}
