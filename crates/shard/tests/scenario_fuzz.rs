//! User-supplied scenarios get an error, never a panic: mutations of the
//! shipped example scenarios make `Scenario::parse` return `Ok` or `Err`.
//! (It sits with the sharded tier's tests because this crate's tests
//! have both the serve crate and proptest.)

use proptest::prelude::*;

use predvfs_serve::Scenario;

const EXAMPLES: [&str; 2] = [
    include_str!("../../../examples/demo.scenario"),
    include_str!("../../../examples/chaos.scenario"),
];

/// Fragments a mutation splices in: directives, stream and fault keys,
/// separators, numbers at the edges of what the parser converts, and
/// non-ASCII.
const FRAGMENTS: [&str; 30] = [
    "stream ",
    "platform ",
    "size ",
    "[faults]",
    "asic",
    "full",
    "sha",
    "controller=",
    "period_ms=",
    "deadline_ms=",
    "jobs=",
    "queue=",
    "policy=relax:",
    "drift=",
    "seed=",
    "trace_spike=",
    "=",
    ":",
    " ",
    "\n",
    "#",
    "0",
    "-1",
    "1e309",
    "NaN",
    "inf",
    "18446744073709551616",
    "1e-320",
    "é",
    "\u{0}",
];

/// Applies `edits` to `base`: each deletes up to 15 bytes, splices in a
/// fragment, or duplicates up to 64 bytes, at a drawn offset. Cuts
/// through a multi-byte character decode as U+FFFD.
fn mutate(base: &str, edits: &[(u32, u32, usize)]) -> String {
    let mut bytes = base.as_bytes().to_vec();
    for &(op, at, n) in edits {
        let at = at as usize % (bytes.len() + 1);
        match op % 3 {
            0 => {
                let end = (at + n % 16).min(bytes.len());
                bytes.drain(at..end);
            }
            1 => {
                bytes.splice(at..at, FRAGMENTS[n % FRAGMENTS.len()].bytes());
            }
            _ => {
                let end = (at + 1 + n % 64).min(bytes.len());
                let chunk = bytes[at..end].to_vec();
                bytes.splice(at..at, chunk);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    #[test]
    fn mutated_scenarios_never_panic(
        example in 0usize..EXAMPLES.len(),
        edits in prop::collection::vec((any::<u32>(), any::<u32>(), 0usize..256), 1..8),
    ) {
        let _ = Scenario::parse(&mutate(EXAMPLES[example], &edits));
    }
}
