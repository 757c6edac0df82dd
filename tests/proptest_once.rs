//! Every `proptest!` property must register as exactly one test. A
//! property registered twice runs twice in the same binary, and the two
//! copies share process-global state: seeded scratch directories, static
//! counters. Run concurrently, they delete each other's files.

use proptest::prelude::*;
use std::sync::atomic::{AtomicU32, Ordering};

const CASES: u32 = 8;

/// Cases run so far by every registration of `property_registers_once`.
static RUNS: AtomicU32 = AtomicU32::new(0);

proptest! {
    #![proptest_config(ProptestConfig::with_cases(CASES))]

    /// Counts its own cases: a second registration pushes the count past
    /// `CASES`, whichever copy runs first.
    #[test]
    fn property_registers_once(_case in 0u32..100) {
        let run = RUNS.fetch_add(1, Ordering::SeqCst) + 1;
        prop_assert!(run <= CASES, "case {} of a property with {} cases", run, CASES);
    }
}
