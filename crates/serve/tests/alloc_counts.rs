//! Heap allocations of the served evaluate path, counted exactly.
//!
//! `/v1/evaluate` parses the body into a configuration, solves it on a
//! warm kernel arena and renders the response document. The counting
//! allocator keeps each thread's count apart and counts only while
//! that thread asks, so tests running in parallel cannot land in each
//! other's counts.

use hmcs_serve::api;

#[path = "../../sim/tests/counting_alloc/mod.rs"]
mod counting_alloc;
use counting_alloc::allocations;

/// An `/v1/evaluate` body naming every field the benchmark's point
/// requests set.
const BODY: &str = r#"{"clusters":16,"message_bytes":1024,"lambda_per_us":2.5e-4,"architecture":"blocking","scenario":"case2"}"#;

#[test]
fn parsing_an_evaluate_body_allocates_a_fixed_count() {
    api::parse_evaluate(BODY).unwrap();
    let parse = allocations(|| {
        api::parse_evaluate(BODY).unwrap();
    });
    assert_eq!(parse, PARSE, "parse_evaluate's allocations");
    let minimal = allocations(|| {
        api::parse_evaluate(r#"{"clusters":16}"#).unwrap();
    });
    assert_eq!(minimal, PARSE_MINIMAL, "parse_evaluate's allocations on a one-field body");
}

#[test]
fn a_warm_evaluate_response_allocates_a_fixed_count() {
    let (config, _) = api::parse_evaluate(BODY).unwrap();
    api::evaluate_response(&config).unwrap();
    let respond = allocations(|| {
        api::evaluate_response(&config).unwrap();
    });
    assert_eq!(respond, RESPOND, "evaluate_response's allocations");
}

/// Allocations of parsing [`BODY`].
const PARSE: u64 = 14;
/// Allocations of parsing a body that sets only the cluster count: the
/// document's field list and its one key.
const PARSE_MINIMAL: u64 = 2;
/// Allocations of a warm evaluation rendered as a response document.
const RESPOND: u64 = 7;
