//! `Json::parse` interns object keys: re-parsing a document leaks nothing
//! new. This file holds one test so no other parse runs concurrently and
//! moves the process-wide interned-key count.

use gcr_cli::report::Json;

#[test]
fn reparsing_a_document_interns_no_new_keys() {
    let doc = r#"{"schema": "x/v1", "sections": [{"name": "a", "rows": {"p50": 1, "p99": 2}}],
                  "nested": {"deeper": {"deepest": [1, 2, {"leaf": null}]}}}"#;
    let first = Json::parse(doc).unwrap();
    let keys = Json::interned_keys();
    assert!(keys >= 9, "every distinct key of the document is interned: {keys}");
    for _ in 0..1_000 {
        assert_eq!(Json::parse(doc).unwrap(), first);
    }
    assert_eq!(Json::interned_keys(), keys, "re-parsing leaked new keys");
    // The same key text maps to the same leaked string.
    let (Json::O(a), Json::O(b)) = (&first, &Json::parse(doc).unwrap()) else {
        panic!("document is an object")
    };
    assert!(a.iter().zip(b).all(|((ka, _), (kb, _))| std::ptr::eq(*ka, *kb)));
}
