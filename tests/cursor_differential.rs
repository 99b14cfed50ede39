//! Runs `crates/core`'s differential test of the query cursor in tier-1
//! (`cargo test` at the root only builds this package's own tests): runs,
//! rows and `latest()` against a collect-sort-filter reference over
//! generated and frozen tablet layouts, on the same source file.

#[path = "../crates/core/tests/cursor_differential.rs"]
mod cursor_differential;
