//! Runs `crates/core`'s differential test of the insert path in tier-1
//! (`cargo test` at the root only builds this package's own tests):
//! random batches against a `BTreeMap` model, flushed-tablet byte
//! identity, flush grouping and rejected batches, on the same source
//! file.

#[path = "../crates/core/tests/insert_differential.rs"]
mod insert_differential;
