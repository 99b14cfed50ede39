//! Runs `crates/sql`'s differential test in tier-1 (`cargo test` at the
//! root only builds this package's own tests): every aggregate serving
//! path against a naive fold, on the same source file.

#[path = "../crates/sql/tests/differential.rs"]
mod differential;
