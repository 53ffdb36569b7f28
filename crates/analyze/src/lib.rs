//! **vlite-lint** — the VectorLiteRAG workspace's project-invariant
//! static analyzer.
//!
//! The runtime's correctness leans on hand-rolled concurrency (lock-free
//! counters, generation-counted snapshot swaps, one audited `unsafe`
//! mmap shim) and on the `Clock` determinism discipline that keeps the
//! VirtualClock TTFT tests exact. Those invariants used to be reviewer
//! folklore; this crate makes them machine-checked. It is std-only — the
//! same no-new-deps discipline as the HTTP parser and the mmap shim — and
//! fast enough (single-digit milliseconds for the whole workspace) that
//! CI runs it on every push.
//!
//! # Pieces
//!
//! - [`lexer`]: classifies every byte of a source file as code, comment,
//!   or quoted text, so rule patterns inside strings, raw strings and
//!   comments never fire.
//! - [`rules`]: the invariant catalogue — clock-discipline, unsafe-audit,
//!   atomics-ordering, lock-hygiene, bounded-queues, bounded-recorders,
//!   panic-paths, stdout-discipline — as data.
//! - [`engine`]: file discovery, fragment-chain pattern matching,
//!   suppression resolution, and `--json` rendering.
//!
//! # Suppressions
//!
//! A finding is waived inline with a comment that *starts with*
//! `vlite-allow(<rule>): <reason>` — on the finding's line, or alone on
//! the line above it. The reason is mandatory, the rule id must exist,
//! and a suppression that no longer suppresses anything is itself an
//! error, so waivers cannot outlive the code they excused.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod engine;
pub mod lexer;
pub mod rules;

pub use engine::{analyze_source, analyze_workspace, Diagnostic, Report, SUPPRESSION_RULE};
pub use rules::{rules, Rule};
