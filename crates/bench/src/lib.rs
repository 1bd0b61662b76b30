//! The two report rigs behind `examples/cf_hotpath.rs` and
//! `examples/sysplex_scale.rs`.
//!
//! The paper's count and shape claims are tier-1 tests
//! (`tests/paper_claims.rs`); its rates are measured by plexbench. These
//! two modules remain until plexbench carries the hot-path phases and the
//! exploiter stack runs over TCP (ROADMAP 8(b), 8(c)).

#![forbid(unsafe_code)]

pub mod hotpath;
pub mod scale;
