//! Workspace root helper crate; see `loopapalooza` for the real API.

#![forbid(unsafe_code)]

pub use loopapalooza as lp;
