//! One module per rule. D003 has none: no `rand` is in any dependency
//! graph here, so `thread_rng` cannot even resolve.

pub mod clean;
pub mod d001_wall_clock;
pub mod d002_hash_container;
pub mod d004_wire_panic;
pub mod d005_machine_io;
pub mod d006_f32;
pub mod d009_annotations;
pub mod d011_thread_sleep;
