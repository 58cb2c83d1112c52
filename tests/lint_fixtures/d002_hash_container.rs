//! D002: hash-ordered containers.

use std::collections::HashMap; // flagged

pub struct State {
    pub by_id: HashMap<u64, u32>, // flagged
    #[expect(
        clippy::disallowed_types,
        reason = "membership only; order never observed"
    )]
    pub seen: std::collections::HashSet<u64>, // suppressed
}
