//! D009: the one suppression is `#[expect(lint, reason = "…")]`.

#[expect(clippy::disallowed_types, reason = "one reason covering both bans")]
pub type Wide = (std::collections::HashMap<u64, u64>, f32); // suppressed

#[expect(clippy::disallowed_types)] // allow_attributes_without_reason
pub type NoReason = std::collections::HashSet<u64>;

#[allow(clippy::disallowed_types, reason = "allow never goes stale")] // allow_attributes
pub type Allowed = std::collections::HashSet<u64>;

#[expect(clippy::disallowed_types, reason = "stale: nothing to suppress")] // unfulfilled
pub type Stale = u64;

#[expect(clippy::too_many_arguments, reason = "names the wrong lint")] // unfulfilled
pub struct Wrong(pub std::collections::HashMap<u64, u64>); // flagged

#[expect(clippy::disalowed_types, reason = "a typo'd lint name")] // unknown_lints
pub type Typo = u64;
