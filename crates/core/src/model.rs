//! The §2 data model: an evolving table of `{key, value}` pairs.
//!
//! A *publisher* owns a [`PublisherTable`] it may insert into, update, and
//! delete from at any time; the set of records present at time `t` is the
//! *live data set* `L(t)`. One or more *subscribers* each maintain a
//! [`SubscriberTable`] replica fed by announcements; every stored entry
//! carries an expiration deadline, and an entry whose deadline passes
//! without a refresh is deleted (the soft-state expiry rule).

use ss_netsim::{SimDuration, SimTime};
use std::collections::btree_map::Entry;
use std::collections::BTreeMap;

/// Identifies a record in the table. Keys are opaque 64-bit names; the
/// hierarchical namespaces of SSTP (§6.2) layer structure on top.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key(pub u64);

/// A record's value. The consistency metric only needs equality between
/// the publisher's and a subscriber's value for a key, so a version stamp
/// stands in for arbitrary bytes; `payload_len` sizes the announcement
/// packet carrying it.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Value {
    /// Monotone version of this key's data (bumped on every update).
    pub version: u64,
    /// Size of the application payload in bytes.
    pub payload_len: u32,
}

impl Value {
    /// A first-version value of the given payload size.
    pub fn initial(payload_len: u32) -> Self {
        Value {
            version: 1,
            payload_len,
        }
    }

    /// The next version of this value (same size).
    pub fn bumped(self) -> Self {
        Value {
            version: self.version + 1,
            payload_len: self.payload_len,
        }
    }
}

/// One live record at the publisher.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Record {
    /// The record's key.
    pub key: Key,
    /// The record's current value.
    pub value: Value,
    /// When this key first entered the table (for receive-latency
    /// accounting).
    pub born: SimTime,
}

/// The publisher's evolving table. Insertions, updates, and deletions are
/// timestamped so instrumentation can integrate the live set over time.
#[derive(Clone, Debug, Default)]
pub struct PublisherTable {
    records: BTreeMap<Key, Record>,
    next_key: u64,
    inserts: u64,
    updates: u64,
    deletes: u64,
}

impl PublisherTable {
    /// An empty table.
    pub fn new() -> Self {
        PublisherTable::default()
    }

    /// Inserts a brand-new record with a fresh key; returns it.
    pub fn insert_new(&mut self, now: SimTime, payload_len: u32) -> Record {
        let key = Key(self.next_key);
        self.next_key += 1;
        let rec = Record {
            key,
            value: Value::initial(payload_len),
            born: now,
        };
        self.records.insert(key, rec);
        self.inserts += 1;
        rec
    }

    /// Inserts a record under a caller-chosen key. Panics if the key is
    /// already live (use [`PublisherTable::update`] for updates).
    pub fn insert(&mut self, now: SimTime, key: Key, payload_len: u32) -> Record {
        let rec = Record {
            key,
            value: Value::initial(payload_len),
            born: now,
        };
        match self.records.entry(key) {
            Entry::Occupied(_) => panic!("key {key:?} already live"),
            Entry::Vacant(v) => {
                v.insert(rec);
            }
        }
        self.next_key = self.next_key.max(key.0 + 1);
        self.inserts += 1;
        rec
    }

    /// Updates an existing record to a new version; returns the new record.
    /// Panics if the key is not live.
    pub fn update(&mut self, key: Key) -> Record {
        let rec = self
            .records
            .get_mut(&key)
            .unwrap_or_else(|| panic!("update of dead key {key:?}"));
        rec.value = rec.value.bumped();
        self.updates += 1;
        *rec
    }

    /// Deletes a record (its lifetime ended); returns it if it was live.
    pub fn delete(&mut self, key: Key) -> Option<Record> {
        let r = self.records.remove(&key);
        if r.is_some() {
            self.deletes += 1;
        }
        r
    }

    /// The current value of `key`, if live.
    pub fn get(&self, key: Key) -> Option<&Record> {
        self.records.get(&key)
    }

    /// Number of live records, `|L(t)|`.
    pub fn live_count(&self) -> usize {
        self.records.len()
    }

    /// Iterates the live data set in ascending key order.
    pub fn live(&self) -> impl Iterator<Item = &Record> {
        self.records.values()
    }

    /// Lifetime counters: `(inserts, updates, deletes)`.
    pub fn op_counts(&self) -> (u64, u64, u64) {
        (self.inserts, self.updates, self.deletes)
    }
}

/// One entry in a subscriber's replica.
///
/// The entry's soft-state deadline is not a public field: the stored
/// instant can lag the table-wide floor that
/// [`SubscriberTable::refresh_all`] raises, so the deadline is read
/// through [`SubscriberTable::deadline_of`], which folds the floor in.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ReplicaEntry {
    /// The value most recently received for this key.
    pub value: Value,
    /// The deadline armed by the last per-key refresh. The effective
    /// deadline is `max(expires_at, table floor)`.
    expires_at: SimTime,
    /// When this key was first successfully received (receive latency).
    pub first_received: SimTime,
}

/// A subscriber's soft-state replica with per-entry expiration timers.
///
/// Callers drive expiry explicitly via [`SubscriberTable::expire_until`]
/// (typically from a periodic sweep event or before reads), keeping the
/// table independent of any particular event loop.
///
/// A whole-replica refresh ([`SubscriberTable::refresh_all`]) is O(1): it
/// raises one table-wide deadline *floor* instead of rewriting every
/// entry, and an entry's effective deadline is the later of its own
/// stored deadline and the floor — exactly the instant the eager rewrite
/// would have stored, since time is monotone and a per-key refresh
/// always arms at or past the floor.
#[derive(Clone, Debug)]
pub struct SubscriberTable {
    entries: BTreeMap<Key, ReplicaEntry>,
    ttl: SimDuration,
    /// No entry expires before this instant (`ZERO` until the first
    /// `refresh_all`).
    floor: SimTime,
    expirations: u64,
    refreshes: u64,
}

impl SubscriberTable {
    /// A replica whose entries expire `ttl` after their last refresh.
    pub fn new(ttl: SimDuration) -> Self {
        assert!(!ttl.is_zero(), "zero TTL would expire entries instantly");
        SubscriberTable {
            entries: BTreeMap::new(),
            ttl,
            floor: SimTime::ZERO,
            expirations: 0,
            refreshes: 0,
        }
    }

    /// The configured time-to-live.
    pub fn ttl(&self) -> SimDuration {
        self.ttl
    }

    /// Applies a received announcement for `(key, value)` at `now`:
    /// installs or refreshes the entry and re-arms its timer.
    /// Returns `true` when this reception changed the stored value
    /// (first receipt or a newer version).
    pub fn apply(&mut self, now: SimTime, key: Key, value: Value) -> bool {
        self.refreshes += 1;
        match self.entries.entry(key) {
            Entry::Occupied(mut o) => {
                let e = o.get_mut();
                e.expires_at = now + self.ttl;
                if value.version > e.value.version {
                    e.value = value;
                    true
                } else {
                    false
                }
            }
            Entry::Vacant(v) => {
                v.insert(ReplicaEntry {
                    value,
                    expires_at: now + self.ttl,
                    first_received: now,
                });
                true
            }
        }
    }

    /// Explicitly removes a key (e.g. on an authoritative delete
    /// announcement). Returns the removed entry.
    pub fn remove(&mut self, key: Key) -> Option<ReplicaEntry> {
        self.entries.remove(&key)
    }

    /// Re-arms every entry's expiration timer from `now`, in O(1): raises
    /// the table-wide deadline floor to `now + ttl`. Used when a summary
    /// announcement confirms the publisher is alive and a repair channel
    /// exists to reconcile any divergence: the summary then acts as the
    /// soft-state refresh for the whole replica.
    pub fn refresh_all(&mut self, now: SimTime) {
        self.floor = self.floor.max(now + self.ttl);
    }

    /// The instant `entry` (one of this table's) expires without a
    /// further refresh: its own deadline or the table floor, whichever
    /// is later.
    pub fn deadline_of(&self, entry: &ReplicaEntry) -> SimTime {
        entry.expires_at.max(self.floor)
    }

    /// Deletes every entry whose deadline is at or before `now`; returns
    /// the expired keys in ascending order (the map iterates sorted).
    pub fn expire_until(&mut self, now: SimTime) -> Vec<Key> {
        if self.floor > now {
            return Vec::new();
        }
        // floor <= now, so max(e, floor) <= now exactly when e <= now.
        let dead: Vec<Key> = self
            .entries
            .iter()
            .filter(|(_, e)| e.expires_at <= now)
            .map(|(&k, _)| k)
            .collect();
        for k in &dead {
            self.entries.remove(k);
            self.expirations += 1;
        }
        dead
    }

    /// The entry for `key`, if present (ignoring expiry; sweep first).
    pub fn get(&self, key: Key) -> Option<&ReplicaEntry> {
        self.entries.get(&key)
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the replica is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Iterates stored entries in ascending key order.
    pub fn entries(&self) -> impl Iterator<Item = (&Key, &ReplicaEntry)> {
        self.entries.iter()
    }

    /// Lifetime counters: `(refreshes applied, expirations)`.
    pub fn counters(&self) -> (u64, u64) {
        (self.refreshes, self.expirations)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The eager table the deadline floor replaced, kept as the oracle:
    /// `refresh_all` rewrites every entry's deadline and `expire_until`
    /// always scans.
    struct EagerTable {
        entries: BTreeMap<Key, (Value, SimTime)>,
        ttl: SimDuration,
        refreshes: u64,
        expirations: u64,
    }

    impl EagerTable {
        fn apply(&mut self, now: SimTime, key: Key, value: Value) -> bool {
            self.refreshes += 1;
            let deadline = now + self.ttl;
            match self.entries.entry(key) {
                Entry::Occupied(mut o) => {
                    let e = o.get_mut();
                    e.1 = deadline;
                    let newer = value.version > e.0.version;
                    if newer {
                        e.0 = value;
                    }
                    newer
                }
                Entry::Vacant(v) => {
                    v.insert((value, deadline));
                    true
                }
            }
        }

        fn refresh_all(&mut self, now: SimTime) {
            let deadline = now + self.ttl;
            for e in self.entries.values_mut() {
                e.1 = deadline;
            }
        }

        fn expire_until(&mut self, now: SimTime) -> Vec<Key> {
            let dead: Vec<Key> = self
                .entries
                .iter()
                .filter(|(_, e)| e.1 <= now)
                .map(|(&k, _)| k)
                .collect();
            for k in &dead {
                self.entries.remove(k);
                self.expirations += 1;
            }
            dead
        }
    }

    proptest! {
        /// The lazy floor is exactly the eager rewrite: over any
        /// interleaving of apply / refresh_all / remove / expire_until on
        /// a monotone clock (sweeps also at the `expire_early` horizon,
        /// half a TTL ahead), both tables expire the same keys in the
        /// same order, every entry has the same value and effective
        /// deadline, and the lifetime counters match.
        #[test]
        fn lazy_floor_matches_eager_rewrite(
            ops in prop::collection::vec((0u8..8, 0u64..6, 0u64..4, 0u64..9_000), 1..200),
            ttl_ms in 1u64..10_000,
        ) {
            let ttl = SimDuration::from_millis(ttl_ms);
            let mut lazy = SubscriberTable::new(ttl);
            let mut eager = EagerTable {
                entries: BTreeMap::new(),
                ttl,
                refreshes: 0,
                expirations: 0,
            };
            let mut now = SimTime::ZERO;
            for (op, key, version, dt_ms) in ops {
                let key = Key(key);
                match op {
                    0..=2 => {
                        let value = Value { version, payload_len: 10 };
                        prop_assert_eq!(lazy.apply(now, key, value), eager.apply(now, key, value));
                    }
                    3 => {
                        lazy.refresh_all(now);
                        eager.refresh_all(now);
                    }
                    4 => {
                        let gone = lazy.remove(key).map(|e| e.value);
                        prop_assert_eq!(gone, eager.entries.remove(&key).map(|e| e.0));
                    }
                    5 => prop_assert_eq!(lazy.expire_until(now), eager.expire_until(now)),
                    6 => {
                        let horizon = now + SimDuration::from_micros(ttl.as_micros() / 2);
                        prop_assert_eq!(lazy.expire_until(horizon), eager.expire_until(horizon));
                    }
                    _ => now += SimDuration::from_millis(dt_ms),
                }
                let got: Vec<_> = lazy
                    .entries()
                    .map(|(&k, e)| (k, e.value, lazy.deadline_of(e)))
                    .collect();
                let want: Vec<_> = eager.entries.iter().map(|(&k, &(v, d))| (k, v, d)).collect();
                prop_assert_eq!(got, want);
                prop_assert_eq!(lazy.counters(), (eager.refreshes, eager.expirations));
            }
        }
    }

    #[test]
    fn publisher_lifecycle() {
        let mut t = PublisherTable::new();
        let r1 = t.insert_new(SimTime::ZERO, 100);
        let r2 = t.insert_new(SimTime::from_secs(1), 200);
        assert_ne!(r1.key, r2.key);
        assert_eq!(t.live_count(), 2);

        let r1b = t.update(r1.key);
        assert_eq!(r1b.value.version, 2);
        assert_eq!(t.get(r1.key).unwrap().value.version, 2);

        assert!(t.delete(r1.key).is_some());
        assert!(t.delete(r1.key).is_none());
        assert_eq!(t.live_count(), 1);
        assert_eq!(t.op_counts(), (2, 1, 1));
    }

    #[test]
    fn explicit_keys_do_not_collide_with_fresh() {
        let mut t = PublisherTable::new();
        t.insert(SimTime::ZERO, Key(10), 50);
        let r = t.insert_new(SimTime::ZERO, 50);
        assert!(r.key.0 > 10);
    }

    #[test]
    #[should_panic(expected = "already live")]
    fn duplicate_insert_panics() {
        let mut t = PublisherTable::new();
        t.insert(SimTime::ZERO, Key(1), 10);
        t.insert(SimTime::ZERO, Key(1), 10);
    }

    #[test]
    #[should_panic(expected = "dead key")]
    fn update_dead_key_panics() {
        let mut t = PublisherTable::new();
        t.update(Key(9));
    }

    #[test]
    fn subscriber_applies_and_refreshes() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(30));
        let v1 = Value::initial(100);
        assert!(s.apply(SimTime::ZERO, Key(1), v1), "first receipt changes");
        assert!(!s.apply(SimTime::from_secs(5), Key(1), v1), "refresh only");
        assert!(
            s.apply(SimTime::from_secs(6), Key(1), v1.bumped()),
            "newer version changes"
        );
        // Stale duplicate (e.g. reordered retransmission) must not regress.
        assert!(!s.apply(SimTime::from_secs(7), Key(1), v1));
        assert_eq!(s.get(Key(1)).unwrap().value.version, 2);
        assert_eq!(s.counters().0, 4);
    }

    #[test]
    fn expiry_honors_refresh() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(10));
        s.apply(SimTime::ZERO, Key(1), Value::initial(10));
        s.apply(SimTime::ZERO, Key(2), Value::initial(10));
        // Refresh key 1 at t=8; key 2 goes silent.
        s.apply(SimTime::from_secs(8), Key(1), Value::initial(10));
        let dead = s.expire_until(SimTime::from_secs(12));
        assert_eq!(dead, vec![Key(2)]);
        assert!(s.get(Key(1)).is_some());
        assert_eq!(s.len(), 1);
        // Key 1 now dies at 18.
        let dead = s.expire_until(SimTime::from_secs(18));
        assert_eq!(dead, vec![Key(1)]);
        assert!(s.is_empty());
        assert_eq!(s.counters().1, 2);
    }

    #[test]
    fn expiry_is_sorted_and_idempotent() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(1));
        for k in [5u64, 3, 9] {
            s.apply(SimTime::ZERO, Key(k), Value::initial(1));
        }
        let dead = s.expire_until(SimTime::from_secs(2));
        assert_eq!(dead, vec![Key(3), Key(5), Key(9)]);
        assert!(s.expire_until(SimTime::from_secs(3)).is_empty());
    }

    #[test]
    fn first_received_is_sticky() {
        let mut s = SubscriberTable::new(SimDuration::from_secs(100));
        s.apply(SimTime::from_secs(2), Key(1), Value::initial(10));
        s.apply(SimTime::from_secs(9), Key(1), Value::initial(10));
        assert_eq!(s.get(Key(1)).unwrap().first_received, SimTime::from_secs(2));
    }
}
