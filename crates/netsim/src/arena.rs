//! Generational-index arenas for per-record simulation state.
//!
//! The protocol hot loops create and destroy one record per announcement
//! cycle — millions per run. Keeping each record behind a `BTreeMap`
//! node means an allocation, a tree rebalance, and a pointer chase per
//! touch. An [`Arena`] replaces that with a flat slot vector: records
//! live in place, freed slots are recycled LIFO, and a [`Handle`] is a
//! `(slot, generation)` pair small enough to ride inside an event
//! payload.
//!
//! The **generation** is what makes stale events safe: a timer scheduled
//! against a record that has since died (and whose slot was reused)
//! presents a handle whose generation no longer matches the slot's, so
//! [`Arena::get`] returns `None` — exactly the `contains(id)` liveness
//! check the map-based code did, but O(1) and allocation-free.
//! DESIGN.md §14 describes how the protocol engines use this.
//!
//! Determinism: the arena itself imposes no iteration order on live
//! records (slot order reflects allocation history). Callers that emit
//! per-record output in bulk — e.g. a crash wiping every live record —
//! must order that traversal by a stable record key, not by slot index,
//! to keep artifacts byte-identical (the determinism rules of DESIGN.md
//! §8 govern what is *written*, not internal storage).

use core::fmt;

/// A generational reference to a slot in an [`Arena`].
///
/// Handles are plain data: copying one never extends a record's life,
/// and using one after its record was removed is detected (all accessors
/// return `None`) rather than aliasing whatever reused the slot.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Handle {
    slot: u32,
    gen: u32,
}

impl Handle {
    /// The raw slot index (diagnostics only — not stable across reuse).
    pub fn slot(self) -> u32 {
        self.slot
    }
}

impl fmt::Debug for Handle {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "h{}g{}", self.slot, self.gen)
    }
}

#[derive(Debug, Clone)]
struct Slot<T> {
    gen: u32,
    value: Option<T>,
}

/// A flat, generation-checked object pool.
///
/// ```
/// use ss_netsim::arena::Arena;
///
/// let mut jobs: Arena<&str> = Arena::new();
/// let a = jobs.insert("alpha");
/// let b = jobs.insert("beta");
/// assert_eq!(jobs.get(a), Some(&"alpha"));
///
/// // Removal invalidates the handle, even after the slot is reused.
/// assert_eq!(jobs.remove(a), Some("alpha"));
/// let c = jobs.insert("gamma"); // recycles alpha's slot…
/// assert_eq!(jobs.get(a), None); // …but the stale handle stays dead
/// assert_eq!(jobs.get(c), Some(&"gamma"));
/// assert_eq!(jobs.len(), 2);
/// # let _ = b;
/// ```
#[derive(Debug, Clone)]
pub struct Arena<T> {
    slots: Vec<Slot<T>>,
    /// Freed slot indices, recycled LIFO so hot records stay in warm
    /// cache lines.
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Arena<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> Arena<T> {
    /// An empty arena.
    pub fn new() -> Self {
        Arena {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// An empty arena pre-sized for `cap` live records.
    pub fn with_capacity(cap: usize) -> Self {
        Arena {
            slots: Vec::with_capacity(cap),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Number of live records.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no records are live.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Stores `value`, returning the handle that names it until removal.
    pub fn insert(&mut self, value: T) -> Handle {
        self.len += 1;
        if let Some(slot) = self.free.pop() {
            let s = &mut self.slots[slot as usize];
            debug_assert!(s.value.is_none(), "free list pointed at a live slot");
            s.value = Some(value);
            return Handle { slot, gen: s.gen };
        }
        let slot = u32::try_from(self.slots.len()).expect("arena exceeds u32 slots");
        self.slots.push(Slot {
            gen: 0,
            value: Some(value),
        });
        Handle { slot, gen: 0 }
    }

    /// Removes and returns the record behind `h`, or `None` if the
    /// handle is stale. The slot's generation bumps so every outstanding
    /// copy of `h` goes dead.
    pub fn remove(&mut self, h: Handle) -> Option<T> {
        let s = self.slots.get_mut(h.slot as usize)?;
        if s.gen != h.gen || s.value.is_none() {
            return None;
        }
        let v = s.value.take();
        s.gen = s.gen.wrapping_add(1);
        self.free.push(h.slot);
        self.len -= 1;
        v
    }

    /// The record behind `h`, or `None` if the handle is stale.
    #[inline]
    pub fn get(&self, h: Handle) -> Option<&T> {
        match self.slots.get(h.slot as usize) {
            Some(s) if s.gen == h.gen => s.value.as_ref(),
            _ => None,
        }
    }

    /// Mutable access to the record behind `h`, or `None` if stale.
    #[inline]
    pub fn get_mut(&mut self, h: Handle) -> Option<&mut T> {
        match self.slots.get_mut(h.slot as usize) {
            Some(s) if s.gen == h.gen => s.value.as_mut(),
            _ => None,
        }
    }

    /// True when `h` still names a live record.
    #[inline]
    pub fn contains(&self, h: Handle) -> bool {
        self.get(h).is_some()
    }

    /// Removes every record, invalidating all outstanding handles, while
    /// keeping the slot storage for reuse.
    pub fn clear(&mut self) {
        self.free.clear();
        for (i, s) in self.slots.iter_mut().enumerate() {
            if s.value.take().is_some() {
                s.gen = s.gen.wrapping_add(1);
            }
            self.free.push(i as u32);
        }
        // LIFO recycling: reverse so slot 0 is handed out first again,
        // matching a fresh arena's allocation pattern.
        self.free.reverse();
        self.len = 0;
    }

    /// Visits every live record as `(handle, &value)`, in slot order.
    /// Slot order is an implementation detail — see the module notes on
    /// determinism before serializing anything from this iterator.
    pub fn iter(&self) -> impl Iterator<Item = (Handle, &T)> {
        self.slots.iter().enumerate().filter_map(|(i, s)| {
            s.value.as_ref().map(|v| {
                (
                    Handle {
                        slot: i as u32,
                        gen: s.gen,
                    },
                    v,
                )
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut a = Arena::new();
        let h = a.insert(41);
        *a.get_mut(h).unwrap() += 1;
        assert_eq!(a.get(h), Some(&42));
        assert!(a.contains(h));
        assert_eq!(a.remove(h), Some(42));
        assert_eq!(a.remove(h), None);
        assert!(!a.contains(h));
        assert!(a.is_empty());
    }

    #[test]
    fn stale_handles_stay_dead_after_reuse() {
        let mut a = Arena::new();
        let h1 = a.insert("old");
        a.remove(h1);
        let h2 = a.insert("new");
        assert_eq!(h2.slot(), h1.slot(), "LIFO recycling reuses the slot");
        assert_ne!(h2, h1, "same slot, new generation");
        assert_eq!(a.get(h1), None);
        assert_eq!(a.get_mut(h1), None);
        assert_eq!(a.remove(h1), None, "stale remove must not evict the tenant");
        assert_eq!(a.get(h2), Some(&"new"));
    }

    #[test]
    fn recycling_is_lifo_and_len_tracks() {
        let mut a = Arena::new();
        let hs: Vec<_> = (0..4).map(|i| a.insert(i)).collect();
        a.remove(hs[1]);
        a.remove(hs[3]);
        assert_eq!(a.len(), 2);
        let h = a.insert(9);
        assert_eq!(
            h.slot(),
            hs[3].slot(),
            "most recently freed comes back first"
        );
        assert_eq!(a.len(), 3);
    }

    #[test]
    fn clear_invalidates_everything_and_reuses_slots() {
        let mut a = Arena::new();
        let hs: Vec<_> = (0..3).map(|i| a.insert(i)).collect();
        a.clear();
        assert!(a.is_empty());
        for h in &hs {
            assert!(!a.contains(*h));
        }
        let h = a.insert(7);
        assert_eq!(h.slot(), 0, "cleared arena allocates like a fresh one");
        assert_eq!(a.get(h), Some(&7));
    }

    #[test]
    fn iter_visits_live_records_only() {
        let mut a = Arena::new();
        let h0 = a.insert(10);
        let h1 = a.insert(11);
        let h2 = a.insert(12);
        a.remove(h1);
        let seen: Vec<_> = a.iter().map(|(h, &v)| (h, v)).collect();
        assert_eq!(seen, vec![(h0, 10), (h2, 12)]);
    }
}
