//! The §6.2 hierarchical namespace: "an SSTP namespace is a hierarchical
//! index structure over the set of application data units generated by a
//! sender. Each namespace node is associated with a fixed-length summary
//! or digest of the subtree rooted at it."
//!
//! * Leaf nodes are ADUs: `digest = h(key ‖ version ‖ right_edge)`, where
//!   `right_edge(n)` is "the number of bytes transmitted from ADU n".
//! * Interior nodes: `digest = h(S(c1), S(c2), …, S(ck))` over the child
//!   slots. Child slots are *stable*: deleting an ADU tombstones its slot
//!   rather than shifting siblings, so a path (sequence of slot indices)
//!   names the same node for the lifetime of the session and repair
//!   queries can address nodes by path.
//! * Every node carries an application [`MetaTag`] ("application-level
//!   meta-data tags associated with the namespace nodes") so receivers
//!   can skip repair of subtrees they have no interest in — the paper's
//!   PDA-browser-skips-high-resolution-images example.
//!
//! Digests are maintained incrementally: mutations mark the path to the
//! root dirty and digests recompute lazily on read, so bulk updates cost
//! one recomputation — and that recomputation costs what changed, not
//! what the node holds (a long-lived branch is mostly tombstones). Three
//! invariants carry it:
//!
//! * *A dirty node's ancestors are all dirty* (`Namespace::mark_dirty_up`).
//! * *Slots below an interior's `dirty_from` are unchanged since its last
//!   refresh and their children are clean*: every child-slot write goes
//!   through `Namespace::set_child`, and `mark_dirty_up` lowers the
//!   parent's `dirty_from` to the slot it climbs out of.
//! * *Checkpoint k of a node is the streaming hash state before slot
//!   k·STRIDE, and is valid while k·STRIDE ≤ `dirty_from`.*
//!
//! So a refresh visits only the children in `dirty_from..`, resumes
//! hashing from the nearest checkpoint at or below `dirty_from` and runs
//! to the end. The digest is the same function of the same bytes as a
//! hash from slot 0; only the work to reach it differs.

use crate::digest::{Digest, HashAlgorithm, Hasher};
use softstate::Key;
use std::collections::BTreeMap;

/// A node's position: the sequence of child-slot indices from the root.
/// The root is the empty path.
pub type Path = Vec<u16>;

/// An application-level content class used for interest scoping.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Default)]
pub struct MetaTag(pub u32);

/// Dense node handle within one [`Namespace`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct NodeId(u32);

#[derive(Clone, Debug)]
enum Payload {
    Interior {
        /// Stable child slots; `None` is a tombstone.
        children: Vec<Option<NodeId>>,
    },
    Adu {
        key: Key,
        version: u64,
        right_edge: u64,
    },
}

#[derive(Clone, Debug)]
struct Node {
    parent: Option<(NodeId, u16)>,
    tag: MetaTag,
    payload: Payload,
    digest: Digest,
    dirty: bool,
    /// Interiors: the lowest child slot written (or whose child was
    /// dirtied) since the last refresh; [`CLEAN`] when none. Lives here
    /// and not in `Payload::Interior` because it fits `Node`'s padding:
    /// leaves pay nothing for it.
    dirty_from: u16,
}

/// `dirty_from` of a node with no slot touched. A real slot index can
/// equal it (65535), which is harmless: there is no slot above it to skip.
const CLEAN: u16 = u16::MAX;

/// Slots between hash checkpoints. A refresh rehashes from the stride
/// holding `dirty_from` to the node's end, and the stride only bounds the
/// head of that run — the tail no sequential hash can skip — so the choice
/// is flat: `work_per_s`@`sim_session` read 4.76 M at 4, 4.75 M at 16,
/// 4.67 M at 32 and 4.56 M at 64 (3.71 M with no checkpoints; medians of
/// four 6 s runs each). 16 keeps the checkpoints, one [`Hasher`] per
/// stride, under the child slots' own footprint, and a node of up to
/// `STRIDE` slots holds none at all.
const STRIDE: usize = 16;

/// What a summary packet says about one child slot.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ChildEntry {
    /// The slot is tombstoned (its ADU/subtree was deleted).
    Dead {
        /// The slot index.
        slot: u16,
    },
    /// An interior child.
    Interior {
        /// The slot index.
        slot: u16,
        /// Subtree digest.
        digest: Digest,
        /// Interest tag.
        tag: MetaTag,
    },
    /// A leaf (ADU) child.
    Leaf {
        /// The slot index.
        slot: u16,
        /// The ADU's key.
        key: Key,
        /// Leaf digest (over key, version, right edge).
        digest: Digest,
        /// Interest tag.
        tag: MetaTag,
    },
}

impl ChildEntry {
    /// The slot this entry describes.
    pub fn slot(&self) -> u16 {
        match *self {
            ChildEntry::Dead { slot }
            | ChildEntry::Interior { slot, .. }
            | ChildEntry::Leaf { slot, .. } => slot,
        }
    }
}

/// A hierarchical, digest-summarized index over a sender's ADUs.
#[derive(Clone, Debug)]
pub struct Namespace {
    nodes: Vec<Node>,
    /// Hash checkpoints of the interiors wider than [`STRIDE`], sorted by
    /// node: entry `k - 1` is the hasher as it stood before slot
    /// `k * STRIDE` (slot 0's is always the fresh hasher, so it is not
    /// stored). Kept beside the nodes, not in them, so a leaf and a narrow
    /// interior cost nothing and cloning a small namespace allocates
    /// nothing here.
    checkpoints: Vec<(NodeId, Vec<Hasher>)>,
    algo: HashAlgorithm,
    key_to_leaf: BTreeMap<Key, NodeId>,
}

impl Node {
    /// A node is born dirty, its digest a placeholder until first read.
    fn new(
        parent: Option<(NodeId, u16)>,
        tag: MetaTag,
        payload: Payload,
        algo: HashAlgorithm,
    ) -> Self {
        Node {
            parent,
            tag,
            payload,
            digest: algo.digest(&[]),
            dirty: true,
            dirty_from: CLEAN,
        }
    }
}

impl Namespace {
    /// An empty namespace (just the root) using the given hash.
    pub fn new(algo: HashAlgorithm) -> Self {
        let root = Payload::Interior { children: vec![] };
        Namespace {
            nodes: vec![Node::new(None, MetaTag::default(), root, algo)],
            checkpoints: Vec::new(),
            algo,
            key_to_leaf: BTreeMap::new(),
        }
    }

    /// The root node.
    pub fn root(&self) -> NodeId {
        NodeId(0)
    }

    fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    fn node_mut(&mut self, id: NodeId) -> &mut Node {
        &mut self.nodes[id.0 as usize]
    }

    /// `node`'s child slots; none for a leaf.
    fn slots(&self, node: NodeId) -> &[Option<NodeId>] {
        match &self.node(node).payload {
            Payload::Interior { children } => children,
            Payload::Adu { .. } => &[],
        }
    }

    /// Stores `child` in `slot` of the interior `parent`, padding with
    /// tombstones when `slot` lies past its width. The only writer of a
    /// child slot, so — with the climb in [`Namespace::mark_dirty_up`] —
    /// the only place `dirty_from` is lowered.
    fn set_child(&mut self, parent: NodeId, slot: u16, child: Option<NodeId>) {
        let n = self.node_mut(parent);
        let Payload::Interior { children } = &mut n.payload else {
            unreachable!("every caller has checked that `parent` is an interior");
        };
        let at = usize::from(slot);
        // Padding writes slots too: the first of them bounds the change.
        let first_written = at.min(children.len());
        if at >= children.len() {
            children.resize(at + 1, None);
        }
        children[at] = child;
        n.dirty_from = n.dirty_from.min(first_written as u16);
        self.mark_dirty_up(parent);
    }

    /// Creates a node and stores it in `slot` of `parent`.
    fn push_child(&mut self, parent: NodeId, slot: u16, payload: Payload, tag: MetaTag) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        let node = Node::new(Some((parent, slot)), tag, payload, self.algo);
        self.nodes.push(node);
        self.set_child(parent, slot, Some(id));
        id
    }

    fn attach(&mut self, parent: NodeId, payload: Payload, tag: MetaTag) -> NodeId {
        // A caller bug, not wire input: only the sender side attaches.
        assert!(
            !self.is_leaf(parent),
            "cannot add a child under an ADU leaf"
        );
        let slot = u16::try_from(self.slots(parent).len()).expect("node fan-out exceeds u16");
        self.push_child(parent, slot, payload, tag)
    }

    /// Adds an interior node under `parent`; returns its id.
    pub fn add_interior(&mut self, parent: NodeId, tag: MetaTag) -> NodeId {
        self.attach(parent, Payload::Interior { children: vec![] }, tag)
    }

    /// Adds an ADU leaf under `parent` for `key` (version 1, nothing
    /// transmitted yet). Panics if the key is already indexed.
    pub fn add_adu(&mut self, parent: NodeId, key: Key, tag: MetaTag) -> NodeId {
        // A caller bug, not wire input: the sender hands out each key once.
        assert!(
            !self.key_to_leaf.contains_key(&key),
            "key {key:?} already in namespace"
        );
        let id = self.attach(
            parent,
            Payload::Adu {
                key,
                version: 1,
                right_edge: 0,
            },
            tag,
        );
        self.key_to_leaf.insert(key, id);
        id
    }

    /// Updates an ADU's version and/or right edge (bytes transmitted so
    /// far), dirtying digests up to the root. Panics on unknown key.
    pub fn update_adu(&mut self, key: Key, version: u64, right_edge: u64) {
        let id = self
            .leaf_of(key)
            .unwrap_or_else(|| panic!("update of unindexed key {key:?}"));
        self.update_leaf(id, version, right_edge);
    }

    /// [`Namespace::update_adu`] for a caller that kept the leaf's id from
    /// [`Namespace::add_adu`]. Panics on an interior node.
    pub(crate) fn update_leaf(&mut self, leaf: NodeId, version: u64, right_edge: u64) {
        match &mut self.node_mut(leaf).payload {
            Payload::Adu {
                version: v,
                right_edge: r,
                ..
            } => {
                *v = version;
                *r = right_edge;
            }
            Payload::Interior { .. } => panic!("update_leaf of interior node"),
        }
        self.mark_dirty_up(leaf);
    }

    /// Removes an ADU (its record expired), tombstoning its slot.
    /// Returns `true` if the key was present.
    pub fn remove_adu(&mut self, key: Key) -> bool {
        let Some(id) = self.key_to_leaf.remove(&key) else {
            return false;
        };
        let (parent, slot) = self.node(id).parent.expect("leaf always has a parent");
        self.set_child(parent, slot, None);
        true
    }

    /// Marks `id` and its ancestors dirty, stopping at the first node that
    /// already is, and lowers each parent's `dirty_from` to the slot of
    /// the child it was reached from.
    ///
    /// Invariant: *a dirty node's ancestors are all dirty.* Every mutation
    /// ends with this walk from the node it touched (a freshly attached
    /// node is born dirty under a parent this walk then marks), and
    /// [`Namespace::refresh`] of a non-root node cleans that node and its
    /// descendants, never an ancestor — so an already-dirty node needs no
    /// further climbing: whatever dirtied it also told its parent which
    /// slot, and that parent has not been refreshed since (a refresh
    /// cleans every dirty child it holds).
    fn mark_dirty_up(&mut self, mut id: NodeId) {
        loop {
            let n = self.node_mut(id);
            if n.dirty {
                return;
            }
            n.dirty = true;
            let Some((parent, slot)) = n.parent else {
                return;
            };
            // Before the parent's own "already dirty" test above: a second
            // change under a dirty parent must still widen what it rehashes.
            let pn = self.node_mut(parent);
            pn.dirty_from = pn.dirty_from.min(slot);
            id = parent;
        }
    }

    /// Brings `id`'s digest (and its descendants') up to date: the one
    /// place a digest is computed.
    fn refresh(&mut self, id: NodeId) {
        if !self.node(id).dirty {
            return;
        }
        debug_assert!(
            std::iter::successors(self.node(id).parent, |&(p, _)| self.node(p).parent)
                .all(|(p, _)| self.node(p).dirty),
            "dirty node {id:?} under a clean ancestor"
        );
        let digest = match self.node(id).payload {
            Payload::Adu {
                key,
                version,
                right_edge,
            } => {
                let mut h = self.algo.hasher();
                h.write(&key.0.to_be_bytes());
                h.write(&version.to_be_bytes());
                h.write(&right_edge.to_be_bytes());
                h.finish()
            }
            Payload::Interior { .. } => self.hash_slots(id),
        };
        let n = self.node_mut(id);
        n.digest = digest;
        n.dirty = false;
        n.dirty_from = CLEAN;
    }

    /// The interior half of [`Namespace::refresh`]: `h(S(c1), …, S(ck))`
    /// over `id`'s child slots, at the cost of the slots from `dirty_from`'s
    /// stride to the end.
    fn hash_slots(&mut self, id: NodeId) -> Digest {
        // Bring the dirty children up to date first, so the hashing pass
        // below only reads. None of them sits below `dirty_from`.
        let width = self.slots(id).len();
        let from = usize::from(self.node(id).dirty_from).min(width);
        for slot in from..width {
            if let Some(c) = self.slots(id)[slot] {
                self.refresh(c);
            }
        }
        // The checkpoints this node holds; a narrow node has no entry and
        // never stores one.
        let mut none = Vec::new();
        let held = if width > STRIDE {
            let at = self
                .checkpoints
                .binary_search_by_key(&id.0, |e| e.0 .0)
                .unwrap_or_else(|at| {
                    self.checkpoints.insert(at, (id, Vec::new()));
                    at
                });
            &mut self.checkpoints[at].1
        } else {
            &mut none
        };
        // Resume at the last checkpoint at or below `from` — of those the
        // previous refresh got as far as storing, which an append to a node
        // a whole number of strides wide outruns by one.
        held.truncate(from / STRIDE);
        let start = held.len() * STRIDE;
        let mut h = held.last().cloned().unwrap_or_else(|| self.algo.hasher());
        let Payload::Interior { children } = &self.nodes[id.0 as usize].payload else {
            unreachable!("refresh sends only interiors here");
        };
        for (slot, child) in children.iter().enumerate().skip(start) {
            if slot % STRIDE == 0 && slot > start {
                held.push(h.clone());
            }
            h.write(&(slot as u16).to_be_bytes());
            match child {
                Some(c) => h.write(self.nodes[c.0 as usize].digest.as_bytes()),
                None => h.write(&[0xff]), // tombstone marker
            }
        }
        h.finish()
    }

    /// The digest of `node`'s subtree (recomputing lazily as needed).
    pub fn digest(&mut self, node: NodeId) -> Digest {
        self.refresh(node);
        self.node(node).digest
    }

    /// The root digest — what the sender's periodic summary announces.
    pub fn root_digest(&mut self) -> Digest {
        self.digest(self.root())
    }

    /// The node's interest tag.
    pub fn tag(&self, node: NodeId) -> MetaTag {
        self.node(node).tag
    }

    /// Resolves a path from the root; `None` if any step is missing or
    /// tombstoned.
    pub(crate) fn node_at(&self, path: &[u16]) -> Option<NodeId> {
        path.iter()
            .try_fold(self.root(), |id, &slot| self.child_at(id, slot))
    }

    /// The child in `slot` of `node`; `None` if the slot is tombstoned or
    /// out of range, or `node` is a leaf.
    pub(crate) fn child_at(&self, node: NodeId, slot: u16) -> Option<NodeId> {
        *self.slots(node).get(usize::from(slot))?
    }

    /// `node`'s parent and the slot it holds there; `None` for the root.
    pub(crate) fn parent_of(&self, node: NodeId) -> Option<(NodeId, u16)> {
        self.node(node).parent
    }

    /// The path of `node` from the root.
    pub(crate) fn path_of(&self, node: NodeId) -> Path {
        let mut path = Vec::new();
        let mut id = node;
        while let Some((p, slot)) = self.node(id).parent {
            path.push(slot);
            id = p;
        }
        path.reverse();
        path
    }

    /// The leaf indexing `key`, if any.
    pub fn leaf_of(&self, key: Key) -> Option<NodeId> {
        self.key_to_leaf.get(&key).copied()
    }

    /// Summary entries for an interior node's children — the payload of a
    /// `NodeSummary` repair response. Panics on a leaf.
    pub fn summary_entries(&mut self, node: NodeId) -> Vec<ChildEntry> {
        self.refresh(node);
        // A caller bug, not wire input: the sender answers a query naming
        // a leaf without coming here.
        assert!(!self.is_leaf(node), "summary of a leaf");
        self.slots(node)
            .iter()
            .enumerate()
            .map(|(i, child)| {
                let slot = i as u16;
                match child {
                    None => ChildEntry::Dead { slot },
                    Some(c) => {
                        let n = self.node(*c);
                        match n.payload {
                            Payload::Interior { .. } => ChildEntry::Interior {
                                slot,
                                digest: n.digest,
                                tag: n.tag,
                            },
                            Payload::Adu { key, .. } => ChildEntry::Leaf {
                                slot,
                                key,
                                digest: n.digest,
                                tag: n.tag,
                            },
                        }
                    }
                }
            })
            .collect()
    }

    /// True when `node` is an ADU leaf.
    pub(crate) fn is_leaf(&self, node: NodeId) -> bool {
        matches!(self.node(node).payload, Payload::Adu { .. })
    }

    /// The `(key, version, right_edge)` of a leaf. Panics on interiors.
    pub fn adu_info(&self, node: NodeId) -> (Key, u64, u64) {
        match self.node(node).payload {
            Payload::Adu {
                key,
                version,
                right_edge,
            } => (key, version, right_edge),
            Payload::Interior { .. } => panic!("adu_info of interior node"),
        }
    }

    /// Number of live (non-tombstoned) ADUs.
    pub fn live_adus(&self) -> usize {
        self.key_to_leaf.len()
    }

    // The three mirror entry points below take what a datagram said, so
    // they are total: input that contradicts the structure already held —
    // a *structure conflict*, which only a flush of the subtree could
    // settle — changes nothing and is reported to the caller.

    /// Ensures an interior node exists at `path` on a receiver-side
    /// mirror, creating default-tagged interiors (and padding tombstoned
    /// slots) as needed. Returns the node, or `None` — with nothing
    /// created — when a step of the path is occupied by a leaf.
    pub(crate) fn ensure_interior_at(&mut self, path: &[u16]) -> Option<NodeId> {
        // Walk what exists first: below the first missing step nothing
        // can be in the way.
        let mut id = self.root();
        let mut missing = path;
        while let Some((&slot, rest)) = missing.split_first() {
            match self.child_at(id, slot) {
                Some(c) if self.is_leaf(c) => return None,
                Some(c) => id = c,
                None => break,
            }
            missing = rest;
        }
        for &slot in missing {
            let interior = Payload::Interior { children: vec![] };
            id = self.push_child(id, slot, interior, MetaTag::default());
        }
        Some(id)
    }

    /// Installs or updates an ADU at `parent_path`/`slot` on a receiver
    /// mirror (creating the interior chain as needed). Returns `false`,
    /// with the mirror unchanged, on a structure conflict: the slot holds
    /// another key's leaf or an interior, the path runs through a leaf,
    /// or `key` is already indexed at another slot.
    pub fn mirror_adu(
        &mut self,
        parent_path: &[u16],
        slot: u16,
        key: Key,
        version: u64,
        right_edge: u64,
        tag: MetaTag,
    ) -> bool {
        let held = self
            .node_at(parent_path)
            .and_then(|parent| self.child_at(parent, slot));
        let Some(id) = held else {
            if self.key_to_leaf.contains_key(&key) {
                return false;
            }
            let Some(parent) = self.ensure_interior_at(parent_path) else {
                return false;
            };
            let adu = Payload::Adu {
                key,
                version,
                right_edge,
            };
            let id = self.push_child(parent, slot, adu, tag);
            self.key_to_leaf.insert(key, id);
            return true;
        };
        match &mut self.node_mut(id).payload {
            Payload::Adu {
                key: k,
                version: v,
                right_edge: r,
            } if *k == key => {
                if version > *v {
                    // A new version restarts the right edge: the
                    // bytes held belong to the new content.
                    *v = version;
                    *r = right_edge;
                } else if version == *v {
                    *r = (*r).max(right_edge);
                }
                // Older versions are stale duplicates: ignored.
            }
            _ => return false,
        }
        self.mark_dirty_up(id);
        true
    }

    /// Tombstones `slot` under interior node `parent` (see
    /// [`Namespace::ensure_interior_at`]) on a receiver mirror (the
    /// sender's summary said the child is dead). Returns the key of the
    /// removed ADU, if the slot held one. A slot holding an interior, or
    /// a `parent` that is a leaf, is a structure conflict and is left
    /// alone: senders never retire an interior.
    pub(crate) fn mirror_tombstone(&mut self, parent: NodeId, slot: u16) -> Option<Key> {
        let removed_key = match self.slots(parent).get(usize::from(slot)) {
            Some(None) => return None,
            Some(&Some(id)) => match self.node(id).payload {
                Payload::Adu { key, .. } => Some(key),
                Payload::Interior { .. } => return None,
            },
            None if self.is_leaf(parent) => return None,
            // Pad the child vector out to `slot` even when this mirror
            // never held the ADU: tombstoned slots contribute a marker
            // byte to the parent digest, so a late joiner that skips the
            // padding can never match the sender's root digest and
            // re-queries forever (found by the ss-verify quiescence drain).
            None => None,
        };
        if let Some(key) = removed_key {
            self.key_to_leaf.remove(&key);
        }
        self.set_child(parent, slot, None);
        removed_key
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::{fnv1a64, md5_padded_copy};
    use proptest::prelude::*;

    fn ns() -> Namespace {
        Namespace::new(HashAlgorithm::Fnv64)
    }

    /// The buffer-building digest the streaming refresh replaced, kept as
    /// the oracle: recomputes `id`'s subtree from scratch (no dirty flags,
    /// no cached digests), one `Vec<u8>` per node, hashed in one shot.
    fn reference_digest(ns: &Namespace, id: NodeId) -> Digest {
        let mut buf = Vec::new();
        match &ns.node(id).payload {
            Payload::Adu {
                key,
                version,
                right_edge,
            } => {
                buf.extend_from_slice(&key.0.to_be_bytes());
                buf.extend_from_slice(&version.to_be_bytes());
                buf.extend_from_slice(&right_edge.to_be_bytes());
            }
            Payload::Interior { children } => {
                for (slot, child) in children.iter().enumerate() {
                    buf.extend_from_slice(&(slot as u16).to_be_bytes());
                    match child {
                        Some(c) => buf.extend_from_slice(reference_digest(ns, *c).as_bytes()),
                        None => buf.push(0xff),
                    }
                }
            }
        }
        match ns.algo {
            HashAlgorithm::Md5 => Digest::from_md5(md5_padded_copy(&buf)),
            HashAlgorithm::Fnv64 => Digest::from_u64(fnv1a64(&buf)),
        }
    }

    /// Every node reachable from the root, parents before children.
    fn reachable(ns: &Namespace) -> Vec<NodeId> {
        let mut out = vec![ns.root()];
        let mut i = 0;
        while i < out.len() {
            if let Payload::Interior { children } = &ns.node(out[i]).payload {
                out.extend(children.iter().flatten());
            }
            i += 1;
        }
        out
    }

    /// Interior paths a mirror op may name; leaves live in slots 2..8 and
    /// interiors in slots 0..2, so the two never collide.
    const MIRROR_PATHS: [&[u16]; 5] = [&[], &[0], &[1], &[0, 1], &[1, 0]];

    proptest! {
        /// Streaming digests equal the buffer-building reference for both
        /// algorithms, over sender-side (add / update / remove) and
        /// mirror-side (mirror_adu / mirror_tombstone) sequences — with a
        /// read of some node after every op, so children are read while
        /// their ancestors are still dirty and the early exit of
        /// `mark_dirty_up` meets partially refreshed trees.
        #[test]
        fn streaming_digests_match_buffer_reference(
            ops in prop::collection::vec((0u8..7, any::<u8>(), any::<u8>(), any::<u8>()), 1..120),
        ) {
            for algo in [HashAlgorithm::Fnv64, HashAlgorithm::Md5] {
                let mut tx = Namespace::new(algo);
                let mut rx = Namespace::new(algo);
                let mut branches = vec![tx.root()];
                let mut live: Vec<Key> = Vec::new();
                let mut next_key = 0u64;
                for &(op, a, b, probe) in &ops {
                    match op {
                        0 if branches.len() < 10 => {
                            let parent = branches[a as usize % branches.len()];
                            branches.push(tx.add_interior(parent, MetaTag(u32::from(b))));
                        }
                        0 | 1 => {
                            let parent = branches[a as usize % branches.len()];
                            tx.add_adu(parent, Key(next_key), MetaTag(0));
                            live.push(Key(next_key));
                            next_key += 1;
                        }
                        2 | 3 if !live.is_empty() => {
                            let key = live[a as usize % live.len()];
                            tx.update_adu(key, u64::from(b) + 2, u64::from(a));
                        }
                        4 if !live.is_empty() => {
                            let key = live.swap_remove(a as usize % live.len());
                            prop_assert!(tx.remove_adu(key));
                        }
                        5 => {
                            let pi = a as usize % MIRROR_PATHS.len();
                            let slot = 2 + u16::from(b % 6);
                            let key = Key(pi as u64 * 16 + u64::from(slot));
                            let (version, edge) = (u64::from(probe % 4), u64::from(b));
                            rx.mirror_adu(MIRROR_PATHS[pi], slot, key, version, edge, MetaTag(0));
                        }
                        6 => {
                            let path = MIRROR_PATHS[a as usize % MIRROR_PATHS.len()];
                            let parent = rx.ensure_interior_at(path).unwrap();
                            rx.mirror_tombstone(parent, 2 + u16::from(b % 6));
                        }
                        _ => {}
                    }
                    for ns in [&mut tx, &mut rx] {
                        let nodes = reachable(ns);
                        let node = nodes[probe as usize % nodes.len()];
                        prop_assert_eq!(ns.digest(node), reference_digest(ns, node));
                    }
                }
                for ns in [&mut tx, &mut rx] {
                    prop_assert_eq!(ns.root_digest(), reference_digest(ns, ns.root()));
                    for node in reachable(ns) {
                        prop_assert_eq!(ns.digest(node), reference_digest(ns, node));
                    }
                }
            }
        }
    }

    /// Where a checkpointed refresh can go wrong in a node `width` slots
    /// wide: both ends, each side of every stride boundary, mid-stride —
    /// or, for a high `sel`, anywhere.
    fn edge_slot(sel: u8, width: usize) -> u16 {
        let edges = [
            0,
            STRIDE - 1,
            STRIDE,
            STRIDE + STRIDE / 2,
            2 * STRIDE - 1,
            2 * STRIDE,
            3 * STRIDE - 1,
            3 * STRIDE,
            width - 1,
        ];
        let slot = match edges.get(usize::from(sel)) {
            Some(&edge) => edge,
            None => usize::from(sel) * 7,
        };
        (slot % width) as u16
    }

    proptest! {
        /// The same oracle on *wide* nodes, where the checkpoints live: a
        /// sender-side branch and a mirrored one, each starting more than
        /// three strides wide, under updates and removals at the stride
        /// edges, appends (one at a time, and up to a whole number of
        /// strides), a head turned into tombstones, and mirror writes far
        /// past the width — with a read of a *non-root* node after every
        /// op, so a child is refreshed while its parent stays dirty.
        #[test]
        fn checkpointed_digests_match_buffer_reference_on_wide_nodes(
            extra in 0usize..STRIDE,
            ops in prop::collection::vec((0u8..8, any::<u8>(), any::<u8>(), any::<u8>()), 1..60),
        ) {
            let start = 3 * STRIDE + 1 + extra;
            for algo in [HashAlgorithm::Fnv64, HashAlgorithm::Md5] {
                let mut tx = Namespace::new(algo);
                let wide = tx.add_interior(tx.root(), MetaTag(0));
                let narrow = tx.add_interior(tx.root(), MetaTag(1));
                tx.add_adu(narrow, Key(1 << 32), MetaTag(1));
                // The key in each slot of `wide`, `None` once removed.
                let mut keys: Vec<Option<Key>> = Vec::new();
                let append = |tx: &mut Namespace, keys: &mut Vec<Option<Key>>| {
                    let key = Key(keys.len() as u64);
                    tx.add_adu(wide, key, MetaTag(0));
                    keys.push(Some(key));
                };
                let mut rx = Namespace::new(algo);
                rx.mirror_adu(&[1], 0, Key(1 << 32), 1, 0, MetaTag(1));
                for slot in 0..start {
                    append(&mut tx, &mut keys);
                    rx.mirror_adu(&[0], slot as u16, Key(slot as u64), 1, 0, MetaTag(0));
                }
                prop_assert_eq!(tx.root_digest(), reference_digest(&tx, tx.root()));
                prop_assert_eq!(rx.root_digest(), reference_digest(&rx, rx.root()));
                let rx_wide = rx.node_at(&[0]).unwrap();

                for &(op, a, b, probe) in &ops {
                    let rx_width = rx.slots(rx_wide).len();
                    let tx_slot = usize::from(edge_slot(a, keys.len()));
                    match op {
                        0 => {
                            if let Some(key) = keys[tx_slot] {
                                tx.update_adu(key, u64::from(b) + 2, u64::from(a));
                            }
                        }
                        1 => {
                            if let Some(key) = keys[tx_slot].take() {
                                prop_assert!(tx.remove_adu(key));
                            }
                        }
                        2 => append(&mut tx, &mut keys),
                        3 => {
                            // Up to a whole number of strides, so that the
                            // next append lands on a checkpoint not yet held.
                            while !keys.len().is_multiple_of(STRIDE) {
                                append(&mut tx, &mut keys);
                            }
                        }
                        4 => {
                            for key in keys[..=tx_slot].iter_mut().filter_map(Option::take) {
                                prop_assert!(tx.remove_adu(key));
                            }
                        }
                        5 => {
                            let slot = edge_slot(a, rx_width);
                            let version = u64::from(b % 4) + 1;
                            rx.mirror_adu(&[0], slot, Key(u64::from(slot)), version, u64::from(b), MetaTag(0));
                        }
                        6 => {
                            rx.mirror_tombstone(rx_wide, edge_slot(a, rx_width));
                        }
                        _ => {
                            // Far past the width: the slots between are padded.
                            let slot = (rx_width + usize::from(a % 40)) as u16;
                            if b % 2 == 0 {
                                rx.mirror_adu(&[0], slot, Key(u64::from(slot)), 1, 0, MetaTag(0));
                            } else {
                                rx.mirror_tombstone(rx_wide, slot);
                            }
                        }
                    }
                    for ns in [&mut tx, &mut rx] {
                        let nodes = reachable(ns);
                        // Mostly the wide branch itself; else any non-root node.
                        let node = if probe < 160 { nodes[1] } else { nodes[1 + usize::from(probe) % (nodes.len() - 1)] };
                        prop_assert_eq!(ns.digest(node), reference_digest(ns, node));
                        if probe % 3 == 0 {
                            prop_assert_eq!(ns.root_digest(), reference_digest(ns, ns.root()));
                        }
                    }
                }
                for ns in [&mut tx, &mut rx] {
                    prop_assert_eq!(ns.root_digest(), reference_digest(ns, ns.root()));
                    for node in reachable(ns) {
                        prop_assert_eq!(ns.digest(node), reference_digest(ns, node));
                    }
                    // Checkpoint k sits before slot k·STRIDE, for every such
                    // slot the node has and no other.
                    for (id, held) in &ns.checkpoints {
                        prop_assert_eq!(held.len(), (ns.slots(*id).len() - 1) / STRIDE);
                    }
                }
            }
        }
    }

    /// Bytes fed to the hasher while `f` runs (this thread's).
    fn bytes_hashed_during(f: impl FnOnce()) -> u64 {
        use crate::digest::BYTES_HASHED;
        let before = BYTES_HASHED.with(std::cell::Cell::get);
        f();
        BYTES_HASHED.with(std::cell::Cell::get) - before
    }

    /// What one slot contributes to its parent's hash input (FNV).
    fn slot_bytes(live: bool) -> u64 {
        2 + if live { 8 } else { 1 }
    }

    /// The complexity the checkpoints buy, pinned without a clock: a change
    /// in a 1,024-slot branch hashes from its stride to the end, not the
    /// branch.
    #[test]
    fn refresh_hashes_from_the_changed_stride_not_from_slot_zero() {
        const LEAF_BYTES: u64 = 24;
        let mut n = ns();
        let branch = n.add_interior(n.root(), MetaTag(0));
        for k in 0..1_024 {
            n.add_adu(branch, Key(k), MetaTag(0));
        }
        n.root_digest();
        let root_bytes = slot_bytes(true);

        // An append: the new leaf, the last stride plus the new slot, the root.
        let hashed = bytes_hashed_during(|| {
            n.add_adu(branch, Key(1_024), MetaTag(0));
            n.root_digest();
        });
        assert_eq!(
            hashed,
            LEAF_BYTES + (STRIDE as u64 + 1) * slot_bytes(true) + root_bytes
        );

        // The §2 death process: the head is tombstones, the oldest live
        // record dies next.
        for k in 0..500 {
            n.remove_adu(Key(k));
        }
        n.root_digest();
        let hashed = bytes_hashed_during(|| {
            n.remove_adu(Key(500));
            n.root_digest();
        });
        let stride_start = 500 / STRIDE * STRIDE;
        let tail: u64 = (stride_start..1_025)
            .map(|slot| slot_bytes(slot > 500))
            .sum();
        assert_eq!(hashed, tail + root_bytes);

        // A matching summary on a clean tree hashes nothing.
        assert_eq!(
            bytes_hashed_during(|| {
                n.root_digest();
            }),
            0
        );
    }

    /// `Node` is what a namespace's memory is made of (one per ADU): the
    /// checkpoint state must not widen it. 72 is the size before
    /// `dirty_from` moved into its padding.
    #[test]
    fn node_stays_72_bytes() {
        assert_eq!(std::mem::size_of::<Node>(), 72);
    }

    /// Nodes of up to STRIDE slots keep no checkpoint: slot 0's is the
    /// fresh hasher and is never stored. One slot more and the node has an
    /// entry.
    #[test]
    fn narrow_nodes_hold_no_checkpoints() {
        let mut n = ns();
        for b in 0..STRIDE as u64 {
            let branch = n.add_interior(n.root(), MetaTag(0));
            for k in 0..STRIDE as u64 {
                n.add_adu(branch, Key(b * 100 + k), MetaTag(0));
            }
        }
        n.root_digest();
        assert!(n.checkpoints.is_empty());
        let last = n.node_at(&[STRIDE as u16 - 1]).unwrap();
        n.add_adu(last, Key(9_999), MetaTag(0));
        n.root_digest();
        assert_eq!(n.checkpoints.len(), 1);
        assert_eq!((n.checkpoints[0].0, n.checkpoints[0].1.len()), (last, 1));
    }

    /// The mirror entry points take wire input: whatever contradicts the
    /// structure held is refused and changes nothing.
    #[test]
    fn mirror_structure_conflicts_change_nothing() {
        let mut rx = ns();
        assert!(rx.mirror_adu(&[0], 0, Key(10), 1, 100, MetaTag(0)));
        assert!(rx.mirror_adu(&[], 1, Key(20), 1, 100, MetaTag(0)));
        let before = (rx.root_digest(), rx.nodes.len(), rx.live_adus());

        // Another key in an occupied slot.
        assert!(!rx.mirror_adu(&[0], 0, Key(11), 1, 100, MetaTag(0)));
        // An ADU where an interior sits.
        assert!(!rx.mirror_adu(&[], 0, Key(12), 1, 100, MetaTag(0)));
        // A path through a leaf — as a data packet's and as a summary's.
        assert!(!rx.mirror_adu(&[1, 3], 0, Key(13), 1, 100, MetaTag(0)));
        assert_eq!(rx.ensure_interior_at(&[0, 0, 2]), None);
        // A key already indexed at another slot (and the path it names
        // must not be created on the way to finding that out).
        assert!(!rx.mirror_adu(&[5, 5], 0, Key(10), 2, 100, MetaTag(0)));
        // A tombstone for an interior, and one under a leaf.
        assert_eq!(rx.mirror_tombstone(rx.root(), 0), None);
        let leaf = rx.leaf_of(Key(20)).unwrap();
        assert_eq!(rx.mirror_tombstone(leaf, 4), None);

        assert!(
            !rx.node(rx.root()).dirty,
            "a refused write dirtied the tree"
        );
        assert_eq!((rx.root_digest(), rx.nodes.len(), rx.live_adus()), before);
        assert_eq!(rx.leaf_of(Key(10)), rx.node_at(&[0, 0]));
    }

    #[test]
    fn digests_change_with_content() {
        let mut n = ns();
        let d0 = n.root_digest();
        let branch = n.add_interior(n.root(), MetaTag(1));
        let d1 = n.root_digest();
        assert_ne!(d0, d1, "adding a branch changes the root digest");

        n.add_adu(branch, Key(42), MetaTag(1));
        let d2 = n.root_digest();
        assert_ne!(d1, d2);

        n.update_adu(Key(42), 2, 1000);
        let d3 = n.root_digest();
        assert_ne!(d2, d3, "ADU update propagates to root");

        // No-op read is stable.
        assert_eq!(n.root_digest(), d3);
    }

    #[test]
    fn identical_content_identical_digest() {
        let build = || {
            let mut n = ns();
            let a = n.add_interior(n.root(), MetaTag(1));
            let b = n.add_interior(n.root(), MetaTag(2));
            n.add_adu(a, Key(1), MetaTag(1));
            n.add_adu(b, Key(2), MetaTag(2));
            n.update_adu(Key(1), 3, 500);
            n
        };
        let mut x = build();
        let mut y = build();
        assert_eq!(x.root_digest(), y.root_digest());
    }

    #[test]
    fn paths_are_stable_across_deletion() {
        let mut n = ns();
        let a = n.add_interior(n.root(), MetaTag(0));
        n.add_adu(a, Key(1), MetaTag(0));
        let leaf2 = n.add_adu(a, Key(2), MetaTag(0));
        assert_eq!(n.path_of(leaf2), vec![0, 1]);

        assert!(n.remove_adu(Key(1)));
        assert!(!n.remove_adu(Key(1)), "double delete is false");
        // Key 2 keeps its slot.
        assert_eq!(n.path_of(leaf2), vec![0, 1]);
        assert_eq!(n.node_at(&[0, 1]), Some(leaf2));
        assert_eq!(n.node_at(&[0, 0]), None, "tombstoned slot resolves to None");
        assert_eq!(n.live_adus(), 1);
    }

    #[test]
    fn removal_changes_digest() {
        let mut n = ns();
        let a = n.add_interior(n.root(), MetaTag(0));
        n.add_adu(a, Key(1), MetaTag(0));
        let before = n.root_digest();
        n.remove_adu(Key(1));
        assert_ne!(n.root_digest(), before);
    }

    #[test]
    fn summary_entries_describe_children() {
        let mut n = ns();
        let a = n.add_interior(n.root(), MetaTag(7));
        n.add_adu(n.root(), Key(9), MetaTag(3));
        n.add_adu(a, Key(1), MetaTag(7));
        n.remove_adu(Key(9));

        let entries = n.summary_entries(n.root());
        assert_eq!(entries.len(), 2);
        match &entries[0] {
            ChildEntry::Interior { slot, tag, .. } => {
                assert_eq!(*slot, 0);
                assert_eq!(*tag, MetaTag(7));
            }
            e => panic!("expected interior, got {e:?}"),
        }
        assert_eq!(entries[1], ChildEntry::Dead { slot: 1 });

        let sub = n.summary_entries(a);
        match &sub[0] {
            ChildEntry::Leaf { key, .. } => assert_eq!(*key, Key(1)),
            e => panic!("expected leaf, got {e:?}"),
        }
        assert_eq!(sub[0].slot(), 0);
    }

    #[test]
    fn mirror_converges_to_sender_digest() {
        // Sender builds a structure; receiver mirrors from (path, slot,
        // key, version, right_edge, tag) facts as if learned from data
        // packets; digests must match exactly.
        let mut sender = ns();
        let a = sender.add_interior(sender.root(), MetaTag(1));
        let b = sender.add_interior(sender.root(), MetaTag(2));
        sender.add_adu(a, Key(10), MetaTag(1));
        sender.add_adu(a, Key(11), MetaTag(1));
        sender.add_adu(b, Key(20), MetaTag(2));
        sender.update_adu(Key(10), 2, 800);
        sender.update_adu(Key(11), 1, 1200);
        sender.update_adu(Key(20), 5, 64);

        let mut rx = ns();
        rx.mirror_adu(&[0], 0, Key(10), 2, 800, MetaTag(1));
        rx.mirror_adu(&[0], 1, Key(11), 1, 1200, MetaTag(1));
        rx.mirror_adu(&[1], 0, Key(20), 5, 64, MetaTag(2));

        assert_eq!(rx.root_digest(), sender.root_digest());

        // Sender deletes one ADU; receiver applies the tombstone.
        sender.remove_adu(Key(11));
        let branch = rx.ensure_interior_at(&[0]).unwrap();
        rx.mirror_tombstone(branch, 1);
        assert_eq!(rx.root_digest(), sender.root_digest());
        assert_eq!(rx.live_adus(), sender.live_adus());
    }

    #[test]
    fn mirror_ignores_stale_versions() {
        let mut rx = ns();
        rx.mirror_adu(&[], 0, Key(1), 5, 100, MetaTag(0));
        rx.mirror_adu(&[], 0, Key(1), 3, 50, MetaTag(0)); // stale
        let leaf = rx.leaf_of(Key(1)).unwrap();
        let (_, v, r) = rx.adu_info(leaf);
        assert_eq!(v, 5);
        assert_eq!(r, 100);
    }

    #[test]
    fn mirror_out_of_order_slots() {
        // Receiving slot 3 before slots 0-2 must pad with tombstones.
        let mut rx = ns();
        rx.root_digest();
        rx.mirror_adu(&[], 3, Key(4), 1, 10, MetaTag(0));
        assert_eq!(rx.node(rx.root()).dirty_from, 0, "padding is a write too");
        rx.mirror_adu(&[], 1, Key(2), 1, 10, MetaTag(0));
        assert!(rx.node_at(&[3]).is_some());
        assert!(rx.node_at(&[1]).is_some());
        assert_eq!(rx.node_at(&[0]), None);
        assert_eq!(rx.live_adus(), 2);
    }

    #[test]
    #[should_panic(expected = "already in namespace")]
    fn duplicate_key_rejected() {
        let mut n = ns();
        n.add_adu(n.root(), Key(1), MetaTag(0));
        n.add_adu(n.root(), Key(1), MetaTag(0));
    }

    #[test]
    #[should_panic(expected = "child under an ADU leaf")]
    fn leaf_cannot_parent() {
        let mut n = ns();
        let leaf = n.add_adu(n.root(), Key(1), MetaTag(0));
        n.add_interior(leaf, MetaTag(0));
    }

    #[test]
    fn md5_and_fnv_agree_structurally() {
        for algo in [HashAlgorithm::Fnv64, HashAlgorithm::Md5] {
            let mut a = Namespace::new(algo);
            let mut b = Namespace::new(algo);
            a.add_adu(a.root(), Key(1), MetaTag(0));
            b.add_adu(b.root(), Key(1), MetaTag(0));
            assert_eq!(a.root_digest(), b.root_digest());
            b.update_adu(Key(1), 2, 0);
            assert_ne!(a.root_digest(), b.root_digest());
        }
    }

    #[test]
    fn deep_hierarchy_path_roundtrip() {
        let mut n = ns();
        let mut cur = n.root();
        for depth in 0..6 {
            cur = n.add_interior(cur, MetaTag(depth));
        }
        let leaf = n.add_adu(cur, Key(77), MetaTag(9));
        let path = n.path_of(leaf);
        assert_eq!(path.len(), 7);
        assert_eq!(n.node_at(&path), Some(leaf));
        assert!(n.is_leaf(leaf));
        assert_eq!(n.tag(leaf), MetaTag(9));
    }
}
