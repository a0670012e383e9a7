//! Outcome trees: warm shots replay recorded draw paths.
//!
//! A per-shot executor's outcome is a function of its draw outcomes.
//! Every decision of the [`Draws`] contract compares one raw draw with
//! values computed from the state, and the state depends on the
//! outcomes drawn so far, never on the seed. So a compiled program
//! carries one **outcome tree** per draw contract: the amplitude
//! per-shot path, the tableau, and the hybrid route.
//!
//! * An **internal node** is a draw point. It holds what the plain
//!   executor computed there: a [`threshold`](Draws::threshold)'s `p`;
//!   the running sums a [`pick`](Draws::pick) read, and whether it read
//!   them all; or nothing, for a [`coin`](Draws::coin) or a
//!   [`marker`](Draws::marker). Its children are indexed by outcome.
//! * A **leaf** holds the shot's final clbits, or "discarded".
//!
//! A shot first walks the tree with a copy of its shard's generator,
//! taking the raw draws the plain path would take through the same
//! [`Draws`] methods. At a branch nobody has recorded it drops the copy
//! and runs the plain per-shot function from the root through a
//! recorder, which forwards every draw to the shard's generator and
//! notes the node it passes. Walked or run, the shot consumes the same
//! raw draws and maps them the same way, so counts are bit-identical to
//! the plain path by construction.
//!
//! # Sharing
//!
//! A shard takes a snapshot of the published tree (an [`Arc`]) when it
//! starts and records into a shard-local delta, which its later shots
//! walk too. At shard end the delta merges into the published tree: in
//! place when no other shard holds a snapshot, else after a few more
//! deltas, into a copy built outside the lock. No lock is held across
//! shots. Merge order cannot change a node: every copy holds what the
//! plain executor computed on that path. A shard that fails publishes
//! nothing.
//!
//! Trees live and die with their [`crate::CompiledProgram`], so they
//! carry over across calls, tranches, sweep points, sessions and serve
//! jobs that share a cached program. A cloned program starts cold.
//!
//! # Limits
//!
//! Recording stops, and walking goes on, when a tree reaches
//! [`TREE_MAX_BYTES`], when all live trees together reach
//! [`TREES_MAX_BYTES`], or when the tree saturates: after
//! [`SATURATION_SHOTS`] shots, more than three quarters of them took a
//! new path. The counts in [`TreeStats`] depend on history; they never
//! feed back into results.

use crate::draws::Draws;
use crate::error::SimError;
use rand::rngs::StdRng;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering::Relaxed};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// The bytes one tree may hold. A tree at the cap walks but records no
/// more paths.
pub const TREE_MAX_BYTES: usize = 1 << 20;

/// The bytes all live trees in the process may hold together.
pub const TREES_MAX_BYTES: usize = 64 << 20;

/// The shots a tree must have seen before the saturation rule applies.
pub const SATURATION_SHOTS: u64 = 1024;

/// Whether a tree that has seen `shots` shots, `recorded` of them on a
/// new path, stops recording for good: more than three quarters of at
/// least [`SATURATION_SHOTS`] shots took a new path.
fn saturated(shots: u64, recorded: u64) -> bool {
    shots >= SATURATION_SHOTS && recorded * 4 > shots * 3
}

/// Bytes held by every live tree.
static LIVE_BYTES: AtomicUsize = AtomicUsize::new(0);

/// What one tree has done so far. History-dependent: these counts
/// never feed back into results, and no bit-identity check reads them.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TreeStats {
    /// Shots answered by walking a recorded path.
    pub walked: u64,
    /// Shots that ran the plain executor and recorded their path.
    pub recorded: u64,
    /// Shots that ran the plain executor without recording, because
    /// the tree was capped or saturated.
    pub unrecorded: u64,
    /// Bytes the published tree's nodes, child slots and running sums
    /// take.
    pub bytes: usize,
    /// Whether the tree stopped recording because new paths kept
    /// coming.
    pub saturated: bool,
    /// Whether the tree stopped recording at [`TREE_MAX_BYTES`].
    pub full: bool,
}

impl TreeStats {
    /// Shots that ran with this tree.
    pub fn shots(&self) -> u64 {
        self.walked + self.recorded + self.unrecorded
    }
}

/// A tree's shot counters.
#[derive(Debug, Default)]
struct Counters {
    walked: AtomicU64,
    recorded: AtomicU64,
    unrecorded: AtomicU64,
}

impl Counters {
    /// Adds a shard's counts, skipping zeros: shards on one program
    /// share these cache lines.
    fn add(&self, walked: u64, recorded: u64, unrecorded: u64) {
        for (counter, n) in [
            (&self.walked, walked),
            (&self.recorded, recorded),
            (&self.unrecorded, unrecorded),
        ] {
            if n > 0 {
                counter.fetch_add(n, Relaxed);
            }
        }
    }
}

/// What a node holds.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Kind {
    /// A threshold; the node's value is `p`'s bits.
    Threshold,
    Coin,
    Marker,
    /// A pick that stopped before the end of its weights. Its sums end
    /// with `+∞`, whose child slot stays empty: a draw past every known
    /// sum lands there and misses.
    Pick,
    /// A pick whose weights were all read.
    PickAll,
    /// A kept shot's leaf; the node's value is its clbits.
    Kept,
    Discarded,
}

/// One draw point or leaf.
#[derive(Clone, Copy, Debug)]
struct Node {
    kind: Kind,
    value: u64,
    /// The node's first child slot in [`Tree::slots`].
    first: u32,
    /// A pick's first running sum in [`Tree::sums`].
    sums: u32,
    /// Child slots (and, for a pick, running sums).
    arity: u32,
}

/// Where a node hangs: the root, or child `branch` of node `parent`.
#[derive(Clone, Copy, Debug, Default)]
enum At {
    #[default]
    Root,
    Child(u32, u32),
}

/// An outcome tree in three flat arrays. Node 0 is the root; a child
/// slot of 0 is a branch nobody has recorded.
#[derive(Clone, Debug, Default)]
struct Tree {
    nodes: Vec<Node>,
    slots: Vec<u32>,
    sums: Vec<f64>,
}

impl Tree {
    fn bytes(&self) -> usize {
        self.nodes.len() * std::mem::size_of::<Node>()
            + self.slots.len() * std::mem::size_of::<u32>()
            + self.sums.len() * std::mem::size_of::<f64>()
    }

    fn sums_of(&self, node: &Node) -> &[f64] {
        match node.kind {
            Kind::Pick | Kind::PickAll => {
                &self.sums[node.sums as usize..(node.sums + node.arity) as usize]
            }
            _ => &[],
        }
    }

    /// Replays one shot from the root on a copy of `rng`: the shot's
    /// clbits (`None` when discarded), with `rng` moved past its draws;
    /// or `None`, with `rng` untouched, at a branch not recorded.
    fn walk(&self, rng: &mut StdRng) -> Option<Option<u64>> {
        if self.nodes.is_empty() {
            return None;
        }
        let mut draws = rng.clone();
        let mut id = 0;
        loop {
            let node = &self.nodes[id];
            let branch = match node.kind {
                Kind::Kept | Kind::Discarded => {
                    *rng = draws;
                    return Some((node.kind == Kind::Kept).then_some(node.value));
                }
                Kind::Threshold => usize::from(draws.threshold(f64::from_bits(node.value))),
                Kind::Coin => usize::from(draws.coin()),
                Kind::Marker => {
                    draws.marker();
                    0
                }
                Kind::Pick | Kind::PickAll => draws.search(self.sums_of(node), |s| *s),
            };
            match self.slots[node.first as usize + branch] {
                0 => return None,
                child => id = child as usize,
            }
        }
    }

    /// The node at `at`, made to hold what a recorded draw saw there:
    /// created when missing, and for a pick that read fewer sums, or
    /// not all of them, moved to the end with the new sums and its
    /// children kept.
    fn ensure(&mut self, at: At, kind: Kind, value: u64, sums: &[f64]) -> u32 {
        let arity = match kind {
            Kind::Threshold | Kind::Coin => 2,
            Kind::Marker => 1,
            Kind::Pick | Kind::PickAll => sums.len(),
            Kind::Kept | Kind::Discarded => 0,
        };
        // The slot naming the node, when it hangs below a parent.
        let slot = match at {
            At::Root => None,
            At::Child(parent, branch) => {
                Some((self.nodes[parent as usize].first + branch) as usize)
            }
        };
        let existing = match slot {
            None => (!self.nodes.is_empty()).then_some(0),
            Some(slot) => Some(self.slots[slot]).filter(|&id| id != 0),
        };
        if let Some(id) = existing {
            let old = self.nodes[id as usize];
            debug_assert!(
                self.records_the_same(&old, kind, value, sums),
                "a re-recorded draw differs from the recorded one"
            );
            let learns = old.kind == Kind::Pick
                && (kind == Kind::PickAll || sums.len() > old.arity as usize);
            if learns {
                let first = self.slots.len();
                self.slots.resize(first + arity, 0);
                // The old sentinel's slot is always empty.
                for branch in 0..old.arity as usize - 1 {
                    self.slots[first + branch] = self.slots[old.first as usize + branch];
                }
                self.nodes[id as usize] = Node {
                    kind,
                    first: first as u32,
                    sums: self.sums.len() as u32,
                    arity: arity as u32,
                    ..old
                };
                self.sums.extend_from_slice(sums);
            }
            return id;
        }
        let id = self.nodes.len() as u32;
        self.nodes.push(Node {
            kind,
            value,
            first: self.slots.len() as u32,
            sums: self.sums.len() as u32,
            arity: arity as u32,
        });
        self.slots.resize(self.slots.len() + arity, 0);
        self.sums.extend_from_slice(sums);
        if let Some(slot) = slot {
            self.slots[slot] = id;
        }
        id
    }

    /// Whether a node recorded as `old` and a draw seen as
    /// `(kind, value, sums)` agree: same kind of draw, same bits, and
    /// equal sums as far as both read.
    fn records_the_same(&self, old: &Node, kind: Kind, value: u64, sums: &[f64]) -> bool {
        let picks = |k| matches!(k, Kind::Pick | Kind::PickAll);
        let known = |k, sums: &[f64]| match k {
            Kind::Pick => sums.len() - 1,
            _ => sums.len(),
        };
        if picks(old.kind) && picks(kind) {
            let recorded = self.sums_of(old);
            let both = known(old.kind, recorded).min(known(kind, sums));
            return recorded[..both]
                .iter()
                .zip(&sums[..both])
                .all(|(a, b)| a.to_bits() == b.to_bits());
        }
        old.kind == kind && old.value == value
    }

    /// Adds every path of `other`.
    fn absorb(&mut self, other: &Tree) {
        if other.nodes.is_empty() {
            return;
        }
        let mut stack = vec![(0u32, At::Root)];
        while let Some((src, at)) = stack.pop() {
            let node = other.nodes[src as usize];
            let id = self.ensure(at, node.kind, node.value, other.sums_of(&node));
            for branch in 0..node.arity {
                let child = other.slots[(node.first + branch) as usize];
                if child != 0 {
                    stack.push((child, At::Child(id, branch)));
                }
            }
        }
    }
}

/// The paths a shard has recorded, and where the shot being recorded
/// has got to.
#[derive(Debug, Default)]
struct Recording {
    tree: Tree,
    at: At,
    /// A pick's running sums, reused across draws.
    sums: Vec<f64>,
}

impl Recording {
    fn note(&mut self, kind: Kind, value: u64, branch: usize) {
        let id = self.tree.ensure(self.at, kind, value, &[]);
        self.at = At::Child(id, branch as u32);
    }
}

/// The draws of one shot on the plain executor: the shard's generator,
/// and the shard's recording when the shot records its path. Every
/// method draws exactly as the generator's own [`Draws`] methods do.
pub(crate) struct Recorder<'a> {
    rng: &'a mut StdRng,
    log: Option<&'a mut Recording>,
}

impl<'a> Recorder<'a> {
    /// Draws from `rng` and records nothing.
    pub(crate) fn plain(rng: &'a mut StdRng) -> Self {
        Recorder { rng, log: None }
    }
}

impl Draws for Recorder<'_> {
    fn threshold(&mut self, p: f64) -> bool {
        let hit = self.rng.threshold(p);
        if let Some(log) = self.log.as_deref_mut() {
            log.note(Kind::Threshold, p.to_bits(), usize::from(hit));
        }
        hit
    }

    fn pick<I: IntoIterator<Item = f64>>(&mut self, weights: I) -> usize {
        let Some(log) = self.log.as_deref_mut() else {
            return self.rng.pick(weights);
        };
        let (mut sum, mut exhausted) = (0.0, false);
        log.sums.clear();
        let mut weights = weights.into_iter();
        let index = self.rng.pick(std::iter::from_fn(|| {
            let weight = weights.next();
            match weight {
                Some(w) => {
                    sum += w;
                    log.sums.push(sum);
                }
                None => exhausted = true,
            }
            weight
        }));
        let kind = match (exhausted, log.sums.is_empty()) {
            // No weights: one draw and index 0, as a marker.
            (true, true) => Kind::Marker,
            (true, false) => Kind::PickAll,
            (false, _) => {
                log.sums.push(f64::INFINITY);
                Kind::Pick
            }
        };
        let id = log.tree.ensure(log.at, kind, 0, &log.sums);
        log.at = At::Child(id, index as u32);
        index
    }

    /// Not recorded: the sample-once path, its only caller, runs
    /// without a tree.
    fn search<T>(&mut self, cumulative: &[T], sum: impl Fn(&T) -> f64) -> usize {
        debug_assert!(self.log.is_none(), "a recorded shot called search");
        self.rng.search(cumulative, sum)
    }

    fn coin(&mut self) -> bool {
        let heads = self.rng.coin();
        if let Some(log) = self.log.as_deref_mut() {
            log.note(Kind::Coin, 0, usize::from(heads));
        }
        heads
    }

    fn marker(&mut self) {
        self.rng.marker();
        if let Some(log) = self.log.as_deref_mut() {
            log.note(Kind::Marker, 0, 0);
        }
    }
}

/// Locks a tree's published state. A holder that panicked left it
/// valid: a merge only appends nodes, sums and slots, and writes a slot
/// after the node it names.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Deltas a tree holds back, at most, before it merges them by copy
/// while shards still hold snapshots.
const PENDING_MAX: usize = 8;

/// The published tree, and the recordings waiting to join it.
#[derive(Debug, Default)]
struct Published {
    tree: Option<Arc<Tree>>,
    /// Shard recordings that ended while another shard held a snapshot,
    /// each with the bytes reserved for it. They join the tree in place
    /// once no snapshot is out, or by copy once [`PENDING_MAX`] wait.
    pending: Vec<(Tree, usize)>,
}

impl Published {
    fn bytes(&self) -> usize {
        self.tree.as_ref().map_or(0, |tree| tree.bytes())
    }

    fn pending_bytes(&self) -> usize {
        self.pending.iter().map(|(_, reserved)| reserved).sum()
    }
}

/// One draw contract's outcome tree on a compiled program. It allocates
/// nothing until a shard publishes a path.
#[derive(Debug, Default)]
pub(crate) struct OutcomeTree {
    published: Mutex<Published>,
    /// The published tree's bytes, readable without the lock.
    bytes: AtomicUsize,
    counts: Counters,
    saturated: AtomicBool,
    full: AtomicBool,
}

impl OutcomeTree {
    pub(crate) fn stats(&self) -> TreeStats {
        TreeStats {
            walked: self.counts.walked.load(Relaxed),
            recorded: self.counts.recorded.load(Relaxed),
            unrecorded: self.counts.unrecorded.load(Relaxed),
            bytes: self.bytes.load(Relaxed),
            saturated: self.saturated.load(Relaxed),
            full: self.full.load(Relaxed),
        }
    }

    /// A shard's view: a snapshot of the published tree, and an empty
    /// delta.
    pub(crate) fn delta(&self) -> Delta<'_> {
        Delta {
            tree: self,
            published: lock(&self.published).tree.clone(),
            base: self.stats(),
            local: Recording::default(),
            walked: 0,
            recorded: 0,
            unrecorded: 0,
            full: false,
        }
    }

    /// Adds a shard's recording, for which `reserved` bytes of
    /// [`TREES_MAX_BYTES`] are held, unless it could pass
    /// [`TREE_MAX_BYTES`]. With no snapshot out, it and every pending
    /// recording join the tree in place. Otherwise it waits, so shards
    /// walking a snapshot keep their caches, until [`PENDING_MAX`]
    /// recordings wait: then they join a copy built outside the lock,
    /// swapped in unless another merge came first.
    fn merge(&self, recording: Tree, reserved: usize) {
        let mut slot = lock(&self.published);
        if slot.bytes() + slot.pending_bytes() + reserved > TREE_MAX_BYTES {
            self.full.store(true, Relaxed);
            drop(slot);
            release(reserved, 0);
            return;
        }
        slot.pending.push((recording, reserved));
        let Published { tree, pending } = &mut *slot;
        let current = tree.get_or_insert_with(Arc::default);
        if let Some(tree) = Arc::get_mut(current) {
            let before = tree.bytes();
            let reserved = absorb_all(tree, &std::mem::take(pending));
            self.bytes.store(tree.bytes(), Relaxed);
            release(reserved, tree.bytes() - before);
            return;
        }
        if pending.len() < PENDING_MAX {
            return;
        }
        let batch = std::mem::take(pending);
        let mut base = Arc::clone(current);
        drop(slot);
        loop {
            let mut merged = Tree::clone(&base);
            let reserved = absorb_all(&mut merged, &batch);
            let (before, after) = (base.bytes(), merged.bytes());
            let mut slot = lock(&self.published);
            let current = slot.tree.as_ref().expect("a tree is published");
            if Arc::ptr_eq(current, &base) {
                let replaced = slot.tree.replace(Arc::new(merged));
                self.bytes.store(after, Relaxed);
                drop(slot);
                drop(replaced);
                release(reserved, after - before);
                return;
            }
            base = Arc::clone(current);
        }
    }
}

/// Adds every recording of `batch` to `tree`, returning the bytes
/// reserved for them.
fn absorb_all(tree: &mut Tree, batch: &[(Tree, usize)]) -> usize {
    batch
        .iter()
        .map(|(recording, reserved)| {
            tree.absorb(recording);
            reserved
        })
        .sum()
}

/// Returns the part of `reserved` bytes that a merge adding `added`
/// bytes did not use to the process-wide budget.
fn release(reserved: usize, added: usize) {
    LIVE_BYTES.fetch_sub(reserved - added, Relaxed);
}

impl Drop for OutcomeTree {
    fn drop(&mut self) {
        let published = self
            .published
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner);
        LIVE_BYTES.fetch_sub(published.bytes() + published.pending_bytes(), Relaxed);
    }
}

/// One shard's use of a tree: the snapshot it walks, the paths it
/// records, and its shot counts, published at shard end.
pub(crate) struct Delta<'a> {
    tree: &'a OutcomeTree,
    published: Option<Arc<Tree>>,
    /// The tree's stats when the shard started.
    base: TreeStats,
    local: Recording,
    walked: u64,
    recorded: u64,
    unrecorded: u64,
    full: bool,
}

impl Delta<'_> {
    /// Runs one shot: walked on the snapshot or on this shard's
    /// recording, else `plain` through a [`Recorder`] on `rng`, which
    /// records the path while the limits allow.
    ///
    /// # Errors
    ///
    /// Propagates the plain shot's [`SimError`]; the path it was
    /// recording is then never published.
    pub(crate) fn shot(
        &mut self,
        rng: &mut StdRng,
        plain: impl FnOnce(&mut Recorder<'_>) -> Result<Option<u64>, SimError>,
    ) -> Result<Option<u64>, SimError> {
        let walked = self
            .published
            .as_deref()
            .and_then(|tree| tree.walk(rng))
            .or_else(|| self.local.tree.walk(rng));
        if let Some(outcome) = walked {
            self.walked += 1;
            return Ok(outcome);
        }
        if !self.may_record() {
            self.unrecorded += 1;
            return plain(&mut Recorder::plain(rng));
        }
        self.local.at = At::Root;
        let outcome = plain(&mut Recorder {
            rng,
            log: Some(&mut self.local),
        })?;
        let (kind, value) = match outcome {
            Some(clbits) => (Kind::Kept, clbits),
            None => (Kind::Discarded, 0),
        };
        self.local.tree.ensure(self.local.at, kind, value, &[]);
        self.recorded += 1;
        Ok(outcome)
    }

    /// Whether the next missed shot records: no limit reached by the
    /// tree as it was at shard start plus this shard's recording.
    fn may_record(&mut self) -> bool {
        if self.base.saturated || self.base.full {
            return false;
        }
        let bytes = self.local.tree.bytes();
        if self.base.bytes + bytes >= TREE_MAX_BYTES {
            self.full = true;
            return false;
        }
        let shots = self.base.shots() + self.walked + self.recorded + self.unrecorded;
        !saturated(shots, self.base.recorded + self.recorded)
            && LIVE_BYTES.load(Relaxed) + bytes < TREES_MAX_BYTES
    }

    /// Counts the shard's shots and merges its recording into the
    /// published tree, unless the merge could pass a byte limit.
    pub(crate) fn publish(self) {
        let Delta {
            tree,
            published,
            local,
            walked,
            recorded,
            unrecorded,
            full,
            ..
        } = self;
        // Without this shard's snapshot, the merge below can update the
        // published tree in place when no other shard holds it.
        drop(published);
        tree.counts.add(walked, recorded, unrecorded);
        // Shots that recorded nothing only lower the new-path share.
        let stats = tree.stats();
        if recorded > 0 && saturated(stats.shots(), stats.recorded) {
            tree.saturated.store(true, Relaxed);
        }
        if full {
            tree.full.store(true, Relaxed);
        }
        if local.tree.nodes.is_empty() {
            return;
        }
        // The recording repeats the published prefixes of its paths, so
        // its size bounds what the merge adds.
        let reserved = local.tree.bytes();
        let reservation = LIVE_BYTES.fetch_update(Relaxed, Relaxed, |live| {
            (live + reserved <= TREES_MAX_BYTES).then_some(live + reserved)
        });
        if reservation.is_ok() {
            tree.merge(local.tree, reserved);
        }
    }
}

/// A compiled program's outcome trees, one per draw contract. A clone
/// starts cold, and `Debug` shows no history.
#[derive(Default)]
pub(crate) struct Trees {
    /// The amplitude per-shot path (statevector, trajectory, and the
    /// hybrid fallback).
    pub(crate) amplitude: OutcomeTree,
    /// The tableau (stabilizer, and pure-Clifford hybrid programs).
    pub(crate) tableau: OutcomeTree,
    /// The hybrid route: tableau prefix, handoff marker, amplitude
    /// suffix.
    pub(crate) hybrid: OutcomeTree,
}

impl Trees {
    /// The three trees' stats together.
    pub(crate) fn stats(&self) -> TreeStats {
        [&self.amplitude, &self.tableau, &self.hybrid]
            .iter()
            .map(|tree| tree.stats())
            .fold(TreeStats::default(), |a, b| TreeStats {
                walked: a.walked + b.walked,
                recorded: a.recorded + b.recorded,
                unrecorded: a.unrecorded + b.unrecorded,
                bytes: a.bytes + b.bytes,
                saturated: a.saturated || b.saturated,
                full: a.full || b.full,
            })
    }
}

impl Clone for Trees {
    fn clone(&self) -> Self {
        Trees::default()
    }
}

impl std::fmt::Debug for Trees {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("Trees { .. }")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{RngCore, SeedableRng};

    #[test]
    fn a_pick_learns_its_sums_and_walks_like_the_plain_pick() {
        // The weights fall short of 1, so a large draw reads them all
        // and takes pick's last-index fallback.
        let weights = [0.5, 0.25, 0.125];
        let tree = OutcomeTree::default();
        for seed in 0..256 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut delta = tree.delta();
            let outcome = delta
                .shot(&mut rng, |draws| Ok(Some(draws.pick(weights) as u64)))
                .unwrap();
            delta.publish();
            let mut plain = StdRng::seed_from_u64(seed);
            assert_eq!(outcome, Some(plain.pick(weights) as u64), "seed {seed}");
            assert_eq!(rng.next_u64(), plain.next_u64(), "seed {seed}: one draw");
        }
        let stats = tree.stats();
        // One recording per sum learned, and one for the fallback.
        assert!(stats.recorded <= 4, "{stats:?}");
        assert_eq!(stats.walked + stats.recorded, 256);
        let published = lock(&tree.published).tree.clone().expect("published");
        assert_eq!(published.nodes[0].kind, Kind::PickAll);
        assert_eq!(published.sums_of(&published.nodes[0]), [0.5, 0.75, 0.875]);
    }

    /// A shot of ten draws: 1,024 paths, so shards rarely share one.
    fn ten_draws(draws: &mut Recorder<'_>) -> Result<Option<u64>, SimError> {
        let mut clbits = u64::from(draws.threshold(0.5));
        for bit in 1..10 {
            clbits |= u64::from(draws.coin()) << bit;
        }
        Ok(Some(clbits))
    }

    /// Runs one shot under `seed` in its own shard and publishes it;
    /// returns whether the shot walked.
    fn shard(tree: &OutcomeTree, seed: u64) -> bool {
        let mut delta = tree.delta();
        delta
            .shot(&mut StdRng::seed_from_u64(seed), ten_draws)
            .unwrap();
        let walked = delta.walked == 1;
        delta.publish();
        walked
    }

    #[test]
    fn recordings_that_wait_for_a_snapshot_still_join_the_tree() {
        let tree = OutcomeTree::default();
        shard(&tree, 0);
        // While a shard holds a snapshot, merges wait...
        let holder = tree.delta();
        for seed in 1..PENDING_MAX as u64 {
            shard(&tree, seed);
        }
        assert_eq!(lock(&tree.published).pending.len(), PENDING_MAX - 1);
        // ...until the eighth joins them all to a copy.
        shard(&tree, PENDING_MAX as u64);
        let published = lock(&tree.published);
        assert!(published.pending.is_empty());
        let current = published.tree.as_ref().expect("published");
        assert!(!Arc::ptr_eq(
            current,
            holder.published.as_ref().expect("snapshot")
        ));
        assert_eq!(tree.stats().bytes, published.bytes());
        drop(published);
        drop(holder);
        // Once no snapshot is out, the next merge takes in the waiting
        // recordings in place.
        let holder = tree.delta();
        shard(&tree, 100);
        shard(&tree, 101);
        drop(holder);
        shard(&tree, 102);
        assert!(lock(&tree.published).pending.is_empty());
        for seed in (0..=PENDING_MAX as u64).chain(100..103) {
            assert!(shard(&tree, seed), "seed {seed}'s path was lost");
        }
    }
}
