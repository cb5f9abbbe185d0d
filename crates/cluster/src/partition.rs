//! Water-filling partition of a global budget across heterogeneous
//! nodes.
//!
//! Every node starts at its class floor (below which it cannot run at
//! all), then the remaining watts are granted one quantum at a time to
//! whichever node's [`CurveTable`] promises the largest marginal gain for
//! that quantum. Nodes past their flattening point stop winning grants;
//! nodes still on the steep part of their curve keep collecting — the
//! cluster-level mirror of the paper's single-node insight that watts
//! should sit wherever the marginal performance per watt is highest.
//!
//! ## The winner rule
//!
//! Each objective gives every node with ceiling headroom a key: the
//! marginal gain of the next quantum ([`Objective::Throughput`]), the
//! negated normalized progress ([`Objective::MaxMin`]) or the negated
//! surplus per weight ([`Objective::WeightedShares`]). The quantum goes
//! to the last *record* of a pass in node order: a node becomes the
//! record when its key beats the record's, `key > record + GAIN_EPS`.
//! Throughput starts from a record of 0, so a gain must exceed
//! `GAIN_EPS` to win at all; the other objectives start with no record.
//! The relation is not transitive, so the winner is neither the largest
//! key nor the lowest index among near-ties: gains of `g + 0.5e-12` at
//! node 0 and `g + 1.2e-12` at node 1 give node 0.
//!
//! ## The level index
//!
//! The fill does not run that pass per quantum. A *kind* is the nodes
//! with one curve (the same `&CurveTable`), one floor and one weight; a
//! *level* is the nodes of one kind that sit at one share, so they all
//! hold one key. The ordered index holds one entry per level with
//! ceiling headroom, keyed by (key descending, lowest node index
//! ascending), and a level's key is computed once, when the level
//! appears. The winner comes from the index's *top cluster*: walk down
//! the distinct key values from the top and stop at the first value that
//! the smallest value already taken beats. Every node inside the cluster
//! beats every node outside it, so in a full pass the first cluster node
//! in index order becomes the record and no outside node can become one
//! after it: the record rule over the cluster alone picks the full
//! pass's winner. Of the nodes sharing one exact key only the lowest
//! index can ever become a record, which is why an entry names its
//! level's lowest node and the walk takes one entry per value. The walk
//! stops on the pass's own float predicate, so the argument holds under
//! rounding. Throughput's keys depend on the quantum, so its last,
//! partial quanta rebuild the index.
//!
//! A grant moves the winner, the lowest node of its level, into the
//! level just above when that level holds its new share, and into a
//! level of its own otherwise. A lone node's level is re-keyed in place.
//!
//! ## The staircase invariant
//!
//! Within a kind, shares never increase with node index. So a level is a
//! contiguous range of its kind's nodes in index order, the level a
//! winner joins is the range just before its own, and a level needs no
//! allocation of its own. The invariant holds because the winner is
//! always the lowest node of its level, and while the quantum is fixed
//! every node of a kind walks the same chain of shares: the same float
//! additions from the same floor, each grant clamped to the same
//! headroom. The nodes before the winner already sit further along that
//! chain. A partial quantum either ends the fill, or clamps a node to its
//! ceiling from the one chain point within a quantum of it, where the
//! full quantum clamps it too.
//!
//! ## Trajectory replay
//!
//! Fleet curves are not concave and their rungs are wider than a grant,
//! so one node tends to win several grants in a row, and then the next
//! node of its level does the same. The fill records the grants one node
//! `v` wins in a row from its level `L`. When they are shown to repeat,
//! it applies them to each further node of `L` in index order: each
//! grant comes off the remaining budget in sequence, and the index is
//! touched once for the batch. It replays only when all of these hold:
//!
//! 1. **One quantum.** Every pick used the same `grant.min(remaining)`
//!    bits, and before each replayed grant the remaining budget is still
//!    above `BUDGET_EPS` and still yields those bits.
//! 2. **A clean chain.** Each of `v`'s picks touched only `L` and `v`'s
//!    own level, counting the entries hidden behind an equal key.
//! 3. **The trajectory's shape.** Every grant but the last put `v` in a
//!    new level, and the last put it in a level that already existed.
//! 4. **The next pick.** The pick after `v`'s last chose `L` again, and
//!    its chain touched only `L`.
//!
//! Each later node of `L` then meets, pick for pick, the index `v` met,
//! except that the two entries its picks touch name later nodes, in the
//! same order; once `L` empties its entry is gone, and the walk still
//! stops where it did. So the walk and the record rule choose as they
//! did for `v`. The replay stops at the first failed check, and ordinary
//! picks continue.
//!
//! The pass is pure sequential arithmetic over already-profiled curves,
//! so a partition is a deterministic function of `(curves, global,
//! grant)`, independent of `PBC_THREADS`. The property tests in
//! `tests/partition_properties.rs` pin that down, and pin the fill
//! against a reference copy of the quantum-by-quantum pass.

use pbc_core::CurveTable;
use pbc_trace::names;
use pbc_types::{check_budget, PbcError, Result, Watts};
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::ops::Bound;

/// Default grant quantum for the water-filling pass.
pub const DEFAULT_GRANT: Watts = Watts::new(4.0);

/// What the partitioner optimizes when it hands out the surplus above
/// the floors. All three objectives share the same guarantees
/// (conservation, floors, ceilings, determinism) — they differ only in
/// *which* node wins the next quantum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Objective {
    /// Maximize aggregate fleet throughput: each quantum goes to the
    /// node with the largest marginal performance gain (the paper's
    /// water-filling rule). The historical — and default — behavior.
    #[default]
    Throughput,
    /// Max-min fairness: each quantum goes to the node with the *lowest*
    /// normalized progress (`perf_at(share) / perf_at(ceiling)`), so no
    /// node is starved while another coasts near its peak.
    MaxMin,
    /// Weighted proportional shares: surplus watts above the floors are
    /// divided in proportion to per-node weights (each quantum goes to
    /// the node with the smallest `surplus / weight`), the FastCap-style
    /// tenant-entitlement rule.
    WeightedShares,
}

impl Objective {
    /// Parse a CLI/wire spelling. Accepts the kebab-case names used by
    /// `pbc cluster --objective` and the serve fleet verbs.
    #[must_use = "the parse result carries either the objective or the refusal"]
    pub fn parse(s: &str) -> Result<Self> {
        match s {
            "throughput" => Ok(Self::Throughput),
            "max-min" => Ok(Self::MaxMin),
            "weighted" => Ok(Self::WeightedShares),
            other => Err(PbcError::InvalidInput(format!(
                "unknown objective {other:?}: expected throughput, max-min, or weighted"
            ))),
        }
    }

    /// The wire spelling `parse` accepts.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Self::Throughput => "throughput",
            Self::MaxMin => "max-min",
            Self::WeightedShares => "weighted",
        }
    }
}

/// Marginal gains below this are treated as "flat" — the node has
/// saturated and stops competing for grants.
const GAIN_EPS: f64 = 1e-12;

/// Slack tolerated when checking the global budget against the summed
/// floors, so a budget computed as `fleet.min_total_power()` passes.
const BUDGET_EPS: f64 = 1e-6;

/// One node as the partitioner sees it: a floor and a marginal-gain
/// curve.
#[derive(Debug, Clone, Copy)]
pub struct NodeCurve<'a> {
    /// Smallest share this node can run on.
    pub floor: Watts,
    /// The node's profiled `perf_max ~ P_b` curve.
    pub curve: &'a CurveTable,
}

/// Headroom left under a node's ceiling, clamped at zero (a degenerate
/// curve whose ceiling sits below the configured floor has none).
fn headroom(node: &NodeCurve<'_>, share: Watts) -> f64 {
    (node.curve.ceiling().value() - share.value()).max(0.0)
}

/// Spread `remaining` watts over the shares without breaching ceilings
/// where possible: each round splits the leftover evenly across the
/// nodes that still have ceiling headroom, capped at that headroom, and
/// loops until the leftover is exhausted or nobody can absorb more.
/// Only when *every* node is pinned at its ceiling (the budget exceeds
/// what the fleet can productively hold) is the residue spread evenly
/// regardless — conservation (Σ shares == global) always wins over
/// ceilings, matching what the enforcement layer assumes.
fn spread_leftover(nodes: &[NodeCurve<'_>], shares: &mut [Watts], mut remaining: Watts) {
    let mut open = Vec::with_capacity(nodes.len());
    while remaining.value() > BUDGET_EPS {
        open.clear();
        open.extend((0..nodes.len()).filter(|&i| headroom(&nodes[i], shares[i]) > BUDGET_EPS));
        if open.is_empty() {
            break;
        }
        let even = remaining * (1.0 / open.len() as f64);
        let mut granted = Watts::ZERO;
        for &i in &open {
            let take = Watts::new(even.value().min(headroom(&nodes[i], shares[i])));
            shares[i] = shares[i] + take;
            granted = granted + take;
        }
        remaining = remaining - granted;
        if granted.value() <= BUDGET_EPS {
            break; // float dust can't make progress — fall through
        }
    }
    if remaining.value() > 0.0 {
        let even = remaining * (1.0 / nodes.len() as f64);
        for share in shares.iter_mut() {
            *share = *share + even;
        }
    }
}

/// Partition `global` watts across `nodes` under the chosen
/// [`Objective`], in `grant` quanta. `weights` applies to
/// [`Objective::WeightedShares`] (one positive weight per node); pass
/// `&[]` for equal weights. Returns one share per node, in node order.
///
/// Guarantees, for every objective (the property-test contract):
/// - conservation: the shares sum to exactly `global` (± float dust);
/// - feasibility: every share ≥ that node's floor;
/// - ceilings: no share exceeds its node's ceiling as long as the fleet
///   can absorb the budget (`global ≤ Σ ceilings`);
/// - determinism: a pure function of its arguments.
///
/// Fails with [`PbcError::BudgetTooSmall`] when `global` cannot cover
/// every node's floor — there is no feasible partition at all.
///
/// Each fill adds its grants, replayed ones included, to
/// `cluster.fill_quanta` and its winner walks to `cluster.fill_picks`.
#[must_use = "the partition result carries either the shares or the infeasibility"]
pub fn fill_shares(
    nodes: &[NodeCurve<'_>],
    weights: &[f64],
    global: Watts,
    grant: Watts,
    objective: Objective,
) -> Result<Vec<Watts>> {
    if nodes.is_empty() {
        return Ok(Vec::new());
    }
    check_budget("global budget", global.value())?;
    check_budget("grant quantum", grant.value())?;
    if !weights.is_empty() {
        if weights.len() != nodes.len() {
            return Err(PbcError::InvalidInput(format!(
                "got {} weights for {} nodes",
                weights.len(),
                nodes.len()
            )));
        }
        if let Some(w) = weights.iter().find(|w| !w.is_finite() || **w <= 0.0) {
            return Err(PbcError::InvalidInput(format!(
                "node weights must be positive and finite, got {w}"
            )));
        }
    }
    let minimum = nodes.iter().fold(Watts::ZERO, |acc, n| acc + n.floor);
    if global.value() < minimum.value() - BUDGET_EPS {
        return Err(PbcError::BudgetTooSmall {
            requested: global,
            minimum,
        });
    }
    let mut shares: Vec<Watts> = nodes.iter().map(|n| n.floor).collect();
    let mut remaining = global - minimum;
    // Greedy fill: each quantum goes to the winner the module docs
    // define, clamped to that node's ceiling so the last grant before a
    // flattening point can never overshoot it. A trail that passes the
    // replay checks is applied to the rest of its level in one step.
    let mut levels = Levels::new(nodes, weights, objective);
    let mut trail = Trail::default();
    let (mut picks, mut quanta) = (0, 0);
    while remaining.value() > BUDGET_EPS {
        let q = grant.min(remaining);
        levels.set_quantum(&shares, q);
        picks += 1;
        let Some(won) = levels.winner() else {
            break; // nobody is eligible — stop granting greedily
        };
        if trail.replays(&levels, won, q) {
            let moved = levels.replay(won, &trail, grant, &mut shares, &mut remaining);
            quanta += moved * trail.grants.len();
            trail.clear();
            if moved > 0 {
                continue;
            }
        }
        trail.follow(&levels, won, q);
        let i = won.node;
        let qi = Watts::new(q.value().min(headroom(&nodes[i], shares[i])));
        shares[i] = shares[i] + qi;
        remaining = remaining - qi;
        quanta += 1;
        let joined = levels.lift(&shares, won, q);
        trail.record(qi, joined);
    }
    pbc_trace::cached_counter!(names::CLUSTER_FILL_QUANTA).add(quanta as u64);
    pbc_trace::cached_counter!(names::CLUSTER_FILL_PICKS).add(picks);
    // Conservation: whatever is left once the objective stops granting
    // is still assigned so Σ shares == global, preferring nodes with
    // ceiling headroom.
    if remaining.value() > 0.0 {
        spread_leftover(nodes, &mut shares, remaining);
    }
    Ok(shares)
}

/// One level in the fill index. Entries sort by key descending, then by
/// node index ascending, so the first entry of each distinct key names
/// the lowest-indexed node holding it.
#[derive(Debug, Clone, Copy)]
struct Entry {
    key: f64,
    /// The level's lowest node.
    node: usize,
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        other.key.total_cmp(&self.key).then(self.node.cmp(&other.node))
    }
}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl Eq for Entry {}

/// The fill's water level: every kind's nodes in runs of equal share
/// (the levels of the module docs), and one index entry per level with
/// ceiling headroom.
struct Levels<'n, 'c> {
    nodes: &'n [NodeCurve<'c>],
    weights: &'n [f64],
    objective: Objective,
    /// Node indices, kind by kind, ascending within a kind.
    order: Vec<usize>,
    /// Each node's position in `order`.
    pos: Vec<usize>,
    /// At a level's first position: one past its last.
    end: Vec<usize>,
    /// At a level's last position: its first.
    start: Vec<usize>,
    /// Whether a position holds the first node of its kind.
    kind_first: Vec<bool>,
    index: BTreeSet<Entry>,
    /// Bit pattern of the quantum the keys were computed for; `None`
    /// before the first build.
    quantum: Option<u64>,
    /// The top cluster of the current pick (kept to reuse its buffer).
    cluster: Vec<Entry>,
}

impl<'n, 'c> Levels<'n, 'c> {
    /// Group the nodes by kind, each kind one level at its floor.
    fn new(nodes: &'n [NodeCurve<'c>], weights: &'n [f64], objective: Objective) -> Self {
        let n = nodes.len();
        let mut levels = Self {
            nodes,
            weights,
            objective,
            order: Vec::new(),
            pos: vec![0; n],
            end: vec![0; n],
            start: vec![0; n],
            kind_first: vec![false; n],
            index: BTreeSet::new(),
            quantum: None,
            cluster: Vec::new(),
        };
        // The order of the kinds is immaterial: no choice depends on it.
        let mut order: Vec<usize> = (0..n).collect();
        order.sort_unstable_by_key(|&i| (levels.kind(i), i));
        let mut first = 0;
        for (p, &i) in order.iter().enumerate() {
            levels.pos[i] = p;
            if order.get(p + 1).is_none_or(|&j| levels.kind(j) != levels.kind(i)) {
                levels.end[first] = p + 1;
                levels.start[p] = first;
                levels.kind_first[first] = true;
                first = p + 1;
            }
        }
        levels.order = order;
        levels
    }

    fn weight(&self, i: usize) -> f64 {
        self.weights.get(i).copied().unwrap_or(1.0)
    }

    /// The node's kind: its curve's address, its floor and its weight.
    fn kind(&self, i: usize) -> (usize, u64, u64) {
        let node = &self.nodes[i];
        let curve = std::ptr::from_ref(node.curve).addr();
        (curve, node.floor.value().to_bits(), self.weight(i).to_bits())
    }

    /// The node's key at `at` watts for a quantum of `q`, or `None` when
    /// it has no ceiling headroom left to compete with.
    fn key(&self, i: usize, at: Watts, q: Watts) -> Option<f64> {
        let node = &self.nodes[i];
        let room = headroom(node, at);
        if room <= BUDGET_EPS {
            return None;
        }
        Some(match self.objective {
            // The gain is queried with the grant clamped to the node's
            // own headroom.
            Objective::Throughput => node.curve.marginal_gain(at, Watts::new(q.value().min(room))),
            // A node whose curve never rises (peak ≤ 0) counts as fully
            // progressed: watts can't help it.
            Objective::MaxMin => {
                let top = node.curve.perf_at(node.curve.ceiling());
                let progress = if top > GAIN_EPS {
                    (node.curve.perf_at(at) / top).min(1.0)
                } else {
                    1.0
                };
                -progress
            }
            Objective::WeightedShares => -((at.value() - node.floor.value()) / self.weight(i)),
        })
    }

    /// Key every level for quantum `q`: once, and again whenever `q`
    /// changes under Throughput, the one objective whose keys depend on
    /// it (only the last, partial quanta change it).
    fn set_quantum(&mut self, shares: &[Watts], q: Watts) {
        let bits = q.value().to_bits();
        let stale = match self.quantum {
            None => true,
            Some(b) => self.objective == Objective::Throughput && b != bits,
        };
        if !stale {
            return;
        }
        self.quantum = Some(bits);
        let n = self.order.len();
        let firsts = std::iter::successors(Some(0), |&p| Some(self.end[p]).filter(|&e| e < n));
        self.index = firsts
            .map(|p| self.order[p])
            .filter_map(|node| self.key(node, shares[node], q).map(|key| Entry { key, node }))
            .collect();
    }

    /// The node after `won`'s in its level, if the level has one.
    fn second(&self, won: Entry) -> Option<usize> {
        let p = self.pos[won.node] + 1;
        (p < self.end[p - 1]).then(|| self.order[p])
    }

    /// Move the winner, first node of its level, to the share a grant
    /// brought it to: into the level just before it when that level sits
    /// at the same share, else into a level of its own (out of the index
    /// once it has no headroom left). Returns whether it joined a level.
    fn lift(&mut self, shares: &[Watts], won: Entry, q: Watts) -> bool {
        let v = won.node;
        let a = self.pos[v];
        let b = self.end[a];
        self.index.remove(&won);
        if a + 1 < b {
            self.end[a + 1] = b;
            self.start[b - 1] = a + 1;
            self.index.insert(Entry { key: won.key, node: self.order[a + 1] });
        }
        let above = (!self.kind_first[a]).then(|| self.order[a - 1]);
        debug_assert!(
            above.is_none_or(|u| shares[u] >= shares[v]),
            "staircase broken: node {v} rose above the node before it in its kind"
        );
        let joins =
            above.is_some_and(|u| shares[u].value().to_bits() == shares[v].value().to_bits());
        if joins {
            let first = self.start[a - 1];
            self.end[first] = a + 1;
            self.start[a] = first;
        } else {
            self.end[a] = a + 1;
            self.start[a] = a;
            if let Some(key) = self.key(v, shares[v], q) {
                self.index.insert(Entry { key, node: v });
            }
        }
        joins
    }

    /// Give the nodes of `won`'s level, from `won` on, the grants of
    /// `trail` in index order, each node all of them or none: stop at
    /// the first grant that would not see the trail's quantum. The moved
    /// nodes join the level the trail's mover landed in, just before.
    /// Returns how many moved.
    fn replay(
        &mut self,
        won: Entry,
        trail: &Trail,
        grant: Watts,
        shares: &mut [Watts],
        remaining: &mut Watts,
    ) -> usize {
        let a = self.pos[won.node];
        let b = self.end[a];
        let landing = shares[trail.mover];
        let mut p = a;
        'nodes: while p < b {
            let mut left = *remaining;
            for &g in &trail.grants {
                let quantum = grant.min(left).value().to_bits();
                if left.value() <= BUDGET_EPS || quantum != trail.quantum {
                    break 'nodes;
                }
                left -= g;
            }
            *remaining = left;
            shares[self.order[p]] = landing;
            p += 1;
        }
        if p > a {
            let first = self.start[a - 1];
            self.end[first] = p;
            self.start[p - 1] = first;
            self.index.remove(&won);
            if p < b {
                self.end[p] = b;
                self.start[b - 1] = p;
                self.index.insert(Entry { key: won.key, node: self.order[p] });
            }
        }
        p - a
    }

    /// Whether the current pick's walk touched no entry but `x` and `y`:
    /// neither a cluster member nor an entry tied behind one.
    fn touches_only(&self, x: Entry, y: Entry) -> bool {
        let allowed = |e: &Entry| e.node == x.node || e.node == y.node;
        self.cluster.iter().all(|m| {
            allowed(m)
                && self
                    .index
                    .range((Bound::Excluded(*m), Bound::Unbounded))
                    .take_while(|t| t.key.total_cmp(&m.key) == Ordering::Equal)
                    .all(allowed)
        })
    }

    /// The entry of the level the quantum-by-quantum record pass would
    /// pick a node from, found over the index's top cluster alone.
    fn winner(&mut self) -> Option<Entry> {
        self.cluster.clear();
        let mut next = self.index.first().copied();
        while let Some(e) = next {
            if self.cluster.last().is_some_and(|low| low.key > e.key + GAIN_EPS) {
                break;
            }
            self.cluster.push(e);
            let past = Entry { key: e.key, node: usize::MAX };
            next = self.index.range((Bound::Excluded(past), Bound::Unbounded)).next().copied();
        }
        self.cluster.sort_unstable_by_key(|e| e.node);
        let mut record = (self.objective == Objective::Throughput).then_some(0.0);
        let mut winner = None;
        for &e in &self.cluster {
            if record.is_none_or(|r| e.key > r + GAIN_EPS) {
                record = Some(e.key);
                winner = Some(e);
            }
        }
        winner
    }
}

/// The grants one node has won in a row from a level of several nodes,
/// kept while the replay checks of the module docs hold.
#[derive(Default)]
struct Trail {
    /// The level the mover left, by its key and the node now first in
    /// it; `None` when no trail is being kept.
    from: Option<Entry>,
    mover: usize,
    /// Bit pattern of the quantum every pick of the trail used.
    quantum: u64,
    /// The mover's grants, in order.
    grants: Vec<Watts>,
    /// Whether the last grant put the mover in a level that already
    /// existed, completing the trajectory.
    landed: bool,
}

impl Trail {
    /// Whether the pick `won` is the next pick of check 4, so the trail
    /// replays over the rest of its level.
    fn replays(&self, levels: &Levels<'_, '_>, won: Entry, q: Watts) -> bool {
        self.landed
            && self.from == Some(won)
            && q.value().to_bits() == self.quantum
            && levels.touches_only(won, won)
    }

    /// Keep the trail when `won` is its mover again, under checks 1 and
    /// 2; otherwise drop it, and start one when `won` heads a level of
    /// several nodes and touched nothing else.
    fn follow(&mut self, levels: &Levels<'_, '_>, won: Entry, q: Watts) {
        let bits = q.value().to_bits();
        if let Some(from) = self.from {
            if !self.landed
                && won.node == self.mover
                && bits == self.quantum
                && levels.touches_only(from, won)
            {
                return;
            }
            self.clear();
        }
        if let Some(next) = levels.second(won) {
            if levels.touches_only(won, won) {
                self.from = Some(Entry { key: won.key, node: next });
                self.mover = won.node;
                self.quantum = bits;
            }
        }
    }

    fn clear(&mut self) {
        self.from = None;
        self.grants.clear();
        self.landed = false;
    }

    /// Note the grant the mover just won, and whether it joined a level
    /// (check 3).
    fn record(&mut self, grant: Watts, joined: bool) {
        if self.from.is_some() {
            self.grants.push(grant);
            self.landed = joined;
        }
    }
}

/// The baseline partition: every node gets `global / n`, floors and
/// curves ignored. On a heterogeneous fleet this under-feeds hungry
/// nodes (whose COORD then rejects the share outright) and strands watts
/// on saturated ones — the gap `ext7` and the CLI report measure.
#[must_use]
pub fn uniform_split(n: usize, global: Watts) -> Vec<Watts> {
    if n == 0 {
        return Vec::new();
    }
    let share = global * (1.0 / n as f64);
    vec![share; n]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flat_ramp(floor: f64, rise: f64, rungs: usize) -> CurveTable {
        // A synthetic curve: climbs by `rise` per 8 W rung, then flat.
        let mut perf = Vec::new();
        for k in 0..rungs {
            perf.push(rise * k as f64);
        }
        perf.push(rise * (rungs.saturating_sub(1)) as f64);
        let allocs = vec![None; perf.len()];
        CurveTable {
            floor: Watts::new(floor),
            step: Watts::new(8.0),
            perf,
            allocs,
        }
    }

    #[test]
    fn steep_nodes_win_the_surplus() {
        let steep = flat_ramp(50.0, 2.0, 10);
        let shallow = flat_ramp(50.0, 0.1, 2);
        let nodes = [
            NodeCurve { floor: steep.floor, curve: &steep },
            NodeCurve { floor: shallow.floor, curve: &shallow },
        ];
        let shares =
            fill_shares(&nodes, &[], Watts::new(160.0), Watts::new(4.0), Objective::Throughput)
                .unwrap();
        assert!(shares[0] > shares[1], "the steep curve should collect the surplus");
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!((total - 160.0).abs() < 1e-9);
    }

    #[test]
    fn infeasible_budget_is_a_typed_error() {
        let c = flat_ramp(100.0, 1.0, 4);
        let nodes = [NodeCurve { floor: c.floor, curve: &c }; 3];
        let err =
            fill_shares(&nodes, &[], Watts::new(200.0), Watts::new(4.0), Objective::Throughput)
                .unwrap_err();
        assert!(err.is_infeasible(), "expected BudgetTooSmall, got {err}");
    }

    #[test]
    fn saturated_fleet_still_conserves_the_budget() {
        let c = flat_ramp(50.0, 1.0, 3); // ceiling at 50 + 3*8 = 74 W
        let nodes = [NodeCurve { floor: c.floor, curve: &c }; 2];
        let shares =
            fill_shares(&nodes, &[], Watts::new(400.0), Watts::new(4.0), Objective::Throughput)
                .unwrap();
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!((total - 400.0).abs() < 1e-9, "surplus past saturation must still be assigned");
    }

    /// A curve that rises all the way to its last rung — no flat tail,
    /// so the marginal gain stays positive right up to the ceiling.
    fn ramp(floor: f64, rise: f64, rungs: usize) -> CurveTable {
        let perf: Vec<f64> = (0..=rungs).map(|k| rise * k as f64).collect();
        let allocs = vec![None; perf.len()];
        CurveTable {
            floor: Watts::new(floor),
            step: Watts::new(8.0),
            perf,
            allocs,
        }
    }

    /// The conservation-step bug: leftover watts were spread evenly over
    /// *all* nodes, shoving a node with little headroom past its ceiling
    /// even though another node could have absorbed the surplus.
    #[test]
    fn leftover_goes_only_to_nodes_with_headroom() {
        let tiny = flat_ramp(50.0, 0.0, 1); // flat curve, ceiling 58: 8 W of headroom
        let roomy = flat_ramp(50.0, 0.0, 3); // flat curve, ceiling 74: 24 W of headroom
        let nodes = [
            NodeCurve { floor: tiny.floor, curve: &tiny },
            NodeCurve { floor: roomy.floor, curve: &roomy },
        ];
        // Both curves are flat, so the greedy pass grants nothing and the
        // whole 20 W surplus rides on the conservation step. An even
        // split (10 W each) would put the tiny node at 60 W > 58 W.
        let shares =
            fill_shares(&nodes, &[], Watts::new(120.0), Watts::new(4.0), Objective::Throughput)
                .unwrap();
        assert!(
            shares[0].value() <= tiny.ceiling().value() + 1e-9,
            "tiny node got {} W, above its {} W ceiling",
            shares[0],
            tiny.ceiling()
        );
        assert!((shares[1].value() - 62.0).abs() < 1e-9, "roomy node absorbs the overflow");
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!((total - 120.0).abs() < 1e-9);
    }

    /// The greedy-overshoot bug: a grant quantum larger than a node's
    /// distance to its ceiling was handed over whole, because the
    /// marginal gain was queried without clamping `share + q`.
    #[test]
    fn greedy_grant_is_clamped_to_the_ceiling() {
        let steep = ramp(50.0, 2.0, 3); // rises to its 74 W ceiling
        let shallow = ramp(50.0, 0.5, 8); // ceiling 114 W
        let nodes = [
            NodeCurve { floor: steep.floor, curve: &steep },
            NodeCurve { floor: shallow.floor, curve: &shallow },
        ];
        // With a 16 W quantum the steep node's second grant would land it
        // at 82 W — one quantum past its 74 W ceiling — before the fix.
        let shares =
            fill_shares(&nodes, &[], Watts::new(160.0), Watts::new(16.0), Objective::Throughput)
                .unwrap();
        assert!(
            shares[0].value() <= steep.ceiling().value() + 1e-9,
            "steep node got {} W, above its {} W ceiling",
            shares[0],
            steep.ceiling()
        );
        assert!((shares[0].value() - 74.0).abs() < 1e-9, "steep node should fill exactly");
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!((total - 160.0).abs() < 1e-9);
    }

    /// The record rule is not "largest key wins": node 1's gain is the
    /// larger, but it does not beat node 0's by more than `GAIN_EPS`, so
    /// node 0 stays the record and takes the one quantum.
    #[test]
    fn a_larger_gain_within_gain_eps_does_not_take_the_record() {
        let g = 1.0;
        let curve = |gain: f64| CurveTable {
            floor: Watts::new(50.0),
            step: Watts::new(4.0),
            perf: vec![0.0, gain],
            allocs: vec![None; 2],
        };
        let (first, second) = (curve(g + 0.5e-12), curve(g + 1.2e-12));
        let nodes = [
            NodeCurve { floor: first.floor, curve: &first },
            NodeCurve { floor: second.floor, curve: &second },
        ];
        let grant = Watts::new(4.0);
        let gain = |n: &NodeCurve<'_>| n.curve.marginal_gain(n.floor, grant);
        assert!(gain(&nodes[1]) > gain(&nodes[0]), "node 1 holds the larger gain");
        let shares =
            fill_shares(&nodes, &[], Watts::new(104.0), grant, Objective::Throughput)
                .unwrap();
        assert_eq!(shares, vec![Watts::new(54.0), Watts::new(50.0)]);
    }

    #[test]
    fn max_min_feeds_the_laggard_first() {
        // Throughput loves the steep curve; max-min must not let the
        // shallow node idle at its floor while the steep one feasts.
        let steep = ramp(50.0, 4.0, 10);
        let shallow = ramp(50.0, 0.5, 10);
        let nodes = [
            NodeCurve { floor: steep.floor, curve: &steep },
            NodeCurve { floor: shallow.floor, curve: &shallow },
        ];
        let global = Watts::new(160.0);
        let grant = Watts::new(4.0);
        let tp = fill_shares(&nodes, &[], global, grant, Objective::Throughput).unwrap();
        let mm = fill_shares(&nodes, &[], global, grant, Objective::MaxMin).unwrap();
        assert!(tp[1].value() < mm[1].value(), "max-min lifts the shallow node");
        // Normalized progress ends up (nearly) equal under max-min.
        let prog = |n: &NodeCurve<'_>, s: Watts| {
            n.curve.perf_at(s) / n.curve.perf_at(n.curve.ceiling())
        };
        let spread = (prog(&nodes[0], mm[0]) - prog(&nodes[1], mm[1])).abs();
        assert!(spread < 0.15, "progress spread {spread} too wide for max-min");
        let total: f64 = mm.iter().map(|s| s.value()).sum();
        assert!((total - 160.0).abs() < 1e-9);
    }

    #[test]
    fn weighted_shares_split_surplus_by_weight() {
        let c = ramp(50.0, 1.0, 20); // ceiling 210 W, plenty of headroom
        let nodes = [NodeCurve { floor: c.floor, curve: &c }; 2];
        let shares =
            fill_shares(&nodes, &[1.0, 3.0], Watts::new(180.0), Watts::new(4.0), Objective::WeightedShares)
                .unwrap();
        // 80 W of surplus split 1:3 → 20 W and 60 W above the floors.
        let s0 = shares[0].value() - 50.0;
        let s1 = shares[1].value() - 50.0;
        assert!((s0 - 20.0).abs() <= 4.0, "weight-1 surplus {s0}");
        assert!((s1 - 60.0).abs() <= 4.0, "weight-3 surplus {s1}");
        let total: f64 = shares.iter().map(|s| s.value()).sum();
        assert!((total - 180.0).abs() < 1e-9);
    }

    #[test]
    fn bad_weights_are_refused() {
        let c = ramp(50.0, 1.0, 4);
        let nodes = [NodeCurve { floor: c.floor, curve: &c }; 2];
        for weights in [vec![1.0], vec![1.0, 0.0], vec![1.0, f64::NAN], vec![-1.0, 1.0]] {
            let err = fill_shares(
                &nodes,
                &weights,
                Watts::new(140.0),
                Watts::new(4.0),
                Objective::WeightedShares,
            )
            .unwrap_err();
            assert!(
                matches!(err, PbcError::InvalidInput(_)),
                "weights {weights:?} should be refused, got {err}"
            );
        }
    }

    #[test]
    fn objective_names_round_trip() {
        for obj in [Objective::Throughput, Objective::MaxMin, Objective::WeightedShares] {
            assert_eq!(Objective::parse(obj.name()).unwrap(), obj);
        }
        assert!(Objective::parse("fifo").is_err());
    }

    #[test]
    fn uniform_split_divides_evenly() {
        let shares = uniform_split(4, Watts::new(100.0));
        assert_eq!(shares.len(), 4);
        for s in shares {
            assert!((s.value() - 25.0).abs() < 1e-12);
        }
        assert!(uniform_split(0, Watts::new(100.0)).is_empty());
    }
}
