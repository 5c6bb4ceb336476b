//! Subscription indexes.
//!
//! [`PosetIndex`] stores subscriptions "in data structures that exploit
//! containment relations between filters. Therefore, a reduced number of
//! comparisons is required whenever a message must be matched against
//! them" (§V-B). It combines:
//!
//! * *partition groups* on an equality attribute (e.g. `topic`), so a
//!   publication only visits subscriptions that could match its topic, and
//! * within each group, a *containment forest*: a subscription is placed
//!   under one that covers it; when the covering subscription does not
//!   match a publication, the whole subtree is pruned.
//!
//! [`NaiveIndex`] is the linear-scan baseline used for benchmark E6 and as
//! a correctness oracle in tests.

use crate::types::{covers_normalised, Normalised, Publication, SubId, Subscription, Value};
use std::collections::BTreeMap;

/// Insertion scans at most this many siblings per level when looking for
/// covering relations; beyond it, subscriptions are treated as
/// incomparable. This bounds insertion cost on adversarial or very large
/// databases without affecting matching correctness (only pruning quality).
const MAX_SIBLING_SCAN: usize = 64;

/// Information about one index node visited during matching; the match
/// engine charges simulated memory and compute costs from it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VisitInfo {
    /// Simulated address of the node.
    pub offset: u64,
    /// Node footprint in bytes.
    pub size: u32,
    /// Predicates evaluated at this node (short-circuit aware).
    pub predicates_evaluated: u32,
    /// Whether the node's subscription matched.
    pub matched: bool,
}

/// Common interface of the two indexes.
pub trait SubscriptionIndex {
    /// Inserts a subscription stored at simulated address `offset`.
    fn insert(&mut self, id: SubId, sub: Subscription, offset: u64);
    /// Matches a publication, reporting every visited node to `on_visit`
    /// and returning the ids of matching subscriptions.
    fn match_publication(
        &self,
        publication: &Publication,
        on_visit: &mut dyn FnMut(VisitInfo),
    ) -> Vec<SubId>;
    /// Number of stored subscriptions.
    fn len(&self) -> usize;
    /// Whether the index is empty.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

fn matches_counted(sub: &Subscription, publication: &Publication) -> (bool, u32) {
    let mut evaluated = 0u32;
    for p in &sub.predicates {
        evaluated += 1;
        let ok = publication
            .attrs
            .get(&p.attr)
            .is_some_and(|actual| p.eval(actual));
        if !ok {
            return (false, evaluated);
        }
    }
    (true, evaluated)
}

/// Linear-scan baseline index.
#[derive(Debug, Default)]
pub struct NaiveIndex {
    entries: Vec<(SubId, Subscription, u64, u32)>,
}

impl NaiveIndex {
    /// Creates an empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl SubscriptionIndex for NaiveIndex {
    fn insert(&mut self, id: SubId, sub: Subscription, offset: u64) {
        let size = sub.footprint() as u32;
        self.entries.push((id, sub, offset, size));
    }

    fn match_publication(
        &self,
        publication: &Publication,
        on_visit: &mut dyn FnMut(VisitInfo),
    ) -> Vec<SubId> {
        let mut out = Vec::new();
        for (id, sub, offset, size) in &self.entries {
            let (matched, evaluated) = matches_counted(sub, publication);
            on_visit(VisitInfo {
                offset: *offset,
                size: *size,
                predicates_evaluated: evaluated,
                matched,
            });
            if matched {
                out.push(*id);
            }
        }
        out
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum GroupKey {
    Int(i64),
    Str(String),
    General,
}

#[derive(Debug)]
struct Node {
    id: SubId,
    sub: Subscription,
    norm: Normalised,
    offset: u64,
    size: u32,
    children: Vec<usize>,
}

/// Containment-forest index with partition groups.
#[derive(Debug)]
pub struct PosetIndex {
    partition_attr: Option<String>,
    nodes: Vec<Node>,
    /// Roots per group. Ordered, so a publication without a partition value
    /// visits the groups — and charges the simulator — in the same order in
    /// every identically built index.
    groups: BTreeMap<GroupKey, Vec<usize>>,
}

impl PosetIndex {
    /// Creates an index without a partition attribute (pure containment
    /// forest).
    #[must_use]
    pub fn new() -> Self {
        PosetIndex {
            partition_attr: None,
            nodes: Vec::new(),
            groups: BTreeMap::new(),
        }
    }

    /// Creates an index that additionally partitions on equality
    /// predicates over `attr` (e.g. `"topic"`).
    #[must_use]
    pub fn with_partition_attr(attr: &str) -> Self {
        PosetIndex {
            partition_attr: Some(attr.to_string()),
            nodes: Vec::new(),
            groups: BTreeMap::new(),
        }
    }

    fn group_key_for_sub(&self, sub: &Subscription) -> GroupKey {
        if let Some(attr) = &self.partition_attr {
            for p in &sub.predicates {
                if &p.attr == attr && p.op == crate::types::Op::Eq {
                    match &p.value {
                        Value::Int(v) => return GroupKey::Int(*v),
                        Value::Str(s) => return GroupKey::Str(s.clone()),
                        Value::Float(_) => {}
                    }
                }
            }
        }
        GroupKey::General
    }

    fn group_key_for_publication(&self, publication: &Publication) -> Option<GroupKey> {
        let attr = self.partition_attr.as_ref()?;
        match publication.attrs.get(attr) {
            Some(Value::Int(v)) => Some(GroupKey::Int(*v)),
            Some(Value::Str(s)) => Some(GroupKey::Str(s.clone())),
            _ => None,
        }
    }

    /// Total root count across groups (diagnostics).
    #[must_use]
    pub fn root_count(&self) -> usize {
        self.groups.values().map(Vec::len).sum()
    }

    fn insert_into_group(nodes: &mut [Node], roots: &mut Vec<usize>, new_idx: usize) {
        // Descend to the deepest existing node that covers the new one.
        let mut parent: Option<usize> = None;
        loop {
            let level: &Vec<usize> = match parent {
                None => roots,
                Some(p) => &nodes[p].children,
            };
            let next = level
                .iter()
                .take(MAX_SIBLING_SCAN)
                .copied()
                .find(|&candidate| covers_normalised(&nodes[candidate].norm, &nodes[new_idx].norm));
            match next {
                Some(covering) if covering != new_idx => parent = Some(covering),
                _ => break,
            }
        }
        // Re-parent level members that the new subscription covers. The
        // level vector is taken out (O(1)) rather than cloned — levels can
        // hold tens of thousands of roots on large databases.
        let mut level: Vec<usize> = match parent {
            None => std::mem::take(roots),
            Some(p) => std::mem::take(&mut nodes[p].children),
        };
        let scan = level.len().min(MAX_SIBLING_SCAN);
        let mut covered = Vec::new();
        let mut write = 0;
        for read in 0..level.len() {
            let candidate = level[read];
            if read < scan && covers_normalised(&nodes[new_idx].norm, &nodes[candidate].norm) {
                covered.push(candidate);
            } else {
                level[write] = candidate;
                write += 1;
            }
        }
        level.truncate(write);
        level.push(new_idx);
        nodes[new_idx].children = covered;
        match parent {
            None => *roots = level,
            Some(p) => nodes[p].children = level,
        }
    }

    fn match_group(
        &self,
        roots: &[usize],
        publication: &Publication,
        on_visit: &mut dyn FnMut(VisitInfo),
        out: &mut Vec<SubId>,
    ) {
        let mut stack: Vec<usize> = roots.to_vec();
        while let Some(idx) = stack.pop() {
            let node = &self.nodes[idx];
            let (matched, evaluated) = matches_counted(&node.sub, publication);
            on_visit(VisitInfo {
                offset: node.offset,
                size: node.size,
                predicates_evaluated: evaluated,
                matched,
            });
            if matched {
                out.push(node.id);
                // Children are covered by this node, so they *may* match.
                stack.extend_from_slice(&node.children);
            }
            // Not matched → children cannot match either (containment).
        }
    }
}

impl Default for PosetIndex {
    fn default() -> Self {
        Self::new()
    }
}

impl SubscriptionIndex for PosetIndex {
    fn insert(&mut self, id: SubId, sub: Subscription, offset: u64) {
        let key = self.group_key_for_sub(&sub);
        let size = sub.footprint() as u32;
        let norm = sub.normalised();
        let idx = self.nodes.len();
        self.nodes.push(Node {
            id,
            sub,
            norm,
            offset,
            size,
            children: Vec::new(),
        });
        let roots = self.groups.entry(key).or_default();
        Self::insert_into_group(&mut self.nodes, roots, idx);
    }

    fn match_publication(
        &self,
        publication: &Publication,
        on_visit: &mut dyn FnMut(VisitInfo),
    ) -> Vec<SubId> {
        let mut out = Vec::new();
        if let Some(key) = self.group_key_for_publication(publication) {
            if let Some(roots) = self.groups.get(&key) {
                self.match_group(roots, publication, on_visit, &mut out);
            }
            if let Some(general) = self.groups.get(&GroupKey::General) {
                self.match_group(general, publication, on_visit, &mut out);
            }
        } else {
            // No partition value: every group may match.
            for roots in self.groups.values() {
                self.match_group(roots, publication, on_visit, &mut out);
            }
        }
        out
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Op, Predicate};

    fn pred(attr: &str, op: Op, v: i64) -> Predicate {
        Predicate::new(attr, op, Value::Int(v))
    }

    fn sub(preds: Vec<Predicate>) -> Subscription {
        Subscription::new(preds)
    }

    fn ids(mut v: Vec<SubId>) -> Vec<u64> {
        v.sort();
        v.into_iter().map(|s| s.0).collect()
    }

    #[test]
    fn naive_matches_all() {
        let mut index = NaiveIndex::new();
        index.insert(SubId(1), sub(vec![pred("x", Op::Ge, 10)]), 0);
        index.insert(SubId(2), sub(vec![pred("x", Op::Lt, 10)]), 64);
        index.insert(SubId(3), sub(vec![pred("y", Op::Eq, 1)]), 128);
        let p = Publication::new().with("x", Value::Int(15));
        let mut visits = 0;
        let matched = index.match_publication(&p, &mut |_| visits += 1);
        assert_eq!(ids(matched), vec![1]);
        assert_eq!(visits, 3, "naive visits everything");
    }

    #[test]
    fn poset_prunes_subsumed_subtrees() {
        let mut index = PosetIndex::new();
        // broad covers mid covers narrow.
        index.insert(SubId(1), sub(vec![pred("x", Op::Ge, 0)]), 0);
        index.insert(SubId(2), sub(vec![pred("x", Op::Ge, 50)]), 64);
        index.insert(SubId(3), sub(vec![pred("x", Op::Ge, 90)]), 128);
        // Unrelated root.
        index.insert(SubId(4), sub(vec![pred("y", Op::Eq, 1)]), 192);
        assert_eq!(index.root_count(), 2);

        // x = -5: broad fails => subtree pruned; visit only the 2 roots.
        let mut visits = 0;
        let matched = index
            .match_publication(&Publication::new().with("x", Value::Int(-5)), &mut |_| {
                visits += 1
            });
        assert!(matched.is_empty());
        assert_eq!(visits, 2);

        // x = 60: broad, mid match; narrow visited and rejected.
        let mut visits = 0;
        let matched = index
            .match_publication(&Publication::new().with("x", Value::Int(60)), &mut |_| {
                visits += 1
            });
        assert_eq!(ids(matched), vec![1, 2]);
        assert_eq!(visits, 4);
    }

    #[test]
    fn insertion_order_does_not_change_results() {
        let subs = [
            (1, sub(vec![pred("x", Op::Ge, 90)])),
            (2, sub(vec![pred("x", Op::Ge, 0)])),
            (3, sub(vec![pred("x", Op::Ge, 50)])),
            (4, sub(vec![pred("x", Op::Le, 20)])),
        ];
        let p = Publication::new().with("x", Value::Int(95));
        let mut orders = Vec::new();
        for rotation in 0..subs.len() {
            let mut index = PosetIndex::new();
            for i in 0..subs.len() {
                let (id, s) = &subs[(i + rotation) % subs.len()];
                index.insert(SubId(*id), s.clone(), (*id) * 64);
            }
            orders.push(ids(index.match_publication(&p, &mut |_| {})));
        }
        for o in &orders {
            assert_eq!(o, &vec![1, 2, 3]);
        }
    }

    #[test]
    fn partitioned_index_only_visits_matching_topic() {
        let mut index = PosetIndex::with_partition_attr("topic");
        for topic in 0..10i64 {
            for i in 0..5 {
                index.insert(
                    SubId((topic * 10 + i) as u64),
                    sub(vec![pred("topic", Op::Eq, topic), pred("x", Op::Ge, i)]),
                    (topic * 10 + i) as u64 * 64,
                );
            }
        }
        let p = Publication::new()
            .with("topic", Value::Int(3))
            .with("x", Value::Int(100));
        let mut visits = 0;
        let matched = index.match_publication(&p, &mut |_| visits += 1);
        assert_eq!(matched.len(), 5);
        assert!(visits <= 5, "visited {visits}, expected only topic-3 subs");
        assert!(matched.iter().all(|s| (30..35).contains(&s.0)));
    }

    #[test]
    fn general_group_always_consulted() {
        let mut index = PosetIndex::with_partition_attr("topic");
        index.insert(
            SubId(1),
            sub(vec![pred("topic", Op::Eq, 7), pred("x", Op::Ge, 0)]),
            0,
        );
        // No topic predicate → general group.
        index.insert(SubId(2), sub(vec![pred("x", Op::Ge, 0)]), 64);
        let p = Publication::new()
            .with("topic", Value::Int(7))
            .with("x", Value::Int(1));
        assert_eq!(ids(index.match_publication(&p, &mut |_| {})), vec![1, 2]);
        // Different topic: only the general subscription matches.
        let p2 = Publication::new()
            .with("topic", Value::Int(8))
            .with("x", Value::Int(1));
        assert_eq!(ids(index.match_publication(&p2, &mut |_| {})), vec![2]);
    }

    /// The determinism contract: a publication without the partition
    /// attribute visits every group, and identically built indices must
    /// visit them in the same order (the visits drive the simulated LRU).
    #[test]
    fn identically_built_indices_visit_all_groups_in_the_same_order() {
        let build = || {
            let mut index = PosetIndex::with_partition_attr("topic");
            for i in 0..96i64 {
                let topic = (i * 7) % 24;
                let attr = if i % 2 == 0 { "x" } else { "y" };
                let preds = vec![pred("topic", Op::Eq, topic), pred(attr, Op::Ge, i % 5)];
                index.insert(SubId(i as u64), sub(preds), i as u64 * 64);
            }
            index.insert(SubId(96), sub(vec![pred("x", Op::Ge, 0)]), 96 * 64);
            index
        };
        let p = Publication::new().with("x", Value::Int(3));
        let run = |index: &PosetIndex| {
            let mut visits = Vec::new();
            let matched = index.match_publication(&p, &mut |v| visits.push(v));
            (visits, matched)
        };
        let (visits, matched) = run(&build());
        // Topic subscriptions cannot match without a topic, so only the
        // roots of the 24 topic groups and the general group are visited.
        assert!(visits.len() >= 25, "{} visits", visits.len());
        assert_eq!(matched, vec![SubId(96)]);
        for _ in 0..3 {
            assert_eq!(run(&build()), (visits.clone(), matched.clone()));
        }
    }

    #[test]
    fn poset_agrees_with_naive_on_random_workload() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(7);
        let mut poset = PosetIndex::with_partition_attr("topic");
        let mut naive = NaiveIndex::new();
        for i in 0..300u64 {
            let mut preds = vec![pred("topic", Op::Eq, rng.gen_range(0..5))];
            for attr in ["a", "b"] {
                if rng.gen_bool(0.7) {
                    let op = match rng.gen_range(0..4) {
                        0 => Op::Ge,
                        1 => Op::Le,
                        2 => Op::Gt,
                        _ => Op::Lt,
                    };
                    preds.push(pred(attr, op, rng.gen_range(0..100)));
                }
            }
            let s = sub(preds);
            poset.insert(SubId(i), s.clone(), i * 64);
            naive.insert(SubId(i), s, i * 64);
        }
        for _ in 0..200 {
            let p = Publication::new()
                .with("topic", Value::Int(rng.gen_range(0..5)))
                .with("a", Value::Int(rng.gen_range(0..100)))
                .with("b", Value::Int(rng.gen_range(0..100)));
            let mut poset_visits = 0u32;
            let mut naive_visits = 0u32;
            let got = ids(poset.match_publication(&p, &mut |_| poset_visits += 1));
            let want = ids(naive.match_publication(&p, &mut |_| naive_visits += 1));
            assert_eq!(got, want);
            assert!(poset_visits <= naive_visits);
        }
    }

    #[test]
    fn visit_info_reports_node_geometry() {
        let mut index = NaiveIndex::new();
        let s = sub(vec![pred("x", Op::Ge, 0)]).with_payload(vec![0u8; 100]);
        let footprint = s.footprint() as u32;
        index.insert(SubId(1), s, 4096);
        let p = Publication::new().with("x", Value::Int(1));
        let mut seen = None;
        index.match_publication(&p, &mut |v| seen = Some(v));
        let v = seen.unwrap();
        assert_eq!(v.offset, 4096);
        assert_eq!(v.size, footprint);
        assert_eq!(v.predicates_evaluated, 1);
        assert!(v.matched);
    }
}
