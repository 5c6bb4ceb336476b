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
//! Matching runs over a *compiled* form, not over [`Subscription`]s:
//! attribute names are interned to dense ids at insertion, and every
//! predicate becomes one 16-byte record (predicate order kept). A
//! [`PublicationRef`] is resolved once into a slot table indexed by attribute
//! id, so evaluating a predicate is an array index and a compare. The
//! traversal appends a [`VisitInfo`] per visited node to a caller-owned
//! trace; what a visit costs on the simulated clock is the caller's business.
//!
//! Insertion grows a forest in insertion order: per-node children vectors
//! and, for the covering checks, each subscription's normalised form (a
//! sorted boxed slice, one entry per constrained attribute). Matching does
//! not read that forest. The first match after an insert lays it out once
//! into two flat arrays in *visit order*, the order in which the depth-first
//! walk visits the nodes when every node matches: 32-byte node records, and
//! the predicate records copied in the same order. In that pre-order a
//! node's subtree is the contiguous run of records after it, so a node
//! stores where its subtree ends: the walk goes to the next record when the
//! node matches and jumps past the subtree when it does not. It needs no
//! stack, and it only ever moves forward through both arrays.
//!
//! [`NaiveIndex`] is the linear-scan baseline used for benchmark E6 and as
//! a correctness oracle in tests; it evaluates the original
//! [`Subscription`]s against an owned [`Publication`].

use crate::notify::{PublicationRef, ValueRef};
use crate::types::{
    compare, covers_normalised, Normalised, Op, Publication, SubId, Subscription, Value,
};
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

/// What a matching pass writes, plus the working memory it needs. Keep one
/// for the publications of a batch (`'p` is their lifetime): nothing is
/// allocated per publication once the vectors have grown.
#[derive(Debug, Default)]
pub struct MatchScratch<'p> {
    /// One entry per visited node, in visit order. Appended to.
    pub trace: Vec<VisitInfo>,
    /// Ids of the matching subscriptions, in visit order. Appended to.
    pub matched: Vec<SubId>,
    /// The current publication's values by attribute id.
    slots: Vec<Option<ValueRef<'p>>>,
}

/// Common interface of the two indexes.
pub trait SubscriptionIndex {
    /// Inserts a subscription stored at simulated address `offset`.
    fn insert(&mut self, id: SubId, sub: Subscription, offset: u64);
    /// Matches the publication `view`, appending every visited node to
    /// `scratch.trace` and the ids of matching subscriptions to
    /// `scratch.matched`. Takes `&mut self` so that an index may bring its
    /// matching layout up to date with the inserts made since the last
    /// match.
    fn match_publication<'p>(&mut self, view: PublicationRef<'p>, scratch: &mut MatchScratch<'p>);
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

    fn match_publication<'p>(&mut self, view: PublicationRef<'p>, scratch: &mut MatchScratch<'p>) {
        let publication = view.to_publication();
        for (id, sub, offset, size) in &self.entries {
            let (matched, evaluated) = matches_counted(sub, &publication);
            scratch.trace.push(VisitInfo {
                offset: *offset,
                size: *size,
                predicates_evaluated: evaluated,
                matched,
            });
            if matched {
                scratch.matched.push(*id);
            }
        }
    }

    fn len(&self) -> usize {
        self.entries.len()
    }
}

/// One compiled predicate.
#[derive(Debug, Clone, Copy)]
struct Test {
    /// Interned attribute: the slot to read.
    attr: u32,
    op: Op,
    /// Whether `operand` indexes [`PosetIndex::strings`]; otherwise it is
    /// the bits of the `f64` to compare with.
    string: bool,
    operand: u64,
}

/// A subscription in the insertion-time forest.
#[derive(Debug)]
struct Node {
    id: SubId,
    offset: u64,
    size: u32,
    /// This node's range of [`PosetIndex::tests`], in predicate order.
    tests_start: u32,
    tests_end: u32,
    children: Vec<u32>,
}

/// A subscription in the visit-ordered layout: the record the walk reads.
#[derive(Debug)]
struct FlatNode {
    id: SubId,
    offset: u64,
    size: u32,
    /// This node's range of [`PosetIndex::flat_tests`], in predicate order.
    tests_start: u32,
    tests_end: u32,
    /// One past the last record of this node's subtree: where the walk
    /// goes when this node does not match.
    subtree_end: u32,
}

const _: () = assert!(
    std::mem::size_of::<Test>() == 16
        && std::mem::size_of::<Node>() <= 64
        && std::mem::size_of::<FlatNode>() == 32
);

/// The subscriptions that share a partition value.
#[derive(Debug, Default)]
struct Group {
    /// Roots of the group's containment forest, in [`PosetIndex::nodes`].
    roots: Vec<u32>,
    /// The group's records in [`PosetIndex::flat`], as a half-open range.
    span: (u32, u32),
}

/// Containment-forest index with partition groups.
#[derive(Debug, Default)]
pub struct PosetIndex {
    partition_attr: Option<String>,
    /// Attribute name → slot id, dense in first-seen order.
    attrs: BTreeMap<String, u32>,
    /// String operands of the compiled predicates.
    strings: Vec<String>,
    /// Compiled predicates in insertion order; read by the layout only.
    tests: Vec<Test>,
    /// The forest in insertion order; read by insertion and the layout.
    nodes: Vec<Node>,
    /// Normalised predicates per node; read at insertion only.
    norms: Vec<Normalised<u32>>,
    /// Groups per partition value. A publication without a partition value
    /// visits integer groups in ascending order, then string groups in
    /// ascending order, then the general group — the same order, and so the
    /// same simulator charges, in every identically built index.
    int_groups: BTreeMap<i64, Group>,
    str_groups: BTreeMap<String, Group>,
    /// Subscriptions without an equality predicate on the partition
    /// attribute; every publication visits them.
    general: Group,
    /// The forest in visit order, groups in the order above, so the keyed
    /// groups together span the records in front of the general group.
    flat: Vec<FlatNode>,
    /// The predicate records of `flat`, in its order.
    flat_tests: Vec<Test>,
    /// Whether an insert has come since `flat` was laid out.
    stale: bool,
}

/// Nodes, predicate records and attributes are addressed by `u32`.
fn index_u32(len: usize) -> u32 {
    u32::try_from(len).expect("index tables stay below 2^32 entries")
}

/// Integers that are equal as `f64` — which is how predicates compare them —
/// share a group. The identity up to 2^53.
fn int_group(v: i64) -> i64 {
    v as f64 as i64
}

impl PosetIndex {
    /// Creates an index without a partition attribute (pure containment
    /// forest).
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an index that additionally partitions on equality
    /// predicates over `attr` (e.g. `"topic"`).
    #[must_use]
    pub fn with_partition_attr(attr: &str) -> Self {
        PosetIndex {
            partition_attr: Some(attr.to_string()),
            ..Self::default()
        }
    }

    /// Appends `sub`'s predicates to [`Self::tests`] and returns their
    /// range.
    fn compile(&mut self, sub: &Subscription) -> (u32, u32) {
        let start = index_u32(self.tests.len());
        for p in &sub.predicates {
            let next_attr = index_u32(self.attrs.len());
            let attr = match self.attrs.get(&p.attr) {
                Some(&id) => id,
                None => {
                    self.attrs.insert(p.attr.clone(), next_attr);
                    next_attr
                }
            };
            let (string, operand) = match &p.value {
                Value::Int(v) => (false, (*v as f64).to_bits()),
                Value::Float(v) => (false, v.to_bits()),
                Value::Str(s) => {
                    self.strings.push(s.clone());
                    (true, self.strings.len() as u64 - 1)
                }
            };
            self.tests.push(Test {
                attr,
                op: p.op,
                string,
                operand,
            });
        }
        (start, index_u32(self.tests.len()))
    }

    fn insert_into_group(
        nodes: &mut [Node],
        norms: &[Normalised<u32>],
        roots: &mut Vec<u32>,
        new_idx: u32,
    ) {
        let new_norm = &norms[new_idx as usize];
        // Descend to the deepest existing node that covers the new one.
        let mut parent: Option<u32> = None;
        loop {
            let level: &Vec<u32> = match parent {
                None => roots,
                Some(p) => &nodes[p as usize].children,
            };
            let next = level
                .iter()
                .take(MAX_SIBLING_SCAN)
                .copied()
                .find(|&candidate| covers_normalised(&norms[candidate as usize], new_norm));
            match next {
                Some(covering) if covering != new_idx => parent = Some(covering),
                _ => break,
            }
        }
        // Re-parent level members that the new subscription covers. The
        // level vector is taken out (O(1)) rather than cloned — levels can
        // hold tens of thousands of roots on large databases.
        let mut level: Vec<u32> = match parent {
            None => std::mem::take(roots),
            Some(p) => std::mem::take(&mut nodes[p as usize].children),
        };
        let scan = level.len().min(MAX_SIBLING_SCAN);
        let mut covered = Vec::new();
        let mut write = 0;
        for read in 0..level.len() {
            let candidate = level[read];
            if read < scan && covers_normalised(new_norm, &norms[candidate as usize]) {
                covered.push(candidate);
            } else {
                level[write] = candidate;
                write += 1;
            }
        }
        level.truncate(write);
        level.push(new_idx);
        nodes[new_idx as usize].children = covered;
        match parent {
            None => *roots = level,
            Some(p) => nodes[p as usize].children = level,
        }
    }

    /// Fills `slots` with the value of every interned attribute, in one pass
    /// over the publication's sorted attributes.
    fn resolve<'p>(&self, view: PublicationRef<'p>, slots: &mut Vec<Option<ValueRef<'p>>>) {
        slots.clear();
        slots.resize(self.attrs.len(), None);
        for (name, value) in view.attrs() {
            if let Some(&id) = self.attrs.get(name) {
                slots[id as usize] = Some(value);
            }
        }
    }

    /// Whether `test` holds for the resolved publication (numbers compare as
    /// `f64`); a missing attribute or a string/number mismatch never matches.
    fn holds(&self, test: Test, slots: &[Option<ValueRef<'_>>]) -> bool {
        let number = f64::from_bits(test.operand);
        match slots[test.attr as usize] {
            Some(ValueRef::Int(have)) if !test.string => compare(test.op, have as f64, number),
            Some(ValueRef::Float(have)) if !test.string => compare(test.op, have, number),
            Some(ValueRef::Str(have)) if test.string => {
                compare(test.op, have, self.strings[test.operand as usize].as_str())
            }
            _ => false,
        }
    }

    /// Lays the forest out in visit order: per group, roots are pushed in
    /// order and popped from the end, and a node's children are pushed when
    /// it is laid out — the depth-first walk's order when every node
    /// matches. A node's subtree end is set when the walk leaves it.
    fn lay_out(&mut self) {
        enum Step {
            Enter(u32),
            Leave(u32),
        }
        let mut flat = Vec::with_capacity(self.nodes.len());
        let mut flat_tests = Vec::with_capacity(self.tests.len());
        let mut stack = Vec::new();
        let keyed = self
            .int_groups
            .values_mut()
            .chain(self.str_groups.values_mut());
        for group in keyed.chain([&mut self.general]) {
            let start = index_u32(flat.len());
            stack.extend(group.roots.iter().map(|&idx| Step::Enter(idx)));
            while let Some(step) = stack.pop() {
                match step {
                    Step::Enter(idx) => {
                        let node = &self.nodes[idx as usize];
                        let at = index_u32(flat.len());
                        let tests_start = index_u32(flat_tests.len());
                        flat_tests.extend_from_slice(
                            &self.tests[node.tests_start as usize..node.tests_end as usize],
                        );
                        flat.push(FlatNode {
                            id: node.id,
                            offset: node.offset,
                            size: node.size,
                            tests_start,
                            tests_end: index_u32(flat_tests.len()),
                            subtree_end: at + 1,
                        });
                        stack.push(Step::Leave(at));
                        stack.extend(node.children.iter().map(|&child| Step::Enter(child)));
                    }
                    Step::Leave(at) => flat[at as usize].subtree_end = index_u32(flat.len()),
                }
            }
            group.span = (start, index_u32(flat.len()));
        }
        self.flat = flat;
        self.flat_tests = flat_tests;
        self.stale = false;
    }

    /// Walks the records of `span`, which are whole subtrees in visit order.
    fn walk(&self, (start, end): (u32, u32), scratch: &mut MatchScratch<'_>) {
        let MatchScratch {
            trace,
            matched,
            slots,
        } = scratch;
        let mut at = start;
        while at < end {
            let node = &self.flat[at as usize];
            let tests = &self.flat_tests[node.tests_start as usize..node.tests_end as usize];
            let failed = tests.iter().position(|&test| !self.holds(test, slots));
            trace.push(VisitInfo {
                offset: node.offset,
                size: node.size,
                predicates_evaluated: failed.map_or(tests.len(), |at| at + 1) as u32,
                matched: failed.is_none(),
            });
            if failed.is_none() {
                matched.push(node.id);
                // Children are covered by this node, so they *may* match;
                // the first one to visit is the next record.
                at += 1;
            } else {
                // Not matched → nor can its subtree (containment).
                at = node.subtree_end;
            }
        }
    }
}

impl SubscriptionIndex for PosetIndex {
    fn insert(&mut self, id: SubId, sub: Subscription, offset: u64) {
        let (tests_start, tests_end) = self.compile(&sub);
        let idx = index_u32(self.nodes.len());
        self.nodes.push(Node {
            id,
            offset,
            size: sub.footprint() as u32,
            tests_start,
            tests_end,
            children: Vec::new(),
        });
        self.norms.push(sub.normalised_by(|attr| self.attrs[attr]));
        // A subscription belongs to the group of its first integer or string
        // equality predicate on the partition attribute.
        let partition_value = self.partition_attr.as_deref().and_then(|attr| {
            sub.predicates.iter().find_map(|p| match &p.value {
                value @ (Value::Int(_) | Value::Str(_)) if p.attr == attr && p.op == Op::Eq => {
                    Some(value)
                }
                _ => None,
            })
        });
        let group = match partition_value {
            Some(Value::Int(v)) => self.int_groups.entry(int_group(*v)).or_default(),
            Some(Value::Str(s)) => self.str_groups.entry(s.clone()).or_default(),
            _ => &mut self.general,
        };
        Self::insert_into_group(&mut self.nodes, &self.norms, &mut group.roots, idx);
        self.stale = true;
    }

    fn match_publication<'p>(&mut self, view: PublicationRef<'p>, scratch: &mut MatchScratch<'p>) {
        if self.stale {
            self.lay_out();
        }
        self.resolve(view, &mut scratch.slots);
        let partition_value = self
            .partition_attr
            .as_deref()
            .and_then(|attr| view.get(attr));
        let own_group = match partition_value {
            Some(ValueRef::Int(v)) => self.int_groups.get(&int_group(v)).map(|g| g.span),
            Some(ValueRef::Str(s)) => self.str_groups.get(s).map(|g| g.span),
            // No partition value: every group may match, and the keyed
            // ones lie in front of the general group.
            Some(ValueRef::Float(_)) | None => Some((0, self.general.span.0)),
        };
        if let Some(span) = own_group {
            self.walk(span, scratch);
        }
        self.walk(self.general.span, scratch);
    }

    fn len(&self) -> usize {
        self.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::{Op, Predicate};
    use securecloud_crypto::wire::Wire;

    fn pred(attr: &str, op: Op, v: i64) -> Predicate {
        Predicate::new(attr, op, Value::Int(v))
    }

    fn sub(preds: Vec<Predicate>) -> Subscription {
        Subscription::new(preds)
    }

    fn visit(index: &mut impl SubscriptionIndex, p: &Publication) -> (Vec<VisitInfo>, Vec<SubId>) {
        let encoded = p.to_wire();
        let mut scratch = MatchScratch::default();
        index.match_publication(PublicationRef::parse(&encoded).unwrap(), &mut scratch);
        (scratch.trace, scratch.matched)
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
        let (visits, matched) = visit(&mut index, &p);
        assert_eq!(ids(matched), vec![1]);
        assert_eq!(visits.len(), 3, "naive visits everything");
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
        let keyed = index.int_groups.values().chain(index.str_groups.values());
        let roots = keyed.map(|group| group.roots.len()).sum::<usize>();
        assert_eq!(roots + index.general.roots.len(), 2);

        // x = -5: broad fails => subtree pruned; visit only the 2 roots.
        let (visits, matched) = visit(&mut index, &Publication::new().with("x", Value::Int(-5)));
        assert!(matched.is_empty());
        assert_eq!(visits.len(), 2);

        // x = 60: broad, mid match; narrow visited and rejected.
        let (visits, matched) = visit(&mut index, &Publication::new().with("x", Value::Int(60)));
        assert_eq!(ids(matched), vec![1, 2]);
        assert_eq!(visits.len(), 4);
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
            orders.push(ids(visit(&mut index, &p).1));
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
        let (visits, matched) = visit(&mut index, &p);
        assert_eq!(matched.len(), 5);
        assert!(
            visits.len() <= 5,
            "visited {visits:?}, expected only topic-3 subs"
        );
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
        assert_eq!(ids(visit(&mut index, &p).1), vec![1, 2]);
        // Different topic: only the general subscription matches.
        let p2 = Publication::new()
            .with("topic", Value::Int(8))
            .with("x", Value::Int(1));
        assert_eq!(ids(visit(&mut index, &p2).1), vec![2]);
    }

    /// The determinism contract: a publication without the partition
    /// attribute visits every group, and identically built indices must
    /// visit them in the same order (the visits drive the simulated LRU):
    /// integer keys ascending, then string keys ascending, then the general
    /// group.
    #[test]
    fn identically_built_indices_visit_all_groups_in_the_same_order() {
        let city = |i: i64| Value::Str(format!("city-{}", (i * 5) % 9));
        let build = || {
            let mut index = PosetIndex::with_partition_attr("topic");
            for i in 0..96i64 {
                let topic = match i % 3 {
                    0 => city(i),
                    _ => Value::Int((i * 7) % 24 - 12),
                };
                let attr = if i % 2 == 0 { "x" } else { "y" };
                let preds = vec![
                    Predicate::new("topic", Op::Eq, topic),
                    pred(attr, Op::Ge, i % 5),
                ];
                index.insert(SubId(i as u64), sub(preds), i as u64 * 64);
            }
            index.insert(SubId(96), sub(vec![pred("x", Op::Ge, 0)]), 96 * 64);
            index
        };
        let p = Publication::new().with("x", Value::Int(3));
        let (visits, matched) = visit(&mut build(), &p);
        // Topic subscriptions cannot match without a topic, so only group
        // roots are visited; node `i` sits at offset `64 * i`.
        let key_of = |v: &VisitInfo| {
            let i = (v.offset / 64) as i64;
            match i {
                96 => (2, 0, String::new()),
                _ if i % 3 == 0 => match city(i) {
                    Value::Str(s) => (1, 0, s),
                    _ => unreachable!(),
                },
                _ => (0, (i * 7) % 24 - 12, String::new()),
            }
        };
        let mut groups: Vec<_> = visits.iter().map(key_of).collect();
        groups.dedup();
        let every_group: std::collections::BTreeSet<_> = (0..=96u64)
            .map(|i| {
                key_of(&VisitInfo {
                    offset: i * 64,
                    ..visits[0]
                })
            })
            .collect();
        assert!(every_group.len() > 12 && every_group.iter().any(|k| k.0 == 1));
        assert_eq!(groups, every_group.into_iter().collect::<Vec<_>>());
        assert_eq!(matched, vec![SubId(96)]);
        for _ in 0..3 {
            assert_eq!(visit(&mut build(), &p), (visits.clone(), matched.clone()));
        }
        // With a partition value only that group and the general one are
        // visited, string-keyed like integer-keyed.
        for topic in [city(3), Value::Int(-5)] {
            let with_topic = p.clone().with("topic", topic.clone());
            let (visits, _) = visit(&mut build(), &with_topic);
            let groups: Vec<_> = visits.iter().map(key_of).collect();
            assert!(groups.len() >= 2);
            let (own, general) = groups.split_at(groups.len() - 1);
            let want = match topic {
                Value::Str(s) => (1, 0, s),
                Value::Int(v) => (0, v, String::new()),
                Value::Float(_) => unreachable!(),
            };
            assert!(own.iter().all(|k| *k == want), "{groups:?}");
            assert_eq!(general[0].0, 2);
        }
    }

    #[test]
    fn poset_agrees_with_naive_on_random_workload() {
        use securecloud_telemetry::rng::SeededRng;
        let mut rng = SeededRng::new(7);
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
            let (poset_visits, got) = visit(&mut poset, &p);
            let (naive_visits, want) = visit(&mut naive, &p);
            assert_eq!(ids(got), ids(want));
            assert!(poset_visits.len() <= naive_visits.len());
        }
    }

    #[test]
    fn visit_info_reports_node_geometry() {
        let mut index = NaiveIndex::new();
        let s = sub(vec![pred("x", Op::Ge, 0)]).with_payload(vec![0u8; 100]);
        let footprint = s.footprint() as u32;
        index.insert(SubId(1), s, 4096);
        let p = Publication::new().with("x", Value::Int(1));
        let v = visit(&mut index, &p).0[0];
        assert_eq!(v.offset, 4096);
        assert_eq!(v.size, footprint);
        assert_eq!(v.predicates_evaluated, 1);
        assert!(v.matched);
    }
}
