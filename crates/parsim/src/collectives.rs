//! Collective operations, each executed in one host pass at a rendezvous.
//!
//! All collectives must be called at the same program point by every rank
//! (standard SPMD discipline). Every collective is modeled as a tree-shaped
//! or log-round message schedule, so both the modeled virtual time *and*
//! the per-rank message count scale as `O(log P)`:
//!
//! * `bcast` — binomial tree, `P-1` messages total.
//! * `gather` — binomial tree toward the root, `P-1` messages
//!   total; a message carries (and charges for) the raw entries of its
//!   whole subtree, which is the contract of a gather.
//! * `reduce` — the same tree, reduced *in the tree*: every interior rank
//!   folds its children into its own value and sends one message up, `P-1`
//!   messages, each sized by the caller's `words` function from the fold it
//!   carries. Values combine in ascending (virtual) rank order, each child's
//!   contiguous subtree associated first — the flat left fold's value for
//!   every associative `op`, commutative or not.
//! * `scatterv` — binomial tree away from the root, `P-1`
//!   messages total; a message carries (and charges for) the blocks of its
//!   destination's whole subtree, the mirror of a gather.
//! * `allgather` — tree gather to rank 0 plus binomial broadcast of the
//!   `P × words` table, `2(P-1)` messages total.
//! * `allreduce` — `reduce` to rank 0 plus binomial broadcast, `2(P-1)`
//!   messages, the broadcast half sized from the result.
//! * `exscan` — exclusive prefix: an up-sweep of subtree totals and a
//!   down-sweep of prefixes on the same tree, `2(P-1)` messages, each sized
//!   from the total or prefix it carries; `exscan_total` also carries the
//!   root's total down, so every rank learns it with its prefix.
//! * `barrier` — dissemination, `P·ceil(log2 P)` one-word messages.
//! * `alltoallv` / `alltoallv_sparse` — Bruck-style store-and-forward in
//!   `ceil(log2 P)` rounds of one combined message per rank per round,
//!   `P·ceil(log2 P)` messages total regardless of how dense the traffic
//!   pattern is.
//! * `alltoallv_direct` — the bulk-payload exchange: one empty Bruck
//!   exchange of zero-word notices tells each rank its sources, then one
//!   direct message per (source, destination) pair carries the payload, so
//!   every payload word crosses the wire once instead of once per hop.
//!   `P·ceil(log2 P)` one-word notices plus one message per pair.
//! * `alltoallv_sparse_join` — the same exchange with a reduction riding
//!   it: every message also carries its sender's joined share, so each rank
//!   ends with the join over all ranks. At a non-power of two some shares
//!   arrive twice, so the join must be associative, commutative and
//!   idempotent. A loop that exchanges anyway pays the share's words, not a
//!   `2·ceil(log2 P)`-hop collective of its own; `alltoallv_sparse` is its
//!   `()`-share case.
//!
//! ## Execution model
//!
//! A collective does not run message by message on the ranks' fibers.
//! Every rank meets the others at a rendezvous (see [`crate::sched`]),
//! depositing its ledger — clock, trace, send counters, chaos link state —
//! and its contribution, and the last rank to arrive runs the schedule
//! above for all `P` ranks as one host loop: the same peers, tags and
//! declared words, folds in the same order, and every clock charge priced
//! as a point-to-point message's is. Each rank's charges are made in its
//! own program order and kept as the hops of its one
//! [`TraceEvent::Call`](crate::TraceEvent) record of the call, so every
//! hop's clock, peer, direction and words equal, bit for bit, the hops of
//! the sends and receives the message-by-message execution records (the
//! test-only `reference` module keeps that execution, and a differential
//! test holds every collective to it, each call's hops joined into one
//! record). The payload
//! never travels: a gather's root receives the values, a
//! scatter's ranks their blocks, and an exchange's items go straight to
//! their destinations, while the trace declares the words each hop of the
//! schedule would have carried. A value every rank receives (`bcast`,
//! `allgather`, `allreduce`) is stored once and handed out as an [`Arc`].
//!
//! ## The SPMD contract
//!
//! `words` is the model; the payload is host data. The reducing collectives
//! take `words` as a function of the value (`|_| n` for a fixed-size one):
//! a fold of sparse rows grows on its way up the tree and a message must
//! declare what it carries, not what the caller started with. One rank's
//! `words`, `op` and `join` closures fold and size every rank's values in
//! the host pass, so they must be the same pure function on every rank:
//! they may capture configuration every rank shares (`nparts`), never
//! rank-local state. A rank's *contributions* — its value, its items, its
//! own `my_words`, `words_each` or `bcast` size — are its own.
//!
//! Every collective is `#[track_caller]`, as are its thin wrappers, so the
//! rendezvous sees the line of the rank body that called it: ranks that
//! reach one collective from two lines are a mismatch.

use std::collections::BTreeMap;
use std::panic::Location;
use std::sync::Arc;

use crate::comm::{Comm, Tag};
use crate::sched::{Op, Pass};
use crate::trace::CollectiveKind;

#[cfg(test)]
pub(crate) mod reference;

const TAG_BARRIER: Tag = 1 << 60;
const TAG_BCAST: Tag = (1 << 60) + 1;
const TAG_GATHER: Tag = (1 << 60) + 2;
const TAG_SCATTER: Tag = (1 << 60) + 3;
const TAG_REDUCE: Tag = (1 << 60) + 4;
// Bruck all-to-all uses one tag per round: TAG_A2A, TAG_A2A+1, ...
const TAG_A2A: Tag = (1 << 60) + 5;
// Above every Bruck round tag.
const TAG_EXSCAN: Tag = (1 << 60) + (1 << 32);
const TAG_DIRECT: Tag = (1 << 60) + (1 << 32) + 1;

/// A direct message of `alltoallv_direct` at its destination: source,
/// declared words, arrival and values.
type Direct<T> = (usize, u64, f64, Vec<T>);

/// One rank's side of a sparse exchange ([`Comm::alltoallv_sparse`]): every
/// item it sends, in one flat buffer cut into consecutive runs `(destination,
/// words, len)`, a run declaring `words` for its `len` items. Zero or more
/// runs may go to one destination; one run never names two. The exchange
/// drains the outbox and leaves its capacity, so a buffer refilled every
/// round allocates once.
#[derive(Debug)]
pub struct Outbox<T> {
    items: Vec<T>,
    runs: Vec<(usize, u64, usize)>,
}

impl<T> Default for Outbox<T> {
    fn default() -> Self {
        Self::with_capacity(0, 0)
    }
}

impl<T> Outbox<T> {
    /// An empty outbox with room for `items` items in `runs` runs.
    pub fn with_capacity(items: usize, runs: usize) -> Self {
        Outbox {
            items: Vec::with_capacity(items),
            runs: Vec::with_capacity(runs),
        }
    }

    /// Appends `values` as one run to `dst` declaring `words`. An empty run
    /// sends nothing.
    pub fn run(&mut self, dst: usize, words: u64, values: impl IntoIterator<Item = T>) {
        let start = self.items.len();
        self.items.extend(values);
        let len = self.items.len() - start;
        if len > 0 {
            self.runs.push((dst, words, len));
        }
    }

    /// Appends `(destination, value)` pairs as one run per stretch of equal
    /// destinations, in order, each declaring `words` of its items: sorted
    /// by destination, one run per destination.
    pub fn extend_grouped(
        &mut self,
        pairs: impl IntoIterator<Item = (usize, T)>,
        words: impl Fn(&[T]) -> u64,
    ) {
        let (mut open, mut start) = (None, self.items.len());
        for (dst, v) in pairs {
            if let Some(d) = open.filter(|&d| d != dst) {
                self.close(d, start, &words);
                start = self.items.len();
            }
            open = Some(dst);
            self.items.push(v);
        }
        if let Some(d) = open {
            self.close(d, start, &words);
        }
    }

    /// Each run with its items, in send order: `(destination, words, items)`.
    pub fn runs(&self) -> impl Iterator<Item = (usize, u64, &[T])> + '_ {
        let mut at = 0;
        self.runs.iter().map(move |&(dst, words, len)| {
            at += len;
            (dst, words, &self.items[at - len..at])
        })
    }

    /// Closes the run to `dst` holding the items from `start` on.
    fn close(&mut self, dst: usize, start: usize, words: impl Fn(&[T]) -> u64) {
        let run = &self.items[start..];
        self.runs.push((dst, words(run), run.len()));
    }
}

/// What a sparse exchange delivered to one rank: the items in one flat
/// buffer, ascending by source and in send order within a source, cut into
/// runs `(source, len)`, one per source that sent anything.
#[derive(Debug, PartialEq)]
pub struct Inbox<T> {
    items: Vec<T>,
    runs: Vec<(usize, usize)>,
}

impl<T> Inbox<T> {
    /// Every item, ascending by source.
    pub fn items(&self) -> &[T] {
        &self.items
    }

    /// Every item, ascending by source, as the buffer they arrived in.
    pub fn into_items(self) -> Vec<T> {
        self.items
    }

    /// Every item with its source, ascending by source.
    pub fn iter(&self) -> impl Iterator<Item = (usize, &T)> + '_ {
        let sources = self.runs.iter();
        let sources = sources.flat_map(|&(src, len)| std::iter::repeat_n(src, len));
        sources.zip(&self.items)
    }
}

#[track_caller]
fn op(name: &'static str, kind: CollectiveKind, tag: Tag) -> Op {
    Op {
        name,
        kind,
        root: None,
        tag,
        site: Location::caller(),
    }
}

#[track_caller]
fn rooted(name: &'static str, kind: CollectiveKind, tag: Tag, root: usize) -> Op {
    Op {
        root: Some(root),
        ..op(name, kind, tag)
    }
}

impl Comm {
    /// Dissemination barrier: `ceil(log2 P)` rounds of one-word messages.
    ///
    /// After the barrier every rank's virtual clock is at least as late as
    /// the latest participating rank's clock at entry (plus the barrier's own
    /// message costs).
    #[track_caller]
    pub fn barrier(&mut self) {
        let op = op("barrier", CollectiveKind::Barrier, TAG_BARRIER);
        self.meet(op, (), |pass, _: Vec<()>| {
            let p = pass.nranks();
            let mut step = 1;
            while step < p {
                exchange_round(pass, step, TAG_BARRIER, |_| 1);
                step <<= 1;
            }
            vec![(); p]
        })
    }

    /// Binomial-tree broadcast of `value` (size `words`) from `root`.
    ///
    /// Non-root ranks pass `None` and receive the broadcast value; the root
    /// passes `Some(value)`. Every rank gets the same allocation.
    #[track_caller]
    pub fn bcast<T: Send + Sync + 'static>(
        &mut self,
        root: usize,
        words: u64,
        value: Option<T>,
    ) -> Arc<T> {
        assert!(root < self.nranks(), "bcast root {root} out of range");
        if self.rank() == root {
            assert!(value.is_some(), "bcast root must supply a value");
        }
        let op = rooted("bcast", CollectiveKind::Bcast, TAG_BCAST, root);
        self.meet(
            op,
            (words, value),
            |pass, mut inputs: Vec<(u64, Option<T>)>| {
                let value = Arc::new(inputs[root].1.take().expect("root value"));
                let out = tree_bcast(pass, root, value, |rank, _| inputs[rank].0);
                vec![out; pass.nranks()]
            },
        )
    }

    /// Gather of one value per rank to `root` along a binomial tree. Each
    /// rank declares the size of its *own* contribution in `my_words` —
    /// CSR rows, owned vertex blocks, and other irregular payloads charge
    /// exactly what they ship (interior tree ranks additionally charge for
    /// the subtree entries they forward). Returns `Some(values)` (indexed by
    /// rank) on the root, `None` elsewhere.
    #[track_caller]
    pub fn gather<T: Send + 'static>(
        &mut self,
        root: usize,
        my_words: u64,
        value: T,
    ) -> Option<Vec<T>> {
        assert!(root < self.nranks(), "gather root {root} out of range");
        let op = rooted("gather", CollectiveKind::Gather, TAG_GATHER, root);
        self.meet(op, (my_words, value), |pass, inputs: Vec<(u64, T)>| {
            let mut out: Vec<Option<Vec<T>>> = (0..pass.nranks()).map(|_| None).collect();
            out[root] = Some(tree_gather(pass, root, inputs));
            out
        })
    }

    /// Variable-size scatter ("scatterv"), the mirror of [`Comm::gather`]:
    /// the root supplies one `(words, value)` block per rank, indexed by
    /// rank, and every rank receives its own value. Binomial tree, `P-1`
    /// messages total; each message carries the blocks of the destination's
    /// whole subtree and charges the sum of their sizes.
    #[track_caller]
    pub fn scatterv<T: Send + 'static>(&mut self, root: usize, blocks: Option<Vec<(u64, T)>>) -> T {
        let p = self.nranks();
        assert!(root < p, "scatter root {root} out of range");
        if self.rank() == root {
            let blocks = blocks.as_ref().expect("scatter root must supply values");
            assert_eq!(blocks.len(), p, "scatter needs one value per rank");
        }
        let op = rooted("scatterv", CollectiveKind::Scatter, TAG_SCATTER, root);
        self.meet(
            op,
            blocks,
            |pass, mut inputs: Vec<Option<Vec<(u64, T)>>>| {
                let blocks = inputs[root].take().expect("root blocks");
                tree_scatter(pass, root, blocks)
            },
        )
    }

    /// Allgather (tree gather to rank 0, broadcast the vector). Every rank
    /// gets the same allocation.
    #[track_caller]
    pub fn allgather<T: Send + Sync + 'static>(
        &mut self,
        words_each: u64,
        value: T,
    ) -> Arc<Vec<T>> {
        let op = op("allgather", CollectiveKind::Allgather, TAG_GATHER);
        self.meet(op, (words_each, value), |pass, inputs: Vec<(u64, T)>| {
            let p = pass.nranks();
            let total: Vec<u64> = inputs.iter().map(|&(words, _)| words * p as u64).collect();
            let gathered = Arc::new(tree_gather(pass, 0, inputs));
            let out = tree_bcast(pass, 0, gathered, |rank, _| total[rank]);
            vec![out; p]
        })
    }

    /// Generic allreduce: combine one value per rank with `op` (must be
    /// associative), result available on all ranks.
    ///
    /// [`Comm::reduce`] to rank 0 plus a broadcast: `2(P-1)` messages, each
    /// declaring `words` of the value it carries (a partial fold on the way
    /// up, the result on the way down), in the fold order `reduce` documents
    /// — a deterministic function of `P` alone. Every rank gets the same
    /// allocation.
    #[track_caller]
    pub fn allreduce<T, F>(&mut self, words: impl Fn(&T) -> u64, value: T, op: F) -> Arc<T>
    where
        T: Send + Sync + 'static,
        F: Fn(T, T) -> T,
    {
        let name = self::op("allreduce", CollectiveKind::Allreduce, TAG_REDUCE);
        self.meet(name, value, |pass, values: Vec<T>| {
            let reduced = Arc::new(tree_reduce(pass, 0, values, &words, op));
            let out = tree_bcast(pass, 0, reduced, |_, v| words(v));
            vec![out; pass.nranks()]
        })
    }

    /// Exclusive prefix scan: rank `r` gets `v0 op v1 op … op v(r-1)` (`op`
    /// must be associative), rank 0 gets `None`.
    ///
    /// Up-sweep: subtree totals ride the binomial tree to rank 0, each
    /// interior rank keeping, per child, the fold of everything in its
    /// subtree below that child. Down-sweep: a rank combines the prefix it
    /// received with those kept folds and hands every child its prefix,
    /// largest subtree first so the longest chain starts earliest. `2(P-1)`
    /// messages, each declaring `words` of the total or prefix it carries;
    /// values are moved, never cloned.
    #[track_caller]
    pub fn exscan<T, F>(&mut self, words: impl Fn(&T) -> u64, value: T, op: F) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let name = self::op("exscan", CollectiveKind::Exscan, TAG_EXSCAN);
        self.meet(name, value, |pass, values: Vec<T>| {
            let (prefixes, _) = tree_scan(pass, values, &words, &op, |_| 0);
            prefixes
        })
    }

    /// [`Comm::exscan`] that also hands every rank the fold of all ranks:
    /// the root's up-sweep total rides down beside each prefix, so the same
    /// `2(P-1)` messages deliver both, a down message declaring `words` of
    /// its prefix plus `words` of the total. Returns `(prefix, total)`.
    #[track_caller]
    pub fn exscan_total<T, F>(
        &mut self,
        words: impl Fn(&T) -> u64,
        value: T,
        op: F,
    ) -> (Option<T>, T)
    where
        T: Clone + Send + 'static,
        F: Fn(&T, &T) -> T,
    {
        let name = self::op("exscan_total", CollectiveKind::Exscan, TAG_EXSCAN);
        self.meet(name, value, |pass, values: Vec<T>| {
            let (prefixes, total) = tree_scan(pass, values, &words, &op, |total| words(total));
            prefixes.into_iter().map(|x| (x, total.clone())).collect()
        })
    }

    /// Allreduce with `f64` addition.
    #[track_caller]
    pub fn allreduce_sum_f64(&mut self, value: f64) -> f64 {
        *self.allreduce(|_| 1, value, |a, b| a + b)
    }

    /// Allreduce with `u64` addition.
    #[track_caller]
    pub fn allreduce_sum_u64(&mut self, value: u64) -> u64 {
        *self.allreduce(|_| 1, value, |a, b| a + b)
    }

    /// Allreduce with `u64` maximum.
    #[track_caller]
    pub fn allreduce_max_u64(&mut self, value: u64) -> u64 {
        *self.allreduce(|_| 1, value, u64::max)
    }

    /// Sparse personalized all-to-all: every run of `out` goes to its
    /// destination (a run addressed to this rank itself is delivered as-is,
    /// free of charge), and `out` is left empty with its capacity. Returns
    /// the items addressed to this rank, ascending by source and in send
    /// order within a source.
    ///
    /// Unlike the dense [`Comm::alltoallv`], the message count is
    /// `ceil(log2 P)` per rank *regardless of the traffic pattern*: runs
    /// are combined and store-and-forwarded along a Bruck exchange, so a
    /// migration step touching only a few neighbors no longer pays `P-1`
    /// message startups per rank. The host allocates per rank, not per
    /// neighbour: one buffer of items and one of runs for each receiver.
    #[track_caller]
    pub fn alltoallv_sparse<T: Send + 'static>(&mut self, out: &mut Outbox<T>) -> Inbox<T> {
        self.alltoallv_sparse_join(out, (), |_| 0, |_, _| {}).0
    }

    /// [`Comm::alltoallv_sparse`] for bulk payload: the same contract
    /// (`(destination, words, value)` items in, `(source, value)` out sorted
    /// by source and stable for equal sources, self-items free), but every
    /// payload word crosses the wire once. A zero-word notice per
    /// destination rides one Bruck exchange, which costs what an empty
    /// `alltoallv_sparse` does and tells each rank its sources; then each
    /// rank sends one direct message per destination, in ascending order,
    /// declaring the sum of that destination's item words, and receives one
    /// per notified source. `P·ceil(log2 P)` one-word notices plus one
    /// message per (source, destination) pair.
    ///
    /// Store-and-forward charges an item at each of its up to `ceil(log2 P)`
    /// hops; a direct message charges it once but pays a startup per
    /// destination. Bulk payload is cheaper direct; latency-bound control
    /// traffic to more than `ceil(log2 P)` peers is cheaper on the Bruck
    /// exchange.
    #[track_caller]
    pub fn alltoallv_direct<T: Send + 'static>(
        &mut self,
        items: Vec<(usize, u64, T)>,
    ) -> Vec<(usize, T)> {
        let (p, rank) = (self.nranks(), self.rank());
        let mut own: Vec<T> = Vec::new();
        // Per destination, ascending: declared words and values in order.
        let mut outgoing: BTreeMap<usize, (u64, Vec<T>)> = BTreeMap::new();
        for (dst, words, v) in items {
            assert!(dst < p, "alltoallv destination {dst} out of range");
            if dst == rank {
                own.push(v);
            } else {
                let (total, vals) = outgoing.entry(dst).or_default();
                *total += words;
                vals.push(v);
            }
        }
        let op = op("alltoallv_direct", CollectiveKind::Alltoallv, TAG_A2A);
        self.meet(op, (own, outgoing), |pass, inputs: Vec<(Vec<T>, _)>| {
            // The notices' Bruck exchange: every message is its header word.
            let mut step = 1;
            let mut round: Tag = 0;
            while step < p {
                exchange_round(pass, step, TAG_A2A + round, |_| 1);
                step <<= 1;
                round += 1;
            }
            let mut out: Vec<Vec<(usize, T)>> = Vec::with_capacity(p);
            let mut inbound: Vec<Vec<Direct<T>>> = (0..p).map(|_| Vec::new()).collect();
            for (src, (own, outgoing)) in inputs.into_iter().enumerate() {
                out.push(own.into_iter().map(|v| (src, v)).collect());
                for (dst, (words, vals)) in outgoing {
                    let arrival = pass.send(src, dst, words);
                    inbound[dst].push((src, words, arrival, vals));
                }
            }
            for (dst, (got, inbound)) in out.iter_mut().zip(inbound).enumerate() {
                for (src, words, arrival, vals) in inbound {
                    pass.recv(dst, src, TAG_DIRECT, words, arrival);
                    got.extend(vals.into_iter().map(|v| (src, v)));
                }
                got.sort_by_key(|&(src, _)| src);
            }
            out
        })
    }

    /// [`Comm::alltoallv_sparse`] with a reduction riding on it: every
    /// round's message also carries the sender's joined `share`, declaring
    /// `words(share)` on top of its items, and the receiver joins the share
    /// it hears into its own with `join`. Returns the items addressed to
    /// this rank, routed exactly as `alltoallv_sparse` routes them, and the
    /// join of every rank's share. Same messages, peers and tags as
    /// `alltoallv_sparse`: a loop that exchanges anyway gets its reduction
    /// for `words(share)` per message instead of a `2·ceil(log2 P)`-hop
    /// collective of its own.
    ///
    /// The rounds cover `2^ceil(log2 P) ≥ P` ranks, so at a non-power of two
    /// some share is heard twice: `join` must be associative, commutative and
    /// idempotent (a set union, `||`, `max`). It reads both shares in place,
    /// so no round clones one.
    #[track_caller]
    pub fn alltoallv_sparse_join<T, S>(
        &mut self,
        out: &mut Outbox<T>,
        share: S,
        words: impl Fn(&S) -> u64,
        join: impl Fn(&S, &S) -> S,
    ) -> (Inbox<T>, S)
    where
        T: Send + 'static,
        S: Send + 'static,
    {
        let p = self.nranks();
        for &(dst, _, _) in &out.runs {
            assert!(dst < p, "alltoallv destination {dst} out of range");
        }
        let op = op("alltoallv_sparse_join", CollectiveKind::Alltoallv, TAG_A2A);
        let input = (std::mem::take(out), share);
        let (inbox, share, drained) = self.meet(op, input, |pass, inputs: Vec<(_, S)>| {
            let (sends, shares) = inputs.into_iter().unzip();
            bruck_exchange(pass, sends, shares, words, join)
        });
        *out = drained;
        (inbox, share)
    }

    /// Dense personalized all-to-all: `items[d]` is `(words, value)` destined
    /// for rank `d` (the entry for this rank itself is returned as-is, free
    /// of charge). Returns one value per source rank.
    ///
    /// Implemented on the same Bruck exchange as
    /// [`Comm::alltoallv_sparse`], so the per-rank message count is
    /// `ceil(log2 P)` rather than `P-1`.
    #[track_caller]
    pub fn alltoallv<T: Send + 'static>(&mut self, items: Vec<(u64, T)>) -> Vec<T> {
        let p = self.nranks();
        assert_eq!(items.len(), p, "alltoallv needs one item per rank");
        let op = op("alltoallv", CollectiveKind::Alltoallv, TAG_A2A);
        self.meet(op, items, |pass, inputs: Vec<Vec<(u64, T)>>| {
            let sends = inputs
                .into_iter()
                .map(|row| {
                    let mut out = Outbox::with_capacity(p, p);
                    for (d, (words, v)) in row.into_iter().enumerate() {
                        out.run(d, words, [v]);
                    }
                    out
                })
                .collect();
            let out = bruck_exchange(pass, sends, vec![(); p], |_| 0, |_, _| {});
            out.into_iter()
                .map(|(got, (), _)| got.into_items())
                .collect()
        })
    }

    /// Reduce to root only (others get `None`), in the tree.
    ///
    /// Each rank folds its children's subtree results into its own value —
    /// children in ascending virtual-rank order (`vrank = (rank - root) mod
    /// P`), so child `v + mask` contributes the already-folded contiguous
    /// range `[v + mask, v + 2·mask)` — and sends one message to its
    /// parent, declaring `words` of the fold it carries (`|_| n` for a
    /// fixed-size value; a sparse row sizes itself). The result is the
    /// values in ascending virtual-rank order, associated by subtree: for
    /// every associative `op` the value of the flat left fold from the
    /// root. `P-1` messages.
    #[track_caller]
    pub fn reduce<T, F>(
        &mut self,
        root: usize,
        words: impl Fn(&T) -> u64,
        value: T,
        op: F,
    ) -> Option<T>
    where
        T: Send + 'static,
        F: Fn(T, T) -> T,
    {
        assert!(root < self.nranks(), "reduce root {root} out of range");
        let name = rooted("reduce", CollectiveKind::Reduce, TAG_REDUCE, root);
        self.meet(name, value, |pass, values: Vec<T>| {
            let mut out: Vec<Option<T>> = (0..pass.nranks()).map(|_| None).collect();
            out[root] = Some(tree_reduce(pass, root, values, &words, op));
            out
        })
    }
}

// ---------------------------------------------------------------------------
// Host passes: each charges every rank's ledger in that rank's program order.
// A tree visits ranks parent-first (a broadcast, a down-sweep) or
// children-first (a gather, a reduction, an up-sweep), so a receive always
// finds the arrival its sender has already stamped; a round-based exchange
// charges every send of a round before any of its receives.

/// One dissemination round at distance `step`: every rank `r` sends
/// `words(r)` words to `r + step` and receives from `r - step` (mod P).
fn exchange_round(pass: &mut Pass<'_>, step: usize, tag: Tag, words: impl Fn(usize) -> u64) {
    let p = pass.nranks();
    let sent: Vec<(u64, f64)> = (0..p)
        .map(|r| {
            let w = words(r);
            (w, pass.send(r, (r + step) % p, w))
        })
        .collect();
    for r in 0..p {
        let from = (r + p - step) % p;
        let (w, arrival) = sent[from];
        pass.recv(r, from, tag, w, arrival);
    }
}

/// The binomial broadcast of `value` from `root`; a forward from rank `r`
/// declares `words(r, value)`. Virtual rank `v > 0` receives from `v` less
/// its highest bit, then forwards to `v + 2^k` for every `2^k > v`.
fn tree_bcast<T>(
    pass: &mut Pass<'_>,
    root: usize,
    value: Arc<T>,
    words: impl Fn(usize, &T) -> u64,
) -> Arc<T> {
    let p = pass.nranks();
    // The message to each virtual rank: (words, arrival).
    let mut down = vec![(0u64, 0.0f64); p];
    for v in 0..p {
        let rank = (v + root) % p;
        let mut mask = 1;
        if v > 0 {
            let high = 1 << v.ilog2();
            let (w, arrival) = down[v];
            pass.recv(rank, (v - high + root) % p, TAG_BCAST, w, arrival);
            mask = high << 1;
        }
        while v + mask < p {
            let w = words(rank, &value);
            down[v + mask] = (w, pass.send(rank, (v + mask + root) % p, w));
            mask <<= 1;
        }
    }
    value
}

/// The binomial gather to `root` of `(words, value)` per rank: virtual rank
/// `v` receives its children `v + 2^k` (`2^k` below its lowest bit) in
/// ascending order, then forwards to its parent a message declaring its
/// subtree's words. Returns the values in rank order.
fn tree_gather<T>(pass: &mut Pass<'_>, root: usize, inputs: Vec<(u64, T)>) -> Vec<T> {
    let p = pass.nranks();
    let (mine, values): (Vec<u64>, Vec<T>) = inputs.into_iter().unzip();
    // The message from each virtual rank to its parent: (words, arrival).
    let mut up = vec![(0u64, 0.0f64); p];
    for v in (0..p).rev() {
        let rank = (v + root) % p;
        let mut total = mine[rank];
        let mut mask = 1;
        while mask < p && v & mask == 0 {
            if v + mask < p {
                let (w, arrival) = up[v + mask];
                pass.recv(rank, (v + mask + root) % p, TAG_GATHER, w, arrival);
                total += w;
            }
            mask <<= 1;
        }
        if v > 0 {
            up[v] = (total, pass.send(rank, (v - mask + root) % p, total));
        }
    }
    values
}

/// The binomial reduction to `root`, folded in the tree: virtual rank `v`
/// folds its children's subtree results in ascending order, then sends its
/// fold to its parent declaring `words(fold)`. Returns the root's fold.
fn tree_reduce<T>(
    pass: &mut Pass<'_>,
    root: usize,
    values: Vec<T>,
    words: impl Fn(&T) -> u64,
    op: impl Fn(T, T) -> T,
) -> T {
    let p = pass.nranks();
    let mut values: Vec<Option<T>> = values.into_iter().map(Some).collect();
    // The fold each virtual rank sent up: (fold, words, arrival).
    let mut up: Vec<Option<(T, u64, f64)>> = (0..p).map(|_| None).collect();
    let mut result = None;
    for v in (0..p).rev() {
        let rank = (v + root) % p;
        let mut acc = values[rank].take().expect("one value per rank");
        let mut mask = 1;
        while mask < p && v & mask == 0 {
            if v + mask < p {
                let (child, w, arrival) = up[v + mask].take().expect("child folded first");
                pass.recv(rank, (v + mask + root) % p, TAG_REDUCE, w, arrival);
                acc = op(acc, child);
            }
            mask <<= 1;
        }
        if v > 0 {
            let w = words(&acc);
            let arrival = pass.send(rank, (v - mask + root) % p, w);
            up[v] = Some((acc, w, arrival));
        } else {
            result = Some(acc);
        }
    }
    result.expect("the root folds last")
}

/// The binomial scatter from `root`: virtual rank `v > 0` receives the
/// blocks of `[v, v + lowbit(v))` from its parent, then hands the upper
/// half of what it holds to `v + 2^k` for every `2^k` below its lowest bit,
/// largest first, each message declaring the words of the blocks it ships.
fn tree_scatter<T>(pass: &mut Pass<'_>, root: usize, blocks: Vec<(u64, T)>) -> Vec<T> {
    let p = pass.nranks();
    // `before[k]`: the words of the blocks of virtual ranks below `k`.
    let mut before = Vec::with_capacity(p + 1);
    before.push(0u64);
    for k in 0..p {
        before.push(before[k] + blocks[(k + root) % p].0);
    }
    let mut down = vec![(0u64, 0.0f64); p];
    for v in 0..p {
        let rank = (v + root) % p;
        let mut mask = p.next_power_of_two() >> 1;
        if v > 0 {
            let low = v & v.wrapping_neg();
            let (w, arrival) = down[v];
            pass.recv(rank, (v - low + root) % p, TAG_SCATTER, w, arrival);
            mask = low >> 1;
        }
        while mask >= 1 {
            let dst = v + mask;
            if dst < p {
                let w = before[(dst + mask).min(p)] - before[dst];
                down[dst] = (w, pass.send(rank, (dst + root) % p, w));
            }
            mask >>= 1;
        }
    }
    blocks.into_iter().map(|(_, v)| v).collect()
}

/// The exclusive scan's two sweeps over the binomial tree rooted at rank 0.
/// Up, children first: rank `r` folds its children `r + 2^k` in ascending
/// order, keeping for each the fold of what precedes it, then sends its
/// subtree's total to its parent. Down, parents first: rank `r` receives
/// its prefix and sends each child, largest first, the prefix of that
/// child, declaring `words(prefix) + extra(total)`. Returns every rank's
/// prefix (rank 0's is `None`) and the total.
fn tree_scan<T>(
    pass: &mut Pass<'_>,
    values: Vec<T>,
    words: impl Fn(&T) -> u64,
    op: impl Fn(&T, &T) -> T,
    extra: impl Fn(&T) -> u64,
) -> (Vec<Option<T>>, T) {
    let p = pass.nranks();
    let mut totals: Vec<Option<T>> = values.into_iter().map(Some).collect();
    // `kept[c]`: the fold of the part of c's parent's subtree preceding c.
    let mut kept: Vec<Option<T>> = (0..p).map(|_| None).collect();
    // The message each rank sent its parent, then the one it received from
    // it: (words, arrival).
    let mut wire = vec![(0u64, 0.0f64); p];
    for r in (0..p).rev() {
        let mut total = totals[r].take().expect("one value per rank");
        let mut mask = 1;
        while mask < p && r & mask == 0 {
            if r + mask < p {
                let child = totals[r + mask].take().expect("child summed first");
                let (w, arrival) = wire[r + mask];
                pass.recv(r, r + mask, TAG_EXSCAN, w, arrival);
                let with_child = op(&total, &child);
                kept[r + mask] = Some(std::mem::replace(&mut total, with_child));
            }
            mask <<= 1;
        }
        if r > 0 {
            let w = words(&total);
            wire[r] = (w, pass.send(r, r - mask, w));
        }
        totals[r] = Some(total);
    }
    let total = totals[0].take().expect("rank 0 holds the total");
    let extra = extra(&total);
    // `totals` now carries each rank's prefix down.
    for r in 0..p {
        let low = if r == 0 {
            p.next_power_of_two()
        } else {
            r & r.wrapping_neg()
        };
        if r > 0 {
            let (w, arrival) = wire[r];
            pass.recv(r, r - low, TAG_EXSCAN, w, arrival);
        }
        let mut mask = low >> 1;
        while mask >= 1 {
            let child = r + mask;
            if child < p {
                let kept = kept[child].take().expect("kept on the way up");
                let down = match &totals[r] {
                    Some(before) => op(before, &kept),
                    None => kept,
                };
                let w = words(&down) + extra;
                wire[child] = (w, pass.send(r, child, w));
                totals[child] = Some(down);
            }
            mask >>= 1;
        }
    }
    (totals, total)
}

/// Bruck-style store-and-forward exchange: `ceil(log2 P)` rounds; in
/// round `k` every rank ships one combined message (all in-transit items
/// whose remaining relative distance has bit `k` set, plus its share) to
/// rank `(rank + 2^k) % P`, and joins the share it receives into its
/// own. A combined message charges one header word plus the words of its
/// runs plus `words` of the share. Before round `k` a rank's share joins
/// the `2^k` ranks ending at itself, so after the last round it joins
/// every rank.
///
/// A run from `s` to `d` at distance `δ = (d - s) mod P` sits, before
/// round `k`, at `s + (δ mod 2^k)` and is shipped in round `k` when bit `k`
/// of `δ` is set, so each message's words follow from the runs alone; the
/// items themselves go straight to their destinations, in source order and
/// stable within a source, which is where the rounds deliver them. They
/// are counted first and then moved, so each receiver's items and runs
/// fill one exact-capacity buffer each. Returns every rank's inbox, joined
/// share and drained outbox.
fn bruck_exchange<T, S>(
    pass: &mut Pass<'_>,
    mut sends: Vec<Outbox<T>>,
    mut shares: Vec<S>,
    words: impl Fn(&S) -> u64,
    join: impl Fn(&S, &S) -> S,
) -> Vec<(Inbox<T>, S, Outbox<T>)> {
    let p = pass.nranks();
    let rounds = p.next_power_of_two().trailing_zeros() as usize;
    // `load[k * P + r]`: the item words rank `r` ships in round `k`.
    let mut load = vec![0u64; rounds * p];
    // Per receiver: its items, its runs and the source of its last run.
    let mut count = vec![(0usize, 0usize, usize::MAX); p];
    for (src, out) in sends.iter().enumerate() {
        for &(dst, w, len) in &out.runs {
            let dist = (dst + p - src) % p;
            let mut bits = dist;
            while bits != 0 {
                let k = bits.trailing_zeros() as usize;
                load[k * p + (src + (dist & ((1 << k) - 1))) % p] += w;
                bits &= bits - 1;
            }
            let (items, runs, last) = &mut count[dst];
            *items += len;
            *runs += usize::from(*last != src);
            *last = src;
        }
    }
    let mut inboxes: Vec<Inbox<T>> = count
        .iter()
        .map(|&(items, runs, _)| Inbox {
            items: Vec::with_capacity(items),
            runs: Vec::with_capacity(runs),
        })
        .collect();
    for (src, out) in sends.iter_mut().enumerate() {
        let mut items = out.items.drain(..);
        for &(dst, _, len) in &out.runs {
            let inbox = &mut inboxes[dst];
            inbox.items.extend(items.by_ref().take(len));
            match inbox.runs.last_mut() {
                Some((s, n)) if *s == src => *n += len,
                _ => inbox.runs.push((src, len)),
            }
        }
        drop(items);
        out.runs.clear();
    }
    for k in 0..rounds {
        let step = 1 << k;
        let size: Vec<u64> = (0..p)
            .map(|r| 1 + load[k * p + r] + words(&shares[r]))
            .collect();
        exchange_round(pass, step, TAG_A2A + k as Tag, |r| size[r]);
        shares = (0..p)
            .map(|r| join(&shares[r], &shares[(r + p - step) % p]))
            .collect();
    }
    let out = inboxes.into_iter().zip(shares).zip(sends);
    out.map(|((inbox, share), sent)| (inbox, share, sent))
        .collect()
}

#[cfg(test)]
mod tests {
    use std::collections::{BTreeMap, BTreeSet};
    use std::sync::Arc;

    use super::{reference, Outbox};
    use crate::trace::{Call, Hop};
    use crate::{
        spmd, Comm, MachineModel, Perturbation, RankResult, Session, TraceEvent, TraceLog,
        COLLECTIVE_KINDS,
    };

    /// An outbox of one run per `(destination, words, value)` item.
    fn outbox<T>(items: Vec<(usize, u64, T)>) -> Outbox<T> {
        let mut out = Outbox::default();
        for (dst, words, v) in items {
            out.run(dst, words, [v]);
        }
        out
    }

    fn total_msgs<T>(results: &[RankResult<T>]) -> u64 {
        results.iter().map(|r| r.sent_messages).sum()
    }

    /// The replicated result of a collective is one allocation, not one per
    /// rank.
    #[test]
    fn replicated_results_share_one_allocation() {
        for p in [2usize, 7, 16] {
            let r = spmd(p, MachineModel::sp2(), |comm| {
                let root = comm.nranks() - 1;
                let b = comm.bcast(root, 8, (comm.rank() == root).then(|| vec![3u64; 8]));
                let g = comm.allgather(4, vec![comm.rank() as u64; 4]);
                let s = comm.allreduce(
                    |_| 2,
                    vec![1u64, comm.rank() as u64],
                    |a, b| vec![a[0] + b[0], a[1].max(b[1])],
                );
                (b, g, s)
            });
            let (b0, g0, s0) = &r[0].value;
            assert_eq!(**b0, vec![3u64; 8], "bcast p={p}");
            assert_eq!(g0.len(), p, "allgather p={p}");
            assert!(g0.iter().enumerate().all(|(i, v)| *v == vec![i as u64; 4]));
            assert_eq!(**s0, vec![p as u64, p as u64 - 1], "allreduce p={p}");
            for x in &r[1..] {
                let (b, g, s) = &x.value;
                assert!(Arc::ptr_eq(b, b0), "bcast p={p} rank {}", x.rank);
                assert!(Arc::ptr_eq(g, g0), "allgather p={p} rank {}", x.rank);
                assert!(Arc::ptr_eq(s, s0), "allreduce p={p} rank {}", x.rank);
            }
        }
    }

    /// The fields of one line of a message-level trace as `{rank}
    /// {event:?}` printed it: the rank, the event's name and its fields.
    fn parse_line(line: &str) -> (usize, &str, BTreeMap<&str, &str>) {
        let (rank, event) = line.split_once(' ').expect("rank, then event");
        let (name, fields) = event.split_once(" { ").expect("a struct variant");
        let fields = fields.strip_suffix(" }").expect("one line per event");
        let fields = fields
            .split(", ")
            .map(|f| f.split_once(": ").expect("key: value"));
        (rank.parse().expect("a rank"), name, fields.collect())
    }

    /// A message-level trace as it was recorded before a collective became
    /// one record — enter and exit markers around its sends and receives —
    /// with each send and receive a hop of its top-level call's record.
    fn fold_message_trace(text: &str, p: usize) -> Vec<Vec<TraceEvent>> {
        let mut out: Vec<Vec<TraceEvent>> = vec![Vec::new(); p];
        // Per rank: the open top-level call's start and hops.
        let mut open: Vec<Option<(f64, Vec<Hop>)>> = vec![None; p];
        for line in text.lines() {
            let (rank, name, f) = parse_line(line);
            let num = |key: &str| f[key].parse::<f64>().expect("an f64");
            let int = |key: &str| f[key].parse::<u64>().expect("an integer");
            let hop =
                |at: &str, send: bool| Hop::new(num(at), int("peer") as usize, send, int("words"));
            let ev = match name {
                "CollectiveEnter" | "CollectiveExit" if f["depth"] != "0" => continue,
                "CollectiveEnter" => {
                    open[rank] = Some((num("start"), Vec::new()));
                    continue;
                }
                "CollectiveExit" => {
                    let kind = COLLECTIVE_KINDS
                        .into_iter()
                        .find(|k| format!("{k:?}") == f["kind"]);
                    let (start, hops) = open[rank].take().expect("an open call");
                    TraceEvent::Call {
                        call: Call::Collective(kind.expect("a collective kind")),
                        start,
                        end: num("end"),
                        hops: hops.into(),
                    }
                }
                "Send" | "Recv" => {
                    let (_, hops) = open[rank].as_mut().expect("an open call");
                    hops.push(match name {
                        "Send" => hop("end", true),
                        _ => hop("completed", false),
                    });
                    continue;
                }
                "Compute" => TraceEvent::Compute {
                    start: num("start"),
                    end: num("end"),
                },
                "Sync" => TraceEvent::Sync {
                    start: num("start"),
                    end: num("end"),
                },
                other => panic!("unexpected event {other}"),
            };
            out[rank].push(ev);
        }
        out
    }

    /// Sharing the payload is invisible to the modeled machine: the trace of
    /// a session running the three replicating collectives with large
    /// declared sizes equals, record for record (every hop's peer,
    /// direction, words and clock bit), the message-level trace recorded
    /// when each forward deep-copied, folded into records. (The allreduce
    /// lines of that trace were re-recorded when the reduction moved into
    /// the tree; the allgather and bcast lines are the originals.)
    #[test]
    fn shared_payload_trace_matches_copying_golden() {
        let p = 7;
        let mut session = Session::new(p, MachineModel::sp2());
        let mut results = session.run(vec![(); p], |comm, ()| {
            comm.compute(10.0 * (comm.rank() + 1) as f64);
            comm.allgather(256, vec![comm.rank() as u64; 256]);
            comm.bcast(0, 4096, (comm.rank() == 0).then(|| vec![7u64; 4096]));
            comm.allreduce(
                |_| 64,
                vec![1u64; 64],
                |a, b| a.iter().zip(&b).map(|(x, y)| x + y).collect(),
            );
        });
        let print = |events: &[Vec<TraceEvent>]| -> Vec<String> {
            let ranks = events.iter().enumerate();
            ranks
                .flat_map(|(rank, events)| events.iter().map(move |ev| format!("{rank} {ev:?}")))
                .collect()
        };
        let lines = print(&TraceLog::from_results(&mut results).events);
        let golden = print(&fold_message_trace(
            include_str!("../testdata/collectives_p7.trace"),
            p,
        ));
        assert_eq!(lines.len(), golden.len(), "event count");
        for (i, (got, want)) in lines.iter().zip(&golden).enumerate() {
            assert_eq!(got, want, "event {i}");
        }
    }

    #[test]
    fn gatherv_collects_variable_size_payloads() {
        let results = spmd(4, MachineModel::sp2(), |comm| {
            // Rank r contributes r+1 words.
            let mine: Vec<u64> = vec![comm.rank() as u64; comm.rank() + 1];
            comm.gather(0, mine.len() as u64, mine)
        });
        let root = results[0].value.as_ref().unwrap();
        assert_eq!(root.len(), 4);
        for (r, piece) in root.iter().enumerate() {
            assert_eq!(piece, &vec![r as u64; r + 1], "rank {r} piece");
        }
        for r in &results[1..] {
            assert!(r.value.is_none(), "non-root rank got a gather result");
        }
        // Leaves charge exactly their own payload; interior tree ranks also
        // forward their subtree. For P=4, root 0: rank 1 and rank 3 are
        // leaves (2 and 4 words); rank 2 forwards rank 3's entry on top of
        // its own (3 + 4 = 7 words).
        assert_eq!(results[1].sent_words, 2);
        assert_eq!(results[2].sent_words, 7);
        assert_eq!(results[3].sent_words, 4);
    }

    /// The send hops of a collective record.
    fn send_hops(ev: &TraceEvent) -> impl Iterator<Item = &Hop> {
        let hops: &[Hop] = match ev {
            TraceEvent::Call {
                call: Call::Collective(_),
                hops,
                ..
            } => hops,
            _ => &[],
        };
        hops.iter().filter(|h| h.is_send())
    }

    /// Every message rank bodies sent in collectives, as `(sender, peer,
    /// words)`, from a finished run.
    fn sends<T>(results: &[RankResult<T>]) -> Vec<(usize, usize, u64)> {
        let mut out = Vec::new();
        for r in results {
            for ev in &r.events {
                out.extend(send_hops(ev).map(|h| (r.rank, h.peer(), h.words())));
            }
        }
        out
    }

    /// Ranks in the binomial subtree of virtual rank `v > 0`: `[v, v +
    /// lowbit(v))`, clipped to `p`.
    fn subtree(v: usize, p: usize) -> u64 {
        (v & v.wrapping_neg()).min(p - v) as u64
    }

    /// Sizer of the growing payload the message-size checks reduce: a list
    /// of ranks under concatenation, so a message's length says whose
    /// values it folds — parents declare strictly more than their leaves.
    fn list_words<L: AsRef<[u64]>>(v: &L) -> u64 {
        100 + v.as_ref().len() as u64
    }

    fn concat(mut a: Vec<u64>, b: Vec<u64>) -> Vec<u64> {
        a.extend(b);
        a
    }

    /// Every tree collective's *total* message count is exact — `P-1` for
    /// one-way trees, `2(P-1)` for the two-sweep combos — across powers of
    /// two, non-powers of two, and non-zero roots; and every message of the
    /// reducing ones (`reduce`, `allreduce`, `exscan`) declares the sizer
    /// applied to the value that message carries: a subtree's fold on the
    /// way up, the result or the receiver's prefix on the way down.
    #[test]
    fn tree_collectives_use_exact_message_counts() {
        for &p in &[1usize, 2, 3, 5, 7, 8, 64, 100, 256] {
            for root in [0, p - 1, p / 2] {
                // bcast: P-1 messages, every rank sees the value.
                let r = spmd(p, MachineModel::sp2(), move |comm| {
                    comm.bcast::<u64>(root, 1, (comm.rank() == root).then_some(root as u64))
                });
                assert!(
                    r.iter().all(|x| *x.value == root as u64),
                    "bcast p={p} root={root}"
                );
                assert_eq!(r[root].sent_messages > 0, p > 1);
                assert_eq!(total_msgs(&r), (p - 1) as u64, "bcast p={p} root={root}");

                // reduce: P-1 messages, root-only result; virtual rank v
                // ships the fold of its subtree.
                let r = spmd(p, MachineModel::sp2(), move |comm| {
                    comm.reduce(root, list_words, vec![comm.rank() as u64], concat)
                });
                let expect: Vec<u64> = (0..p).map(|k| ((root + k) % p) as u64).collect();
                assert_eq!(r[root].value, Some(expect), "reduce p={p} root={root}");
                assert!(r.iter().all(|x| x.rank == root || x.value.is_none()));
                let sent = sends(&r);
                assert_eq!(sent.len(), p - 1, "reduce p={p} root={root}");
                for (from, _, words) in sent {
                    let v = (from + p - root) % p;
                    assert_eq!(
                        words,
                        100 + subtree(v, p),
                        "reduce p={p} root={root} from {from}"
                    );
                }

                // gather: P-1 messages, rank-ordered vector on the root.
                let r = spmd(p, MachineModel::sp2(), move |comm| {
                    comm.gather(root, 1, comm.rank() as u64)
                });
                let gathered = r[root].value.as_ref().unwrap();
                assert_eq!(gathered, &(0..p as u64).collect::<Vec<_>>());
                assert_eq!(total_msgs(&r), (p - 1) as u64, "gather p={p} root={root}");

                // scatter: P-1 messages, every rank gets its own block.
                let r = spmd(p, MachineModel::sp2(), move |comm| {
                    let blocks = (comm.rank() == root)
                        .then(|| (0..comm.nranks() as u64).map(|d| (1, 10 * d)).collect());
                    comm.scatterv(root, blocks)
                });
                assert!(
                    r.iter().all(|x| x.value == 10 * x.rank as u64),
                    "scatter p={p}"
                );
                assert_eq!(total_msgs(&r), (p - 1) as u64, "scatter p={p} root={root}");
            }

            // allreduce: reduce + bcast = 2(P-1) messages, all ranks agree;
            // up the tree a subtree's fold, down the tree the whole result.
            let r = spmd(p, MachineModel::sp2(), |comm| {
                comm.allreduce(list_words, vec![comm.rank() as u64], concat)
            });
            let all: Vec<u64> = (0..p as u64).collect();
            assert!(r.iter().all(|x| *x.value == all), "allreduce p={p}");
            let sent = sends(&r);
            assert_eq!(sent.len(), 2 * (p - 1), "allreduce p={p}");
            for (from, to, words) in sent {
                let carried = if to < from {
                    subtree(from, p)
                } else {
                    p as u64
                };
                assert_eq!(words, 100 + carried, "allreduce p={p} {from}->{to}");
            }

            // exscan: up-sweep + down-sweep = 2(P-1) messages; up a
            // subtree's total, down the receiver's own prefix.
            let r = spmd(p, MachineModel::sp2(), |comm| {
                comm.exscan(list_words, vec![comm.rank() as u64], |a, b| {
                    concat(a.clone(), b.clone())
                })
            });
            for x in &r {
                let below = (x.rank > 0).then(|| (0..x.rank as u64).collect::<Vec<_>>());
                assert_eq!(x.value, below, "exscan p={p} rank={}", x.rank);
            }
            let sent = sends(&r);
            assert_eq!(sent.len(), 2 * (p - 1), "exscan p={p}");
            for (from, to, words) in sent {
                let carried = if to < from {
                    subtree(from, p)
                } else {
                    to as u64
                };
                assert_eq!(words, 100 + carried, "exscan p={p} {from}->{to}");
            }

            // exscan_total: the same messages, each down message also
            // carrying the total.
            let r = spmd(p, MachineModel::sp2(), |comm| {
                comm.exscan_total(list_words, vec![comm.rank() as u64], |a, b| {
                    concat(a.clone(), b.clone())
                })
            });
            for x in &r {
                let below = (x.rank > 0).then(|| (0..x.rank as u64).collect::<Vec<_>>());
                assert_eq!(x.value.0, below, "exscan_total p={p} rank={}", x.rank);
                assert_eq!(x.value.1, all, "exscan_total p={p} rank={}", x.rank);
            }
            let sent = sends(&r);
            assert_eq!(sent.len(), 2 * (p - 1), "exscan_total p={p}");
            for (from, to, words) in sent {
                let carried = if to < from {
                    subtree(from, p)
                } else {
                    to as u64 + 100 + p as u64
                };
                assert_eq!(words, 100 + carried, "exscan_total p={p} {from}->{to}");
            }

            // allgather: gather + bcast skeleton, raw entries on the wire.
            let r = spmd(p, MachineModel::sp2(), |comm| {
                comm.allgather(1, comm.rank() as u64)
            });
            assert!(r
                .iter()
                .all(|x| *x.value == (0..p as u64).collect::<Vec<_>>()));
            assert_eq!(total_msgs(&r), 2 * (p - 1) as u64, "allgather p={p}");
        }
    }

    /// `scatterv` with uneven and empty blocks, at every P up to 17 and from
    /// three roots: `P-1` messages, the one to virtual rank `v` declaring
    /// the summed sizes of the blocks of `v`'s subtree `[v, v + lowbit(v))`,
    /// and every rank gets its own block.
    #[test]
    fn scatterv_charges_each_subtree_its_blocks() {
        // Rank d's block: `(d·7) mod 5` words (zero for d ∈ {0, 5, 10, 15}).
        let words_of = |d: usize| (d * 7 % 5) as u64;
        for p in 1..=17usize {
            for root in [0, p - 1, p / 2] {
                let r = spmd(p, MachineModel::sp2(), move |comm| {
                    let blocks = (comm.rank() == root).then(|| {
                        (0..comm.nranks())
                            .map(|d| (words_of(d), vec![d as u64; words_of(d) as usize]))
                            .collect()
                    });
                    comm.scatterv(root, blocks)
                });
                for x in &r {
                    let own = vec![x.rank as u64; words_of(x.rank) as usize];
                    assert_eq!(x.value, own, "p={p} root={root} rank={}", x.rank);
                }
                let sent = sends(&r);
                assert_eq!(sent.len(), p - 1, "p={p} root={root}");
                for (from, to, words) in sent {
                    let v = (to + p - root) % p;
                    let span = v..v + subtree(v, p) as usize;
                    let carried: u64 = span.map(|k| words_of((k + root) % p)).sum();
                    assert_eq!(words, carried, "p={p} root={root} {from}->{to}");
                }
            }
        }
    }

    /// Joins two space-separated rank lists: associative, not commutative,
    /// so the result spells out the order values were combined in.
    fn join(a: String, b: String) -> String {
        format!("{a} {b}")
    }

    /// All `p` ranks, space-separated, starting at `first` and wrapping.
    fn ranks_from(first: usize, p: usize) -> String {
        let names: Vec<String> = (0..p).map(|k| ((first + k) % p).to_string()).collect();
        names.join(" ")
    }

    /// The in-tree fold combines values in ascending virtual-rank order
    /// from the root — whatever the tree shape — and `allreduce` hands that
    /// one value to every rank.
    #[test]
    fn reduce_folds_in_ascending_virtual_rank_order() {
        for &p in &[1usize, 2, 4, 7, 13, 64] {
            for root in [0, p / 2, p - 1] {
                let r = spmd(p, MachineModel::sp2(), move |comm| {
                    comm.reduce(root, |_| 1, comm.rank().to_string(), join)
                });
                let expect = ranks_from(root, p);
                assert_eq!(r[root].value.as_ref(), Some(&expect), "p={p} root={root}");
            }
            let r = spmd(p, MachineModel::sp2(), |comm| {
                comm.allreduce(|_| 1, comm.rank().to_string(), join)
            });
            assert!(
                r.iter().all(|x| *x.value == ranks_from(0, p)),
                "allreduce p={p}"
            );
        }
    }

    /// DESIGN.md's bound, in the form it states: with all ranks entering at
    /// the same virtual time and `W` the largest message the call declares,
    /// every rank has left an `allreduce` or `exscan` within
    /// `2·ceil(log2 P)·(t_setup + W·t_word)`, and no rank has sent more than
    /// `ceil(log2 P)·W` words — for fixed-size values (1 and `P` words) and
    /// for one that grows on its way through the tree.
    #[test]
    fn reducing_collectives_stay_within_the_log_p_bound() {
        let model = MachineModel::sp2();
        for p in [64usize, 256, 1024] {
            let hops = p.next_power_of_two().trailing_zeros() as u64;
            let check = |what: &str, r: &[RankResult<f64>]| {
                let w = sends(r).iter().map(|&(_, _, words)| words).max().unwrap();
                let bound = (2 * hops) as f64 * model.transfer_time(w) * (1.0 + 1e-12);
                let latest = r.iter().map(|x| x.value).fold(0.0, f64::max);
                assert!(
                    latest <= bound,
                    "{what} p={p} W={w}: {latest} s > bound {bound} s"
                );
                let most = r.iter().map(|x| x.sent_words).max().unwrap();
                assert!(most <= hops * w, "{what} p={p} W={w}: {most} words sent");
            };
            for w in [1u64, p as u64] {
                let r = spmd(p, model, move |comm| {
                    comm.allreduce(|_| w, comm.rank() as u64, u64::max);
                    comm.now()
                });
                check("allreduce", &r);
                let r = spmd(p, model, move |comm| {
                    comm.exscan(|_| w, comm.rank() as u64, |a, b| *a.max(b));
                    comm.now()
                });
                check("exscan", &r);
            }
            let r = spmd(p, model, |comm| {
                comm.allreduce(list_words, vec![comm.rank() as u64], concat);
                comm.now()
            });
            check("growing allreduce", &r);
            let r = spmd(p, model, |comm| {
                comm.exscan(list_words, vec![comm.rank() as u64], |a, b| {
                    concat(a.clone(), b.clone())
                });
                comm.now()
            });
            check("growing exscan", &r);
        }
    }

    #[test]
    fn bruck_alltoallv_is_log_rounds_and_complete() {
        for &p in &[2usize, 3, 5, 8, 13, 64, 100] {
            let rounds = p.next_power_of_two().trailing_zeros() as u64;
            // Dense: every rank sends a distinct value to every rank.
            let r = spmd(p, MachineModel::sp2(), |comm| {
                let items = (0..comm.nranks())
                    .map(|d| (1, (comm.rank() * 1000 + d) as u64))
                    .collect();
                comm.alltoallv(items)
            });
            for x in &r {
                let got = &x.value;
                assert_eq!(got.len(), p);
                for (s, v) in got.iter().enumerate() {
                    assert_eq!(
                        *v,
                        (s * 1000 + x.rank) as u64,
                        "p={p} dst={} src={s}",
                        x.rank
                    );
                }
            }
            // One combined message per rank per round, even when idle.
            assert_eq!(total_msgs(&r), p as u64 * rounds, "dense p={p}");
        }
    }

    #[test]
    fn sparse_alltoallv_routes_arbitrary_patterns() {
        for &p in &[2usize, 5, 8, 100] {
            let r = spmd(p, MachineModel::sp2(), |comm| {
                let rank = comm.rank();
                let p = comm.nranks();
                // Each rank sends two items to its ring successor (including
                // possibly itself when p == 1) and one to rank 0.
                let succ = (rank + 1) % p;
                let items = vec![
                    (succ, 2, (rank, 'a')),
                    (succ, 1, (rank, 'b')),
                    (0, 1, (rank, 'c')),
                ];
                comm.alltoallv_sparse(&mut outbox(items))
            });
            for x in &r {
                let got: Vec<(usize, (usize, char))> =
                    x.value.iter().map(|(s, &v)| (s, v)).collect();
                let pred = (x.rank + p - 1) % p;
                let from_pred: Vec<_> = got
                    .iter()
                    .filter(|(s, _)| *s == pred)
                    .map(|(_, v)| *v)
                    .collect();
                // Stable order: items from one source arrive in send order.
                // Rank 0's predecessor also routes its 'c' here.
                let mut expect = vec![(pred, 'a'), (pred, 'b')];
                if x.rank == 0 {
                    expect.push((pred, 'c'));
                    // Rank 0 receives a 'c' from every rank (its own for free).
                    let cs = got.iter().filter(|(_, v)| v.1 == 'c').count();
                    assert_eq!(cs, p, "rank 0 'c' count, p={p}");
                }
                assert_eq!(from_pred, expect, "p={p} rank={}", x.rank);
                assert!(got.windows(2).all(|w| w[0].0 <= w[1].0), "sorted by source");
            }
            let rounds = p.next_power_of_two().trailing_zeros() as u64;
            assert_eq!(total_msgs(&r), p as u64 * rounds, "sparse p={p}");
        }
    }

    /// The direct exchange declares every non-self payload word exactly
    /// once, on one message per (source, destination) pair whose size is the
    /// sum of that pair's items, behind the `P·ceil(log2 P)` one-word
    /// notices of an empty Bruck exchange.
    #[test]
    fn direct_exchange_declares_each_payload_word_once() {
        let items = |rank: usize, p: usize| {
            vec![
                ((rank + 1) % p, 5, 'a'),
                ((rank + 1) % p, 7, 'b'),
                ((rank * 3 + 2) % p, 11, 'c'),
                (rank, 13, 's'),
                (0, 2, 'z'),
            ]
        };
        for &p in &[1usize, 2, 3, 5, 8, 13, 64] {
            let rounds = p.next_power_of_two().trailing_zeros() as usize;
            let r = spmd(p, MachineModel::sp2(), |comm| {
                comm.alltoallv_direct(items(comm.rank(), p))
            });
            let mut pairs: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            for rank in 0..p {
                for (dst, words, _) in items(rank, p) {
                    if dst != rank {
                        *pairs.entry((rank, dst)).or_default() += words;
                    }
                }
            }
            let mut direct: BTreeMap<(usize, usize), u64> = BTreeMap::new();
            let mut notices = 0;
            for x in &r {
                // A rank sends its notice of each round first, then its
                // direct messages.
                for (i, h) in x.events.iter().flat_map(send_hops).enumerate() {
                    if i >= rounds {
                        let old = direct.insert((x.rank, h.peer()), h.words());
                        assert!(
                            old.is_none(),
                            "p={p}: two messages {} -> {}",
                            x.rank,
                            h.peer()
                        );
                    } else {
                        assert_eq!(h.words(), 1, "p={p}: a notice is one header word");
                        notices += 1;
                    }
                }
            }
            assert_eq!(
                direct, pairs,
                "p={p}: one message per pair, its items' words"
            );
            assert_eq!(notices, p * rounds, "p={p}: notices");
            assert_eq!(
                total_msgs(&r),
                (p * rounds + pairs.len()) as u64,
                "p={p}: messages"
            );
        }
    }

    /// The joined exchange is the plain one plus a share: the same items
    /// reach the same ranks over the same `P·ceil(log2 P)` messages (same
    /// peers, same order), each declaring the plain message's `1 + items`
    /// words plus `words` of the share it carries; and every rank ends with
    /// every rank's share — at non-powers of two too, where the rounds
    /// overlap and some share is heard twice.
    #[test]
    fn joined_exchange_routes_like_the_plain_one_and_joins_every_share() {
        let items = |comm: &Comm| {
            let (rank, p) = (comm.rank(), comm.nranks());
            vec![
                ((rank + 1) % p, 2, (rank, 'a')),
                ((rank * 7 + 3) % p, 3, (rank, 'b')),
                (0, 1, (rank, 'c')),
            ]
        };
        // A share is a set of ranks at 1000 words per member, so a message's
        // size says how many ranks its share covers.
        let union = |a: &BTreeSet<usize>, b: &BTreeSet<usize>| a | b;
        for &p in &[1usize, 2, 3, 5, 7, 8, 13, 64, 100] {
            let rounds = p.next_power_of_two().trailing_zeros() as usize;
            let plain = spmd(p, MachineModel::sp2(), |comm| {
                comm.alltoallv_sparse(&mut outbox(items(comm)))
            });
            let joined = spmd(p, MachineModel::sp2(), |comm| {
                let mine = BTreeSet::from([comm.rank()]);
                let mut out = outbox(items(comm));
                comm.alltoallv_sparse_join(&mut out, mine, |s| 1000 * s.len() as u64, union)
            });
            let everyone: BTreeSet<usize> = (0..p).collect();
            for (a, b) in plain.iter().zip(&joined) {
                assert_eq!(a.value, b.value.0, "p={p} rank {}: routed items", a.rank);
                assert_eq!(b.value.1, everyone, "p={p} rank {}: joined share", a.rank);
            }
            let (plain, joined) = (sends(&plain), sends(&joined));
            assert_eq!(joined.len(), p * rounds, "p={p}: messages");
            assert_eq!(plain.len(), joined.len(), "p={p}: messages");
            // A rank sends once per round, in round order; before round k
            // its share covers the 2^k ranks ending at itself.
            for (i, (a, b)) in plain.iter().zip(&joined).enumerate() {
                let round = i % rounds;
                assert_eq!((a.0, a.1), (b.0, b.1), "p={p} message {i}: peers");
                assert_eq!(b.2, a.2 + (1000 << round), "p={p} message {i}: words");
            }
        }
    }

    /// Each of the 13 collectives, called once at P = 64, leaves one trace
    /// event per rank: its record, whose hops are the rank's ends of the
    /// call's messages, 16 bytes each, two per message. A collective that
    /// recorded its messages as events of their own again fails the count.
    #[test]
    fn a_collective_call_leaves_one_record_per_rank() {
        let p = 64;
        let r = spmd(p, MachineModel::sp2(), |comm| {
            let (rank, p) = (comm.rank(), comm.nranks());
            let items = || vec![((rank + 1) % p, 2, rank), ((rank * 7 + 3) % p, 3, rank)];
            comm.barrier();
            comm.bcast(1, 4, (rank == 1).then_some(rank));
            comm.gather(2, 1, rank);
            comm.scatterv(3, (rank == 3).then(|| vec![(1, 0u8); p]));
            comm.allgather(1, rank);
            comm.allreduce(|_| 1, rank, usize::max);
            comm.exscan(|_| 1, rank, |a, b| a + b);
            comm.exscan_total(|_| 1, rank, |a, b| a + b);
            comm.reduce(4, |_| 1, rank, usize::max);
            comm.alltoallv((0..p).map(|d| (1, d)).collect());
            comm.alltoallv_sparse(&mut outbox(items()));
            comm.alltoallv_sparse_join(&mut outbox(items()), rank, |_| 1, |a, b| *a.max(b));
            comm.alltoallv_direct(items());
        });
        for x in &r {
            // The step-boundary sync aside.
            let events = x
                .events
                .iter()
                .filter(|ev| !matches!(ev, TraceEvent::Sync { .. }));
            assert!(
                events.clone().all(|ev| matches!(
                    ev,
                    TraceEvent::Call {
                        call: Call::Collective(_),
                        ..
                    }
                )),
                "rank {}: {:?}",
                x.rank,
                x.events
            );
            assert_eq!(events.count(), 13, "rank {}", x.rank);
        }
        let hops: usize = (r.iter().flat_map(|x| &x.events))
            .map(|ev| match ev {
                TraceEvent::Call { hops, .. } => hops.len(),
                _ => 0,
            })
            .sum();
        assert_eq!(hops as u64, 2 * total_msgs(&r));
        assert_eq!(hops, 5_604);
        assert_eq!(std::mem::size_of::<Hop>(), 16);
        assert_eq!(std::mem::size_of::<TraceEvent>(), 48);
    }

    /// Calls the collective on the host pass, or on the message-by-message
    /// reference when `$reference` holds.
    macro_rules! call {
        ($reference:expr, $comm:ident . $f:ident ( $($arg:expr),* $(,)? )) => {
            if $reference {
                reference::$f($comm, $($arg),*)
            } else {
                $comm.$f($($arg),*)
            }
        };
    }

    /// Every collective, each entered at a rank-dependent clock: the rooted
    /// ones from roots 0, P-1 and P/2, the reducing ones on the growing
    /// `list_words` payload, the exchanges with mixed self, repeated and
    /// far items. Returns every result, printed.
    fn every_collective(comm: &mut Comm, reference: bool) -> Vec<String> {
        let (rank, p) = (comm.rank(), comm.nranks());
        let mut out = Vec::new();
        let mut call = 0;
        let mut stagger = |comm: &mut Comm| {
            call += 1;
            comm.compute(((rank * 7 + call * 3) % 11) as f64 * 40.0);
        };
        stagger(comm);
        call!(reference, comm.barrier());
        for root in [0, p - 1, p / 2] {
            stagger(comm);
            let value = (rank == root).then(|| vec![root as u64; 3]);
            let got = call!(reference, comm.bcast(root, 3 + rank as u64 % 2, value));
            out.push(format!("{got:?}"));
            stagger(comm);
            let got = call!(reference, comm.gather(root, 1 + rank as u64 % 3, rank));
            out.push(format!("{got:?}"));
            stagger(comm);
            let blocks = (rank == root).then(|| (0..p).map(|d| ((d * 7 % 5) as u64, d)).collect());
            let got = call!(reference, comm.scatterv(root, blocks));
            out.push(format!("{got:?}"));
            stagger(comm);
            let got = call!(
                reference,
                comm.reduce(root, list_words, vec![rank as u64], concat)
            );
            out.push(format!("{got:?}"));
        }
        stagger(comm);
        let got = call!(reference, comm.allgather(2 + rank as u64 % 2, rank));
        out.push(format!("{got:?}"));
        stagger(comm);
        let got = call!(
            reference,
            comm.allreduce(list_words, vec![rank as u64], concat)
        );
        out.push(format!("{got:?}"));
        let cat = |a: &Vec<u64>, b: &Vec<u64>| concat(a.clone(), b.clone());
        stagger(comm);
        let got = call!(reference, comm.exscan(list_words, vec![rank as u64], cat));
        out.push(format!("{got:?}"));
        stagger(comm);
        let got = call!(
            reference,
            comm.exscan_total(list_words, vec![rank as u64], cat)
        );
        out.push(format!("{got:?}"));
        stagger(comm);
        let dense = (0..p)
            .map(|d| (1 + ((rank + d) % 3) as u64, rank * p + d))
            .collect();
        let got = call!(reference, comm.alltoallv(dense));
        out.push(format!("{got:?}"));
        let items = || {
            vec![
                ((rank + 1) % p, 2, (rank, 'a')),
                (rank, 9, (rank, 's')),
                ((rank * 7 + 3) % p, 3, (rank, 'b')),
                ((rank + 1) % p, 4, (rank, 'c')),
                (0, 1, (rank, 'z')),
            ]
        };
        stagger(comm);
        let got = call!(reference, comm.alltoallv_sparse(&mut outbox(items())));
        out.push(format!("{got:?}"));
        stagger(comm);
        let union = |a: &BTreeSet<usize>, b: &BTreeSet<usize>| a | b;
        let share = BTreeSet::from([rank]);
        let got = call!(
            reference,
            comm.alltoallv_sparse_join(&mut outbox(items()), share, |s| 3 * s.len() as u64, union)
        );
        out.push(format!("{got:?}"));
        stagger(comm);
        let got = call!(reference, comm.alltoallv_direct(items()));
        out.push(format!("{got:?}"));
        stagger(comm);
        call!(reference, comm.barrier());
        out
    }

    /// Runs `every_collective` for two steps on the host passes and on the
    /// reference, each on a session from `session`, and requires the same
    /// results, counters, clocks and trace — every event, and every record
    /// against the reference's one-hop mail records joined into one, down
    /// to each hop's peer, direction, words and f64 bit (so also the
    /// messages and words each record sent, which are its send hops').
    fn assert_matches_reference(p: usize, session: impl Fn() -> Session) {
        let run = |reference: bool| {
            let mut sess = session();
            let mut results = Vec::new();
            for _ in 0..2 {
                results.extend(sess.run(vec![(); p], |comm, ()| every_collective(comm, reference)));
            }
            results
        };
        let (host, message) = (run(false), run(true));
        for (a, b) in host.iter().zip(&message) {
            let at = format!("p={p} rank {}", a.rank);
            assert_eq!(a.value, b.value, "{at}: results");
            assert_eq!(a.elapsed.to_bits(), b.elapsed.to_bits(), "{at}: clock");
            assert_eq!(a.sent_messages, b.sent_messages, "{at}: messages");
            assert_eq!(a.sent_words, b.sent_words, "{at}: words");
            assert_eq!(a.events.len(), b.events.len(), "{at}: event count");
            for (i, (x, y)) in a.events.iter().zip(&b.events).enumerate() {
                assert_eq!(format!("{x:?}"), format!("{y:?}"), "{at}: event {i}");
            }
        }
    }

    /// A perturbed machine: every link jittered, and one rank computing at
    /// half speed.
    fn chaos_session(p: usize) -> Session {
        let perturb = Perturbation {
            link_jitter: 0.3,
            seed: 17,
            ..Perturbation::slowdown(p, p / 3, 2.0)
        };
        Session::with_chaos(p, MachineModel::sp2(), &perturb)
    }

    /// Every collective's host pass records what the message-by-message
    /// execution records, on the plain machine and under chaos.
    #[test]
    fn host_executed_collectives_match_the_message_reference() {
        for p in [1usize, 2, 3, 5, 7, 8, 13, 64, 100] {
            assert_matches_reference(p, || Session::new(p, MachineModel::sp2()));
            assert_matches_reference(p, || chaos_session(p));
        }
    }

    /// The largest P an end-to-end workload runs (`weak_p2048`); ignored in
    /// tier-1 for time, run in release by CI.
    #[test]
    #[ignore]
    fn host_executed_collectives_match_the_message_reference_at_p2048() {
        let p = 2048;
        assert_matches_reference(p, || Session::new(p, MachineModel::sp2()));
        assert_matches_reference(p, || chaos_session(p));
    }
}
