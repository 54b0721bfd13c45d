//! The message-by-message collectives the host passes replaced, kept as
//! the reference the differential test holds every pass to: each rank runs
//! its own side of the schedule through [`Comm::send`] and [`Comm::recv`],
//! whose one-hop records each top-level call joins, in order, into the one
//! record a host pass leaves.

use std::collections::BTreeMap;
use std::sync::Arc;

use super::{
    Inbox, Outbox, TAG_A2A, TAG_BARRIER, TAG_BCAST, TAG_DIRECT, TAG_EXSCAN, TAG_GATHER, TAG_REDUCE,
    TAG_SCATTER,
};
use crate::comm::{Comm, Tag};
use crate::trace::CollectiveKind;

pub(crate) fn barrier(comm: &mut Comm) {
    comm.ledger.enter();
    let p = comm.nranks();
    let rank = comm.rank();
    let mut step = 1;
    while step < p {
        let to = (rank + step) % p;
        let from = (rank + p - step) % p;
        comm.send(to, TAG_BARRIER, 1, ());
        comm.recv::<()>(from, TAG_BARRIER);
        step <<= 1;
    }
    comm.ledger.exit(CollectiveKind::Barrier);
}

pub(crate) fn bcast<T: Send + Sync + 'static>(
    comm: &mut Comm,
    root: usize,
    words: u64,
    value: Option<T>,
) -> Arc<T> {
    tree_bcast(comm, root, |_| words, value)
}

fn tree_bcast<T: Send + Sync + 'static>(
    comm: &mut Comm,
    root: usize,
    words: impl Fn(&T) -> u64,
    value: Option<T>,
) -> Arc<T> {
    comm.ledger.enter();
    let p = comm.nranks();
    let vrank = (comm.rank() + p - root) % p;
    let mut have: Option<Arc<T>> = if vrank == 0 {
        Some(Arc::new(value.expect("bcast root must supply a value")))
    } else {
        None
    };
    let mut mask = 1;
    // Find the round in which this rank receives.
    while mask < p {
        if vrank >= mask && vrank < 2 * mask && have.is_none() {
            let src = ((vrank - mask) + root) % p;
            have = Some(comm.recv::<Arc<T>>(src, TAG_BCAST));
        }
        if vrank < mask {
            let dst_v = vrank + mask;
            if dst_v < p {
                let dst = (dst_v + root) % p;
                let v = have.as_ref().expect("bcast internal: no value to forward");
                comm.send(dst, TAG_BCAST, words(v), Arc::clone(v));
            }
        }
        mask <<= 1;
    }
    let out = have.expect("bcast: value never arrived");
    comm.ledger.exit(CollectiveKind::Bcast);
    out
}

fn tree_gather<T: Send + 'static>(
    comm: &mut Comm,
    root: usize,
    my_words: u64,
    value: T,
    tag: Tag,
) -> Option<Vec<(usize, u64, T)>> {
    let p = comm.nranks();
    let rank = comm.rank();
    let vrank = (rank + p - root) % p;
    let mut entries: Vec<(usize, u64, T)> = vec![(rank, my_words, value)];
    let mut mask = 1;
    while mask < p {
        if vrank & mask != 0 {
            // Lowest set bit of vrank: forward the subtree to the parent.
            let dst = ((vrank - mask) + root) % p;
            let words: u64 = entries.iter().map(|e| e.1).sum();
            comm.send(dst, tag, words, entries);
            return None;
        }
        if vrank + mask < p {
            let src = ((vrank + mask) + root) % p;
            let mut got: Vec<(usize, u64, T)> = comm.recv(src, tag);
            entries.append(&mut got);
        }
        mask <<= 1;
    }
    Some(entries)
}

pub(crate) fn gather<T: Send + 'static>(
    comm: &mut Comm,
    root: usize,
    my_words: u64,
    value: T,
) -> Option<Vec<T>> {
    comm.ledger.enter();
    let p = comm.nranks();
    let out = tree_gather(comm, root, my_words, value, TAG_GATHER).map(|mut entries| {
        entries.sort_unstable_by_key(|e| e.0);
        debug_assert_eq!(entries.len(), p, "gather: missing contributions");
        entries.into_iter().map(|(_, _, v)| v).collect()
    });
    comm.ledger.exit(CollectiveKind::Gather);
    out
}

pub(crate) fn scatterv<T: Send + 'static>(
    comm: &mut Comm,
    root: usize,
    blocks: Option<Vec<(u64, T)>>,
) -> T {
    comm.ledger.enter();
    let p = comm.nranks();
    let rank = comm.rank();
    let vrank = (rank + p - root) % p;
    // Blocks this rank currently holds, as (vrank, words, value), sorted
    // by vrank.
    let mut held: Vec<(usize, u64, T)> = if rank == root {
        let blocks = blocks.expect("scatter root must supply values");
        assert_eq!(blocks.len(), p, "scatter needs one value per rank");
        let mut held: Vec<(usize, u64, T)> = blocks
            .into_iter()
            .enumerate()
            .map(|(d, (words, v))| ((d + p - root) % p, words, v))
            .collect();
        held.sort_unstable_by_key(|b| b.0);
        held
    } else {
        Vec::new()
    };
    let mut top = 1;
    while top < p {
        top <<= 1;
    }
    let mut mask = top >> 1;
    while mask >= 1 {
        if vrank.is_multiple_of(2 * mask) {
            // Holder: hand the upper half of the block range to vrank+mask.
            let dst_v = vrank + mask;
            if dst_v < p {
                let split = held.partition_point(|b| b.0 < dst_v);
                let ship = held.split_off(split);
                let dst = (dst_v + root) % p;
                let words = ship.iter().map(|b| b.1).sum();
                comm.send(dst, TAG_SCATTER, words, ship);
            }
        } else if vrank % (2 * mask) == mask {
            let src = ((vrank - mask) + root) % p;
            held = comm.recv(src, TAG_SCATTER);
        }
        mask >>= 1;
    }
    debug_assert_eq!(held.len(), 1, "scatter: block range not fully split");
    let (vr, _, out) = held.pop().expect("scatter: own block never arrived");
    debug_assert_eq!(vr, vrank, "scatter: wrong block delivered");
    comm.ledger.exit(CollectiveKind::Scatter);
    out
}

pub(crate) fn allgather<T: Send + Sync + 'static>(
    comm: &mut Comm,
    words_each: u64,
    value: T,
) -> Arc<Vec<T>> {
    comm.ledger.enter();
    let gathered = gather(comm, 0, words_each, value);
    let total_words = words_each * comm.nranks() as u64;
    let out = bcast(comm, 0, total_words, gathered);
    comm.ledger.exit(CollectiveKind::Allgather);
    out
}

pub(crate) fn allreduce<T, F>(comm: &mut Comm, words: impl Fn(&T) -> u64, value: T, op: F) -> Arc<T>
where
    T: Send + Sync + 'static,
    F: Fn(T, T) -> T,
{
    comm.ledger.enter();
    let reduced = reduce(comm, 0, &words, value, op);
    let out = tree_bcast(comm, 0, &words, reduced);
    comm.ledger.exit(CollectiveKind::Allreduce);
    out
}

pub(crate) fn exscan<T, F>(comm: &mut Comm, words: impl Fn(&T) -> u64, value: T, op: F) -> Option<T>
where
    T: Send + 'static,
    F: Fn(&T, &T) -> T,
{
    comm.ledger.enter();
    let p = comm.nranks();
    let rank = comm.rank();
    // `below[k]` folds ranks `rank .. rank + 2^k`: what precedes child
    // `rank + 2^k` inside this subtree. Children are `k = 0, 1, …` while
    // `rank + 2^k < p`, so the vector index is the child index.
    let mut below: Vec<T> = Vec::new();
    let mut total = value;
    let mut mask = 1;
    while mask < p && rank & mask == 0 {
        if rank + mask < p {
            let child: T = comm.recv(rank + mask, TAG_EXSCAN);
            let with_child = op(&total, &child);
            below.push(std::mem::replace(&mut total, with_child));
        }
        mask <<= 1;
    }
    // `mask` is now the lowest set bit of a non-zero rank.
    let prefix: Option<T> = (rank != 0).then(|| {
        comm.send(rank - mask, TAG_EXSCAN, words(&total), total);
        comm.recv(rank - mask, TAG_EXSCAN)
    });
    for (k, kept) in below.into_iter().enumerate().rev() {
        let down = match &prefix {
            Some(before) => op(before, &kept),
            None => kept,
        };
        comm.send(rank + (1 << k), TAG_EXSCAN, words(&down), down);
    }
    comm.ledger.exit(CollectiveKind::Exscan);
    prefix
}

pub(crate) fn exscan_total<T, F>(
    comm: &mut Comm,
    words: impl Fn(&T) -> u64,
    value: T,
    op: F,
) -> (Option<T>, T)
where
    T: Clone + Send + 'static,
    F: Fn(&T, &T) -> T,
{
    comm.ledger.enter();
    let p = comm.nranks();
    let rank = comm.rank();
    let mut below: Vec<T> = Vec::new();
    let mut total = value;
    let mut mask = 1;
    while mask < p && rank & mask == 0 {
        if rank + mask < p {
            let child: T = comm.recv(rank + mask, TAG_EXSCAN);
            let with_child = op(&total, &child);
            below.push(std::mem::replace(&mut total, with_child));
        }
        mask <<= 1;
    }
    let (prefix, all) = if rank != 0 {
        comm.send(rank - mask, TAG_EXSCAN, words(&total), total);
        let (prefix, all): (T, T) = comm.recv(rank - mask, TAG_EXSCAN);
        (Some(prefix), all)
    } else {
        (None, total)
    };
    for (k, kept) in below.into_iter().enumerate().rev() {
        let down = match &prefix {
            Some(before) => op(before, &kept),
            None => kept,
        };
        let size = words(&down) + words(&all);
        comm.send(rank + (1 << k), TAG_EXSCAN, size, (down, all.clone()));
    }
    comm.ledger.exit(CollectiveKind::Exscan);
    (prefix, all)
}

/// A run in transit: destination, source, words and values.
type Transit<T> = (usize, usize, u64, Vec<T>);

/// The Bruck exchange of `runs`, `(destination, words, values)` each:
/// returns the `(source, value)` items that reached this rank, sorted by
/// source and stable within one, and the joined share.
fn bruck_exchange<T, S>(
    comm: &mut Comm,
    runs: Vec<(usize, u64, Vec<T>)>,
    mut share: S,
    words: impl Fn(&S) -> u64,
    join: impl Fn(&S, &S) -> S,
) -> (Vec<(usize, T)>, S)
where
    T: Send + 'static,
    S: Clone + Send + 'static,
{
    let p = comm.nranks();
    let rank = comm.rank();
    let mut out: Vec<(usize, T)> = Vec::new();
    let mut transit: Vec<Transit<T>> = Vec::with_capacity(runs.len());
    for (dst, words, vs) in runs {
        assert!(dst < p, "alltoallv destination {dst} out of range");
        if dst == rank {
            out.extend(vs.into_iter().map(|v| (rank, v)));
        } else {
            transit.push((dst, rank, words, vs));
        }
    }
    let mut round: Tag = 0;
    let mut step = 1;
    while step < p {
        let to = (rank + step) % p;
        let from = (rank + p - step) % p;
        let mut keep = Vec::with_capacity(transit.len());
        let mut ship = Vec::new();
        for item in transit {
            let dist = (item.0 + p - rank) % p;
            if dist & step != 0 {
                ship.push(item);
            } else {
                keep.push(item);
            }
        }
        let ship_words = 1 + ship.iter().map(|i| i.2).sum::<u64>() + words(&share);
        comm.send(to, TAG_A2A + round, ship_words, (ship, share.clone()));
        let (arrived, heard): (Vec<Transit<T>>, S) = comm.recv(from, TAG_A2A + round);
        share = join(&share, &heard);
        transit = keep;
        for (dst, src, words, vs) in arrived {
            if dst == rank {
                out.extend(vs.into_iter().map(|v| (src, v)));
            } else {
                transit.push((dst, src, words, vs));
            }
        }
        step <<= 1;
        round += 1;
    }
    debug_assert!(transit.is_empty(), "alltoallv internal: undelivered items");
    out.sort_by_key(|&(src, _)| src);
    (out, share)
}

pub(crate) fn alltoallv_sparse<T: Send + 'static>(
    comm: &mut Comm,
    out: &mut Outbox<T>,
) -> Inbox<T> {
    alltoallv_sparse_join(comm, out, (), |_| 0, |_, _| {}).0
}

pub(crate) fn alltoallv_direct<T: Send + 'static>(
    comm: &mut Comm,
    items: Vec<(usize, u64, T)>,
) -> Vec<(usize, T)> {
    comm.ledger.enter();
    let (p, rank) = (comm.nranks(), comm.rank());
    let mut out: Vec<(usize, T)> = Vec::new();
    // Per destination, ascending: declared words and values in order.
    let mut outgoing: BTreeMap<usize, (u64, Vec<T>)> = BTreeMap::new();
    for (dst, words, v) in items {
        assert!(dst < p, "alltoallv destination {dst} out of range");
        if dst == rank {
            out.push((rank, v));
        } else {
            let (total, vals) = outgoing.entry(dst).or_default();
            *total += words;
            vals.push(v);
        }
    }
    let notices = outgoing.keys().map(|&dst| (dst, 0, vec![()])).collect();
    let (sources, ()) = bruck_exchange(comm, notices, (), |_| 0, |_, _| {});
    for (dst, (words, vals)) in outgoing {
        comm.send(dst, TAG_DIRECT, words, vals);
    }
    for (src, ()) in sources {
        let vals: Vec<T> = comm.recv(src, TAG_DIRECT);
        out.extend(vals.into_iter().map(|v| (src, v)));
    }
    out.sort_by_key(|&(src, _)| src);
    comm.ledger.exit(CollectiveKind::Alltoallv);
    out
}

pub(crate) fn alltoallv_sparse_join<T, S>(
    comm: &mut Comm,
    out: &mut Outbox<T>,
    share: S,
    words: impl Fn(&S) -> u64,
    join: impl Fn(&S, &S) -> S,
) -> (Inbox<T>, S)
where
    T: Send + 'static,
    S: Clone + Send + 'static,
{
    comm.ledger.enter();
    let mut items = out.items.drain(..);
    let runs = out
        .runs
        .drain(..)
        .map(|(dst, words, len)| (dst, words, items.by_ref().take(len).collect()));
    let runs = runs.collect();
    drop(items);
    let (got, share) = bruck_exchange(comm, runs, share, words, join);
    let mut inbox = Inbox {
        items: Vec::new(),
        runs: Vec::new(),
    };
    for (src, v) in got {
        match inbox.runs.last_mut() {
            Some((s, n)) if *s == src => *n += 1,
            _ => inbox.runs.push((src, 1)),
        }
        inbox.items.push(v);
    }
    comm.ledger.exit(CollectiveKind::Alltoallv);
    (inbox, share)
}

pub(crate) fn alltoallv<T: Send + 'static>(comm: &mut Comm, items: Vec<(u64, T)>) -> Vec<T> {
    comm.ledger.enter();
    let p = comm.nranks();
    assert_eq!(items.len(), p, "alltoallv needs one item per rank");
    let sparse: Vec<(usize, u64, Vec<T>)> = items
        .into_iter()
        .enumerate()
        .map(|(d, (words, v))| (d, words, vec![v]))
        .collect();
    let (received, ()) = bruck_exchange(comm, sparse, (), |_| 0, |_, _| {});
    assert_eq!(received.len(), p, "alltoallv: missing contributions");
    let mut slots: Vec<Option<T>> = (0..p).map(|_| None).collect();
    for (src, v) in received {
        debug_assert!(slots[src].is_none(), "alltoallv: duplicate source {src}");
        slots[src] = Some(v);
    }
    let out = slots.into_iter().map(|v| v.unwrap()).collect();
    comm.ledger.exit(CollectiveKind::Alltoallv);
    out
}

pub(crate) fn reduce<T, F>(
    comm: &mut Comm,
    root: usize,
    words: impl Fn(&T) -> u64,
    value: T,
    op: F,
) -> Option<T>
where
    T: Send + 'static,
    F: Fn(T, T) -> T,
{
    comm.ledger.enter();
    let p = comm.nranks();
    let vrank = (comm.rank() + p - root) % p;
    let mut acc = value;
    let mut mask = 1;
    let out = loop {
        if mask >= p {
            break Some(acc);
        }
        if vrank & mask != 0 {
            // Lowest set bit of vrank: hand the subtree's fold to the parent.
            let dst = ((vrank - mask) + root) % p;
            comm.send(dst, TAG_REDUCE, words(&acc), acc);
            break None;
        }
        if vrank + mask < p {
            let src = ((vrank + mask) + root) % p;
            acc = op(acc, comm.recv(src, TAG_REDUCE));
        }
        mask <<= 1;
    };
    comm.ledger.exit(CollectiveKind::Reduce);
    out
}
