//! Collective operations implemented over point-to-point messaging.
//!
//! Every collective is built from real `send`/`recv` calls, so the
//! communication volumes reported by the Level-3 metrics are exact
//! properties of the executed schedules — not estimates:
//!
//! * [`allreduce_ring`] — bandwidth-optimal ring (reduce-scatter +
//!   allgather): each rank sends `2·(n−1)/n · S` bytes,
//! * [`allreduce_flat`] — gather-to-root + broadcast (the naive scheme the
//!   PS architecture resembles),
//! * [`broadcast_tree`] — binomial-tree broadcast,
//! * [`neighbor_exchange_among`] — the DPSGD gossip step on a ring
//!   topology.
//!
//! The ring allreduce and the gossip step run over an explicit, sorted
//! member list (the `_among` forms) — the group-re-formation primitive of
//! the fault-tolerance layer: when ranks crash, survivors pass
//! `comm.live_ranks()` and the schedule shrinks to the live group. With the
//! full membership the `_among` schedule is *identical* (message for
//! message) to the whole-world one, which is what makes a zero-fault run
//! bit-identical to the fault-free path.
//!
//! All collectives return [`CommResult`]; errors carry typed causes
//! ([`CommError`]) instead of panicking.

use crate::comm::{CommError, CommResult, Communicator};

/// Elementwise in-place sum: `acc += other`.
fn add_into(acc: &mut [f32], other: &[f32]) -> CommResult<()> {
    if acc.len() != other.len() {
        return Err(CommError::Mismatch(format!(
            "collective buffer mismatch: {} vs {}",
            acc.len(),
            other.len()
        )));
    }
    for (a, &b) in acc.iter_mut().zip(other) {
        *a += b;
    }
    Ok(())
}

/// Position of `rank` within the sorted member list, or a typed error when
/// the caller is not a member.
fn position(members: &[usize], rank: usize) -> CommResult<usize> {
    members
        .iter()
        .position(|&r| r == rank)
        .ok_or_else(|| CommError::Mismatch(format!("rank {rank} not in group {members:?}")))
}

/// Ring allreduce (sum): reduce-scatter then allgather. `buf` holds each
/// rank's contribution on entry and the global sum on exit.
pub fn allreduce_ring(comm: &mut dyn Communicator, buf: &mut [f32]) -> CommResult<()> {
    let members: Vec<usize> = (0..comm.world()).collect();
    allreduce_ring_among(comm, buf, &members)
}

/// Ring allreduce (sum) over an explicit member group (sorted ranks; the
/// caller must be a member). With the full membership this executes the
/// exact schedule of [`allreduce_ring`]; with a shrunken live group it is
/// the recovery path of the decentralized schemes.
pub fn allreduce_ring_among(
    comm: &mut dyn Communicator,
    buf: &mut [f32],
    members: &[usize],
) -> CommResult<()> {
    let n = members.len();
    let pos = position(members, comm.rank())?;
    if n == 1 {
        return Ok(());
    }
    let right = members[(pos + 1) % n];
    let left = members[(pos + n - 1) % n];
    // Chunk boundaries (chunk c = [c·len/n, (c+1)·len/n)).
    let len = buf.len();
    let chunk = |c: usize| (c % n * len / n, (c % n + 1) * len / n);

    // Reduce-scatter: after step s, position p holds the partial sum of
    // chunk (p - s) from s+1 contributors.
    for s in 0..n - 1 {
        let (tx_lo, tx_hi) = chunk((pos + n - s) % n);
        comm.send(right, &buf[tx_lo..tx_hi])?;
        let incoming = comm.recv(left)?;
        let (rx_lo, rx_hi) = chunk((pos + n - s - 1) % n);
        add_into(&mut buf[rx_lo..rx_hi], &incoming)?;
    }
    // Allgather: circulate the finished chunks.
    for s in 0..n - 1 {
        let (tx_lo, tx_hi) = chunk((pos + 1 + n - s) % n);
        comm.send(right, &buf[tx_lo..tx_hi])?;
        let incoming = comm.recv(left)?;
        let (rx_lo, rx_hi) = chunk((pos + n - s) % n);
        buf[rx_lo..rx_hi].copy_from_slice(&incoming);
    }
    Ok(())
}

/// Flat allreduce: everyone sends to rank 0, which sums and broadcasts the
/// result (via a binomial tree). The PS-style schedule.
pub fn allreduce_flat(comm: &mut dyn Communicator, buf: &mut [f32]) -> CommResult<()> {
    let n = comm.world();
    if n == 1 {
        return Ok(());
    }
    if comm.rank() == 0 {
        for peer in 1..n {
            let incoming = comm.recv(peer)?;
            add_into(buf, &incoming)?;
        }
    } else {
        comm.send(0, buf)?;
    }
    broadcast_tree(comm, buf, 0)
}

/// Binomial-tree broadcast from `root` (relabeled so the tree works for
/// any root).
pub fn broadcast_tree(comm: &mut dyn Communicator, buf: &mut [f32], root: usize) -> CommResult<()> {
    let members: Vec<usize> = (0..comm.world()).collect();
    broadcast_among(comm, buf, root, &members)
}

/// Binomial-tree broadcast from `root` over an explicit member group
/// (sorted ranks; `root` and the caller must be members).
fn broadcast_among(
    comm: &mut dyn Communicator,
    buf: &mut [f32],
    root: usize,
    members: &[usize],
) -> CommResult<()> {
    let n = members.len();
    if n <= 1 {
        return Ok(());
    }
    let pos = position(members, comm.rank())?;
    let root_pos = position(members, root)?;
    let vrank = (pos + n - root_pos) % n; // virtual position, root = 0
    let to_rank = |v: usize| members[(v + root_pos) % n];
    // Receive phase: the lowest set bit of vrank identifies the parent
    // (vrank with that bit cleared). The root has no set bits and skips it.
    let mut mask = 1usize;
    while mask < n {
        if vrank & mask != 0 {
            let parent = to_rank(vrank & !mask);
            let data = comm.recv(parent)?;
            if data.len() != buf.len() {
                return Err(CommError::Mismatch("broadcast size mismatch".into()));
            }
            buf.copy_from_slice(&data);
            break;
        }
        mask <<= 1;
    }
    // Send phase: forward to children at every bit below the one we
    // received on (all bits for the root).
    mask >>= 1;
    while mask > 0 {
        let child_v = vrank | mask;
        if child_v != vrank && child_v < n {
            comm.send(to_rank(child_v), buf)?;
        }
        mask >>= 1;
    }
    Ok(())
}

/// DPSGD-style neighbor exchange on the ring formed by an explicit member
/// group (sorted ranks; the caller must be a member): send `buf` to both
/// ring neighbors, receive theirs, return the three-way average
/// (self + left + right) / 3. Communication volume per rank is constant in
/// the group size; after crashes the gossip ring re-forms over the
/// survivors.
pub fn neighbor_exchange_among(
    comm: &mut dyn Communicator,
    buf: &[f32],
    members: &[usize],
) -> CommResult<Vec<f32>> {
    let n = members.len();
    if n <= 1 {
        return Ok(buf.to_vec());
    }
    let pos = position(members, comm.rank())?;
    let right = members[(pos + 1) % n];
    let left = members[(pos + n - 1) % n];
    comm.send(right, buf)?;
    comm.send(left, buf)?;
    let from_left = comm.recv(left)?;
    let from_right = if n == 2 {
        // With two members, left == right; the second message is distinct.
        comm.recv(left)?
    } else {
        comm.recv(right)?
    };
    if from_left.len() != buf.len() || from_right.len() != buf.len() {
        return Err(CommError::Mismatch("neighbor buffer mismatch".into()));
    }
    Ok(buf
        .iter()
        .zip(&from_left)
        .zip(&from_right)
        .map(|((&a, &b), &c)| (a + b + c) / 3.0)
        .collect())
}

/// Scale a buffer in place by `1/group_size` — the surviving-rank
/// renormalization after an allreduce over a (possibly shrunken) group.
pub fn average_among(buf: &mut [f32], group_size: usize) {
    if group_size == 0 {
        return;
    }
    let inv = 1.0 / group_size as f32;
    for v in buf {
        *v *= inv;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::comm::ThreadTransport;
    use crate::netmodel::NetworkModel;
    use std::thread;

    /// Run `f` on every rank of a fresh world; returns per-rank results.
    fn on_world<T: Send + 'static>(
        world: usize,
        f: impl Fn(&mut dyn Communicator) -> T + Send + Sync + Clone + 'static,
    ) -> Vec<T> {
        let comms = ThreadTransport::create(world, NetworkModel::instant());
        let handles: Vec<_> = comms
            .into_iter()
            .map(|mut c| {
                let f = f.clone();
                thread::spawn(move || f(&mut c))
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    fn contribution(rank: usize, len: usize) -> Vec<f32> {
        (0..len).map(|i| (rank * 100 + i) as f32).collect()
    }

    fn expected_sum(world: usize, len: usize) -> Vec<f32> {
        let mut acc = vec![0.0f32; len];
        for r in 0..world {
            for (a, b) in acc.iter_mut().zip(contribution(r, len)) {
                *a += b;
            }
        }
        acc
    }

    #[test]
    fn ring_allreduce_sums_for_many_world_sizes() {
        for world in [1usize, 2, 3, 4, 5, 8] {
            for len in [1usize, 4, 7, 64] {
                let results = on_world(world, move |c| {
                    let mut buf = contribution(c.rank(), len);
                    allreduce_ring(c, &mut buf).unwrap();
                    buf
                });
                let expect = expected_sum(world, len);
                for (r, got) in results.iter().enumerate() {
                    assert_eq!(got, &expect, "world {world} len {len} rank {r}");
                }
            }
        }
    }

    #[test]
    fn ring_allreduce_among_subgroup_sums_members_only() {
        // World of 4; ranks {0, 2, 3} form the group, rank 1 sits out.
        let members = vec![0usize, 2, 3];
        let results = on_world(4, move |c| {
            if c.rank() == 1 {
                return None;
            }
            let mut buf = contribution(c.rank(), 7);
            allreduce_ring_among(c, &mut buf, &members).unwrap();
            Some(buf)
        });
        let mut expect = vec![0.0f32; 7];
        for r in [0usize, 2, 3] {
            for (a, b) in expect.iter_mut().zip(contribution(r, 7)) {
                *a += b;
            }
        }
        for r in [0usize, 2, 3] {
            assert_eq!(results[r].as_ref().unwrap(), &expect, "rank {r}");
        }
        assert!(results[1].is_none());
    }

    #[test]
    fn among_rejects_non_members_with_typed_error() {
        let results = on_world(2, |c| {
            if c.rank() == 0 {
                let mut buf = vec![1.0f32];
                allreduce_ring_among(c, &mut buf, &[1]).unwrap_err()
            } else {
                CommError::Mismatch("unused".into())
            }
        });
        assert!(matches!(results[0], CommError::Mismatch(_)));
    }

    #[test]
    fn flat_allreduce_matches_ring() {
        for world in [2usize, 3, 4, 6] {
            let len = 10;
            let results = on_world(world, move |c| {
                let mut buf = contribution(c.rank(), len);
                allreduce_flat(c, &mut buf).unwrap();
                buf
            });
            let expect = expected_sum(world, len);
            for got in &results {
                assert_eq!(got, &expect);
            }
        }
    }

    #[test]
    fn broadcast_tree_delivers_from_any_root() {
        for world in [2usize, 3, 4, 5, 8] {
            for root in 0..world.min(3) {
                let results = on_world(world, move |c| {
                    let mut buf = if c.rank() == root {
                        vec![42.0, 7.0]
                    } else {
                        vec![0.0, 0.0]
                    };
                    broadcast_tree(c, &mut buf, root).unwrap();
                    buf
                });
                for (r, got) in results.iter().enumerate() {
                    assert_eq!(got, &vec![42.0, 7.0], "world {world} root {root} rank {r}");
                }
            }
        }
    }

    #[test]
    fn broadcast_among_subgroup() {
        // Group {1, 3} of a 4-world; root 3 broadcasts to 1.
        let results = on_world(4, |c| {
            if c.rank() == 1 || c.rank() == 3 {
                let mut buf = if c.rank() == 3 {
                    vec![5.0, 6.0]
                } else {
                    vec![0.0, 0.0]
                };
                broadcast_among(c, &mut buf, 3, &[1, 3]).unwrap();
                Some(buf)
            } else {
                None
            }
        });
        assert_eq!(results[1].as_ref().unwrap(), &vec![5.0, 6.0]);
        assert_eq!(results[3].as_ref().unwrap(), &vec![5.0, 6.0]);
    }

    /// The flat allreduce gathers every rank's buffer at rank 0: with
    /// one-hot contributions the sum holds each rank's part at its index.
    #[test]
    fn gather_collects_by_rank() {
        let results = on_world(4, |c| {
            let mut buf = vec![0.0f32; 4];
            buf[c.rank()] = c.rank() as f32 + 1.0;
            allreduce_flat(c, &mut buf).unwrap();
            (buf, c.stats().bytes_received)
        });
        for (r, (buf, _)) in results.iter().enumerate() {
            assert_eq!(buf, &vec![1.0, 2.0, 3.0, 4.0], "rank {r}");
        }
        // The root received one whole buffer from each of the three others.
        assert!(results[0].1 >= 3 * 4 * 4);
    }

    #[test]
    fn neighbor_exchange_averages_ring_neighbors() {
        let results = on_world(4, |c| {
            let buf = vec![c.rank() as f32 * 3.0];
            neighbor_exchange_among(c, &buf, &[0, 1, 2, 3]).unwrap()
        });
        // rank 1: (0 + 3 + 6)/3 = 3
        assert_eq!(results[1], vec![3.0]);
        // rank 0: (9 + 0 + 3)/3 = 4
        assert_eq!(results[0], vec![4.0]);
    }

    #[test]
    fn neighbor_exchange_two_ranks() {
        let results = on_world(2, |c| {
            let buf = vec![if c.rank() == 0 { 3.0 } else { 9.0 }];
            neighbor_exchange_among(c, &buf, &[0, 1]).unwrap()
        });
        // Each rank averages self + the peer's value twice.
        assert_eq!(results[0], vec![7.0]); // (3 + 9 + 9)/3
        assert_eq!(results[1], vec![5.0]); // (9 + 3 + 3)/3
    }

    #[test]
    fn average_among_renormalizes_by_group_size() {
        let mut buf = vec![6.0f32, 9.0];
        average_among(&mut buf, 3);
        assert_eq!(buf, vec![2.0, 3.0]);
        average_among(&mut buf, 0); // degenerate group: untouched
        assert_eq!(buf, vec![2.0, 3.0]);
    }

    #[test]
    fn ring_volume_is_bandwidth_optimal() {
        let len = 64usize;
        let world = 4usize;
        let results = on_world(world, move |c| {
            let mut buf = contribution(c.rank(), len);
            allreduce_ring(c, &mut buf).unwrap();
            c.stats().bytes_sent
        });
        // 2*(n-1)/n * S bytes per rank.
        let expect = 2 * (world - 1) * (len * 4) / world;
        for &sent in &results {
            assert_eq!(sent, expect as u64);
        }
    }

    /// Virtual time must not depend on whether a message was caught while
    /// polling, while parked, or was already queued: 1 000 two-rank ring
    /// allreduces with rank 1 starting each 0–200 µs late read bitwise the
    /// buffers, volume and clock of the run without skew.
    #[test]
    fn rank_skew_moves_neither_sums_nor_virtual_time() {
        let run = |skewed: bool| {
            let comms = ThreadTransport::create(2, NetworkModel::aries());
            let handles: Vec<_> = comms
                .into_iter()
                .map(|mut c| {
                    thread::spawn(move || {
                        let mut rng = deep500_tensor::SplitMix64::new(97);
                        let mut folded = 0u64;
                        for round in 0..1000usize {
                            let skew_us = rng.next_u64() % 201;
                            let t0 = std::time::Instant::now();
                            while skewed
                                && c.rank() == 1
                                && t0.elapsed() < std::time::Duration::from_micros(skew_us)
                            {
                                std::hint::spin_loop();
                            }
                            let mut buf = contribution(c.rank() + round, 37);
                            allreduce_ring(&mut c, &mut buf).unwrap();
                            for v in buf {
                                folded = folded.rotate_left(7) ^ u64::from(v.to_bits());
                            }
                        }
                        (folded, c.stats(), c.elapsed().to_bits())
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .collect::<Vec<_>>()
        };
        let level = run(false);
        assert!(level[0].2 != 0, "the aries model prices messages");
        assert_eq!(level, run(true));
    }

    #[test]
    fn flat_volume_concentrates_at_root() {
        let len = 64usize;
        let results = on_world(4, move |c| {
            let mut buf = contribution(c.rank(), len);
            allreduce_flat(c, &mut buf).unwrap();
            (c.stats().bytes_sent, c.stats().bytes_received)
        });
        let root_recv = results[0].1;
        assert!(root_recv >= 3 * (len as u64) * 4, "root takes the incast");
    }
}
