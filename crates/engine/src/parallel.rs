//! The shard plan and the four phase bodies of the round pipeline.
//!
//! Every random choice in a round is drawn from the stream of the node that
//! makes it, and loss coins are pure counter draws (see the
//! [`engine`](super) module docs), so nothing depends on cross-node
//! execution order. Shard `s` owns nodes `[s·chunk, (s+1)·chunk)`; each
//! phase body runs over `chunks_mut` of the struct-of-arrays node state
//! with read-only state (tags, active set, schedule, round graph, arena)
//! shared by reference, and the calling thread merges per-shard output in
//! shard order — which, shards being contiguous, *is* ascending node order:
//! proposer order for the proposal merge, receiver order for delivery.

use mtm_graph::NodeId;
use rand::rngs::SmallRng;

use super::{Awake, Choices, Inbox, RoundCtx, Slot};
use crate::metrics::Metrics;
use crate::model::{uniform_accept_index, ConnectionPolicy, Tag};
use crate::protocol::{Action, Protocol, Scan};

/// How a round is cut into shards: `shards = clamp(threads, 1, n)`
/// contiguous ranges of `chunk` nodes (an empty engine gets one empty
/// shard plan and still steps).
#[derive(Clone, Copy, Debug)]
pub(super) struct ShardPlan {
    pub(super) shards: usize,
    pub(super) chunk: usize,
}

impl ShardPlan {
    pub(super) fn new(threads: usize, n: usize) -> Self {
        let shards = threads.min(n).max(1);
        ShardPlan { shards, chunk: n.div_ceil(shards).max(1) }
    }

    /// Run `body(base, shard)` for every shard, where `base` is the
    /// shard's first node id: inline when the plan has one shard, else
    /// each shard on its own scoped worker thread.
    pub(super) fn run<S: Send>(
        &self,
        shards: impl Iterator<Item = S>,
        body: impl Fn(usize, S) + Sync,
    ) {
        let chunk = self.chunk;
        if self.shards == 1 {
            shards.enumerate().for_each(|(si, shard)| body(si * chunk, shard));
        } else {
            std::thread::scope(|scope| {
                let body = &body;
                for (si, shard) in shards.enumerate() {
                    scope.spawn(move || body(si * chunk, shard));
                }
            });
        }
    }
}

/// Per-shard scratch buffers, reused round to round. Each shard body gets
/// exclusive `&mut` access to its entry; the calling thread drains
/// `proposed`/`accepted` and the counters between phases.
#[derive(Debug, Default)]
pub(super) struct ShardScratch {
    visible: Vec<NodeId>,
    visible_tags: Vec<Tag>,
    /// `(proposer, receiver)` pairs that survived loss, proposer-sorted.
    pub(super) proposed: Vec<(NodeId, NodeId)>,
    /// `(proposer, receiver)` connections, receiver-sorted.
    pub(super) accepted: Vec<(NodeId, NodeId)>,
    rejected: u64,
    /// Proposals lost to a loss coin (scan) or a scripted listener that
    /// accepted none of them (accept).
    pub(super) dropped: u64,
}

impl ShardScratch {
    /// Move this shard's rejection and drop counters into `m`.
    pub(super) fn drain_counts(&mut self, m: &mut Metrics) {
        m.rejected_proposals += std::mem::take(&mut self.rejected);
        m.dropped_proposals += std::mem::take(&mut self.dropped);
    }
}

/// Phase 1 over one shard: every active node advertises a tag, drawn or
/// scripted, and the audit checks it. The tag is stored only where a scan
/// can read it: `tags` is this shard's chunk when `b > 0` and empty when
/// `b = 0`. (An inactive node's slot needs no reset: activation is
/// monotone, so it still holds its initial [`Slot::INACTIVE`].)
pub(super) fn advertise<P: Protocol>(
    ctx: &RoundCtx<'_>,
    base: usize,
    nodes: &mut [P],
    rngs: &mut [SmallRng],
    tags: &mut [Tag],
) {
    let tag_bits = ctx.params.tag_bits;
    for (i, (node, rng)) in nodes.iter_mut().zip(rngs).enumerate() {
        let u = base + i;
        let Some(lr) = ctx.awake.local_round(u) else {
            continue;
        };
        let tag = match ctx.choices {
            Choices::Drawn => node.advertise(lr, rng),
            Choices::Scripted(script) => node.apply_choice(lr, script.advertise[u]),
        };
        ctx.auditor.check_tag(ctx.round, u, tag, tag_bits);
        if let Some(stored) = tags.get_mut(i) {
            *stored = tag;
        }
    }
}

/// Phases 2–3 over one shard: every active node scans its visible
/// neighbors and acts. With everyone active the CSR neighbor row *is* the
/// scan (zero-copy); during activation ramp-up the visible subset is
/// filtered into scratch. Both are sorted, which the proposal check relies
/// on. Proposals that survive their loss coin go to the shard's list.
pub(super) fn scan_act<P: Protocol>(
    ctx: &RoundCtx<'_>,
    tags: &[Tag],
    base: usize,
    slots: &mut [Slot],
    nodes: &mut [P],
    rngs: &mut [SmallRng],
    scratch: &mut ShardScratch,
) {
    let (round, tag_bits) = (ctx.round, ctx.params.tag_bits);
    for (i, (((slot, node), rng), nbrs)) in
        slots.iter_mut().zip(nodes).zip(rngs).zip(ctx.graph.neighbor_rows_from(base)).enumerate()
    {
        let u = base + i;
        let Some(lr) = ctx.awake.local_round(u) else {
            continue;
        };
        let neighbors: &[NodeId] = if ctx.awake.all() {
            if tag_bits > 0 {
                scratch.visible_tags.clear();
                for &v in nbrs {
                    scratch.visible_tags.push(tags[v as usize]);
                }
            }
            nbrs
        } else {
            scratch.visible.clear();
            scratch.visible_tags.clear();
            for &v in nbrs {
                if ctx.awake.is_active(v as usize) {
                    scratch.visible.push(v);
                    if tag_bits > 0 {
                        scratch.visible_tags.push(tags[v as usize]);
                    }
                }
            }
            &scratch.visible
        };
        let scan = Scan { neighbors, tags: &scratch.visible_tags, round, local_round: lr };
        let action = match ctx.choices {
            Choices::Drawn => node.act(&scan, rng),
            Choices::Scripted(script) => {
                node.apply_action(&scan, script.actions[u]);
                script.actions[u]
            }
        };
        *slot = match action {
            Action::Listen => Slot::LISTEN,
            Action::Propose(v) => {
                ctx.auditor.check_proposal(round, u, v, scan.neighbors);
                if ctx.loss_prob > 0.0
                    && mtm_graph::rng::counter_coin(ctx.loss_seed, round, u as u64) < ctx.loss_prob
                {
                    scratch.dropped += 1;
                } else {
                    // hot path: u < n <= u32::MAX.
                    #[allow(clippy::cast_possible_truncation)]
                    scratch.proposed.push((u as NodeId, v));
                }
                Slot::propose(v)
            }
        };
    }
}

/// Phase 4a over one shard of receivers: each listener with `k` buffered
/// proposals takes its pick — drawn from its own stream, or read from the
/// script — and rejects the other `k − 1`; with no pick (a scripted
/// listener that accepts nothing) all `k` are dropped. Accept-all
/// receivers take every proposal, in ascending proposer order.
pub(super) fn accept(
    ctx: &RoundCtx<'_>,
    inbox: &Inbox,
    base: usize,
    rngs: &mut [SmallRng],
    scratch: &mut ShardScratch,
) {
    for (i, (incoming, rng)) in inbox.incoming_from(base).zip(rngs).enumerate() {
        let k = incoming.len();
        if k == 0 {
            continue;
        }
        let vi = base + i;
        // receivers are node ids: vi < n <= u32::MAX.
        #[allow(clippy::cast_possible_truncation)]
        let v = vi as NodeId;
        let pick = match (ctx.choices, ctx.params.policy) {
            (Choices::Scripted(_), _) => inbox.picks[vi],
            (Choices::Drawn, ConnectionPolicy::AcceptAll) => {
                // Each proposer sees the receiver's state as of *its*
                // connection (connections in the classical model are
                // sequential interactions within the round).
                scratch.accepted.extend(incoming.iter().map(|&u| (u, v)));
                continue;
            }
            (Choices::Drawn, ConnectionPolicy::SingleUniform) => {
                Some(incoming[uniform_accept_index(rng, k)])
            }
        };
        match pick {
            Some(u) => {
                scratch.rejected += (k - 1) as u64;
                scratch.accepted.push((u, v));
            }
            None => scratch.dropped += k as u64,
        }
    }
}

/// Phase 5 over one shard: end-of-round bookkeeping for every active node.
pub(super) fn end_round<P: Protocol>(
    awake: Awake<'_>,
    base: usize,
    nodes: &mut [P],
    rngs: &mut [SmallRng],
) {
    for (i, (node, rng)) in nodes.iter_mut().zip(rngs).enumerate() {
        if let Some(lr) = awake.local_round(base + i) {
            node.end_round(lr, rng);
        }
    }
}
