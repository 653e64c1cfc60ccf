//! Cycle-based link-contention network model.
//!
//! The model approximates wormhole switching at message granularity: the
//! head flit advances hop by hop, paying the router pipeline delay and
//! waiting for a free slot on the output link; each link is then held for
//! the message's full flit count. The tail flit arrives `flits - 1` cycles
//! after the head.
//!
//! Links are reserved with *interval schedules* rather than a single
//! "free-at" scalar: callers may present messages slightly out of global
//! time order (the simulator advances cores one iteration at a time), and
//! an early message must be able to slip into a gap before a reservation
//! made for a later one — otherwise queueing feedback compounds into
//! unbounded false congestion.
//!
//! This captures the two effects the paper's mapping exploits:
//! *distance* (every hop costs `router_delay + 1` cycles) and *contention*
//! (links serialize flit trains, so long routes through busy areas queue).

use crate::error::RouteError;
use crate::faults::FaultState;
use crate::packet::MessageKind;
use crate::routing::{route, Link};
use crate::stats::NetworkStats;
use crate::topology::{Mesh, NodeId};
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// Physical topology of the interconnect (the paper's §3.9 notes the
/// approach generalizes beyond 2D meshes; the torus is the natural first
/// extension — same routers, plus wraparound links).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default, Serialize, Deserialize)]
pub enum TopologyKind {
    /// 2D mesh (paper default).
    #[default]
    Mesh,
    /// 2D torus: rows and columns wrap around.
    Torus,
}

/// Static parameters of the on-chip network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NocConfig {
    /// Pipeline delay of each router in cycles (Table 4: 3 cycles).
    pub router_delay: u64,
    /// Cycles for a flit to traverse one link. The default of 4 models a
    /// 64-bit data path (a 32-byte flit needs four beats), which loads the
    /// mesh to the moderate-congestion regime the paper's evaluation
    /// operates in.
    pub link_traversal: u64,
    /// When true the network is *ideal*: every message is delivered in zero
    /// cycles. Used for the Figure 2 potential study.
    pub ideal: bool,
    /// Mesh or torus links.
    pub topology: TopologyKind,
}

impl Default for NocConfig {
    fn default() -> Self {
        NocConfig { router_delay: 3, link_traversal: 4, ideal: false, topology: TopologyKind::Mesh }
    }
}

impl NocConfig {
    /// An ideal (zero-latency) network, as used in Figure 2.
    pub fn ideal() -> Self {
        NocConfig { ideal: true, ..NocConfig::default() }
    }
}

/// How far behind the newest reservation an incoming message may be and
/// still find its slot exactly: intervals that ended this long before a
/// message is ready are pruned. This bounds the schedules of callers that
/// never call [`Network::advance`].
const PRUNE_WINDOW: u64 = 1 << 16;

/// Disjoint, sorted busy intervals `[start, end)` of one directed link:
/// ends strictly increase, and touching intervals are coalesced. Those
/// before `head` are pruned; the vector drops them once they are half of it.
#[derive(Debug, Clone, Default)]
struct LinkSched {
    intervals: Vec<(u64, u64)>,
    head: usize,
}

impl LinkSched {
    /// Reserves the earliest `dur`-cycle slot starting at or after `ready`
    /// and returns the slot's start time. No later reservation may be
    /// ready before `floor`, so intervals that ended by then are pruned,
    /// as are those that ended a [`PRUNE_WINDOW`] before `ready`.
    fn reserve(&mut self, ready: u64, dur: u64, floor: u64) -> u64 {
        let horizon = ready.saturating_sub(PRUNE_WINDOW);
        while self.intervals.get(self.head).is_some_and(|&(_, e)| e <= floor || e < horizon) {
            self.head += 1;
        }
        if self.head > 0 && 2 * self.head >= self.intervals.len() {
            self.intervals.drain(..self.head);
            self.head = 0;
        }

        // Almost every message lands at or next to the tail, so scan back
        // to the last interval that has ended by `ready`; from there, skip
        // every interval the train would overlap.
        let live = self.intervals[self.head..].iter().rposition(|&(_, e)| e <= ready);
        let mut idx = self.head + live.map_or(0, |i| i + 1);
        let mut start = ready;
        while let Some(&(s, e)) = self.intervals.get(idx) {
            if s >= start + dur {
                break;
            }
            start = e;
            idx += 1;
        }

        // The interval before `idx` ends at or before `start` and the one
        // at `idx` starts at or after `end`: join whichever touches.
        let end = start + dur;
        let joins_prev = idx > self.head && self.intervals[idx - 1].1 == start;
        let joins_next = self.intervals.get(idx).is_some_and(|&(s, _)| s == end);
        match (joins_prev, joins_next) {
            (true, true) => self.intervals[idx - 1].1 = self.intervals.remove(idx).1,
            (true, false) => self.intervals[idx - 1].1 = end,
            (false, true) => self.intervals[idx].0 = start,
            (false, false) => self.intervals.insert(idx, (start, end)),
        }
        start
    }
}

/// The on-chip network: per-link reservation schedules plus statistics.
#[derive(Debug, Clone)]
pub struct Network {
    cfg: NocConfig,
    mesh: Mesh,
    links: Vec<LinkSched>,
    /// Cumulative cycles each link has spent carrying flits.
    link_busy: Vec<u64>,
    stats: NetworkStats,
    /// The fault state messages route around; [`FaultState::none`] until
    /// [`Network::set_faults`] installs another.
    faults: FaultState,
    /// The link indices of every route sent so far under `faults`.
    route_links: Vec<u32>,
    /// Each (src, dst) pair's `[offset, len]` in `route_links`; `len` is 0
    /// until the pair's first send. Both are cleared when `faults` changes.
    route_slots: Vec<[u32; 2]>,
    /// No message is injected before this cycle ([`Network::advance`]).
    floor: u64,
}

impl Network {
    /// Creates a network over `mesh` with configuration `cfg`.
    pub fn new(cfg: NocConfig, mesh: Mesh) -> Self {
        Network {
            cfg,
            mesh,
            links: vec![LinkSched::default(); Link::slot_count(mesh)],
            link_busy: vec![0; Link::slot_count(mesh)],
            stats: NetworkStats::default(),
            // Routing reads only links and routers, so no MCs are needed.
            faults: FaultState::none(mesh, 0),
            route_links: Vec::new(),
            route_slots: Vec::new(),
            floor: 0,
        }
    }

    /// Installs the fault state messages must route around;
    /// [`FaultState::none`] returns the network to fault-free routing.
    ///
    /// # Panics
    ///
    /// Panics if the state describes a different mesh.
    pub fn set_faults(&mut self, faults: &FaultState) {
        assert_eq!(faults.mesh(), self.mesh, "fault state describes a different mesh");
        self.faults = faults.clone();
        self.route_links.clear();
        self.route_slots.clear();
    }

    /// Promises that no later message is injected before cycle `t`, so
    /// link reservations that ended by then can be dropped. The promise
    /// holds until [`Network::reset_contention`] restarts the clock.
    pub fn advance(&mut self, t: u64) {
        debug_assert!(t >= self.floor, "the floor moves back from {} to {t}", self.floor);
        self.floor = t;
    }

    /// The mesh this network spans.
    pub fn mesh(&self) -> Mesh {
        self.mesh
    }

    /// The network configuration.
    pub fn config(&self) -> NocConfig {
        self.cfg
    }

    /// Sends a message of `kind` from `src` to `dst`, injected at cycle
    /// `now`. Returns the cycle at which the tail flit is delivered at
    /// `dst`. Updates link occupancy and statistics.
    ///
    /// A message to the local node (`src == dst`) bypasses the network and
    /// is delivered at `now`.
    ///
    /// # Panics
    ///
    /// Panics if an active fault state leaves `dst` unreachable from `src`
    /// — callers running under faults must pre-validate connectivity (see
    /// [`FaultState::check_connected`]).
    pub fn send(&mut self, now: u64, src: NodeId, dst: NodeId, kind: MessageKind) -> u64 {
        debug_assert!(now >= self.floor, "message injected at {now}, before the floor {}", self.floor);
        if !self.faults.router_alive(src) || !self.faults.router_alive(dst) {
            unvalidated_fault_state(RouteError::Unreachable { from: src, to: dst });
        }
        if self.cfg.ideal || src == dst {
            // Local or ideal: deliver instantly, still count the message so
            // traffic volumes remain comparable across modes.
            self.stats.messages += 1;
            self.stats.total_flits += kind.flits() as u64;
            return now;
        }

        let flits = kind.flits() as u64;
        let dur = flits * self.cfg.link_traversal;
        let path = match self.memoised_route(src, dst) {
            Ok(path) => path,
            Err(e) => unvalidated_fault_state(e),
        };
        let hops = path.len() as u64;

        let mut head = now;
        let mut queue_cycles = 0;
        for link in self.route_links[path].iter().map(|&l| l as usize) {
            // Router pipeline at the upstream node.
            let ready = head + self.cfg.router_delay;
            let depart = self.links[link].reserve(ready, dur, self.floor);
            queue_cycles += depart - ready;
            self.link_busy[link] += dur;
            head = depart + self.cfg.link_traversal;
        }
        // Tail flit trails the head by (flits - 1) link cycles.
        let arrival = head + (flits - 1) * self.cfg.link_traversal;

        let latency = arrival - now;
        self.stats.messages += 1;
        self.stats.total_latency += latency;
        self.stats.total_hops += hops;
        self.stats.total_queue_cycles += queue_cycles;
        self.stats.total_flits += flits;
        self.stats.max_latency = self.stats.max_latency.max(latency);
        arrival
    }

    /// The arena range of the link indices on the route from `src` to
    /// `dst` (distinct nodes), routing the pair on its first use.
    fn memoised_route(&mut self, src: NodeId, dst: NodeId) -> Result<Range<usize>, RouteError> {
        let n = self.mesh.node_count();
        if self.route_slots.is_empty() {
            self.route_slots.resize(n * n, [0, 0]);
        }
        let pair = src.index() * n + dst.index();
        if self.route_slots[pair][1] == 0 {
            let links = route(self.mesh, self.cfg.topology, &self.faults, src, dst)?;
            self.route_slots[pair] = [self.route_links.len() as u32, links.len() as u32];
            self.route_links.extend(links.iter().map(|l| l.index() as u32));
        }
        let [offset, len] = self.route_slots[pair];
        Ok(offset as usize..(offset + len) as usize)
    }

    /// The latency this message would experience on an empty network
    /// (no contention). Does not modify state.
    pub fn zero_load_latency(&self, src: NodeId, dst: NodeId, kind: MessageKind) -> u64 {
        if self.cfg.ideal || src == dst {
            return 0;
        }
        let hops = match self.cfg.topology {
            TopologyKind::Mesh => self.mesh.distance(src, dst) as u64,
            TopologyKind::Torus => self.mesh.torus_distance(src, dst) as u64,
        };
        let flits = kind.flits() as u64;
        hops * (self.cfg.router_delay + self.cfg.link_traversal) + (flits - 1) * self.cfg.link_traversal
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> &NetworkStats {
        &self.stats
    }

    /// Clears statistics but keeps link occupancy (e.g. after warm-up).
    pub fn clear_stats(&mut self) {
        self.stats = NetworkStats::default();
    }

    /// Releases all links (e.g. between independent simulation phases)
    /// and sets the floor of [`Network::advance`] back to cycle 0.
    pub fn reset_contention(&mut self) {
        self.links.iter_mut().for_each(|l| *l = LinkSched::default());
        self.floor = 0;
    }

    /// Cumulative busy cycles per directed-link slot (indexed by
    /// [`Link::index`]); the raw data behind heatmaps and congestion
    /// diagnostics.
    pub fn link_busy(&self) -> &[u64] {
        &self.link_busy
    }

    /// The cumulative busy cycles of the most-loaded link and the mean over
    /// all links that carried any traffic — a congestion diagnostic.
    pub fn link_utilization(&self) -> (u64, f64) {
        let max = self.link_busy.iter().copied().max().unwrap_or(0);
        let used: Vec<u64> = self.link_busy.iter().copied().filter(|&b| b > 0).collect();
        let mean = if used.is_empty() {
            0.0
        } else {
            used.iter().sum::<u64>() as f64 / used.len() as f64
        };
        (max, mean)
    }
}

/// A send between nodes the active fault state disconnects: the caller
/// skipped validating connectivity, so no delivery cycle is meaningful.
#[cold]
fn unvalidated_fault_state(e: RouteError) -> ! {
    panic!("unvalidated fault state: {e}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    impl LinkSched {
        /// The intervals not yet pruned.
        fn live(&self) -> &[(u64, u64)] {
            &self.intervals[self.head..]
        }
    }

    /// The reference model: a schedule that binary-searches the whole deque
    /// for the first interval that ends after `ready`, coalesces in loops
    /// and knows no floor, pruning only behind the 64k-cycle window.
    #[derive(Clone, Default)]
    struct BinarySearchSched {
        intervals: VecDeque<(u64, u64)>,
    }

    impl BinarySearchSched {
        fn reserve(&mut self, ready: u64, dur: u64) -> u64 {
            let horizon = ready.saturating_sub(PRUNE_WINDOW);
            while let Some(&(_, e)) = self.intervals.front() {
                if e < horizon {
                    self.intervals.pop_front();
                } else {
                    break;
                }
            }
            let mut lo = 0usize;
            let mut hi = self.intervals.len();
            while lo < hi {
                let mid = (lo + hi) / 2;
                if self.intervals[mid].1 <= ready {
                    lo = mid + 1;
                } else {
                    hi = mid;
                }
            }
            let mut start = ready;
            let mut idx = self.intervals.len();
            for i in lo..self.intervals.len() {
                let (s, e) = self.intervals[i];
                if e <= start {
                    continue;
                }
                if s >= start + dur {
                    idx = i;
                    break;
                }
                start = e;
                idx = i + 1;
            }
            let end = start + dur;
            self.intervals.insert(idx, (start, end));
            while idx > 0 && self.intervals[idx - 1].1 >= self.intervals[idx].0 {
                let (s0, e0) = self.intervals[idx - 1];
                let (s1, e1) = self.intervals[idx];
                self.intervals[idx - 1] = (s0.min(s1), e0.max(e1));
                self.intervals.remove(idx);
                idx -= 1;
            }
            while idx + 1 < self.intervals.len() && self.intervals[idx].1 >= self.intervals[idx + 1].0 {
                let (s0, e0) = self.intervals[idx];
                let (s1, e1) = self.intervals[idx + 1];
                self.intervals[idx] = (s0.min(s1), e0.max(e1));
                self.intervals.remove(idx + 1);
            }
            start
        }
    }

    proptest! {
        #[test]
        fn floored_schedule_reserves_like_binary_search(
            steps in collection::vec(((0u64..40, 0u64..50), (0u64..3_000, 0u64..4_000), 1u64..24), 1..600),
        ) {
            // A clock that advances a little per message, and now and then
            // jumps 20k cycles so that old intervals are pruned. Each message
            // is presented up to 3,000 cycles behind the clock — the
            // simulator's bounded scheduling skew — so reservations land at
            // the tail and in gaps alike.
            let mut clock = 0u64;
            let readies: Vec<u64> = steps
                .iter()
                .map(|&((advance, jump), (behind, _), _)| {
                    clock += advance + if jump == 0 { 20_000 } else { 0 };
                    clock.saturating_sub(behind)
                })
                .collect();
            // The floor rises to at most the earliest `ready` still to come,
            // lagging it by a random amount, as the engine's core keys do.
            let mut still_to_come = readies.clone();
            for i in (1..still_to_come.len()).rev() {
                still_to_come[i - 1] = still_to_come[i - 1].min(still_to_come[i]);
            }
            let (mut floored, mut reference) = (LinkSched::default(), BinarySearchSched::default());
            let mut floor = 0;
            for (i, &(_, (_, lag), dur)) in steps.iter().enumerate() {
                floor = floor.max(still_to_come[i].saturating_sub(lag));
                let ready = readies[i];
                prop_assert_eq!(floored.reserve(ready, dur, floor), reference.reserve(ready, dur));
            }
        }
    }

    #[test]
    fn far_behind_message_gets_the_binary_search_slot() {
        // 2,000 28-cycle intervals with 4-cycle gaps, spanning 64k cycles
        // so that nothing is pruned: a 4-cycle train fits any gap, a
        // 5-cycle train none.
        let (mut sched, mut reference) = (LinkSched::default(), BinarySearchSched::default());
        for i in 0..2_000u64 {
            let ready = 1_000 + 32 * i;
            assert_eq!(sched.reserve(ready, 28, 0), reference.reserve(ready, 28));
        }
        assert_eq!(sched.live().len(), 2_000);
        let tail = sched.live().last().unwrap().1;
        // 60k cycles behind the tail lies deep inside the schedule; try
        // every phase of one period.
        for behind in 60_000..60_032 {
            for dur in [4, 5] {
                let (mut g, mut r) = (sched.clone(), reference.clone());
                let ready = tail - behind;
                let want = r.reserve(ready, dur);
                assert_eq!(g.reserve(ready, dur, 0), want, "{behind} behind, {dur} cycles");
                assert!(g.live().iter().eq(&r.intervals));
                assert!(dur == 4 || want == tail, "no gap fits five cycles");
            }
        }
    }

    fn net6() -> Network {
        Network::new(NocConfig::default(), Mesh::try_new(6, 6).unwrap())
    }

    #[test]
    fn zero_load_latency_formula() {
        let net = net6();
        let m = net.mesh();
        // 1 hop, single-flit request: router(3) + link(4) = 7.
        assert_eq!(net.zero_load_latency(m.node_at(0, 0), m.node_at(1, 0), MessageKind::LlcRequest), 7);
        // 10 hops, 3-flit response: 10*(3+4) + 2*4 = 78.
        assert_eq!(
            net.zero_load_latency(m.node_at(0, 0), m.node_at(5, 5), MessageKind::llc_response64()),
            78
        );
    }

    #[test]
    fn uncontended_send_matches_zero_load() {
        let mut net = net6();
        let m = net.mesh();
        for (sx, sy, dx, dy) in [(0, 0, 5, 5), (2, 3, 2, 4), (5, 0, 0, 5)] {
            net.reset_contention();
            let src = m.node_at(sx, sy);
            let dst = m.node_at(dx, dy);
            let zl = net.zero_load_latency(src, dst, MessageKind::mem_response64());
            let arrival = net.send(1000, src, dst, MessageKind::mem_response64());
            assert_eq!(arrival - 1000, zl);
        }
    }

    #[test]
    fn local_delivery_is_free() {
        let mut net = net6();
        let n = net.mesh().node_at(3, 3);
        assert_eq!(net.send(42, n, n, MessageKind::llc_response64()), 42);
        assert_eq!(net.stats().total_latency, 0);
    }

    #[test]
    fn ideal_network_is_zero_latency() {
        let mut net = Network::new(NocConfig::ideal(), Mesh::try_new(6, 6).unwrap());
        let m = net.mesh();
        let t = net.send(7, m.node_at(0, 0), m.node_at(5, 5), MessageKind::mem_response64());
        assert_eq!(t, 7);
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().avg_latency(), 0.0);
    }

    #[test]
    fn contention_delays_second_message() {
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        // Two simultaneous 3-flit messages sharing the same route: the
        // second must queue behind the first's flit train on every link.
        let a = net.send(0, src, dst, MessageKind::llc_response64());
        let b = net.send(0, src, dst, MessageKind::llc_response64());
        assert!(b > a, "second message should be delayed ({a} vs {b})");
        assert!(net.stats().total_queue_cycles > 0);
    }

    #[test]
    fn earlier_message_fills_gap_before_later_reservation() {
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        // Reserve far in the future first, then send an earlier message:
        // it must NOT queue behind the future train.
        net.send(10_000, src, dst, MessageKind::llc_response64());
        let early = net.send(0, src, dst, MessageKind::llc_response64());
        assert_eq!(early, net.zero_load_latency(src, dst, MessageKind::llc_response64()));
    }

    #[test]
    fn disjoint_routes_do_not_interfere() {
        let mut net = net6();
        let m = net.mesh();
        let a = net.send(0, m.node_at(0, 0), m.node_at(3, 0), MessageKind::llc_response64());
        // Different row: entirely disjoint links under X-Y routing.
        let b = net.send(0, m.node_at(0, 5), m.node_at(3, 5), MessageKind::llc_response64());
        assert_eq!(a, b);
        assert_eq!(net.stats().total_queue_cycles, 0);
    }

    #[test]
    fn later_message_finds_links_free_again() {
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(5, 0);
        let first = net.send(0, src, dst, MessageKind::llc_response64());
        // Inject long after the first train has fully drained.
        let start = first + 100;
        let second = net.send(start, src, dst, MessageKind::llc_response64());
        assert_eq!(second - start, first);
    }

    #[test]
    fn stats_track_hops_and_flits() {
        let mut net = net6();
        let m = net.mesh();
        net.send(0, m.node_at(0, 0), m.node_at(2, 2), MessageKind::LlcRequest);
        assert_eq!(net.stats().messages, 1);
        assert_eq!(net.stats().total_hops, 4);
        assert_eq!(net.stats().total_flits, 1);
    }

    #[test]
    fn clear_stats_preserves_contention() {
        let mut net = net6();
        let m = net.mesh();
        net.send(0, m.node_at(0, 0), m.node_at(5, 0), MessageKind::llc_response64());
        net.clear_stats();
        assert_eq!(net.stats().messages, 0);
        // Links still busy: immediate re-send queues.
        net.send(0, m.node_at(0, 0), m.node_at(5, 0), MessageKind::llc_response64());
        assert!(net.stats().total_queue_cycles > 0);
    }

    #[test]
    fn sustained_load_below_capacity_stays_bounded() {
        // Open-loop uniform traffic at ~15% bisection utilization must not
        // diverge: the latency of late waves stays within a small factor of
        // zero-load latency.
        let mut net = net6();
        let mut t = 0u64;
        let mut last_wave_avg = 0.0;
        for iter in 0..2000u64 {
            let mut lat = 0u64;
            let mut n = 0u64;
            for c in 0..18u64 {
                let src = ((c * 13 + iter) % 36) as u16;
                let dst = ((iter * 7 + c * 5) % 36) as u16;
                if src == dst {
                    continue;
                }
                let t0 = t + (c % 5);
                let t1 = net.send(t0, NodeId(src), NodeId(dst), MessageKind::LlcRequest);
                let t2 = net.send(t1 + 8, NodeId(dst), NodeId(src), MessageKind::llc_response64());
                lat += t2 - t0;
                n += 1;
            }
            last_wave_avg = lat as f64 / n as f64;
            t += 80;
        }
        assert!(
            last_wave_avg < 200.0,
            "sustained sub-capacity load diverged: final wave avg {last_wave_avg}"
        );
    }

    #[test]
    fn torus_shortens_far_routes() {
        let mesh = Mesh::try_new(6, 6).unwrap();
        let mut mesh_net = Network::new(NocConfig::default(), mesh);
        let mut torus_net =
            Network::new(NocConfig { topology: TopologyKind::Torus, ..NocConfig::default() }, mesh);
        let src = mesh.node_at(0, 0);
        let dst = mesh.node_at(5, 5);
        let k = MessageKind::llc_response64();
        assert!(torus_net.zero_load_latency(src, dst, k) < mesh_net.zero_load_latency(src, dst, k));
        let tm = mesh_net.send(0, src, dst, k);
        let tt = torus_net.send(0, src, dst, k);
        assert!(tt < tm, "torus {tt} should beat mesh {tm}");
        assert_eq!(torus_net.stats().total_hops, 2);
    }

    #[test]
    fn faulted_send_detours_and_costs_more() {
        use crate::faults::FaultPlan;
        use crate::routing::Direction;
        let mut net = net6();
        let m = net.mesh();
        let src = m.node_at(0, 0);
        let dst = m.node_at(3, 0);
        let clean = net.send(0, src, dst, MessageKind::LlcRequest);
        net.reset_contention();
        let cut = Link { from: m.node_at(1, 0), dir: Direction::East };
        net.set_faults(&FaultPlan::new(m, 4).dead_link(cut).state_at(0));
        let faulted = net.send(0, src, dst, MessageKind::LlcRequest);
        assert!(faulted > clean, "detour must cost extra hops ({faulted} vs {clean})");
        net.set_faults(&FaultState::none(m, 4));
        net.reset_contention();
        assert_eq!(net.send(0, src, dst, MessageKind::LlcRequest), clean);
    }

    #[test]
    #[should_panic(expected = "unvalidated fault state: no surviving route from n0 to n14")]
    fn send_to_unreachable_node_panics() {
        use crate::faults::FaultPlan;
        let mut net = net6();
        let m = net.mesh();
        let dead = m.node_at(2, 2);
        net.set_faults(&FaultPlan::new(m, 4).dead_router(dead).state_at(0));
        // Messages between alive nodes still flow.
        assert!(net.send(0, m.node_at(0, 0), m.node_at(5, 5), MessageKind::LlcRequest) > 0);
        net.send(0, m.node_at(0, 0), dead, MessageKind::LlcRequest);
    }

    #[test]
    fn interval_reserve_fills_gaps_and_coalesces() {
        let mut l = LinkSched::default();
        assert_eq!(l.reserve(100, 5, 0), 100); // [100,105)
        assert_eq!(l.reserve(100, 5, 0), 105); // queued: [105,110) coalesced
        assert_eq!(l.live().len(), 1);
        assert_eq!(l.reserve(0, 5, 0), 0); // gap before: [0,5)
        assert_eq!(l.live().len(), 2);
        // Fill a middle gap exactly.
        assert_eq!(l.reserve(5, 95, 0), 5);
        assert_eq!(l.live(), [(0, 110)]);
    }

    #[test]
    fn interval_reserve_skips_too_small_gaps() {
        let mut l = LinkSched::default();
        l.reserve(0, 10, 0); // [0,10)
        l.reserve(15, 10, 0); // [15,25)
        // 5-cycle gap at [10,15) cannot fit 6 cycles; next free is 25.
        assert_eq!(l.reserve(10, 6, 0), 25);
    }

    #[test]
    fn floor_drops_intervals_that_ended_by_it() {
        let mut l = LinkSched::default();
        l.reserve(0, 10, 0); // [0,10)
        l.reserve(20, 10, 0); // [20,30)
        l.reserve(40, 10, 0); // [40,50)
        assert_eq!(l.reserve(45, 10, 10), 50);
        assert_eq!(l.live(), [(20, 30), (40, 60)]);
        assert_eq!(l.reserve(60, 10, 30), 60);
        assert_eq!(l.live(), [(40, 70)]);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "before the floor")]
    fn send_before_the_floor_panics_in_debug() {
        let mut net = net6();
        let m = net.mesh();
        net.advance(100);
        net.send(99, m.node_at(0, 0), m.node_at(1, 0), MessageKind::LlcRequest);
    }

    /// The memoised route of every ordered pair of distinct nodes, asked
    /// twice (filling the memo, then reading it), against [`route`].
    fn assert_memo_matches_route(net: &mut Network, faults: &FaultState) {
        let (m, topology) = (net.mesh(), net.config().topology);
        for s in 0..m.node_count() as u16 {
            for d in (0..m.node_count() as u16).filter(|&d| d != s) {
                let (s, d) = (NodeId(s), NodeId(d));
                let want =
                    route(m, topology, faults, s, d).map(|r| r.iter().map(|l| l.index() as u32).collect());
                for _ in 0..2 {
                    let got = net.memoised_route(s, d).map(|r| net.route_links[r].to_vec());
                    assert_eq!(got, want, "{s} -> {d}");
                }
            }
        }
    }

    #[test]
    fn memoised_routes_match_route_on_every_pair() {
        use crate::faults::FaultPlan;
        use crate::routing::Direction;
        let mesh = Mesh::try_new(6, 6).unwrap();
        let none = FaultState::none(mesh, 0);
        assert_memo_matches_route(&mut net6(), &none);
        let torus = NocConfig { topology: TopologyKind::Torus, ..NocConfig::default() };
        assert_memo_matches_route(&mut Network::new(torus, mesh), &none);
        let faults = FaultPlan::new(mesh, 4)
            .dead_link(Link { from: mesh.node_at(2, 1), dir: Direction::East })
            .dead_router(mesh.node_at(3, 3))
            .state_at(0);
        let mut net = net6();
        net.set_faults(&faults);
        assert_memo_matches_route(&mut net, &faults);
    }

    #[test]
    fn set_faults_reroutes_memoised_pairs() {
        use crate::faults::FaultPlan;
        use crate::routing::{route_xy, Direction};
        let mut net = net6();
        let m = net.mesh();
        let (src, dst) = (m.node_at(0, 0), m.node_at(3, 0));
        let xy: Vec<u32> = route_xy(m, src, dst).iter().map(|l| l.index() as u32).collect();
        let memoised = |net: &mut Network| {
            let r = net.memoised_route(src, dst).unwrap();
            net.route_links[r].to_vec()
        };
        assert_eq!(memoised(&mut net), xy);
        let cut = Link { from: m.node_at(1, 0), dir: Direction::East };
        let faults = FaultPlan::new(m, 4).dead_link(cut).state_at(0);
        net.set_faults(&faults);
        let detour = memoised(&mut net);
        assert!(!detour.contains(&(cut.index() as u32)), "the detour avoids the dead link");
        assert!(detour.len() > xy.len());
        net.set_faults(&FaultState::none(m, 4));
        assert_eq!(memoised(&mut net), xy);
    }
}
