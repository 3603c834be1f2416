//! Network topology: nodes, links, builders and routing.
//!
//! Topologies are simple undirected port graphs: every connection occupies
//! one port on each endpoint and is a full-duplex link with independent
//! per-direction serialization. Routing is destination-based shortest-path
//! with deterministic ECMP (hash of the flow picks among equal-cost next
//! hops, so a flow always follows one path and delivery within a flow is
//! ordered).

use flare_des::rng::splitmix64;
use flare_des::Time;

/// A node (host or switch) in the topology.
///
/// Deliberately `u32`: a `NodeId` rides in every [`crate::NetPacket`] and
/// every event moved through the simulator's ladder queue, so narrowing it
/// (4 B instead of a machine word) directly cuts the bytes copied per
/// packet hop. Four billion nodes is far beyond any simulated fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The id as a `usize` index into per-node tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// A port index local to a node.
///
/// `u16` for the same hot-path layout reason as [`NodeId`]; switch radix
/// never approaches 65 k ports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PortId(pub u16);

impl PortId {
    /// The port as a `usize` index into a node's port table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Physical link parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkSpec {
    /// Bandwidth in Gbps.
    pub gbps: f64,
    /// Propagation latency in ns.
    pub latency_ns: Time,
}

impl LinkSpec {
    /// The paper's Figure 15 links: 100 Gbps, with a typical switch-to-NIC
    /// propagation + forwarding latency of 200 ns.
    pub fn hundred_gig() -> Self {
        Self {
            gbps: 100.0,
            latency_ns: 200,
        }
    }

    /// Serialization time in ns for a packet of `bytes` bytes.
    pub fn serialize_ns(&self, bytes: u32) -> Time {
        // bytes * 8 bits / (gbps Gb/s) = bytes * 8 / gbps ns
        ((bytes as f64 * 8.0 / self.gbps).ceil() as Time).max(1)
    }

    /// Bandwidth in bytes per ns.
    pub fn bytes_per_ns(&self) -> f64 {
        self.gbps / 8.0
    }
}

/// Whether a node is a host endpoint or a switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An end host (runs a `HostProgram`).
    Host,
    /// A switch (forwards; may run a `SwitchProgram`).
    Switch,
}

/// One endpoint's view of a link.
#[derive(Debug, Clone, Copy)]
pub struct PortLink {
    /// The link id.
    pub link: usize,
    /// The peer node.
    pub peer: NodeId,
    /// The peer's port on this link.
    pub peer_port: PortId,
}

/// A full-duplex link between two node ports.
#[derive(Debug, Clone)]
pub struct Link {
    /// Endpoint A `(node, port)`.
    pub a: (NodeId, PortId),
    /// Endpoint B `(node, port)`.
    pub b: (NodeId, PortId),
    /// Physical parameters.
    pub spec: LinkSpec,
}

/// The network graph.
#[derive(Debug, Default, Clone)]
pub struct Topology {
    kinds: Vec<NodeKind>,
    names: Vec<String>,
    /// Per node: ports in index order.
    ports: Vec<Vec<PortLink>>,
    links: Vec<Link>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a host node.
    pub fn add_host(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Host, name.into())
    }

    /// Add a switch node.
    pub fn add_switch(&mut self, name: impl Into<String>) -> NodeId {
        self.add_node(NodeKind::Switch, name.into())
    }

    fn add_node(&mut self, kind: NodeKind, name: String) -> NodeId {
        let id = NodeId(self.kinds.len() as u32);
        self.kinds.push(kind);
        self.names.push(name);
        self.ports.push(Vec::new());
        id
    }

    /// Connect two nodes with a link; allocates the next free port on each.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> usize {
        assert_ne!(a, b, "self-links are not allowed");
        let link = self.links.len();
        let pa = PortId(self.ports[a.index()].len() as u16);
        let pb = PortId(self.ports[b.index()].len() as u16);
        self.ports[a.index()].push(PortLink {
            link,
            peer: b,
            peer_port: pb,
        });
        self.ports[b.index()].push(PortLink {
            link,
            peer: a,
            peer_port: pa,
        });
        self.links.push(Link {
            a: (a, pa),
            b: (b, pb),
            spec,
        });
        link
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.kinds.len()
    }

    /// Number of links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node kind.
    pub fn kind(&self, n: NodeId) -> NodeKind {
        self.kinds[n.index()]
    }

    /// Node display name.
    pub fn name(&self, n: NodeId) -> &str {
        &self.names[n.index()]
    }

    /// All hosts, in id order.
    pub fn hosts(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .map(|i| NodeId(i as u32))
            .filter(|&n| self.kind(n) == NodeKind::Host)
            .collect()
    }

    /// All switches, in id order.
    pub fn switches(&self) -> Vec<NodeId> {
        (0..self.node_count())
            .map(|i| NodeId(i as u32))
            .filter(|&n| self.kind(n) == NodeKind::Switch)
            .collect()
    }

    /// Ports of a node.
    pub fn ports_of(&self, n: NodeId) -> &[PortLink] {
        &self.ports[n.index()]
    }

    /// Link record.
    pub fn link(&self, id: usize) -> &Link {
        &self.links[id]
    }

    /// Minimum propagation latency over all links, in ns (`None` for a
    /// linkless topology).
    ///
    /// This is the conservative-lookahead bound of the parallel driver:
    /// a packet egressed at time `t` can reach a neighbor no earlier than
    /// `t + min_link_latency + 1` (serialization takes at least 1 ns), so
    /// partitions may process a `min_link_latency + 1` wide window of
    /// events without synchronizing.
    pub fn min_link_latency(&self) -> Option<Time> {
        self.links.iter().map(|l| l.spec.latency_ns).min()
    }

    /// The port of `from` whose link peers with `to`, if directly connected.
    pub fn port_towards(&self, from: NodeId, to: NodeId) -> Option<PortId> {
        self.ports[from.index()]
            .iter()
            .position(|pl| pl.peer == to)
            .map(|i| PortId(i as u16))
    }

    /// Compute destination-based routing: the candidate egress ports at
    /// `node` towards `dest` are every port whose peer is one hop closer
    /// to `dest`, and `hash(flow)` picks one of them.
    pub fn build_routing(&self) -> Routing {
        let n = self.node_count();
        assert!(
            n < usize::from(u16::MAX),
            "routing supports fewer than {} nodes",
            u16::MAX
        );
        let dist = self.hop_distances();
        let mut routing = Routing {
            nodes: n,
            spans: Vec::with_capacity(n * n),
            ports: Vec::new(),
        };
        // Port-major, node by node: bit `pi % 64` of `masks[(pi / 64) * n
        // + dest]` is set when port `pi` leads one hop closer to `dest`.
        // Hop distance is symmetric, so the peer's distances to every
        // destination are one row of `dist`, read sequentially.
        let mut masks: Vec<u64> = Vec::new();
        for u in 0..n {
            let own = &dist[u * n..][..n];
            let words = self.ports[u].len().div_ceil(64).max(1);
            masks.clear();
            masks.resize(words * n, 0);
            for (pi, pl) in self.ports[u].iter().enumerate() {
                let peer = &dist[pl.peer.index() * n..][..n];
                let shift = pi % 64;
                let row = &mut masks[(pi / 64) * n..][..n];
                for ((mask, &d_peer), &d_own) in row.iter_mut().zip(peer).zip(own) {
                    // Unreachable is `u16::MAX` on both sides, and
                    // `u16::MAX + 1` wraps to 0, which no unreachable
                    // `d_own` equals.
                    *mask |= u64::from(d_peer.wrapping_add(1) == d_own) << shift;
                }
            }
            // One stored list per run of equal candidate sets.
            let set = &masks;
            let mask = |dest: usize| (0..words).map(move |w| set[w * n + dest]);
            let mut span = (0, 0);
            for dest in 0..n {
                if dest == 0 || !mask(dest).eq(mask(dest - 1)) {
                    let start = routing.ports.len();
                    for (w, bits) in mask(dest).enumerate() {
                        routing
                            .ports
                            .extend(set_bits(bits).map(|b| (w * 64 + b) as u16));
                    }
                    let len = routing.ports.len() - start;
                    span = (
                        u32::try_from(start).expect("routing table size"),
                        len as u32,
                    );
                }
                routing.spans.push(span);
            }
        }
        routing
    }

    /// Hop distances between every pair of nodes, `dist[u * n + v]`
    /// (`u16::MAX` when unreachable), from a breadth-first search out of
    /// every node at once: level by level, `reached[v]` holds one bit per
    /// source that has reached `v`, and `frontier[v]` those that first
    /// reached it at the last level.
    fn hop_distances(&self) -> Vec<u16> {
        let n = self.node_count();
        let words = n.div_ceil(64);
        let mut dist = vec![u16::MAX; n * n];
        let mut reached = vec![0u64; n * words];
        for v in 0..n {
            dist[v * n + v] = 0;
            reached[v * words + v / 64] |= 1 << (v % 64);
        }
        let mut frontier = reached.clone();
        let mut next = vec![0u64; n * words];
        for level in 1.. {
            let mut grew = false;
            for v in 0..n {
                let row = &mut next[v * words..][..words];
                row.fill(0);
                for pl in &self.ports[v] {
                    let peer = &frontier[pl.peer.index() * words..][..words];
                    row.iter_mut().zip(peer).for_each(|(a, &b)| *a |= b);
                }
                let seen = &mut reached[v * words..][..words];
                for (w, (new, old)) in row.iter_mut().zip(seen).enumerate() {
                    *new &= !*old;
                    *old |= *new;
                    grew |= *new != 0;
                    for b in set_bits(*new) {
                        dist[v * n + w * 64 + b] = level;
                    }
                }
            }
            if !grew {
                break;
            }
            std::mem::swap(&mut frontier, &mut next);
        }
        dist
    }

    /// Build the paper's Figure 15 network: a 2-level fat tree with
    /// `leaves` leaf switches of `hosts_per_leaf` hosts each, every leaf
    /// connected to every one of `spines` spine switches.
    ///
    /// The paper's configuration is `fat_tree_two_level(16, 4, 4, …)`:
    /// 64 hosts, leaf radix 8 (4 down + 4 up). Note the implied spine
    /// radix is `leaves` (16) — a 64-host 2-level tree is not wireable with
    /// all-radix-8 switches; we keep the paper's host count and leaf radix
    /// and let spines take the extra ports (documented in DESIGN.md).
    pub fn fat_tree_two_level(
        leaves: usize,
        hosts_per_leaf: usize,
        spines: usize,
        spec: LinkSpec,
    ) -> (Self, FatTree) {
        let mut topo = Self::new();
        let mut hosts = Vec::new();
        let leaf_ids: Vec<NodeId> = (0..leaves)
            .map(|l| topo.add_switch(format!("leaf{l}")))
            .collect();
        let spine_ids: Vec<NodeId> = (0..spines)
            .map(|s| topo.add_switch(format!("spine{s}")))
            .collect();
        for (l, &leaf) in leaf_ids.iter().enumerate() {
            for h in 0..hosts_per_leaf {
                let host = topo.add_host(format!("h{}", l * hosts_per_leaf + h));
                topo.connect(host, leaf, spec);
                hosts.push(host);
            }
        }
        for &leaf in &leaf_ids {
            for &spine in &spine_ids {
                topo.connect(leaf, spine, spec);
            }
        }
        (
            topo,
            FatTree {
                hosts,
                leaves: leaf_ids,
                spines: spine_ids,
                hosts_per_leaf,
            },
        )
    }

    /// A single-switch star: `hosts` hosts on one switch (the paper's
    /// single-switch PsPIN experiments, Figures 11–14).
    pub fn star(hosts: usize, spec: LinkSpec) -> (Self, NodeId, Vec<NodeId>) {
        let mut topo = Self::new();
        let sw = topo.add_switch("sw0");
        let hs: Vec<NodeId> = (0..hosts)
            .map(|i| {
                let h = topo.add_host(format!("h{i}"));
                topo.connect(h, sw, spec);
                h
            })
            .collect();
        (topo, sw, hs)
    }
}

/// Indices of the set bits of `word`, ascending.
fn set_bits(mut word: u64) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        (word != 0).then(|| {
            let bit = word.trailing_zeros() as usize;
            word &= word - 1;
            bit
        })
    })
}

/// Node inventory of a generated fat tree.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Hosts in rank order (leaf-major).
    pub hosts: Vec<NodeId>,
    /// Leaf switches.
    pub leaves: Vec<NodeId>,
    /// Spine switches.
    pub spines: Vec<NodeId>,
    /// Hosts under each leaf.
    pub hosts_per_leaf: usize,
}

impl FatTree {
    /// Leaf switch of the host with the given rank.
    pub fn leaf_of(&self, rank: usize) -> NodeId {
        self.leaves[rank / self.hosts_per_leaf]
    }
}

/// Destination-based next-hop tables with deterministic ECMP.
///
/// Every candidate list lives in one flat port array; a `(start, len)`
/// span per `(node, dest)` locates it. Consecutive destinations with the
/// same list share one copy: a leaf's list towards every remote host is
/// the same set of uplinks, so a fat tree stores a few lists per node
/// instead of one per node pair.
#[derive(Debug, Clone)]
pub struct Routing {
    nodes: usize,
    /// `spans[node * nodes + dest]` = `(start, len)` into `ports`.
    spans: Vec<(u32, u32)>,
    /// Candidate egress ports (equal cost), concatenated.
    ports: Vec<u16>,
}

impl Routing {
    fn candidates(&self, node: NodeId, dest: NodeId) -> &[u16] {
        let (start, len) = self.spans[node.index() * self.nodes + dest.index()];
        &self.ports[start as usize..][..len as usize]
    }

    /// Egress port at `node` towards `dest` for `flow` (ECMP by flow hash).
    ///
    /// Returns `None` when `node == dest` or `dest` is unreachable.
    pub fn next_port(&self, node: NodeId, dest: NodeId, flow: u32) -> Option<PortId> {
        let cands = self.candidates(node, dest);
        if cands.is_empty() {
            return None;
        }
        let pick = (splitmix64(flow as u64) % cands.len() as u64) as usize;
        Some(PortId(cands[pick]))
    }

    /// Number of equal-cost choices at `node` towards `dest`.
    pub fn ecmp_width(&self, node: NodeId, dest: NodeId) -> usize {
        self.candidates(node, dest).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    #[test]
    fn link_serialization_time_is_size_over_bandwidth() {
        let spec = LinkSpec::hundred_gig();
        // 1250 bytes at 100 Gbps = 12.5 GB/s ⇒ 100 ns.
        assert_eq!(spec.serialize_ns(1250), 100);
        assert_eq!(spec.serialize_ns(0), 1);
        assert!((spec.bytes_per_ns() - 12.5).abs() < 1e-12);
    }

    #[test]
    fn star_wires_every_host_to_the_switch() {
        let (topo, sw, hosts) = Topology::star(4, LinkSpec::hundred_gig());
        assert_eq!(topo.node_count(), 5);
        assert_eq!(topo.link_count(), 4);
        assert_eq!(topo.ports_of(sw).len(), 4);
        for h in hosts {
            assert_eq!(topo.ports_of(h).len(), 1);
            assert!(topo.port_towards(h, sw).is_some());
        }
    }

    #[test]
    fn paper_fat_tree_has_expected_shape() {
        let (topo, ft) = Topology::fat_tree_two_level(16, 4, 4, LinkSpec::hundred_gig());
        assert_eq!(ft.hosts.len(), 64);
        assert_eq!(ft.leaves.len(), 16);
        assert_eq!(ft.spines.len(), 4);
        // 64 host links + 16×4 uplinks.
        assert_eq!(topo.link_count(), 64 + 64);
        // Leaf radix: 4 hosts + 4 spines = 8 ports, the paper's switches.
        for &leaf in &ft.leaves {
            assert_eq!(topo.ports_of(leaf).len(), 8);
        }
        assert_eq!(ft.leaf_of(0), ft.leaves[0]);
        assert_eq!(ft.leaf_of(63), ft.leaves[15]);
    }

    #[test]
    fn routing_reaches_every_pair_by_shortest_path() {
        let (topo, ft) = Topology::fat_tree_two_level(4, 2, 2, LinkSpec::hundred_gig());
        let routing = topo.build_routing();
        // Same-leaf hosts: 2 hops (host→leaf→host): first hop toward leaf.
        let h0 = ft.hosts[0];
        let h1 = ft.hosts[1];
        let p = routing.next_port(h0, h1, 0).unwrap();
        assert_eq!(topo.ports_of(h0)[p.index()].peer, ft.leaf_of(0));
        // Cross-leaf: leaf must offer ECMP across both spines.
        let h2 = ft.hosts[2];
        assert_eq!(routing.ecmp_width(ft.leaf_of(0), h2), 2);
        // Flow hash is deterministic.
        let a = routing.next_port(ft.leaf_of(0), h2, 7);
        let b = routing.next_port(ft.leaf_of(0), h2, 7);
        assert_eq!(a, b);
    }

    #[test]
    fn routing_returns_none_at_destination() {
        let (topo, _, hosts) = Topology::star(2, LinkSpec::hundred_gig());
        let routing = topo.build_routing();
        assert!(routing.next_port(hosts[0], hosts[0], 0).is_none());
    }

    /// The nested-`Vec` table the flat [`Routing`] replaced, kept as the
    /// reference it must agree with: one BFS per destination, one
    /// candidate list per `(node, dest)`.
    struct NestedRouting {
        next_hops: Vec<Vec<Vec<u16>>>,
    }

    impl NestedRouting {
        fn build(topo: &Topology) -> Self {
            let n = topo.node_count();
            let mut next_hops: Vec<Vec<Vec<u16>>> = vec![vec![Vec::new(); n]; n];
            for dest in 0..n {
                let mut dist = vec![u32::MAX; n];
                dist[dest] = 0;
                let mut q = VecDeque::from([dest]);
                while let Some(u) = q.pop_front() {
                    for pl in &topo.ports[u] {
                        let v = pl.peer.index();
                        if dist[v] == u32::MAX {
                            dist[v] = dist[u] + 1;
                            q.push_back(v);
                        }
                    }
                }
                for u in 0..n {
                    if u == dest || dist[u] == u32::MAX {
                        continue;
                    }
                    for (pi, pl) in topo.ports[u].iter().enumerate() {
                        if dist[pl.peer.index()] + 1 == dist[u] {
                            next_hops[u][dest].push(pi as u16);
                        }
                    }
                }
            }
            Self { next_hops }
        }

        fn next_port(&self, node: NodeId, dest: NodeId, flow: u32) -> Option<PortId> {
            let cands = &self.next_hops[node.index()][dest.index()];
            if cands.is_empty() {
                return None;
            }
            let pick = (splitmix64(flow as u64) % cands.len() as u64) as usize;
            Some(PortId(cands[pick]))
        }

        fn ecmp_width(&self, node: NodeId, dest: NodeId) -> usize {
            self.next_hops[node.index()][dest.index()].len()
        }
    }

    fn assert_routes_match_reference(topo: &Topology) {
        let want = NestedRouting::build(topo);
        let got = topo.build_routing();
        let nodes = || (0..topo.node_count() as u32).map(NodeId);
        for node in nodes() {
            for dest in nodes() {
                assert_eq!(
                    got.ecmp_width(node, dest),
                    want.ecmp_width(node, dest),
                    "ecmp width {node:?} -> {dest:?}"
                );
                for flow in 0..8 {
                    assert_eq!(
                        got.next_port(node, dest, flow),
                        want.next_port(node, dest, flow),
                        "next port {node:?} -> {dest:?}, flow {flow}"
                    );
                }
            }
        }
    }

    #[test]
    fn flat_routing_matches_the_nested_reference() {
        let spec = LinkSpec::hundred_gig();
        // (4, 2, 2) is the small tree of the tests above, (16, 8, 16) a
        // 128-host tree, (3, 70, 5) has leaves of more than 64 ports.
        for (leaves, per_leaf, spines) in [(4, 2, 2), (16, 8, 16), (3, 70, 5)] {
            let (topo, _) = Topology::fat_tree_two_level(leaves, per_leaf, spines, spec);
            assert_routes_match_reference(&topo);
        }
        assert_routes_match_reference(&Topology::star(5, spec).0);
        // A star plus a detached host pair and an isolated host: every
        // route into or out of another component is `None`.
        let (mut topo, _, _) = Topology::star(3, spec);
        let a = topo.add_host("a");
        let b = topo.add_host("b");
        topo.connect(a, b, spec);
        let island = topo.add_host("island");
        let routing = topo.build_routing();
        assert_eq!(routing.ecmp_width(a, island), 0);
        assert!(routing.next_port(NodeId(0), a, 0).is_none());
        assert!(routing.next_port(a, b, 0).is_some());
        assert_routes_match_reference(&topo);
    }

    #[test]
    fn hosts_and_switches_partition_nodes() {
        let (topo, ft) = Topology::fat_tree_two_level(2, 2, 1, LinkSpec::hundred_gig());
        assert_eq!(topo.hosts().len(), 4);
        assert_eq!(topo.switches().len(), 3);
        assert_eq!(topo.kind(ft.hosts[0]), NodeKind::Host);
        assert_eq!(topo.kind(ft.spines[0]), NodeKind::Switch);
    }
}
