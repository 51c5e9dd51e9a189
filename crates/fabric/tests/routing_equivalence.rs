//! Routing equivalence: the allocation-free `RouteIter`, the dense
//! `NextHopTable` and the fabric's send path must reproduce, hop for hop,
//! the route the original `Vec`-building implementation computed.
//!
//! The reference implementations below are verbatim ports of the
//! pre-refactor `route_torus` / `route_mesh` (per-call `Vec`s and all),
//! kept here as the oracle. Exhaustive all-pairs checks cover the
//! acceptance topologies (crossbar, 4×4 torus, 4×4×4 torus, 8×8 mesh);
//! the property test fuzzes arbitrary torus shapes. The send-path checks
//! inject one packet per pair into a fresh fabric and read back which
//! links it instantiated, so a wrong link slot shows up as a wrong hop;
//! then every pair into one fabric, so two links sharing a slot show too.

use std::collections::BTreeMap;

use proptest::prelude::*;
use sonuma_fabric::{Fabric, FabricConfig, Topology};
use sonuma_protocol::NodeId;
use sonuma_sim::SimTime;

/// Pre-refactor dimension-order torus routing (the oracle).
fn reference_route_torus(dims: &[usize], src: usize, dst: usize) -> Vec<NodeId> {
    let coord = |mut id: usize| -> Vec<usize> {
        dims.iter()
            .map(|&d| {
                let c = id % d;
                id /= d;
                c
            })
            .collect()
    };
    let compose = |coords: &[usize]| -> usize {
        let mut id = 0;
        for (i, &c) in coords.iter().enumerate().rev() {
            id = id * dims[i] + c;
        }
        id
    };
    let mut cur = coord(src);
    let goal = coord(dst);
    let mut path = Vec::new();
    for dim in 0..dims.len() {
        let k = dims[dim];
        while cur[dim] != goal[dim] {
            let fwd = (goal[dim] + k - cur[dim]) % k;
            let step = if fwd <= k - fwd { 1 } else { k - 1 };
            cur[dim] = (cur[dim] + step) % k;
            path.push(NodeId(compose(&cur) as u16));
        }
    }
    path
}

/// Pre-refactor XY mesh routing (the oracle).
fn reference_route_mesh(width: usize, src: usize, dst: usize) -> Vec<NodeId> {
    let (mut x, mut y) = (src % width, src / width);
    let (gx, gy) = (dst % width, dst / width);
    let mut path = Vec::new();
    while x != gx {
        x = if gx > x { x + 1 } else { x - 1 };
        path.push(NodeId((y * width + x) as u16));
    }
    while y != gy {
        y = if gy > y { y + 1 } else { y - 1 };
        path.push(NodeId((y * width + x) as u16));
    }
    path
}

/// The oracle route for any topology.
fn reference_route(topo: &Topology, src: usize, dst: usize) -> Vec<NodeId> {
    if src == dst {
        return Vec::new();
    }
    match *topo {
        Topology::Crossbar { .. } => vec![NodeId(dst as u16)],
        Topology::Torus2D { width, height } => reference_route_torus(&[width, height], src, dst),
        Topology::Torus3D { x, y, z } => reference_route_torus(&[x, y, z], src, dst),
        Topology::Mesh2D { width, .. } => reference_route_mesh(width, src, dst),
    }
}

/// All-pairs equivalence of `route_iter`, `route`, the next-hop table,
/// and `distance` against the oracle.
fn assert_equivalent(topo: &Topology) {
    let n = topo.nodes();
    let table = topo.next_hop_table();
    for src in 0..n {
        for dst in 0..n {
            let (s, d) = (NodeId(src as u16), NodeId(dst as u16));
            let oracle = reference_route(topo, src, dst);
            let iter: Vec<NodeId> = topo.route_iter(s, d).collect();
            assert_eq!(iter, oracle, "{topo:?} route_iter {src}->{dst}");
            assert_eq!(topo.route(s, d), oracle, "{topo:?} route {src}->{dst}");
            assert_eq!(table.route(s, d), oracle, "{topo:?} table {src}->{dst}");
            assert_eq!(
                topo.distance(s, d),
                oracle.len() as u32,
                "{topo:?} distance {src}->{dst}"
            );
        }
    }
}

#[test]
fn crossbar_matches_reference() {
    assert_equivalent(&Topology::crossbar(16));
}

#[test]
fn torus2d_4x4_matches_reference() {
    assert_equivalent(&Topology::torus2d(4, 4));
}

#[test]
fn torus3d_4x4x4_matches_reference() {
    assert_equivalent(&Topology::torus3d(4, 4, 4));
}

#[test]
fn mesh2d_8x8_matches_reference() {
    assert_equivalent(&Topology::mesh2d(8, 8));
}

fn fabric_for(topo: &Topology) -> Fabric {
    Fabric::new(FabricConfig {
        topology: topo.clone(),
        ..FabricConfig::torus2d(2, 2)
    })
}

/// The oracle route's hops as `(from, to)` pairs.
fn reference_hops(topo: &Topology, src: usize, dst: usize) -> Vec<(u16, u16)> {
    let oracle = reference_route(topo, src, dst);
    std::iter::once(NodeId(src as u16))
        .chain(oracle.iter().copied())
        .zip(oracle.iter())
        .map(|(from, to)| (from.0, to.0))
        .collect()
}

/// Every link `fabric` instantiated, with the packets it carried.
fn links_used(fabric: &Fabric) -> BTreeMap<(u16, u16), u64> {
    let mut used = BTreeMap::new();
    fabric.visit_links(|_, from, to, _, packets, _| {
        assert!(
            used.insert((from, to), packets).is_none(),
            "{from}->{to} twice"
        );
    });
    used
}

/// One `send` on a fresh fabric must instantiate exactly the links of the
/// oracle route, labelled with its hop pairs, and report its hop count.
fn assert_send_walks_reference(topo: &Topology, src: usize, dst: usize) {
    let mut fabric = fabric_for(topo);
    let arrival = fabric.send(SimTime::ZERO, NodeId(src as u16), NodeId(dst as u16), 0, 88);
    let hops = reference_hops(topo, src, dst);
    let expected: BTreeMap<(u16, u16), u64> = hops.iter().map(|&hop| (hop, 1)).collect();
    assert_eq!(links_used(&fabric), expected, "{topo:?} send {src}->{dst}");
    assert_eq!(
        arrival.hops as usize,
        hops.len(),
        "{topo:?} hops {src}->{dst}"
    );
}

/// The send path on every ordered pair of distinct nodes: each pair on a
/// fresh fabric, then all pairs on one fabric, whose links must carry
/// exactly the packets the oracle routes put on them — two links that
/// shared a slot would show as one row carrying both links' packets.
fn assert_send_equivalent(topo: &Topology) {
    let n = topo.nodes();
    let mut shared = fabric_for(topo);
    let mut expected = BTreeMap::new();
    for src in 0..n {
        for dst in (0..n).filter(|&d| d != src) {
            assert_send_walks_reference(topo, src, dst);
            shared.send(SimTime::ZERO, NodeId(src as u16), NodeId(dst as u16), 0, 88);
            for hop in reference_hops(topo, src, dst) {
                *expected.entry(hop).or_insert(0) += 1;
            }
        }
    }
    assert_eq!(links_used(&shared), expected, "{topo:?} all pairs");
}

#[test]
fn crossbar_sends_walk_reference() {
    assert_send_equivalent(&Topology::crossbar(8));
}

#[test]
fn torus2d_4x4_sends_walk_reference() {
    assert_send_equivalent(&Topology::torus2d(4, 4));
}

#[test]
fn torus3d_4x4x4_sends_walk_reference() {
    assert_send_equivalent(&Topology::torus3d(4, 4, 4));
}

#[test]
fn ring_of_two_torus_sends_walk_reference() {
    // The x ring has two nodes: both directions share one link.
    assert_send_equivalent(&Topology::torus3d(2, 3, 4));
}

#[test]
fn mesh2d_8x8_sends_walk_reference() {
    assert_send_equivalent(&Topology::mesh2d(8, 8));
}

#[test]
fn torus3d_16x8x8_sampled_sends_walk_reference() {
    // The 1024-node rack of the KV workload: routes of up to 16 hops,
    // sampled pairs (all pairs would build a million fabrics).
    let topo = Topology::torus3d(16, 8, 8);
    let n = topo.nodes();
    let mut seed = 0x2545_F491_4F6C_DD1Du64;
    for _ in 0..2000 {
        seed ^= seed << 13;
        seed ^= seed >> 7;
        seed ^= seed << 17;
        let (src, dst) = (
            (seed % n as u64) as usize,
            ((seed >> 32) % n as u64) as usize,
        );
        if src != dst {
            assert_send_walks_reference(&topo, src, dst);
        }
    }
}

proptest! {
    /// Any torus shape, any pair: `route_iter` reproduces the oracle.
    #[test]
    fn arbitrary_torus_routes_match_reference(
        w in 1usize..7, h in 1usize..7, d in 1usize..5,
        src in 0usize..245, dst in 0usize..245,
    ) {
        let topo = Topology::torus3d(w, h, d);
        let n = topo.nodes();
        let (src, dst) = (src % n, dst % n);
        let oracle = reference_route(&topo, src, dst);
        let got: Vec<NodeId> = topo
            .route_iter(NodeId(src as u16), NodeId(dst as u16))
            .collect();
        prop_assert_eq!(got, oracle);
    }

    /// Any mesh shape, any pair: `route_iter` reproduces the oracle.
    #[test]
    fn arbitrary_mesh_routes_match_reference(
        w in 1usize..12, h in 1usize..12,
        src in 0usize..144, dst in 0usize..144,
    ) {
        let topo = Topology::mesh2d(w, h);
        let n = topo.nodes();
        let (src, dst) = (src % n, dst % n);
        let oracle = reference_route(&topo, src, dst);
        let got: Vec<NodeId> = topo
            .route_iter(NodeId(src as u16), NodeId(dst as u16))
            .collect();
        prop_assert_eq!(got, oracle);
    }
}
