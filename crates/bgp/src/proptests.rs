//! Property-based tests over randomly generated valley-free topologies.
//!
//! The generators build arbitrary layered hierarchies (random tier sizes,
//! random provider assignments, random peering at the top) and check the
//! invariants every consumer of the propagation machinery relies on.

#![cfg(test)]

use crate::cone::ConeCache;
use crate::graph::AsGraph;
use crate::paths::PathOutcome;
use crate::propagation::{RouteKind, RouteSim};
use crate::relationship::RelEdge;
use lacnet_types::{Asn, MonthStamp};
use proptest::prelude::*;
use std::collections::BTreeSet;

/// Strategy: a random 3-layer hierarchy. Tier-1s form a full peering
/// mesh; every lower node buys transit from 1–2 random nodes one layer
/// up. ASNs are layer-coded for readability (1x, 2xx, 3xxx).
fn hierarchy_strategy() -> impl Strategy<Value = AsGraph> {
    (2usize..4, 2usize..6, 2usize..10, any::<u64>()).prop_map(|(n1, n2, n3, seed)| {
        let mut rng = lacnet_types::rng::Rng::seeded(seed);
        let t1: Vec<Asn> = (0..n1).map(|i| Asn(10 + i as u32)).collect();
        let t2: Vec<Asn> = (0..n2).map(|i| Asn(200 + i as u32)).collect();
        let t3: Vec<Asn> = (0..n3).map(|i| Asn(3000 + i as u32)).collect();
        let mut edges = Vec::new();
        for (i, &a) in t1.iter().enumerate() {
            for &b in t1.iter().skip(i + 1) {
                edges.push(RelEdge::peering(a, b));
            }
        }
        for &c in &t2 {
            let n_prov = 1 + rng.below(2) as usize;
            for k in 0..n_prov {
                let p = t1[(rng.below(t1.len() as u64) as usize + k) % t1.len()];
                edges.push(RelEdge::transit(p, c));
            }
        }
        for &c in &t3 {
            let n_prov = 1 + rng.below(2) as usize;
            for k in 0..n_prov {
                let p = t2[(rng.below(t2.len() as u64) as usize + k) % t2.len()];
                edges.push(RelEdge::transit(p, c));
            }
        }
        AsGraph::from_edges(edges)
    })
}

/// Strategy: an *arbitrary* transit digraph — random p2c edges over a
/// small ASN pool, cycles very much allowed. The cone analytics must
/// behave identically cached and fresh even off the valley-free happy
/// path.
fn tangled_strategy() -> impl Strategy<Value = AsGraph> {
    (2u32..12, 1usize..40, any::<u64>()).prop_map(|(n, m, seed)| {
        let mut rng = lacnet_types::rng::Rng::seeded(seed);
        let mut edges = Vec::new();
        for _ in 0..m {
            let a = Asn(1 + rng.below(n as u64) as u32);
            let b = Asn(1 + rng.below(n as u64) as u32);
            if a != b {
                edges.push(RelEdge::transit(a, b));
            }
        }
        AsGraph::from_edges(edges)
    })
}

/// Strategy: an arbitrary mixed-relationship graph and a collector set.
/// Random p2c and p2p edges over a small ASN pool give peer chains,
/// provider cycles, isolated pieces and pool ASes missing from the graph;
/// collectors are drawn from the pool plus three ASNs that never appear,
/// so some have providers, some are unknown, and the set may be empty.
/// Unlike [`hierarchy_strategy`], most origins reach only some ASes.
fn mixed_strategy() -> impl Strategy<Value = (AsGraph, Vec<Asn>)> {
    (2u32..16, 0usize..30, 0usize..20, 0usize..4, any::<u64>()).prop_map(
        |(n, transit, peering, k, seed)| {
            let mut rng = lacnet_types::rng::Rng::seeded(seed);
            let mut pair = || {
                let a = Asn(1 + rng.below(n as u64) as u32);
                let b = Asn(1 + rng.below(n as u64) as u32);
                (a, b)
            };
            let mut edges = Vec::new();
            for _ in 0..transit {
                let (a, b) = pair();
                if a != b {
                    edges.push(RelEdge::transit(a, b));
                }
            }
            for _ in 0..peering {
                let (a, b) = pair();
                if a != b {
                    edges.push(RelEdge::peering(a, b));
                }
            }
            let collectors = (0..k)
                .map(|_| Asn(1 + rng.below(n as u64 + 3) as u32))
                .collect();
            (AsGraph::from_edges(edges), collectors)
        },
    )
}

/// Walk a path origin-outward and assert the valley-free pattern.
fn assert_valley_free(g: &AsGraph, path: &[Asn]) {
    // Forward direction: origin → vantage.
    let fwd: Vec<Asn> = path.iter().rev().copied().collect();
    let mut descended = false;
    let mut peered = false;
    for w in fwd.windows(2) {
        let (from, to) = (w[0], w[1]);
        let adj = g.adjacency(from).expect("path AS exists");
        if adj.providers.contains(&to) {
            assert!(
                !descended && !peered,
                "climb after descent/peer in {path:?}"
            );
        } else if adj.peers.contains(&to) {
            assert!(!descended && !peered, "second plateau in {path:?}");
            peered = true;
        } else {
            assert!(adj.customers.contains(&to), "non-edge step in {path:?}");
            descended = true;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn full_hierarchy_reaches_everyone(g in hierarchy_strategy()) {
        // In a connected hierarchy (every node has a transit chain to the
        // fully meshed top), every announcement reaches every AS.
        let sim = RouteSim::new(&g);
        let asns: Vec<Asn> = g.asns().collect();
        for &origin in asns.iter().take(4) {
            let out = sim.propagate(origin);
            prop_assert_eq!(out.reach_count(), g.node_count(), "origin {}", origin);
        }
    }

    #[test]
    fn every_reconstructed_path_is_valley_free(g in hierarchy_strategy()) {
        let asns: Vec<Asn> = g.asns().collect();
        for &origin in asns.iter().rev().take(3) {
            let out = PathOutcome::compute(&g, origin);
            for path in out.all_paths() {
                assert_valley_free(&g, &path);
            }
        }
    }

    #[test]
    fn path_outcome_and_route_sim_agree(g in hierarchy_strategy()) {
        let asns: Vec<Asn> = g.asns().collect();
        let sim = RouteSim::new(&g);
        for &origin in asns.iter().take(3) {
            let a = PathOutcome::compute(&g, origin);
            let b = sim.propagate(origin);
            for &asn in &asns {
                let ra = a.route(asn).map(|r| (r.kind, r.hops));
                let rb = b.route(asn).map(|r| (r.kind, r.hops));
                prop_assert_eq!(ra, rb, "{} from {}", asn, origin);
            }
        }
    }

    #[test]
    fn customer_routes_at_ancestors_only(g in hierarchy_strategy()) {
        // An AS holds a customer route iff the origin is in its customer
        // cone (strictly below it).
        let sim = RouteSim::new(&g);
        let asns: Vec<Asn> = g.asns().collect();
        for &origin in asns.iter().rev().take(3) {
            let out = sim.propagate(origin);
            for &asn in &asns {
                if asn == origin {
                    continue;
                }
                let has_customer_route =
                    out.route(asn).is_some_and(|r| r.kind == RouteKind::Customer);
                let in_cone = g.customer_cone(asn).contains(&origin);
                prop_assert_eq!(has_customer_route, in_cone, "{} vs origin {}", asn, origin);
            }
        }
    }

    #[test]
    fn hop_counts_are_shortest_within_class(g in hierarchy_strategy()) {
        // Customer-route hop counts equal the shortest provider-edge
        // distance (BFS over the reversed customer-cone edges).
        let sim = RouteSim::new(&g);
        let asns: Vec<Asn> = g.asns().collect();
        let origin = *asns.last().expect("non-empty");
        let out = sim.propagate(origin);
        // Independent BFS up provider edges.
        let mut dist = std::collections::BTreeMap::new();
        dist.insert(origin, 0u32);
        let mut queue = std::collections::VecDeque::from([origin]);
        while let Some(u) = queue.pop_front() {
            let d = dist[&u];
            if let Some(adj) = g.adjacency(u) {
                for &p in &adj.providers {
                    dist.entry(p).or_insert_with(|| {
                        queue.push_back(p);
                        d + 1
                    });
                }
            }
        }
        for (asn, d) in dist {
            let r = out.route(asn).expect("ancestor routed");
            prop_assert_eq!(r.hops, d, "{}", asn);
        }
    }

    #[test]
    fn origins_reaching_equals_per_origin_visibility((g, collectors) in mixed_strategy()) {
        // The one reverse pass must pick exactly the origins a forward
        // propagation each would find visible, over every AS of the graph,
        // every collector and one AS nobody knows.
        let sim = RouteSim::new(&g);
        let mut universe: BTreeSet<Asn> = g.asns().collect();
        universe.extend(&collectors);
        universe.insert(Asn(999_999));
        let expected: BTreeSet<Asn> = universe
            .into_iter()
            .filter(|&o| sim.propagate(o).visibility(&collectors) > 0.0)
            .collect();
        prop_assert_eq!(sim.origins_reaching(&collectors), expected, "collectors {:?}", collectors);
    }

    #[test]
    fn serial1_roundtrip_preserves_any_graph(g in hierarchy_strategy()) {
        let text = crate::serial1::to_text(&g.edges(), "proptest");
        let back = AsGraph::from_edges(crate::serial1::parse(&text).unwrap());
        prop_assert_eq!(back.edges(), g.edges());
    }

    #[test]
    fn cone_cache_equals_fresh_computation(g in hierarchy_strategy()) {
        // Every AS (plus one unknown) served by the cache matches a fresh
        // `customer_cone`, each key computes exactly once, and repeats
        // stay served from the memo.
        let cache = ConeCache::new();
        let month = MonthStamp::new(2020, 1);
        let mut asns: Vec<Asn> = g.asns().collect();
        asns.push(Asn(999_999)); // unknown to the graph
        for &asn in &asns {
            prop_assert_eq!((*cache.cone(month, &g, asn)).clone(), g.customer_cone(asn));
        }
        prop_assert_eq!(cache.computations(), asns.len());
        for &asn in &asns {
            prop_assert_eq!((*cache.cone(month, &g, asn)).clone(), g.customer_cone(asn));
        }
        prop_assert_eq!(cache.computations(), asns.len(), "repeats are memo hits");
    }

    #[test]
    fn cone_cache_handles_cycles_and_unknowns(g in tangled_strategy()) {
        // On arbitrary (possibly cyclic) transit digraphs the cached cone
        // still terminates, contains the root, stays within the node set,
        // and equals the fresh walk — and unknown ASes yield singletons on
        // both paths.
        let cache = ConeCache::new();
        let month = MonthStamp::new(2021, 6);
        for asn in g.asns() {
            let fresh = g.customer_cone(asn);
            let cached = cache.cone(month, &g, asn);
            prop_assert!(cached.contains(&asn), "cone includes self");
            prop_assert!(cached.iter().all(|a| g.contains(*a)));
            prop_assert_eq!((*cached).clone(), fresh);
        }
        let unknown = Asn(777_777);
        let fresh = g.customer_cone(unknown);
        prop_assert_eq!(
            (*cache.cone(month, &g, unknown)).clone(),
            fresh.clone()
        );
        prop_assert_eq!(fresh, BTreeSet::from([unknown]));
    }
}
