//! Valley-free (Gao–Rexford) route propagation.
//!
//! Deciding whether an announced prefix is *visible* at route collectors —
//! the signal behind Fig. 2's announced-space series and Fig. 14's
//! Telefónica visibility heatmap — requires knowing which ASes learn a
//! route to a given origin under standard export policies:
//!
//! * routes learned **from a customer** are exported to everyone;
//! * routes learned **from a peer or provider** are exported only to
//!   customers;
//! * preference is customer > peer > provider, then shorter AS path.
//!
//! We compute the all-AS outcome for one origin with the classic
//! three-phase BFS (up the customer→provider edges, one hop across peer
//! edges, down the provider→customer edges), which is `O(V + E)` per
//! origin. When only *which* origins reach a collector set matters,
//! [`RouteSim::origins_reaching`] runs the three phases in reverse once
//! for all origins, also in `O(V + E)`.

use crate::graph::AsGraph;
use lacnet_types::Asn;
use std::collections::VecDeque;
use std::collections::{BTreeMap, BTreeSet};

/// How an AS learned its best route to the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RouteKind {
    /// The AS is the origin itself.
    Origin,
    /// Learned from a customer (most preferred).
    Customer,
    /// Learned from a peer.
    Peer,
    /// Learned from a provider (least preferred).
    Provider,
}

/// The best route one AS holds toward the origin.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Preference class of the best route.
    pub kind: RouteKind,
    /// AS-path length in hops (origin = 0).
    pub hops: u32,
}

/// Result of propagating one origin's announcement over the graph.
#[derive(Debug, Clone)]
pub struct PropagationOutcome {
    origin: Asn,
    routes: BTreeMap<Asn, Route>,
}

impl PropagationOutcome {
    /// The origin AS.
    pub fn origin(&self) -> Asn {
        self.origin
    }

    /// The best route `asn` holds, if it learned one.
    pub fn route(&self, asn: Asn) -> Option<Route> {
        self.routes.get(&asn).copied()
    }

    /// Whether `asn` learned any route.
    pub fn reaches(&self, asn: Asn) -> bool {
        self.routes.contains_key(&asn)
    }

    /// Number of ASes with a route (including the origin).
    pub fn reach_count(&self) -> usize {
        self.routes.len()
    }

    /// Fraction of the given collector set that learned a route. Empty
    /// collector sets yield 0.
    pub fn visibility(&self, collectors: &[Asn]) -> f64 {
        if collectors.is_empty() {
            return 0.0;
        }
        let seen = collectors.iter().filter(|&&c| self.reaches(c)).count();
        seen as f64 / collectors.len() as f64
    }

    /// Iterate over `(asn, route)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (Asn, Route)> + '_ {
        self.routes.iter().map(|(&a, &r)| (a, r))
    }
}

/// Valley-free propagation simulator over one topology snapshot.
pub struct RouteSim<'g> {
    graph: &'g AsGraph,
}

impl<'g> RouteSim<'g> {
    /// Create a simulator borrowing the graph.
    pub fn new(graph: &'g AsGraph) -> Self {
        RouteSim { graph }
    }

    /// Propagate an announcement originated by `origin` to every AS the
    /// export rules allow, recording each AS's *best* route (preference
    /// class first, then hop count).
    pub fn propagate(&self, origin: Asn) -> PropagationOutcome {
        let mut routes: BTreeMap<Asn, Route> = BTreeMap::new();
        routes.insert(
            origin,
            Route {
                kind: RouteKind::Origin,
                hops: 0,
            },
        );

        // Phase 1 — customer routes ride up provider edges. BFS gives
        // minimal hop counts within the class.
        let mut queue: VecDeque<Asn> = VecDeque::from([origin]);
        while let Some(u) = queue.pop_front() {
            let hops = routes[&u].hops;
            if let Some(adj) = self.graph.adjacency(u) {
                for &p in &adj.providers {
                    if let std::collections::btree_map::Entry::Vacant(slot) = routes.entry(p) {
                        slot.insert(Route {
                            kind: RouteKind::Customer,
                            hops: hops + 1,
                        });
                        queue.push_back(p);
                    }
                }
            }
        }

        // Phase 2 — every AS holding a customer (or origin) route exports
        // it one hop across peer edges. Peer routes do not propagate
        // further across peers.
        let phase1: Vec<(Asn, u32)> = routes.iter().map(|(&a, r)| (a, r.hops)).collect();
        for (u, hops) in phase1 {
            if let Some(adj) = self.graph.adjacency(u) {
                for &v in &adj.peers {
                    let candidate = Route {
                        kind: RouteKind::Peer,
                        hops: hops + 1,
                    };
                    // Customer/origin routes always win regardless of
                    // length; an existing peer route is only replaced by a
                    // strictly shorter one. (Provider routes cannot exist
                    // yet in this phase.)
                    let replace = match routes.get(&v) {
                        None => true,
                        Some(r) => r.kind == RouteKind::Peer && candidate.hops < r.hops,
                    };
                    if replace {
                        routes.insert(v, candidate);
                    }
                }
            }
        }

        // Phase 3 — all routed ASes export down customer edges; provider
        // routes keep flowing down. Multi-source BFS with heterogeneous
        // initial distances: seeding the FIFO in ascending hop order keeps
        // every recorded hop count minimal within the provider class.
        let mut seeds: Vec<Asn> = routes.keys().copied().collect();
        seeds.sort_by_key(|a| routes[a].hops);
        let mut queue: VecDeque<Asn> = seeds.into();
        while let Some(u) = queue.pop_front() {
            let hops = routes[&u].hops;
            if let Some(adj) = self.graph.adjacency(u) {
                for &c in &adj.customers {
                    if let std::collections::btree_map::Entry::Vacant(slot) = routes.entry(c) {
                        slot.insert(Route {
                            kind: RouteKind::Provider,
                            hops: hops + 1,
                        });
                        queue.push_back(c);
                    }
                }
            }
        }

        PropagationOutcome { origin, routes }
    }

    /// Every origin whose announcement reaches at least one of
    /// `collectors`: exactly `{o : propagate(o).visibility(collectors) > 0}`,
    /// in one pass instead of one propagation per origin.
    ///
    /// [`Self::propagate`] reaches `c` when some AS on the origin's
    /// provider chain (phase 1) is, or peers with (phase 2), an AS that
    /// `c` sits below in the customer hierarchy (phase 3). Reversed: with
    /// `anc(C)` the collectors plus everything above them along provider
    /// edges, the origins are the customer cone of
    /// `anc(C) ∪ peers(anc(C))`. A collector always reaches itself, even
    /// when it is missing from the graph.
    pub fn origins_reaching(&self, collectors: &[Asn]) -> BTreeSet<Asn> {
        // Reverse phase 3: the collectors and everything above them along
        // provider edges; a route any of these holds flows down to one.
        let mut ancestors: BTreeSet<Asn> = BTreeSet::new();
        let mut stack: Vec<Asn> = collectors.to_vec();
        while let Some(u) = stack.pop() {
            if ancestors.insert(u) {
                if let Some(adj) = self.graph.adjacency(u) {
                    stack.extend(&adj.providers);
                }
            }
        }

        // Reverse phase 2: one peer hop off that set.
        for &a in &ancestors {
            stack.push(a);
            if let Some(adj) = self.graph.adjacency(a) {
                stack.extend(&adj.peers);
            }
        }

        // Reverse phase 1: every AS below one of those along customer
        // edges, whose announcement climbs provider edges up to it.
        let mut origins: BTreeSet<Asn> = BTreeSet::new();
        while let Some(u) = stack.pop() {
            if origins.insert(u) {
                if let Some(adj) = self.graph.adjacency(u) {
                    stack.extend(&adj.customers);
                }
            }
        }
        origins
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relationship::RelEdge;

    /// A small two-tier topology:
    ///
    /// ```text
    ///        10 ───peer─── 20          (tier 1)
    ///       /  \          /  \
    ///     11    12      21    22       (tier 2, customers of tier 1)
    ///      |                   |
    ///     111                 221      (stubs)
    /// ```
    fn two_tier() -> AsGraph {
        AsGraph::from_edges([
            RelEdge::peering(Asn(10), Asn(20)),
            RelEdge::transit(Asn(10), Asn(11)),
            RelEdge::transit(Asn(10), Asn(12)),
            RelEdge::transit(Asn(20), Asn(21)),
            RelEdge::transit(Asn(20), Asn(22)),
            RelEdge::transit(Asn(11), Asn(111)),
            RelEdge::transit(Asn(22), Asn(221)),
        ])
    }

    #[test]
    fn stub_announcement_reaches_everyone() {
        let g = two_tier();
        let out = RouteSim::new(&g).propagate(Asn(111));
        assert_eq!(out.reach_count(), g.node_count());
        // Up the chain: customer routes.
        assert_eq!(out.route(Asn(11)).unwrap().kind, RouteKind::Customer);
        assert_eq!(out.route(Asn(10)).unwrap().kind, RouteKind::Customer);
        // Across the peering: peer route at 20.
        assert_eq!(out.route(Asn(20)).unwrap().kind, RouteKind::Peer);
        // Down from both tier-1s: provider routes at the far stubs.
        assert_eq!(out.route(Asn(221)).unwrap().kind, RouteKind::Provider);
        assert_eq!(out.route(Asn(12)).unwrap().kind, RouteKind::Provider);
        // Hop counts: 111→11→10 is 2; 20 is 3; 22 is 4; 221 is 5.
        assert_eq!(out.route(Asn(10)).unwrap().hops, 2);
        assert_eq!(out.route(Asn(20)).unwrap().hops, 3);
        assert_eq!(out.route(Asn(221)).unwrap().hops, 5);
    }

    #[test]
    fn valley_freeness_blocks_peer_to_peer_transit() {
        // origin ── peer ── A ── peer ── B : B must NOT hear the route,
        // because A's peer-learned route is only exported to customers.
        let g = AsGraph::from_edges([
            RelEdge::peering(Asn(1), Asn(2)),
            RelEdge::peering(Asn(2), Asn(3)),
        ]);
        let out = RouteSim::new(&g).propagate(Asn(1));
        assert!(out.reaches(Asn(2)));
        assert!(
            !out.reaches(Asn(3)),
            "peer route must not re-export to a peer"
        );
    }

    #[test]
    fn provider_route_not_exported_upward() {
        // origin ── provider P ── its provider Q; then Q has a customer
        // route. But a *sibling customer* S of P hears a provider route
        // and must not export it to its own peer T.
        let g = AsGraph::from_edges([
            RelEdge::transit(Asn(5), Asn(1)), // P=5 provider of origin 1
            RelEdge::transit(Asn(5), Asn(6)), // S=6 sibling customer
            RelEdge::peering(Asn(6), Asn(7)), // T=7 peer of S
        ]);
        let out = RouteSim::new(&g).propagate(Asn(1));
        assert_eq!(out.route(Asn(6)).unwrap().kind, RouteKind::Provider);
        assert!(!out.reaches(Asn(7)), "provider route must not reach a peer");
    }

    #[test]
    fn origin_with_no_edges_reaches_only_itself() {
        let g = two_tier();
        let out = RouteSim::new(&g).propagate(Asn(999));
        assert_eq!(out.reach_count(), 1);
        assert!(out.reaches(Asn(999)));
        assert_eq!(out.route(Asn(999)).unwrap().kind, RouteKind::Origin);
    }

    #[test]
    fn visibility_fraction() {
        let g = two_tier();
        let out = RouteSim::new(&g).propagate(Asn(111));
        assert_eq!(out.visibility(&[Asn(10), Asn(20)]), 1.0);
        assert_eq!(out.visibility(&[]), 0.0);
        let out = RouteSim::new(&g).propagate(Asn(999));
        assert_eq!(out.visibility(&[Asn(10), Asn(20)]), 0.0);
    }

    #[test]
    fn origins_reaching_follows_the_export_rules() {
        let g = two_tier();
        let sim = RouteSim::new(&g);
        // Everyone in the two-tier world reaches a tier-1 collector.
        let all: BTreeSet<Asn> = g.asns().collect();
        assert_eq!(sim.origins_reaching(&[Asn(10)]), all);
        // A stub collector hears its own cone, its provider chain's
        // customer cones and whatever crosses the tier-1 peering.
        assert_eq!(sim.origins_reaching(&[Asn(221)]), all);
        // Peer-of-peer does not reach: 3 hears 2 (its peer) and itself.
        let chain = AsGraph::from_edges([
            RelEdge::peering(Asn(1), Asn(2)),
            RelEdge::peering(Asn(2), Asn(3)),
        ]);
        assert_eq!(
            RouteSim::new(&chain).origins_reaching(&[Asn(3)]),
            BTreeSet::from([Asn(2), Asn(3)])
        );
        // No collectors, no origins; an unknown collector hears itself.
        assert!(sim.origins_reaching(&[]).is_empty());
        assert_eq!(
            sim.origins_reaching(&[Asn(999)]),
            BTreeSet::from([Asn(999)])
        );
    }

    #[test]
    fn preference_customer_over_peer() {
        // AS 30 hears the route both from its customer 31 (which hears it
        // from origin) and from its peer... construct: origin 40 is
        // customer of 31; 31 customer of 30; origin also peers with 30.
        let g = AsGraph::from_edges([
            RelEdge::transit(Asn(31), Asn(40)),
            RelEdge::transit(Asn(30), Asn(31)),
            RelEdge::peering(Asn(30), Asn(40)),
        ]);
        let out = RouteSim::new(&g).propagate(Asn(40));
        let r = out.route(Asn(30)).unwrap();
        assert_eq!(
            r.kind,
            RouteKind::Customer,
            "customer route preferred over shorter peer route"
        );
        assert_eq!(r.hops, 2);
    }

    #[test]
    fn peer_hop_counts_take_minimum() {
        // Origin 1 has two providers (2 short, 3 via a chain); peer X of
        // both should record the shorter peer path.
        let g = AsGraph::from_edges([
            RelEdge::transit(Asn(2), Asn(1)),
            RelEdge::transit(Asn(4), Asn(1)),
            RelEdge::transit(Asn(3), Asn(4)),
            RelEdge::peering(Asn(2), Asn(9)),
            RelEdge::peering(Asn(3), Asn(9)),
        ]);
        let out = RouteSim::new(&g).propagate(Asn(1));
        assert_eq!(
            out.route(Asn(9)).unwrap(),
            Route {
                kind: RouteKind::Peer,
                hops: 2
            }
        );
    }
}
