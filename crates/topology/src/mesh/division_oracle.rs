//! The mesh's geometry as it was before the coordinate table: every
//! coordinate `(v / radixᵈ) mod radix`, ring distances by `%`, and a ring
//! walk that grows its path hop by hop and re-derives the coordinate
//! after each one. Kept as the oracle the table-driven [`Mesh`] is held
//! to, edge for edge.

use super::*;

fn coord(m: &Mesh, v: NodeId, d: u32) -> u32 {
    (v.0 / m.radix().pow(d)) % m.radix()
}

fn gaps(radix: u32, have: u32, want: u32) -> (u32, u32) {
    ((want + radix - have) % radix, (have + radix - want) % radix)
}

fn travels_minus(m: &Mesh, have: u32, want: u32) -> bool {
    if !m.wraps() {
        have > want
    } else {
        let (fwd, bwd) = gaps(m.radix(), have, want);
        bwd < fwd
    }
}

fn reduces_distance(m: &Mesh, have: u32, want: u32, minus: bool) -> bool {
    if have == want {
        return false;
    }
    if !m.wraps() {
        return minus == (have > want);
    }
    let (fwd, bwd) = gaps(m.radix(), have, want);
    if minus {
        bwd <= fwd
    } else {
        fwd <= bwd
    }
}

fn ring_walk(m: &Mesh, src: NodeId, dst: NodeId, dateline: bool) -> Path {
    let mut edges = Vec::new();
    let mut cur = src;
    for d in 0..m.dims() {
        let (mut have, want) = (coord(m, cur, d), coord(m, dst, d));
        if have == want {
            continue;
        }
        let minus = travels_minus(m, have, want);
        let dateline_coord = if minus { 0 } else { m.radix() - 1 };
        let mut class = 0u32;
        while have != want {
            let e = m.try_step_edge(cur, d, minus, class).unwrap();
            edges.push(e);
            if dateline && have == dateline_coord {
                class = 1;
            }
            cur = m.graph().dst(e);
            have = coord(m, cur, d);
        }
    }
    assert_eq!(cur, dst);
    Path::new(edges)
}

fn dimension_order_path(m: &Mesh, src: NodeId, dst: NodeId) -> Path {
    ring_walk(m, src, dst, false)
}

/// `route` and `escape_route` alike: dateline-switched wherever a wrap
/// mesh has escape classes, plain dimension order otherwise.
fn route(m: &Mesh, src: NodeId, dst: NodeId) -> Path {
    ring_walk(m, src, dst, m.classes() >= 2 && m.wraps())
}

fn escape_first_hop(m: &Mesh, at: NodeId, dst: NodeId) -> EdgeId {
    let d = (0..m.dims())
        .find(|&d| coord(m, at, d) != coord(m, dst, d))
        .unwrap();
    let minus = travels_minus(m, coord(m, at, d), coord(m, dst, d));
    m.try_step_edge(at, d, minus, 0).unwrap()
}

fn adaptive_candidates(m: &Mesh, at: NodeId, dst: NodeId, misroutes: bool) -> Vec<(EdgeId, bool)> {
    let mut out = Vec::new();
    for d in 0..m.dims() {
        let (have, want) = (coord(m, at, d), coord(m, dst, d));
        for minus in [false, true] {
            let profitable = reduces_distance(m, have, want, minus);
            if !profitable && !misroutes {
                continue;
            }
            if let Some(e) = m.try_step_edge(at, d, minus, ADAPTIVE_CLASS) {
                out.push((e, profitable));
            }
        }
    }
    out
}

#[test]
fn the_coordinate_table_is_the_division() {
    for radix in 2u32..=7 {
        for dims in 1u32..=3 {
            for wrap in [false, true] {
                let m = Mesh::new(radix, dims, wrap);
                for v in (0..m.num_nodes()).map(NodeId) {
                    let by_division: Vec<u32> = (0..dims).map(|d| coord(&m, v, d)).collect();
                    for d in 0..dims {
                        assert_eq!(
                            m.coord(v, d),
                            by_division[d as usize],
                            "{radix}^{dims} {v:?}"
                        );
                    }
                    assert_eq!(m.coords(v), by_division, "{radix}^{dims} {v:?}");
                }
            }
        }
    }
}

#[test]
fn the_ring_gaps_are_the_remainders() {
    for radix in 2u32..=9 {
        let m = Mesh::new(radix, 1, true);
        for have in 0..radix {
            for want in 0..radix {
                assert_eq!(
                    m.ring_gaps(have, want),
                    gaps(radix, have, want),
                    "{radix}: {have}->{want}"
                );
                for minus in [false, true] {
                    assert_eq!(
                        m.reduces_distance(have, want, minus),
                        reduces_distance(&m, have, want, minus)
                    );
                }
                assert_eq!(m.travels_minus(have, want), travels_minus(&m, have, want));
            }
        }
    }
}

/// Every routing query on every ordered pair (a node to itself included)
/// of a mesh and two tori, under each discipline the shape admits.
#[test]
fn every_route_and_candidate_set_matches_the_division_based_mesh() {
    use RoutingDiscipline::*;
    let shapes = [
        (4u32, 2u32, false, &[Naive, AdaptiveEscape][..]),
        (5, 2, true, &[Naive, DatelineClasses, AdaptiveEscape][..]),
        (4, 3, true, &[Naive, DatelineClasses, AdaptiveEscape][..]),
    ];
    let mut checked = 0usize;
    for (radix, dims, wrap, disciplines) in shapes {
        for &discipline in disciplines {
            let m = Mesh::new_disciplined(radix, dims, wrap, discipline);
            let name = format!("{radix}^{dims} wrap={wrap} {}", discipline.name());
            let mut cand = Vec::new();
            for s in (0..m.num_nodes()).map(NodeId) {
                for t in (0..m.num_nodes()).map(NodeId) {
                    let at = format!("{name}: {s:?}->{t:?}");
                    assert_eq!(m.route(s, t), route(&m, s, t), "{at}");
                    assert_eq!(
                        m.dimension_order_path(s, t),
                        dimension_order_path(&m, s, t),
                        "{at}"
                    );
                    if m.classes() >= 2 {
                        assert_eq!(m.escape_route(s, t), route(&m, s, t), "{at}");
                        if s != t {
                            assert_eq!(
                                m.escape_first_hop(s, t),
                                escape_first_hop(&m, s, t),
                                "{at}"
                            );
                        }
                    }
                    if m.classes() == 3 {
                        for misroutes in [false, true] {
                            cand.clear();
                            m.adaptive_candidates(s, t, misroutes, &mut cand);
                            assert_eq!(cand, adaptive_candidates(&m, s, t, misroutes), "{at}");
                        }
                    }
                    checked += 1;
                }
            }
        }
    }
    assert_eq!(checked, 2 * 16 * 16 + 3 * 25 * 25 + 3 * 64 * 64);
}
