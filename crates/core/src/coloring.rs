//! Message colorings and the *multiplex size* of Definition 2.1.4.
//!
//! The paper's schedule construction partitions messages into color classes
//! and releases one class per `L+D−1` window. The quantity controlled by the
//! refinement (Lemma 2.1.5) is the **multiplex size**: the maximum, over all
//! edges and color classes, of the number of same-class messages crossing an
//! edge. Once it is at most `B`, a class routes with zero blocking.
//!
//! [`ClassLoads`] is the one home of that count: first-fit, compaction,
//! [`Coloring::multiplex_size`] and the Moser–Tardos sweep of
//! [`crate::refine::refine`] all read and update the same table.
//! [`Coloring::violations`] is the written-out reference it is tested
//! against.

use wormhole_topology::graph::{EdgeId, Graph};
use wormhole_topology::path::{Path, PathSet};

/// Messages per `(class, edge)` — the count Definition 2.1.4 maximises —
/// kept under `add` / `remove` of one message's path at a time.
#[derive(Clone, Debug)]
pub struct ClassLoads {
    /// `rows[class][edge]`; a row stays empty until its class first takes
    /// a message (a refinement names far more classes than it fills).
    rows: Vec<Vec<u16>>,
    num_edges: usize,
}

impl ClassLoads {
    /// The empty table over `num_edges` edges.
    pub fn new(num_edges: usize) -> Self {
        Self {
            rows: Vec::new(),
            num_edges,
        }
    }

    /// The table of message `i` on `paths.path(i)` in class `colors[i]`.
    pub fn of(paths: &PathSet, colors: &[u32], num_edges: usize) -> Self {
        assert_eq!(paths.len(), colors.len(), "paths/coloring mismatch");
        let mut loads = Self::new(num_edges);
        for (p, &c) in paths.paths().iter().zip(colors) {
            loads.add(c, p);
        }
        loads
    }

    /// Puts one message with this path into `class`.
    pub fn add(&mut self, class: u32, path: &Path) {
        let class = class as usize;
        if self.rows.len() <= class {
            self.rows.resize_with(class + 1, Vec::new);
        }
        let row = &mut self.rows[class];
        row.resize(self.num_edges, 0);
        for e in path.edges() {
            let cell = &mut row[e.idx()];
            *cell = cell
                .checked_add(1)
                .expect("a (class, edge) count above u16");
        }
    }

    /// Takes one message with this path out of `class` (it must be in it).
    pub fn remove(&mut self, class: u32, path: &Path) {
        let row = &mut self.rows[class as usize];
        for e in path.edges() {
            row[e.idx()] -= 1;
        }
    }

    /// Messages of `class` per edge: none in a class that never took one.
    fn load_in(&self, class: u32) -> impl Fn(EdgeId) -> u32 + '_ {
        let row = self.rows.get(class as usize).map_or(&[][..], Vec::as_slice);
        move |e| row.get(e.idx()).map_or(0, |&n| u32::from(n))
    }

    /// `true` if `class` stays `b`-bounded with one more message on `path`.
    pub fn fits(&self, class: u32, path: &Path, b: u32) -> bool {
        let load = self.load_in(class);
        path.edges().iter().all(|&e| load(e) < b)
    }

    /// `true` if some edge of `path` carries more than `limit` messages of
    /// `class`: a message of that class on that path takes part in a
    /// violated `(edge, class)` event of Lemma 2.1.5.
    pub fn over(&self, class: u32, path: &Path, limit: u32) -> bool {
        let load = self.load_in(class);
        path.edges().iter().any(|&e| load(e) > limit)
    }

    /// The smallest class under `below` that [`fits`](Self::fits).
    pub fn first_fit(&self, path: &Path, b: u32, below: u32) -> Option<u32> {
        (0..below).find(|&c| self.fits(c, path, b))
    }

    /// The multiplex size: the largest cell.
    pub fn max(&self) -> u32 {
        let cells = self.rows.iter().flatten();
        cells.max().map_or(0, |&n| u32::from(n))
    }

    /// Number of `(class, edge)` cells above `limit`.
    pub fn cells_over(&self, limit: u32) -> usize {
        let over = |&&n: &&u16| u32::from(n) > limit;
        self.rows.iter().flatten().filter(over).count()
    }
}

/// An assignment of a color to each message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Coloring {
    colors: Vec<u32>,
    num_colors: u32,
}

impl Coloring {
    /// All messages in a single class (the refinement's starting point; its
    /// multiplex size equals the congestion `C`).
    pub fn uniform(num_messages: usize) -> Self {
        Self {
            colors: vec![0; num_messages],
            num_colors: 1,
        }
    }

    /// Builds from explicit colors; `num_colors` must dominate every entry.
    pub fn new(colors: Vec<u32>, num_colors: u32) -> Self {
        assert!(colors.iter().all(|&c| c < num_colors), "color out of range");
        assert!(num_colors >= 1 || colors.is_empty());
        Self { colors, num_colors }
    }

    /// Number of color classes.
    #[inline]
    pub fn num_colors(&self) -> u32 {
        self.num_colors
    }

    /// Number of messages.
    #[inline]
    pub fn len(&self) -> usize {
        self.colors.len()
    }

    /// `true` if no messages.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.colors.is_empty()
    }

    /// Color of message `i`.
    #[inline]
    pub fn color(&self, i: usize) -> u32 {
        self.colors[i]
    }

    /// All colors, indexed by message.
    #[inline]
    pub fn colors(&self) -> &[u32] {
        &self.colors
    }

    /// Messages per class.
    pub fn class_sizes(&self) -> Vec<u32> {
        let mut sizes = vec![0u32; self.num_colors as usize];
        for &c in &self.colors {
            sizes[c as usize] += 1;
        }
        sizes
    }

    /// Renumbers classes densely (dropping empty ones), preserving order.
    pub fn compact(&self) -> Coloring {
        let sizes = self.class_sizes();
        let mut remap = vec![u32::MAX; sizes.len()];
        let mut next = 0u32;
        for (c, &s) in sizes.iter().enumerate() {
            if s > 0 {
                remap[c] = next;
                next += 1;
            }
        }
        Coloring {
            colors: self.colors.iter().map(|&c| remap[c as usize]).collect(),
            num_colors: next.max(1),
        }
    }

    /// The multiplex size (Definition 2.1.4): max over `(edge, class)` of
    /// same-class messages crossing the edge, in one pass over the paths.
    pub fn multiplex_size(&self, paths: &PathSet, g: &Graph) -> u32 {
        ClassLoads::of(paths, &self.colors, g.num_edges()).max()
    }

    /// The violating `(edge, class)` pairs with more than `limit` messages,
    /// together with the offending message ids — the "bad events" of
    /// Lemma 2.1.5. Returns an empty vec iff multiplex size ≤ `limit`.
    pub fn violations(&self, paths: &PathSet, limit: u32) -> Vec<((u32, u32), Vec<u32>)> {
        let mut triples: Vec<(u32, u32, u32)> =
            Vec::with_capacity(paths.total_path_length() as usize);
        for (i, p) in paths.paths().iter().enumerate() {
            let c = self.colors[i];
            for &e in p.edges() {
                triples.push((e.0, c, i as u32));
            }
        }
        triples.sort_unstable();
        let mut out = Vec::new();
        let mut start = 0usize;
        while start < triples.len() {
            let key = (triples[start].0, triples[start].1);
            let mut end = start;
            while end < triples.len() && (triples[end].0, triples[end].1) == key {
                end += 1;
            }
            if (end - start) as u32 > limit {
                out.push((key, triples[start..end].iter().map(|t| t.2).collect()));
            }
            start = end;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use rand::rngs::StdRng;
    use wormhole_topology::random_nets::{shared_chain_instance, staggered_instance, LeveledNet};

    /// The multiplex size by sorting the `(edge, class)` pairs — what
    /// [`Coloring::multiplex_size`] did before [`ClassLoads`], kept as the
    /// oracle.
    fn multiplex_by_sort(paths: &PathSet, colors: &[u32]) -> u32 {
        let mut pairs: Vec<(u32, u32)> = Vec::new();
        for (p, &c) in paths.paths().iter().zip(colors) {
            pairs.extend(p.edges().iter().map(|e| (e.0, c)));
        }
        pairs.sort_unstable();
        let runs = pairs.chunk_by(|a, b| a == b);
        runs.map(|run| run.len() as u32).max().unwrap_or(0)
    }

    /// The nonzero cells as `(class, edge, count)`: equal for a row never
    /// allocated and a row emptied again.
    fn cells(loads: &ClassLoads) -> Vec<(usize, usize, u16)> {
        let rows = loads.rows.iter().enumerate();
        rows.flat_map(|(c, row)| row.iter().enumerate().map(move |(e, &n)| (c, e, n)))
            .filter(|&(_, _, n)| n > 0)
            .collect()
    }

    #[test]
    fn class_loads_agree_with_the_sorted_reference_on_random_instances() {
        let mut rng = StdRng::seed_from_u64(0x2_1_4);
        for case in 0..300u64 {
            let msgs = rng.random_range(1u32..60);
            let (g, ps) = if case % 2 == 0 {
                let (depth, width) = (rng.random_range(2u32..8), rng.random_range(2u32..6));
                let net = LeveledNet::random(depth, width, 2, case);
                let ps = net.random_walk_paths(msgs as usize, case + 1);
                (net.graph().clone(), ps)
            } else {
                staggered_instance(rng.random_range(1u32..10), rng.random_range(1u32..20), msgs)
            };
            let k = rng.random_range(1u32..9);
            let colors: Vec<u32> = (0..ps.len()).map(|_| rng.random_range(0..k)).collect();
            let limit = rng.random_range(0u32..5);
            let loads = ClassLoads::of(&ps, &colors, g.num_edges());

            let violations = Coloring::new(colors.clone(), k).violations(&ps, limit);
            let mut members: Vec<u32> = violations.iter().flat_map(|v| v.1.clone()).collect();
            members.sort_unstable();
            members.dedup();
            let over = |i: &u32| loads.over(colors[*i as usize], ps.path(*i as usize), limit);
            let dirty: Vec<u32> = (0..ps.len() as u32).filter(over).collect();
            assert_eq!(
                dirty, members,
                "case {case}: members of the violated events"
            );
            assert_eq!(loads.cells_over(limit), violations.len(), "case {case}");
            assert_eq!(loads.max(), multiplex_by_sort(&ps, &colors), "case {case}");

            // One more message, into a used class or one past them all.
            let (class, p) = (
                rng.random_range(0..k + 2),
                ps.path(rng.random_range(0..ps.len())),
            );
            let b = limit + 1;
            let fits = loads.fits(class, p, b);
            let mut touched = loads.clone();
            touched.add(class, p);
            assert_eq!(
                fits,
                !touched.over(class, p, b),
                "case {case}: fits ⇔ stays bounded"
            );
            touched.remove(class, p);
            assert_eq!(
                cells(&touched),
                cells(&loads),
                "case {case}: add, remove restores"
            );
        }
    }

    #[test]
    fn an_empty_table_has_no_load_and_fits_everything() {
        let (_, ps) = shared_chain_instance(2, 3);
        let loads = ClassLoads::new(3);
        assert_eq!((loads.max(), loads.cells_over(0)), (0, 0));
        assert!(loads.fits(7, ps.path(0), 1) && !loads.fits(7, ps.path(0), 0));
        assert!(!loads.over(7, ps.path(0), 0));
        assert_eq!(loads.first_fit(ps.path(0), 1, 0), None);
    }

    #[test]
    fn uniform_multiplex_equals_congestion() {
        let (g, ps) = shared_chain_instance(9, 4);
        let c = Coloring::uniform(ps.len());
        assert_eq!(c.multiplex_size(&ps, &g), 9);
        let (g2, ps2) = staggered_instance(6, 24, 48);
        let c2 = Coloring::uniform(ps2.len());
        assert_eq!(c2.multiplex_size(&ps2, &g2), ps2.congestion(&g2));
    }

    #[test]
    fn perfect_split_halves_multiplex() {
        let (g, ps) = shared_chain_instance(8, 3);
        let colors: Vec<u32> = (0..8).map(|i| i % 2).collect();
        let c = Coloring::new(colors, 2);
        assert_eq!(c.multiplex_size(&ps, &g), 4);
    }

    #[test]
    fn violations_found_and_bounded() {
        let (_, ps) = shared_chain_instance(5, 2);
        let c = Coloring::uniform(5);
        let v = c.violations(&ps, 3);
        assert_eq!(v.len(), 2, "both chain edges violate");
        assert_eq!(v[0].1.len(), 5);
        assert!(c.violations(&ps, 5).is_empty());
    }

    #[test]
    fn class_sizes_and_compaction() {
        let c = Coloring::new(vec![0, 3, 3, 0, 3], 5);
        assert_eq!(c.class_sizes(), vec![2, 0, 0, 3, 0]);
        let cc = c.compact();
        assert_eq!(cc.num_colors(), 2);
        assert_eq!(cc.colors(), &[0, 1, 1, 0, 1]);
    }

    #[test]
    fn empty_coloring() {
        let c = Coloring::uniform(0);
        assert!(c.is_empty());
        assert!(c.class_sizes().iter().all(|&s| s == 0));
    }

    #[test]
    #[should_panic(expected = "color out of range")]
    fn out_of_range_rejected() {
        Coloring::new(vec![0, 2], 2);
    }
}
