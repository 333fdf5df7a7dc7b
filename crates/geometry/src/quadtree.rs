//! A flat, reusable Barnes–Hut quadtree over weighted planar points.
//!
//! The sequential force-directed embedder (Hu 2006 style) approximates the
//! O(n²) repulsive force sum in O(n log n) by treating distant clusters as
//! single bodies at their centre of mass. The fixed-lattice scheme in the
//! paper is explicitly described as "a fixed lattice Barnes–Hut type
//! approximation", so this tree is both the sequential baseline and the
//! reference for the lattice-approximation ablation.
//!
//! The force layout rebuilds the tree every iteration, so the tree owns
//! all of its memory and [`QuadTree::rebuild`] reuses it: nodes are packed
//! traversal records (centre of mass, mass, longest side, first child,
//! leaf body range), leaf bodies sit contiguously as `(x, y, mass, id)`,
//! and one traversal stack serves every query. Bodies are inserted one at
//! a time in index order, exactly as a per-node-`Vec` tree would insert
//! them, so node sums, tree shape and per-leaf body order — and therefore
//! every visit sequence and every f64 a caller accumulates — do not depend
//! on the layout.

use crate::bbox::Aabb2;
use crate::point::Point2;
use std::cell::Cell;

const LEAF_CAPACITY: usize = 8;
const MAX_DEPTH: usize = 48;
/// `first` of a leaf, and the end of a build-time body list.
const NONE: u32 = u32::MAX;

/// Packed traversal record of one node.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Node {
    /// Centre of mass of the bodies below (their mass-weighted sum while
    /// the tree is being built).
    com: Point2,
    /// Total mass of the bodies below.
    mass: f64,
    /// Longest side of the node's box, for the opening test.
    side: f64,
    /// Index of the first of four consecutive children, or `NONE`.
    first: u32,
    /// Leaves: the node's bodies are `bodies[lo..hi]`.
    lo: u32,
    hi: u32,
}

/// Build-time state of one node, parallel to `nodes`.
#[derive(Clone, Copy, Debug)]
struct Slot {
    bbox: Aabb2,
    /// Resident bodies of a leaf as a list threaded through `next`, in
    /// insertion order.
    head: u32,
    tail: u32,
    len: u32,
}

/// One body of a leaf, stored where the traversal reads it.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Body {
    x: f64,
    y: f64,
    mass: f64,
    id: u32,
}

/// Barnes–Hut quadtree over a set of weighted points. A default tree is
/// empty until its first [`QuadTree::rebuild`]: it has no nodes and
/// visits nothing.
#[derive(Default)]
pub struct QuadTree {
    nodes: Vec<Node>,
    slots: Vec<Slot>,
    /// Build-time successor of each body in its leaf's list.
    next: Vec<u32>,
    /// Leaf bodies, grouped by leaf in depth-first order.
    bodies: Vec<Body>,
    /// Traversal stack, reused by every query and by the packing pass.
    stack: Cell<Vec<u32>>,
}

impl QuadTree {
    /// Build a tree over `points` with the given per-point `masses`
    /// (pass `None` for unit masses).
    pub fn build(points: &[Point2], masses: Option<&[f64]>) -> Self {
        let mut tree = QuadTree::default();
        tree.rebuild(points, masses);
        tree
    }

    /// Rebuild the tree over new `points` and `masses`, reusing every
    /// buffer. The result equals a fresh [`QuadTree::build`].
    pub fn rebuild(&mut self, points: &[Point2], masses: Option<&[f64]>) {
        if let Some(m) = masses {
            assert_eq!(m.len(), points.len());
        }
        let bbox = Aabb2::from_points(points)
            .unwrap_or_else(Aabb2::unit)
            .inflated(1e-9 + 1e-12);
        self.nodes.clear();
        self.slots.clear();
        self.bodies.clear();
        self.next.clear();
        self.next.resize(points.len(), NONE);
        self.push_node(bbox);
        for (i, &p) in points.iter().enumerate() {
            let m = masses.map_or(1.0, |m| m[i]);
            self.insert(i as u32, p, m, points, masses);
        }
        self.pack(points, masses);
    }

    fn push_node(&mut self, bbox: Aabb2) {
        self.nodes.push(Node {
            com: Point2::ZERO,
            mass: 0.0,
            side: bbox.longest_side(),
            first: NONE,
            lo: 0,
            hi: 0,
        });
        self.slots.push(Slot {
            bbox,
            head: NONE,
            tail: NONE,
            len: 0,
        });
    }

    /// Insert body `b` from the root down: every node on its path adds
    /// the body to its mass sums, a full leaf shallower than `MAX_DEPTH`
    /// splits into four children first, and the body ends at the tail of a
    /// leaf's list.
    fn insert(&mut self, b: u32, p: Point2, m: f64, points: &[Point2], masses: Option<&[f64]>) {
        let mut node = 0;
        let mut depth = 0;
        loop {
            self.nodes[node].mass += m;
            self.nodes[node].com += p * m;
            if self.nodes[node].first == NONE {
                if (self.slots[node].len as usize) < LEAF_CAPACITY || depth >= MAX_DEPTH {
                    self.append(node, b);
                    return;
                }
                self.split(node, points, masses);
            }
            node = self.child(node, p);
            depth += 1;
        }
    }

    /// Give a full leaf four children and move its residents down, in
    /// list order. No child can overflow: it receives at most
    /// `LEAF_CAPACITY` residents.
    fn split(&mut self, node: usize, points: &[Point2], masses: Option<&[f64]>) {
        let bb = self.slots[node].bbox;
        self.nodes[node].first = self.nodes.len() as u32;
        let c = bb.center();
        self.push_node(Aabb2::new(bb.min, c));
        self.push_node(Aabb2::new(
            Point2::new(c.x, bb.min.y),
            Point2::new(bb.max.x, c.y),
        ));
        self.push_node(Aabb2::new(
            Point2::new(bb.min.x, c.y),
            Point2::new(c.x, bb.max.y),
        ));
        self.push_node(Aabb2::new(c, bb.max));
        let mut b = self.slots[node].head;
        self.slots[node].head = NONE;
        self.slots[node].tail = NONE;
        self.slots[node].len = 0;
        while b != NONE {
            let after = self.next[b as usize];
            self.next[b as usize] = NONE;
            let p = points[b as usize];
            let m = masses.map_or(1.0, |m| m[b as usize]);
            let child = self.child(node, p);
            self.nodes[child].mass += m;
            self.nodes[child].com += p * m;
            self.append(child, b);
            b = after;
        }
    }

    fn append(&mut self, node: usize, b: u32) {
        let slot = &mut self.slots[node];
        if slot.tail == NONE {
            slot.head = b;
        } else {
            self.next[slot.tail as usize] = b;
        }
        slot.tail = b;
        slot.len += 1;
    }

    /// The child of internal `node` whose quadrant holds `p`.
    fn child(&self, node: usize, p: Point2) -> usize {
        let c = self.slots[node].bbox.center();
        self.nodes[node].first as usize + usize::from(p.x >= c.x) + 2 * usize::from(p.y >= c.y)
    }

    /// Turn mass-weighted sums into centres of mass and lay the leaf
    /// bodies out contiguously, leaf by leaf in depth-first order.
    fn pack(&mut self, points: &[Point2], masses: Option<&[f64]>) {
        let mut stack = self.stack.take();
        stack.clear();
        stack.push(0);
        while let Some(i) = stack.pop() {
            let node = &mut self.nodes[i as usize];
            if node.mass > 0.0 {
                node.com = node.com / node.mass;
            }
            if node.first != NONE {
                let f = node.first;
                stack.extend([f + 3, f + 2, f + 1, f]);
                continue;
            }
            node.lo = self.bodies.len() as u32;
            let mut b = self.slots[i as usize].head;
            while b != NONE {
                let p = points[b as usize];
                self.bodies.push(Body {
                    x: p.x,
                    y: p.y,
                    mass: masses.map_or(1.0, |m| m[b as usize]),
                    id: b,
                });
                b = self.next[b as usize];
            }
            self.nodes[i as usize].hi = self.bodies.len() as u32;
        }
        self.stack.set(stack);
    }

    /// Total mass in the tree.
    pub fn total_mass(&self) -> f64 {
        self.nodes.first().map_or(0.0, |root| root.mass)
    }

    /// Body indices in leaf order: leaf by leaf, depth first. Neighbours
    /// in this order are near each other in the plane, so queries issued
    /// in it walk similar paths.
    pub fn leaf_order(&self) -> impl Iterator<Item = u32> + '_ {
        self.bodies.iter().map(|b| b.id)
    }

    /// Visit approximated bodies for a query point: clusters whose opening
    /// ratio `side / dist` is below `theta` are reported once as
    /// `(centre_of_mass, mass)`; near clusters are opened, and individual
    /// bodies (excluding `skip`) are reported exactly.
    ///
    /// Returns the number of interactions visited (for cost accounting).
    #[inline]
    pub fn for_each_approx<F: FnMut(Point2, f64)>(
        &self,
        query: Point2,
        skip: Option<u32>,
        theta: f64,
        mut visit: F,
    ) -> usize {
        let mut count = 0;
        let theta2 = theta_squared(theta);
        let mut stack = self.stack.take();
        stack.clear();
        if !self.nodes.is_empty() {
            stack.push(0);
        }
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i as usize];
            if node.mass <= 0.0 {
                continue;
            }
            if node.first == NONE {
                for b in &self.bodies[node.lo as usize..node.hi as usize] {
                    if Some(b.id) == skip {
                        continue;
                    }
                    visit(Point2::new(b.x, b.y), b.mass);
                    count += 1;
                }
                continue;
            }
            let dx = query.x - node.com.x;
            let dy = query.y - node.com.y;
            if far_enough(node.side, dx * dx + dy * dy, theta, theta2) {
                visit(node.com, node.mass);
                count += 1;
            } else {
                let f = node.first;
                stack.extend([f, f + 1, f + 2, f + 3]);
            }
        }
        self.stack.set(stack);
        count
    }

    /// Number of nodes (diagnostics).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }
}

/// Relative margin of the squared opening test: far above the few ulps
/// either form of the test rounds by, far below any ratio that matters.
const MARGIN: f64 = 1e-12;
/// Squares in this range are normal numbers with room to spare, so every
/// product in the squared test rounds by at most half an ulp.
const SQUARE_RANGE: std::ops::Range<f64> = 1e-300..1e300;
/// Thetas whose square is normal; any other theta takes the exact test.
const THETA_RANGE: std::ops::Range<f64> = 1e-100..1e100;

/// `theta²` for [`far_enough`], or 0 — which sends every decision to the
/// exact test — for a theta outside `THETA_RANGE`.
fn theta_squared(theta: f64) -> f64 {
    if THETA_RANGE.contains(&theta) {
        theta * theta
    } else {
        0.0
    }
}

/// The opening test `√d2 > 0 && side / √d2 < theta`, without the square
/// root and the division where possible. In exact arithmetic the test is
/// `side² < θ²·d2`. Where the two sides of that differ by more than
/// `MARGIN`, their ratio is far outside the few ulps by which the rounded
/// `side / √d2` can stray from the true ratio, so the exact test can only
/// give the same answer. Closer cases, squares outside `SQUARE_RANGE` and
/// `theta2 = 0` (a theta outside `THETA_RANGE`) take the exact test.
/// `side` is the longest side of a node's box, so it is never negative.
#[inline]
fn far_enough(side: f64, d2: f64, theta: f64, theta2: f64) -> bool {
    let s2 = side * side;
    let t2 = theta2 * d2;
    if SQUARE_RANGE.contains(&s2) && SQUARE_RANGE.contains(&t2) {
        if s2 < t2 * (1.0 - MARGIN) {
            return true;
        }
        if s2 > t2 * (1.0 + MARGIN) {
            return false;
        }
    }
    let d = d2.sqrt();
    d > 0.0 && side / d < theta
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn cloud(n: usize, seed: u64) -> Vec<Point2> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.random_range(0.0..1.0), rng.random_range(0.0..1.0)))
            .collect()
    }

    #[test]
    fn mass_is_conserved() {
        let pts = cloud(500, 1);
        let masses: Vec<f64> = (0..500).map(|i| 1.0 + (i % 7) as f64).collect();
        let t = QuadTree::build(&pts, Some(&masses));
        let want: f64 = masses.iter().sum();
        assert!((t.total_mass() - want).abs() < 1e-9);
    }

    #[test]
    fn theta_zero_visits_every_body() {
        let pts = cloud(200, 2);
        let t = QuadTree::build(&pts, None);
        let mut m = 0.0;
        let n = t.for_each_approx(Point2::new(0.5, 0.5), None, 0.0, |_, mass| m += mass);
        assert_eq!(n, 200);
        assert!((m - 200.0).abs() < 1e-9);
    }

    #[test]
    fn skip_excludes_the_query_body() {
        let pts = cloud(64, 3);
        let t = QuadTree::build(&pts, None);
        let mut m = 0.0;
        t.for_each_approx(pts[10], Some(10), 0.0, |_, mass| m += mass);
        assert!((m - 63.0).abs() < 1e-9);
    }

    #[test]
    fn approximation_conserves_visited_mass() {
        // With any theta, the sum of visited masses equals the total mass
        // when nothing is skipped (approximated clusters report full mass).
        let pts = cloud(1000, 4);
        let t = QuadTree::build(&pts, None);
        for theta in [0.3, 0.7, 1.2] {
            let mut m = 0.0;
            let visited =
                t.for_each_approx(Point2::new(0.1, 0.9), None, theta, |_, mass| m += mass);
            assert!((m - 1000.0).abs() < 1e-9, "theta {theta}: mass {m}");
            assert!(visited <= 1000);
        }
    }

    #[test]
    fn larger_theta_visits_fewer_interactions() {
        let pts = cloud(2000, 5);
        let t = QuadTree::build(&pts, None);
        let exact = t.for_each_approx(Point2::new(0.5, 0.5), None, 0.0, |_, _| {});
        let approx = t.for_each_approx(Point2::new(0.5, 0.5), None, 1.0, |_, _| {});
        assert!(approx < exact / 4, "approx {approx} vs exact {exact}");
    }

    #[test]
    fn duplicate_points_do_not_overflow_depth() {
        let pts = vec![Point2::new(0.25, 0.25); 100];
        let t = QuadTree::build(&pts, None);
        assert!((t.total_mass() - 100.0).abs() < 1e-9);
        let mut cnt = 0;
        t.for_each_approx(Point2::new(0.75, 0.75), None, 0.0, |_, _| cnt += 1);
        assert_eq!(cnt, 100);
    }

    #[test]
    fn rebuild_on_a_used_tree_equals_a_fresh_build() {
        // Large, then small: every node and body slot the first tree used
        // beyond the second's size must be gone, not left stale.
        let big = cloud(3000, 7);
        let big_masses: Vec<f64> = (0..3000).map(|i| 1.0 + (i % 5) as f64).collect();
        let small = cloud(300, 8);
        let mut t = QuadTree::build(&big, Some(&big_masses));
        t.rebuild(&small, None);
        let fresh = QuadTree::build(&small, None);
        assert_eq!(t.node_count(), fresh.node_count());
        assert_eq!(t.nodes, fresh.nodes);
        assert_eq!(t.bodies, fresh.bodies);
        let visits = |t: &QuadTree| {
            let mut seen = Vec::new();
            let n = t.for_each_approx(small[3], Some(3), 0.85, |p, m| seen.push((p, m)));
            (n, seen)
        };
        assert_eq!(visits(&t), visits(&fresh));
    }

    #[test]
    fn default_tree_is_empty() {
        let t = QuadTree::default();
        assert_eq!(t.node_count(), 0);
        assert_eq!(t.total_mass(), 0.0);
        assert_eq!(t.for_each_approx(Point2::ZERO, None, 0.5, |_, _| {}), 0);
        assert_eq!(t.leaf_order().count(), 0);
    }

    #[test]
    fn leaf_order_is_a_permutation() {
        let pts = cloud(777, 9);
        let t = QuadTree::build(&pts, None);
        let mut ids: Vec<u32> = t.leaf_order().collect();
        ids.sort_unstable();
        assert_eq!(ids, (0..777).collect::<Vec<u32>>());
    }

    #[test]
    fn squared_opening_test_agrees_with_the_exact_test() {
        let exact = |side: f64, d2: f64, theta: f64| {
            let d = d2.sqrt();
            d > 0.0 && side / d < theta
        };
        let mut rng = StdRng::seed_from_u64(10);
        let specials = [
            0.0,
            5e-324,
            1e-310,
            1e-160,
            1e160,
            1e300,
            f64::INFINITY,
            f64::NAN,
        ];
        let thetas = [0.0, -1.0, 0.5, 0.85, 1.1, 3.0, 1e-120, 1e-99, 1e99, 1e120];
        for theta in thetas.into_iter().chain([f64::INFINITY, f64::NAN]) {
            let theta2 = theta_squared(theta);
            let check = |side: f64, d2: f64| {
                assert_eq!(
                    far_enough(side, d2, theta, theta2),
                    exact(side, d2, theta),
                    "side {side:e} d2 {d2:e} theta {theta:e}"
                );
            };
            for &a in &specials {
                for &b in &specials {
                    check(a, b);
                }
            }
            for _ in 0..20_000 {
                let d2 = 10f64.powf(rng.random_range(-330.0..320.0));
                // Sides within a few ulps of the boundary, and far from it.
                let at = (theta * d2.sqrt()).abs();
                let ulps = rng.random_range(-8i64..=8);
                let near = f64::from_bits(at.to_bits().wrapping_add_signed(ulps));
                check(near, d2);
                check(at * rng.random_range(0.0..4.0), d2);
            }
        }
    }

    #[test]
    fn approx_force_matches_exact_within_tolerance() {
        // Compare an inverse-distance "force" computed exactly and with
        // theta = 0.5; they should agree to a few percent.
        let pts = cloud(1500, 6);
        let t = QuadTree::build(&pts, None);
        let q = Point2::new(-0.5, -0.5); // outside the cloud: smooth field
        let force = |theta: f64| {
            let mut f = Point2::ZERO;
            t.for_each_approx(q, None, theta, |p, m| {
                let d = q - p;
                let n = d.norm().max(1e-9);
                f += d / n * (m / n);
            });
            f
        };
        let exact = force(0.0);
        let approx = force(0.5);
        assert!(exact.dist(approx) / exact.norm() < 0.03);
    }
}
