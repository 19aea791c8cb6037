//! A uniform spatial grid over the km plane, built once, for
//! nearest-point queries.
//!
//! The simulation asks it which site serves a UE at each trajectory
//! sample, so `nearest` is the hot path. The layout is flat (compressed
//! sparse row): one start offset per cell and the points in cell order,
//! so a query scans each row of a ring of cells as one contiguous slice.
//! Queries expand ring by ring, so their cost follows the local point
//! density, not the total count.
//!
//! `nearest` returns the minimum of (squared distance, insertion index).
//! That answer is a property of the point set alone: it does not depend
//! on the cell width or on the order in which cells are scanned.

use crate::coords::{KmPoint, KmRect};

/// A spatial index mapping points to payloads of type `T`.
#[derive(Debug, Clone)]
pub struct GridIndex<T> {
    bounds: KmRect,
    cell_km: f64,
    nx: usize,
    ny: usize,
    /// Cell `c` (row-major) holds the points at `starts[c]..starts[c + 1]`.
    starts: Vec<u32>,
    /// Point coordinates, in cell order and insertion order within a cell.
    points: Vec<KmPoint>,
    /// Insertion index of each point, for distance ties.
    ids: Vec<u32>,
    /// Payloads, aligned with `points`.
    values: Vec<T>,
}

/// The best candidate so far: its squared distance, insertion index and
/// slot in the cell-ordered arrays.
struct Best {
    d2: f64,
    id: u32,
    slot: usize,
}

impl<T: Clone> GridIndex<T> {
    /// Index `items` over `bounds` with square cells of side `cell_km`.
    /// Points outside the bounds go into the border cells. An item's
    /// insertion index is its position in `items`.
    ///
    /// # Panics
    ///
    /// Panics if `cell_km <= 0` or if there are more than `u32::MAX` items.
    pub fn build(bounds: KmRect, cell_km: f64, items: &[(KmPoint, T)]) -> Self {
        assert!(cell_km > 0.0, "cell size must be positive");
        assert!(u32::try_from(items.len()).is_ok(), "too many points for u32 offsets");
        let nx = (bounds.width() / cell_km).ceil().max(1.0) as usize;
        let ny = (bounds.height() / cell_km).ceil().max(1.0) as usize;
        let mut index = GridIndex {
            bounds,
            cell_km,
            nx,
            ny,
            starts: vec![0; nx * ny + 1],
            points: Vec::with_capacity(items.len()),
            ids: Vec::with_capacity(items.len()),
            values: Vec::with_capacity(items.len()),
        };

        // Stable counting sort by cell: count, prefix-sum, then place the
        // items in insertion order behind each cell's cursor.
        let cells: Vec<usize> = items.iter().map(|(p, _)| index.cell_of(p)).collect();
        for &c in &cells {
            index.starts[c + 1] += 1;
        }
        for c in 0..nx * ny {
            index.starts[c + 1] += index.starts[c];
        }
        let mut cursor = index.starts.clone();
        let mut order = vec![0u32; items.len()];
        for (i, &c) in cells.iter().enumerate() {
            order[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }
        for &i in &order {
            let (p, v) = &items[i as usize];
            index.points.push(*p);
            index.ids.push(i);
            index.values.push(v.clone());
        }
        index
    }
}

impl<T> GridIndex<T> {
    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index holds no points.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    fn cell_of(&self, p: &KmPoint) -> usize {
        let p = self.bounds.clamp(p);
        let cx = ((p.x - self.bounds.min.x) / self.cell_km) as usize;
        let cy = ((p.y - self.bounds.min.y) / self.cell_km) as usize;
        cy.min(self.ny - 1) * self.nx + cx.min(self.nx - 1)
    }

    /// The nearest point to `center`, or `None` if the index is empty.
    /// Of several points at the same distance, the one inserted first.
    ///
    /// Searches outward in rings of cells, stopping once the closest found
    /// point is provably nearer than any unexplored ring.
    pub fn nearest(&self, center: &KmPoint) -> Option<(KmPoint, &T)> {
        if self.points.is_empty() {
            return None;
        }
        let c = self.cell_of(center);
        let (ccx, ccy) = ((c % self.nx) as isize, (c / self.nx) as isize);
        let (nx, ny) = (self.nx as isize, self.ny as isize);
        // Track *squared* distances: strictly monotone in the true
        // distance, so the winner is identical but no point costs a sqrt.
        let mut best = Best { d2: f64::INFINITY, id: u32::MAX, slot: usize::MAX };
        for ring in 0..=nx.max(ny) {
            // Once we have a candidate, stop when the ring's minimum possible
            // distance exceeds it.
            if best.slot != usize::MAX {
                let ring_min = (ring - 1).max(0) as f64 * self.cell_km;
                if ring_min * ring_min > best.d2 {
                    break;
                }
            }
            // The ring's top and bottom rows are one slice each; its side
            // columns are one cell per row. For ring 0 the rows coincide.
            let (x0, x1) = ((ccx - ring).max(0), (ccx + ring).min(nx - 1));
            let rows = [ccy - ring, ccy + ring];
            let mut visited_any = false;
            for &y in &rows[..if ring == 0 { 1 } else { 2 }] {
                if (0..ny).contains(&y) {
                    self.scan_cells(y * nx + x0, y * nx + x1, center, &mut best);
                    visited_any = true;
                }
            }
            for y in (ccy - ring + 1).max(0)..=(ccy + ring - 1).min(ny - 1) {
                for x in [ccx - ring, ccx + ring] {
                    if (0..nx).contains(&x) {
                        self.scan_cells(y * nx + x, y * nx + x, center, &mut best);
                        visited_any = true;
                    }
                }
            }
            if !visited_any && best.slot != usize::MAX {
                break;
            }
        }
        let slot = best.slot;
        Some((*self.points.get(slot)?, self.values.get(slot)?))
    }

    /// Fold the points of cells `first..=last` (row-major, one row) into
    /// `best`.
    fn scan_cells(&self, first: isize, last: isize, center: &KmPoint, best: &mut Best) {
        let lo = self.starts[first as usize] as usize;
        let hi = self.starts[last as usize + 1] as usize;
        for (k, p) in self.points[lo..hi].iter().enumerate() {
            let d2 = dist2(p, center);
            if d2 <= best.d2 {
                let id = self.ids[lo + k];
                if d2 < best.d2 || id < best.id {
                    *best = Best { d2, id, slot: lo + k };
                }
            }
        }
    }
}

/// Squared Euclidean distance — spares the sqrt when only ordering matters.
fn dist2(a: &KmPoint, b: &KmPoint) -> f64 {
    let dx = a.x - b.x;
    let dy = a.y - b.y;
    dx * dx + dy * dy
}

/// The ring search this index replaced (`Vec<Vec>` cells, strict `<` in
/// ring order), kept as a test oracle.
#[cfg(test)]
mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn bounds() -> KmRect {
        KmRect::new(KmPoint::new(0.0, 0.0), KmPoint::new(100.0, 100.0))
    }

    /// Payload = insertion index, so a result names the point it found.
    fn indexed(points: &[KmPoint]) -> Vec<(KmPoint, usize)> {
        points.iter().copied().enumerate().map(|(i, p)| (p, i)).collect()
    }

    #[test]
    fn nearest_on_regular_lattice() {
        let mut items = Vec::new();
        for x in 0..10 {
            for y in 0..10 {
                items.push((KmPoint::new(x as f64 * 10.0, y as f64 * 10.0), (x, y)));
            }
        }
        let g = GridIndex::build(bounds(), 5.0, &items);
        let (_, v) = g.nearest(&KmPoint::new(42.0, 38.0)).unwrap();
        assert_eq!(*v, (4, 4));
        let (_, v) = g.nearest(&KmPoint::new(1.0, 99.0)).unwrap();
        assert_eq!(*v, (0, 9));
    }

    #[test]
    fn nearest_empty_is_none() {
        let g: GridIndex<u8> = GridIndex::build(bounds(), 10.0, &[]);
        assert!(g.nearest(&KmPoint::new(0.0, 0.0)).is_none());
        assert!(g.is_empty());
    }

    #[test]
    fn points_outside_bounds_are_clamped() {
        let g = GridIndex::build(bounds(), 10.0, &[(KmPoint::new(-50.0, -50.0), 'x')]);
        assert_eq!(g.len(), 1);
        let (p, v) = g.nearest(&KmPoint::new(0.0, 0.0)).unwrap();
        assert_eq!((p, *v), (KmPoint::new(-50.0, -50.0), 'x'));
    }

    #[test]
    fn equidistant_points_resolve_to_the_first_inserted() {
        // Two points 5 km either side of the query, in different cells:
        // the first inserted wins whichever cell is scanned first.
        let a = KmPoint::new(45.0, 50.0);
        let b = KmPoint::new(55.0, 50.0);
        let q = KmPoint::new(50.0, 50.0);
        for cell in [1.0, 3.0, 10.0] {
            let g = GridIndex::build(bounds(), cell, &indexed(&[b, a]));
            assert_eq!(*g.nearest(&q).unwrap().1, 0);
            let g = GridIndex::build(bounds(), cell, &indexed(&[a, b]));
            assert_eq!(*g.nearest(&q).unwrap().1, 0);
        }
    }

    #[test]
    fn nearest_is_exact_against_brute_force() {
        // Deterministic pseudo-random points.
        let mut pts = Vec::new();
        let mut s: u64 = 12345;
        for _ in 0..200 {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let x = (s >> 33) as f64 % 100.0;
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let y = (s >> 33) as f64 % 100.0;
            pts.push(KmPoint::new(x, y));
        }
        let g = GridIndex::build(bounds(), 7.0, &indexed(&pts));
        for q in [KmPoint::new(3.0, 97.0), KmPoint::new(50.0, 50.0), KmPoint::new(99.0, 1.0)] {
            let (_, got) = g.nearest(&q).unwrap();
            assert_eq!(Some(*got), brute_force(&pts, &q));
        }
    }

    /// The exact answer: the minimum of (squared distance, insertion index).
    fn brute_force(points: &[KmPoint], q: &KmPoint) -> Option<usize> {
        (0..points.len())
            .min_by(|&a, &b| dist2(&points[a], q).total_cmp(&dist2(&points[b], q)).then(a.cmp(&b)))
    }

    /// Whether every point at the minimum distance sits at one position,
    /// i.e. the nearest *position* is unique.
    fn unique_nearest(points: &[KmPoint], q: &KmPoint, winner: usize) -> bool {
        let d2 = dist2(&points[winner], q);
        points.iter().all(|p| dist2(p, q) != d2 || *p == points[winner])
    }

    /// A point set in one of the layouts the index must handle.
    fn layout() -> impl Strategy<Value = Vec<KmPoint>> {
        let xy = || (-20.0f64..120.0, -20.0f64..120.0);
        prop_oneof![
            // Sparse: uniform over (and a little beyond) the bounds.
            proptest::collection::vec(xy(), 0..300)
                .prop_map(|v| v.into_iter().map(|(x, y)| KmPoint::new(x, y)).collect()),
            // Clustered: a few dense towns, each a few km across.
            (
                proptest::collection::vec(xy(), 1..6),
                proptest::collection::vec((0usize..6, -3.0f64..3.0, -3.0f64..3.0), 1..300)
            )
                .prop_map(|(towns, offsets)| {
                    offsets
                        .into_iter()
                        .map(|(t, dx, dy)| {
                            let (x, y) = towns[t % towns.len()];
                            KmPoint::new(x + dx, y + dy)
                        })
                        .collect()
                }),
            // Co-located duplicates: every point repeated up to 4 times.
            proptest::collection::vec((xy(), 1usize..5), 1..60).prop_map(|v| {
                v.into_iter()
                    .flat_map(|((x, y), n)| std::iter::repeat_n(KmPoint::new(x, y), n))
                    .collect()
            }),
            // A 2.5 km lattice: many sites at exactly equal distances.
            proptest::collection::vec((-4i32..44, -4i32..44), 1..300).prop_map(|v| {
                v.into_iter().map(|(i, j)| KmPoint::new(i as f64 * 2.5, j as f64 * 2.5)).collect()
            }),
            // Far outside the bounds, clamped into the border cells.
            proptest::collection::vec((-500.0f64..600.0, -500.0f64..600.0), 1..40)
                .prop_map(|v| v.into_iter().map(|(x, y)| KmPoint::new(x, y)).collect()),
            // One point.
            xy().prop_map(|(x, y)| vec![KmPoint::new(x, y)]),
            // None.
            Just(Vec::new()),
        ]
    }

    proptest! {
        /// Over clustered, sparse, duplicated, lattice, out-of-bounds,
        /// single and empty layouts, cells from today's width to an eighth
        /// of it, and queries inside, outside, exactly on cell edges and
        /// equidistant from lattice sites: `nearest`
        /// equals the brute-force minimum of (squared distance, insertion
        /// index), and the replaced ring search wherever the nearest
        /// position is unique.
        #[test]
        fn nearest_matches_brute_force_and_reference(
            points in layout(),
            height in 30.0f64..100.0,
            divisor in 1u32..=8,
            queries in proptest::collection::vec(
                (0u32..4, -150.0f64..250.0, -150.0f64..250.0, -20i32..160, -20i32..160),
                1..40,
            ),
        ) {
            let bounds = KmRect::new(KmPoint::new(0.0, 0.0), KmPoint::new(100.0, height));
            // Today's production width for these bounds, and a fraction.
            let full = (bounds.width().min(bounds.height()) / 40.0).max(2.0);
            let cell = full / divisor as f64;
            let index = GridIndex::build(bounds, cell, &indexed(&points));
            let reference = reference::RingIndex::build(bounds, full, &indexed(&points));
            prop_assert_eq!(index.len(), points.len());

            for (kind, x, y, ex, ey) in queries {
                let q = match kind {
                    // Anywhere: inside or outside the bounds.
                    0 => KmPoint::new(x, y),
                    // Exactly on a corner of this index's cells.
                    1 => KmPoint::new(ex as f64 * cell, ey as f64 * cell),
                    // On a vertical edge of the reference's cells.
                    2 => KmPoint::new(ex as f64 * full, y),
                    // Midway between lattice sites: equidistant from several.
                    _ => KmPoint::new(ex as f64 * 1.25, ey as f64 * 1.25),
                };
                let got = index.nearest(&q).map(|(p, &i)| (p, i));
                let want = brute_force(&points, &q);
                prop_assert!(
                    got.map(|(_, i)| i) == want,
                    "query {:?}, cell {}: got {:?}, brute force {:?}",
                    q,
                    cell,
                    got,
                    want
                );
                if let Some((p, i)) = got {
                    prop_assert_eq!(p, points[i]);
                    if unique_nearest(&points, &q, i) {
                        prop_assert_eq!(reference.nearest(&q).map(|(_, &r)| r), Some(i));
                    }
                }
            }
        }
    }
}
