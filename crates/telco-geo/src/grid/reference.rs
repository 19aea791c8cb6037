//! The ring search `GridIndex` replaced, kept verbatim in behaviour as a
//! test oracle: `Vec<Vec>` cells filled by insertion, rings walked in a
//! fixed cell order, and a strict `<` that keeps the first point found at
//! the minimum distance. Where the nearest position is unique it agrees
//! with any exact search; on ties between different positions in
//! different cells it depends on the cell width and the scan order.
//!
//! Written against `super::{KmPoint, KmRect}` only, so a test elsewhere in
//! the workspace can include this file with `#[path]` beside those two
//! imports.

use super::{KmPoint, KmRect};

/// Points and payloads in square cells of side `cell_km`.
pub struct RingIndex<T> {
    bounds: KmRect,
    cell_km: f64,
    nx: usize,
    ny: usize,
    cells: Vec<Vec<(KmPoint, T)>>,
}

impl<T: Clone> RingIndex<T> {
    /// Insert `items` in order; points outside the bounds are clamped
    /// into the border cells.
    pub fn build(bounds: KmRect, cell_km: f64, items: &[(KmPoint, T)]) -> Self {
        let nx = (bounds.width() / cell_km).ceil().max(1.0) as usize;
        let ny = (bounds.height() / cell_km).ceil().max(1.0) as usize;
        let mut index = RingIndex { bounds, cell_km, nx, ny, cells: vec![Vec::new(); nx * ny] };
        for (p, v) in items {
            let (cx, cy) = index.cell_of(p);
            index.cells[cy * index.nx + cx].push((*p, v.clone()));
        }
        index
    }

    fn cell_of(&self, p: &KmPoint) -> (usize, usize) {
        let p = self.bounds.clamp(p);
        let cx = ((p.x - self.bounds.min.x) / self.cell_km) as usize;
        let cy = ((p.y - self.bounds.min.y) / self.cell_km) as usize;
        (cx.min(self.nx - 1), cy.min(self.ny - 1))
    }

    /// The first point found at the minimum distance, ring by ring.
    pub fn nearest(&self, center: &KmPoint) -> Option<(KmPoint, &T)> {
        let (ccx, ccy) = self.cell_of(center);
        let max_ring = self.nx.max(self.ny) as isize;
        let mut best: Option<(f64, KmPoint, &T)> = None;
        for ring in 0..=max_ring {
            if let Some((d2, _, _)) = best {
                let ring_min = (ring - 1).max(0) as f64 * self.cell_km;
                if ring_min * ring_min > d2 {
                    break;
                }
            }
            let mut visited_any = false;
            for (cx, cy) in ring_cells(ccx as isize, ccy as isize, ring) {
                if cx < 0 || cy < 0 || cx >= self.nx as isize || cy >= self.ny as isize {
                    continue;
                }
                visited_any = true;
                for (p, v) in &self.cells[cy as usize * self.nx + cx as usize] {
                    let dx = p.x - center.x;
                    let dy = p.y - center.y;
                    let d2 = dx * dx + dy * dy;
                    if best.as_ref().is_none_or(|(bd2, _, _)| d2 < *bd2) {
                        best = Some((d2, *p, v));
                    }
                }
            }
            if !visited_any && best.is_some() {
                break;
            }
        }
        best.map(|(_, p, v)| (p, v))
    }
}

/// Cells at Chebyshev distance exactly `ring` from `(cx, cy)`: the top and
/// bottom rows, column by column from the left, then the two side columns,
/// row by row from the top.
fn ring_cells(cx: isize, cy: isize, ring: isize) -> impl Iterator<Item = (isize, isize)> {
    let top_bottom = (-ring..=ring).flat_map(move |d| {
        let top = Some((cx + d, cy - ring));
        let bottom = (ring > 0).then_some((cx + d, cy + ring));
        [top, bottom].into_iter().flatten()
    });
    let sides = ((-ring + 1)..ring).flat_map(move |d| [(cx - ring, cy + d), (cx + ring, cy + d)]);
    top_bottom.chain(sides)
}
