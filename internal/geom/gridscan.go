package geom

import (
	"math"
	"sort"
)

// This file holds grid-accelerated variants of the quadratic/linear point
// scans in metric.go. They bucket the slice into square cells once per call
// (spatial.Grid imports geom, so geom carries its own one-shot bucketing)
// and return exactly the same float64 the brute-force scans return — the
// pruning arguments below only ever discard points that cannot change the
// extremum, so the winning Dist call is the same call the dense scan makes.

// gridScanMinN is the size below which the dense scans win: bucketing costs
// a map build, which only amortizes once the quadratic (or the full linear
// max pass) is big enough to matter.
const gridScanMinN = 48

// scanBoundMargin inflates cell pruning bounds by a hair so that the few
// ulps of rounding inside a metric's Dist can never make a bound computed
// at a cell corner dip below the computed distance of a point inside the
// cell. Metric distances are accurate to ~1e-13 relative; 1e-9 is orders of
// magnitude of slack and costs at most a handful of extra cells scanned.
const scanBoundMargin = 1 + 1e-9

// bboxOf returns the bounding box of pts; ok is false when any coordinate
// is NaN (the dense scans own that degenerate case).
func bboxOf(pts []Point) (minX, minY, maxX, maxY float64, ok bool) {
	minX, minY = math.Inf(1), math.Inf(1)
	maxX, maxY = math.Inf(-1), math.Inf(-1)
	for _, p := range pts {
		minX = math.Min(minX, p.X)
		minY = math.Min(minY, p.Y)
		maxX = math.Max(maxX, p.X)
		maxY = math.Max(maxY, p.Y)
	}
	if math.IsNaN(maxX-minX) || math.IsNaN(maxY-minY) {
		return 0, 0, 0, 0, false
	}
	return minX, minY, maxX, maxY, true
}

// bucketPts assigns every point index to its cell of the given size.
func bucketPts(pts []Point, cell float64) map[[2]int][]int32 {
	buckets := make(map[[2]int][]int32, len(pts))
	for i, p := range pts {
		k := [2]int{int(math.Floor(p.X / cell)), int(math.Floor(p.Y / cell))}
		buckets[k] = append(buckets[k], int32(i))
	}
	return buckets
}

// MinPairDistGridIn is MinPairDistIn accelerated with cell bucketing:
// near-linear for well-spread sets instead of O(n²), and exactly equal to
// the dense scan (same float64). Every supported metric dominates Chebyshev,
// so a pair at metric distance ≤ cell lands in adjacent cells and a 3×3
// neighborhood scan sees it; when the first pass proves nothing that close
// exists, one rescan at the observed candidate distance certifies it.
func MinPairDistGridIn(m Metric, pts []Point) float64 {
	if len(pts) < gridScanMinN {
		return MinPairDistIn(m, pts)
	}
	m = MetricOrL2(m)
	minX, minY, maxX, maxY, ok := bboxOf(pts)
	if !ok {
		return MinPairDistIn(m, pts)
	}
	ext := math.Max(maxX-minX, maxY-minY)
	if ext == 0 {
		// All points coincide: the dense scan's minimum is Dist(p, p) = 0.
		return 0
	}
	cell := ext / math.Sqrt(float64(len(pts)))
	if cell == 0 {
		return MinPairDistIn(m, pts) // subnormal extent: cell size underflowed
	}
	// Cell coordinates come from floating-point division, so a pair within
	// distance d is guaranteed adjacent only for d a hair below the cell
	// size; certify and rescan with that margin (the closest-pair analogue
	// of the bottleneck pass's ringSafety), keeping the result bit-equal to
	// the dense scan.
	const certify = 1 - 1e-9
	for {
		best := minPairScan(m, pts, cell)
		if best <= cell*certify {
			return best // certified: a closer pair would have been adjacent
		}
		if !math.IsInf(best, 1) {
			// A candidate exists but wasn't certified by this cell size; one
			// rescan at the candidate distance (margin-inflated) sees every
			// pair that could beat it.
			return minPairScan(m, pts, best/certify)
		}
		cell *= 2 // no neighbor pairs at all; coarsen until some cell pairs up
	}
}

// minPairScan returns the smallest metric distance among pairs whose cells
// are within one step of each other, +Inf if no such pair exists.
func minPairScan(m Metric, pts []Point, cell float64) float64 {
	buckets := bucketPts(pts, cell)
	best := math.Inf(1)
	for i, p := range pts {
		cx := int(math.Floor(p.X / cell))
		cy := int(math.Floor(p.Y / cell))
		for dx := -1; dx <= 1; dx++ {
			for dy := -1; dy <= 1; dy++ {
				for _, j := range buckets[[2]int{cx + dx, cy + dy}] {
					if int(j) <= i {
						continue // each pair once, in the dense scan's (i, j) order
					}
					if d := m.Dist(p, pts[j]); d < best {
						best = d
					}
				}
			}
		}
	}
	return best
}

// MaxDistFromGridIn is MaxDistFromIn accelerated with cell bucketing and
// best-first pruning: cells are visited in decreasing order of an upper
// bound on the distance any of their points can reach (norms are convex, so
// the bound is attained at a cell corner), and the scan stops at the first
// cell whose bound cannot beat the best point seen. Exactly equal to the
// dense scan (same float64): the bound carries scanBoundMargin, so the true
// farthest point is never pruned, and its distance is computed by the same
// Dist call the dense scan makes.
func MaxDistFromGridIn(m Metric, o Point, pts []Point) float64 {
	if len(pts) < gridScanMinN {
		return MaxDistFromIn(m, o, pts)
	}
	m = MetricOrL2(m)
	minX, minY, maxX, maxY, ok := bboxOf(pts)
	if !ok {
		return MaxDistFromIn(m, o, pts)
	}
	ext := math.Max(maxX-minX, maxY-minY)
	if ext == 0 {
		return m.Dist(o, pts[0])
	}
	cell := ext / math.Sqrt(float64(len(pts)))
	buckets := bucketPts(pts, cell)
	type cellBound struct {
		key   [2]int
		bound float64
	}
	bounds := make([]cellBound, 0, len(buckets))
	for k := range buckets {
		x0, y0 := float64(k[0])*cell, float64(k[1])*cell
		x1, y1 := x0+cell, y0+cell
		b := m.Dist(o, Pt(x0, y0))
		b = math.Max(b, m.Dist(o, Pt(x1, y0)))
		b = math.Max(b, m.Dist(o, Pt(x0, y1)))
		b = math.Max(b, m.Dist(o, Pt(x1, y1)))
		bounds = append(bounds, cellBound{key: k, bound: b * scanBoundMargin})
	}
	sort.Slice(bounds, func(i, j int) bool { return bounds[i].bound > bounds[j].bound })
	var best float64
	for _, cb := range bounds {
		if cb.bound <= best {
			break // no remaining cell can contain a farther point
		}
		for _, j := range buckets[cb.key] {
			if d := m.Dist(o, pts[j]); d > best {
				best = d
			}
		}
	}
	return best
}
