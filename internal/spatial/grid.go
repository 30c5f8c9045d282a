// Package spatial provides a uniform grid hash over the plane supporting
// near-constant-time radius queries. The simulator uses it to implement the
// robots' radius-1 "look" primitive without scanning the whole swarm, the
// disk-graph builder uses it to enumerate δ-neighbors, and the connectivity
// threshold ℓ* is derived with its nearest-neighbor search.
package spatial

import (
	"math"

	"freezetag/internal/geom"
)

// Grid indexes items identified by int IDs at points in the plane, bucketed
// into square cells of a fixed size. Query cost is proportional to the number
// of items in the cells overlapping the query ball.
//
// Radius queries and nearest-neighbor searches are evaluated under the grid's
// metric (ℓ2 unless built with NewGridIn). The cell bookkeeping itself is
// metric-independent: a metric ball of radius r is always contained in the
// axis-aligned square of half-width r because every supported metric
// dominates the Chebyshev distance (see geom.Metric).
//
// Cells store their members as parallel id/point slices, so query scans walk
// contiguous points instead of chasing a map lookup per member. Cells are
// retained (empty) when their last member leaves, so an item oscillating
// between two cells — the simulator's move loop — allocates nothing in
// steady state.
//
// Grid is not safe for concurrent use; the simulator serializes all access.
type Grid struct {
	cell   float64
	metric geom.Metric
	euclid bool // cached IsL2(metric): keeps the Dist2 fast path branch cheap
	items  map[int]geom.Point
	cells  map[[2]int]*gridCell
	// Grow-only bounds of every cell that ever held an item: a constant-time
	// upper bound on useful ring expansion in Nearest (stale-but-larger
	// bounds only cost extra empty rings when no eligible item exists).
	hasBounds    bool
	minCX, maxCX int
	minCY, maxCY int
	// cellBlock bump-allocates gridCell structs in chunks, so an item
	// sweeping across fresh territory (a racer engine's robots crossing
	// thousands of never-seen cells) costs one allocation per block rather
	// than one per cell. Handed-out pointers stay valid when a block fills:
	// the full block is abandoned to the cells map and a fresh one started.
	cellBlock []gridCell
	// idBlock/ptBlock seed each new cell with a small capacity-clipped
	// window carved from a shared array, so a cell's first members don't
	// cost a slice allocation each. Appends past the window's capacity fall
	// off into an ordinary grown slice; the three-index clip guarantees a
	// growing cell can never overwrite its neighbour's window.
	idBlock []int
	ptBlock []geom.Point
}

// cellBlockSize is how many gridCell structs (and seed windows) each bump
// block holds; cellSeedCap is the member capacity a fresh cell starts with.
// Most cells a moving robot sweeps through hold one or two members at a
// time, so the seed window absorbs the common case outright.
const (
	cellBlockSize = 256
	cellSeedCap   = 2
)

// newCell hands out a zeroed cell from the bump blocks.
func (g *Grid) newCell() *gridCell {
	if len(g.cellBlock) == cap(g.cellBlock) {
		g.cellBlock = make([]gridCell, 0, cellBlockSize)
	}
	g.cellBlock = g.cellBlock[:len(g.cellBlock)+1]
	c := &g.cellBlock[len(g.cellBlock)-1]
	if cap(g.idBlock)-len(g.idBlock) < cellSeedCap {
		g.idBlock = make([]int, 0, cellBlockSize*cellSeedCap)
	}
	off := len(g.idBlock)
	c.ids = g.idBlock[off : off : off+cellSeedCap]
	g.idBlock = g.idBlock[:off+cellSeedCap]
	if cap(g.ptBlock)-len(g.ptBlock) < cellSeedCap {
		g.ptBlock = make([]geom.Point, 0, cellBlockSize*cellSeedCap)
	}
	off = len(g.ptBlock)
	c.pts = g.ptBlock[off : off : off+cellSeedCap]
	g.ptBlock = g.ptBlock[:off+cellSeedCap]
	return c
}

// gridCell holds one cell's members as parallel slices: ids[i] sits at
// pts[i]. The point copy is the whole optimization — scans read points
// sequentially from the cell instead of indirecting through the item map.
type gridCell struct {
	ids []int
	pts []geom.Point
}

// NewGrid builds an empty Euclidean grid with the given cell size. The cell
// size should be of the order of the most common query radius; it must be
// positive.
func NewGrid(cellSize float64) *Grid { return NewGridIn(nil, cellSize) }

// NewGridIn builds an empty grid whose radius and nearest queries measure
// under m (nil defaults to ℓ2).
func NewGridIn(m geom.Metric, cellSize float64) *Grid {
	return NewGridInCap(m, cellSize, 0)
}

// NewGridInCap is NewGridIn with a capacity hint: the item index is sized
// for n items up front, so bulk loads (the simulator's robot population,
// the disk-graph vertex set) skip the incremental map growth.
func NewGridInCap(m geom.Metric, cellSize float64, n int) *Grid {
	if cellSize <= 0 {
		panic("spatial: cell size must be positive")
	}
	if n < 0 {
		n = 0
	}
	metric := geom.MetricOrL2(m)
	return &Grid{
		cell:   cellSize,
		metric: metric,
		euclid: geom.IsL2(metric),
		items:  make(map[int]geom.Point, n),
		cells:  make(map[[2]int]*gridCell, n),
	}
}

// Reset empties the grid for reuse under metric m (nil defaults to ℓ2),
// retaining all allocated storage: the item index and every cell's member
// slices survive, so a simulation engine re-running an instance of the same
// shape re-populates the grid without allocating.
// Cells left empty by Reset are harmless to queries — they are skipped like
// any other empty cell — and their capacity is exactly what the next run of
// the same shape needs.
func (g *Grid) Reset(m geom.Metric) {
	metric := geom.MetricOrL2(m)
	g.metric = metric
	g.euclid = geom.IsL2(metric)
	clear(g.items)
	for _, c := range g.cells {
		c.ids = c.ids[:0]
		c.pts = c.pts[:0]
	}
	g.hasBounds = false
	g.minCX, g.maxCX, g.minCY, g.maxCY = 0, 0, 0, 0
}

// Len returns the number of indexed items.
func (g *Grid) Len() int { return len(g.items) }

// CellSize returns the configured cell size.
func (g *Grid) CellSize() float64 { return g.cell }

// Metric returns the metric the grid's queries measure under.
func (g *Grid) Metric() geom.Metric { return g.metric }

func (g *Grid) key(p geom.Point) [2]int {
	return [2]int{int(math.Floor(p.X / g.cell)), int(math.Floor(p.Y / g.cell))}
}

// Insert adds or moves item id to point p.
func (g *Grid) Insert(id int, p geom.Point) {
	if old, ok := g.items[id]; ok {
		g.removeFromCell(id, old)
	}
	g.items[id] = p
	k := g.key(p)
	c := g.cells[k]
	if c == nil {
		c = g.newCell()
		g.cells[k] = c
	}
	c.ids = append(c.ids, id)
	c.pts = append(c.pts, p)
	if !g.hasBounds {
		g.hasBounds = true
		g.minCX, g.maxCX = k[0], k[0]
		g.minCY, g.maxCY = k[1], k[1]
		return
	}
	g.minCX = min(g.minCX, k[0])
	g.maxCX = max(g.maxCX, k[0])
	g.minCY = min(g.minCY, k[1])
	g.maxCY = max(g.maxCY, k[1])
}

// Remove deletes item id; unknown ids are a no-op.
func (g *Grid) Remove(id int) {
	p, ok := g.items[id]
	if !ok {
		return
	}
	g.removeFromCell(id, p)
	delete(g.items, id)
}

func (g *Grid) removeFromCell(id int, p geom.Point) {
	c := g.cells[g.key(p)]
	if c == nil {
		return
	}
	for i, v := range c.ids {
		if v == id {
			last := len(c.ids) - 1
			c.ids[i] = c.ids[last]
			c.pts[i] = c.pts[last]
			c.ids = c.ids[:last] // keep the empty slices for reuse
			c.pts = c.pts[:last]
			return
		}
	}
}

// At returns the indexed position of id and whether it exists.
func (g *Grid) At(id int) (geom.Point, bool) {
	p, ok := g.items[id]
	return p, ok
}

// Within appends to dst the ids of all items within metric distance r of p
// (closed ball, geom.Eps slack) and returns the extended slice. Results are
// in unspecified order. The scanned cell range is the bounding square of the
// ball, which covers the metric ball of every supported metric.
func (g *Grid) Within(dst []int, p geom.Point, r float64) []int {
	if r < 0 {
		return dst
	}
	minX := int(math.Floor((p.X - r) / g.cell))
	maxX := int(math.Floor((p.X + r) / g.cell))
	minY := int(math.Floor((p.Y - r) / g.cell))
	maxY := int(math.Floor((p.Y + r) / g.cell))
	r2 := (r + geom.Eps) * (r + geom.Eps)
	for cx := minX; cx <= maxX; cx++ {
		for cy := minY; cy <= maxY; cy++ {
			c := g.cells[[2]int{cx, cy}]
			if c == nil {
				continue
			}
			if g.euclid {
				// Squared-distance fast path, bit-identical to the
				// pre-metric grid.
				for i, q := range c.pts {
					if q.Dist2(p) <= r2 {
						dst = append(dst, c.ids[i])
					}
				}
				continue
			}
			for i, q := range c.pts {
				if geom.WithinIn(g.metric, q, p, r) {
					dst = append(dst, c.ids[i])
				}
			}
		}
	}
	return dst
}

// InRect appends to dst the ids of items inside rectangle r (closed, Eps
// slack) and returns the extended slice.
func (g *Grid) InRect(dst []int, r geom.Rect) []int {
	minX := int(math.Floor(r.Min.X / g.cell))
	maxX := int(math.Floor(r.Max.X / g.cell))
	minY := int(math.Floor(r.Min.Y / g.cell))
	maxY := int(math.Floor(r.Max.Y / g.cell))
	for cx := minX; cx <= maxX; cx++ {
		for cy := minY; cy <= maxY; cy++ {
			c := g.cells[[2]int{cx, cy}]
			if c == nil {
				continue
			}
			for i, q := range c.pts {
				if r.Contains(q) {
					dst = append(dst, c.ids[i])
				}
			}
		}
	}
	return dst
}

// Nearest returns the id of the indexed item closest to p under the grid's
// metric, excluding ids for which skip returns true, along with its distance.
// ok is false when no eligible item exists. skip may be nil.
//
// The search expands square rings of cells outward from p. Once a candidate
// is found at distance d, the search only needs to continue until the ring
// boundary exceeds d (any item in ring k is at Chebyshev distance, hence at
// metric distance, > (k−1)·cell); the ring count is additionally capped by
// the grid's populated-cell bounds, so the loop always terminates.
func (g *Grid) Nearest(p geom.Point, skip func(id int) bool) (id int, dist float64, ok bool) {
	if len(g.items) == 0 {
		return 0, 0, false
	}
	ck := g.key(p)
	maxRing := g.maxRingFrom(ck)
	best := math.Inf(1)
	bestID := 0
	found := false
	for ring := 0; ring <= maxRing; ring++ {
		for cx := ck[0] - ring; cx <= ck[0]+ring; cx++ {
			for cy := ck[1] - ring; cy <= ck[1]+ring; cy++ {
				if ring > 0 && cx > ck[0]-ring && cx < ck[0]+ring &&
					cy > ck[1]-ring && cy < ck[1]+ring {
					continue // interior cells scanned in earlier rings
				}
				c := g.cells[[2]int{cx, cy}]
				if c == nil {
					continue
				}
				for i, id := range c.ids {
					if skip != nil && skip(id) {
						continue
					}
					if d := g.metric.Dist(c.pts[i], p); d < best {
						best, bestID, found = d, id, true
					}
				}
			}
		}
		// Any item in ring k is at distance > (k-1)·cell, so once the current
		// best is within ring·cell no farther ring can improve it.
		if found && best <= float64(ring)*g.cell {
			break
		}
	}
	if !found {
		return 0, 0, false
	}
	return bestID, best, true
}

// maxRingFrom returns the largest Chebyshev cell-distance from origin cell ck
// to any cell that ever held an item — the upper bound on useful ring
// expansion, from the grow-only bounds in constant time.
func (g *Grid) maxRingFrom(ck [2]int) int {
	if !g.hasBounds {
		return 0
	}
	ring := max(g.maxCX-ck[0], ck[0]-g.minCX)
	ring = max(ring, g.maxCY-ck[1])
	ring = max(ring, ck[1]-g.minCY)
	return max(ring, 0)
}

// ForEach calls fn for every (id, point) pair in unspecified order.
func (g *Grid) ForEach(fn func(id int, p geom.Point)) {
	for id, p := range g.items {
		fn(id, p)
	}
}
