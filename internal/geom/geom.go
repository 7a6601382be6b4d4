// Package geom provides the 2-D geometry primitives used by the MANET
// simulator: points, rectangular deployment areas, and a uniform-grid
// spatial index for unit-disk neighbor queries.
//
// All coordinates are in meters, matching the paper's scenario tables
// (500 m × 500 m up to 1000 m × 1000 m areas, 30–70 m transmission ranges).
package geom

import (
	"fmt"
	"math"
)

// Point is a position in the plane.
type Point struct {
	X, Y float64
}

// Add returns p translated by (dx, dy).
func (p Point) Add(dx, dy float64) Point { return Point{p.X + dx, p.Y + dy} }

// Sub returns the vector p - q as a Point.
func (p Point) Sub(q Point) Point { return Point{p.X - q.X, p.Y - q.Y} }

// Dist returns the Euclidean distance between p and q.
func (p Point) Dist(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return math.Hypot(dx, dy)
}

// Dist2 returns the squared Euclidean distance; cheaper when only comparing
// against a squared radius.
func (p Point) Dist2(q Point) float64 {
	dx, dy := p.X-q.X, p.Y-q.Y
	return dx*dx + dy*dy
}

// Norm returns the Euclidean length of p viewed as a vector.
func (p Point) Norm() float64 { return math.Hypot(p.X, p.Y) }

// Lerp returns the point a fraction t of the way from p to q.
// t=0 yields p, t=1 yields q; t outside [0,1] extrapolates.
func (p Point) Lerp(q Point, t float64) Point {
	return Point{p.X + (q.X-p.X)*t, p.Y + (q.Y-p.Y)*t}
}

func (p Point) String() string { return fmt.Sprintf("(%.2f, %.2f)", p.X, p.Y) }

// Rect is an axis-aligned rectangle anchored at the origin: the deployment
// area [0, W] × [0, H].
type Rect struct {
	W, H float64
}

// Contains reports whether p lies inside the rectangle (boundary inclusive).
func (r Rect) Contains(p Point) bool {
	return p.X >= 0 && p.X <= r.W && p.Y >= 0 && p.Y <= r.H
}

// Clamp returns p moved to the nearest point inside the rectangle.
func (r Rect) Clamp(p Point) Point {
	return Point{math.Min(math.Max(p.X, 0), r.W), math.Min(math.Max(p.Y, 0), r.H)}
}

// Area returns W*H in square meters.
func (r Rect) Area() float64 { return r.W * r.H }

func (r Rect) String() string { return fmt.Sprintf("%gm x %gm", r.W, r.H) }

// Grid is a uniform-bucket spatial index over a Rect. With cell size equal to
// the radio range, a unit-disk neighbor query touches at most 9 cells, making
// adjacency construction O(N · density) instead of O(N²).
//
// A Grid is rebuilt from scratch each time node positions change (Reset +
// Insert); queries between rebuilds see a consistent snapshot.
type Grid struct {
	area  Rect
	cell  float64
	nx    int
	ny    int
	cells [][]int32 // node ids per bucket
}

// maxGridCells bounds the bucket count: a sparse network (tiny radio range
// over a huge area) must not allocate area/range² buckets. Coarsening the
// cell keeps queries correct — BucketRange is an over-approximation by
// bucket either way — at worst visiting more candidates per query.
const maxGridCells = 1 << 20

// NewGrid creates an index over area with the given cell size (> 0). The
// effective cell may be coarser than requested when the area/cell ratio
// would exceed maxGridCells buckets.
func NewGrid(area Rect, cell float64) *Grid {
	if cell <= 0 {
		panic("geom: grid cell size must be positive")
	}
	dims := func(c float64) (int, int) {
		nx := int(math.Ceil(area.W/c)) + 1
		ny := int(math.Ceil(area.H/c)) + 1
		if nx < 1 {
			nx = 1
		}
		if ny < 1 {
			ny = 1
		}
		return nx, ny
	}
	nx, ny := dims(cell)
	// Compare in float64: for extreme area/cell ratios the int product
	// nx*ny can overflow before the guard sees it.
	for float64(nx)*float64(ny) > maxGridCells {
		cell *= 2
		nx, ny = dims(cell)
	}
	return &Grid{area: area, cell: cell, nx: nx, ny: ny, cells: make([][]int32, nx*ny)}
}

// Reset clears the index, retaining bucket capacity to limit allocation
// churn across rebuilds.
func (g *Grid) Reset() {
	for i := range g.cells {
		g.cells[i] = g.cells[i][:0]
	}
}

func (g *Grid) index(p Point) int {
	cx := int(p.X / g.cell)
	cy := int(p.Y / g.cell)
	if cx < 0 {
		cx = 0
	}
	if cx >= g.nx {
		cx = g.nx - 1
	}
	if cy < 0 {
		cy = 0
	}
	if cy >= g.ny {
		cy = g.ny - 1
	}
	return cy*g.nx + cx
}

// Insert records that node id is at position p.
func (g *Grid) Insert(id int32, p Point) {
	i := g.index(p)
	g.cells[i] = append(g.cells[i], id)
}

// Remove deletes one occurrence of id from the bucket holding position p
// (which must be where the id was inserted). It reports whether the id was
// found. Bucket order is not preserved — callers that need deterministic
// neighbor order must sort after distance filtering, as Build does.
func (g *Grid) Remove(id int32, p Point) bool {
	i := g.index(p)
	cell := g.cells[i]
	for j, v := range cell {
		if v == id {
			cell[j] = cell[len(cell)-1]
			g.cells[i] = cell[:len(cell)-1]
			return true
		}
	}
	return false
}

// BucketRange returns the inclusive cell-coordinate bounds [x0,x1]×[y0,y1]
// whose buckets can contain points within radius of p. Together with
// Bucket it lets hot loops scan candidates without per-candidate callback
// indirection (the unit-disk builders' inner loop).
func (g *Grid) BucketRange(p Point, radius float64) (x0, y0, x1, y1 int) {
	span := int(math.Ceil(radius / g.cell))
	// Clamp the center cell exactly as Insert does, so that points outside
	// the nominal area are still found near where they were filed.
	center := g.index(p)
	cx, cy := center%g.nx, center/g.nx
	x0, x1 = cx-span, cx+span
	if x0 < 0 {
		x0 = 0
	}
	if x1 >= g.nx {
		x1 = g.nx - 1
	}
	y0, y1 = cy-span, cy+span
	if y0 < 0 {
		y0 = 0
	}
	if y1 >= g.ny {
		y1 = g.ny - 1
	}
	return x0, y0, x1, y1
}

// Bucket returns the ids filed in cell (x, y). Callers must not mutate the
// slice, and must treat it as invalidated by Insert/Remove/Reset.
func (g *Grid) Bucket(x, y int) []int32 { return g.cells[y*g.nx+x] }
