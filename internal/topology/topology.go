// Package topology generates the sensor deployments used throughout the
// paper's evaluation (section 4.1 and Appendix C): random layouts tuned to
// an average neighbour count of 6 ("sparse"), 7 ("moderate"), 8 ("medium")
// and 13 ("dense"); a regular grid with an average of 7 neighbours; and the
// 54-mote Intel Research-Berkeley lab layout used for Query 3.
//
// A Topology is an immutable undirected connectivity graph plus node
// positions. Radio links are disk-model: two nodes are neighbours iff their
// Euclidean distance is at most the radio range. Generated layouts are
// always connected (the generator retries placement until the disk graph is
// connected), because every join algorithm in the paper presumes the base
// station is reachable.
package topology

import (
	"fmt"
	"math"
	"sync"
	"unsafe"

	"repro/internal/geom"
	"repro/internal/rng"
)

// NodeID identifies a node within a Topology. The base station is always
// node 0 (the paper's root r). It is 4 bytes: every neighbour list, parent
// vector, path and window tuple is a column of them, and 2^31 nodes is far
// past any deployment the simulator runs.
type NodeID int32

// Base is the NodeID of the base station / routing-tree root.
const Base NodeID = 0

// Kind names one of the paper's evaluated deployment classes.
type Kind int

const (
	// SparseRandom averages ~6 neighbours per node.
	SparseRandom Kind = iota
	// ModerateRandom averages ~7 neighbours per node (the paper's focus).
	ModerateRandom
	// MediumRandom averages ~8 neighbours per node.
	MediumRandom
	// DenseRandom averages ~13 neighbours per node.
	DenseRandom
	// Grid is a regular grid with ~7 neighbours on average.
	Grid
	// Intel is the 54-mote Intel Research-Berkeley lab deployment.
	Intel
)

// String returns the paper's name for the deployment class.
func (k Kind) String() string {
	switch k {
	case SparseRandom:
		return "Sparse Random"
	case ModerateRandom:
		return "Moderate Random"
	case MediumRandom:
		return "Medium Random"
	case DenseRandom:
		return "Dense Random"
	case Grid:
		return "Grid"
	case Intel:
		return "Intel"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Kinds lists every deployment class in the order the paper's figures use.
var Kinds = []Kind{DenseRandom, MediumRandom, ModerateRandom, SparseRandom, Grid}

// targetDegree returns the average neighbour count each class aims for.
func (k Kind) targetDegree() float64 {
	switch k {
	case SparseRandom:
		return 6
	case ModerateRandom:
		return 7
	case MediumRandom:
		return 8
	case DenseRandom:
		return 13
	case Grid:
		return 7
	default:
		return 7
	}
}

// Field is the side length, in metres, of the square deployment area
// (Table 1: a 256m-by-256m grid).
const Field = 256.0

// Cell returns the column and row of p's cell in the 4x4 partition of the
// deployment field: Table 1's cid and rid attributes, and the row bands a
// Region partition isolates.
func Cell(p geom.Point) (col, row int) {
	const side = Field / 4
	return min(3, int(p.X/side)), min(3, int(p.Y/side))
}

// Topology is an immutable deployment: node positions and the undirected
// disk-graph adjacency induced by the radio range.
type Topology struct {
	kind Kind
	pos  []geom.Point
	// nbr holds every neighbour list back to back, each ascending; node
	// id's list is nbr[nbrOff[id]:nbrOff[id+1]]. One slab and one 4-byte
	// offset per node, not a slice header per node.
	nbr    []NodeID
	nbrOff []int32
	radio  float64
}

// Kind returns the deployment class this topology was generated as.
func (t *Topology) Kind() Kind { return t.kind }

// N returns the number of nodes.
func (t *Topology) N() int { return len(t.pos) }

// Pos returns the position of node id.
func (t *Topology) Pos(id NodeID) geom.Point { return t.pos[id] }

// MemBytes is the heap the topology keeps: its positions, neighbour slab
// and offsets, each at its element's size. It feeds the engine's
// mem.topology.bytes gauge.
func (t *Topology) MemBytes() int64 {
	return int64(cap(t.pos))*int64(unsafe.Sizeof(geom.Point{})) +
		int64(cap(t.nbr))*int64(unsafe.Sizeof(NodeID(0))) + int64(cap(t.nbrOff))*4
}

// RadioRange returns the disk-model radio range in metres.
func (t *Topology) RadioRange() float64 { return t.radio }

// Neighbors returns the radio neighbours of id, ascending. The returned
// slice is owned by the topology and must not be modified; its capacity
// ends with the list, so an append copies instead of overwriting the next
// node's neighbours.
func (t *Topology) Neighbors(id NodeID) []NodeID {
	lo, hi := t.nbrOff[id], t.nbrOff[id+1]
	return t.nbr[lo:hi:hi]
}

// EdgeIndex numbers the directed edges: id's k-th neighbour is edge
// EdgeIndex(id)+k, and EdgeIndex(NodeID(N())) is the number of edges (twice
// the links). A per-hop table indexed by it needs no offsets of its own.
func (t *Topology) EdgeIndex(id NodeID) int { return int(t.nbrOff[id]) }

// IsNeighbor reports whether a and b share a radio link.
func (t *Topology) IsNeighbor(a, b NodeID) bool {
	for _, n := range t.Neighbors(a) {
		if n == b {
			return true
		}
	}
	return false
}

// Dist returns the Euclidean distance between two nodes in metres.
func (t *Topology) Dist(a, b NodeID) float64 { return t.pos[a].Dist(t.pos[b]) }

// AvgDegree returns the average neighbour count.
func (t *Topology) AvgDegree() float64 {
	return float64(len(t.nbr)) / float64(t.N())
}

// BFS returns, for every node, its hop distance from src (-1 if
// unreachable) and the parent on one shortest path (-1 for src and
// unreachable nodes). Among a node's neighbours one hop closer to src, the
// parent is the first the traversal dequeued — the first to discover it —
// which is not necessarily the lowest ID; neighbour lists are ascending, so
// the result is deterministic. Loops issuing many traversals should reuse
// buffers via HopsFrom (depth only) or memoize parent vectors per
// destination via a ParentCache.
func (t *Topology) BFS(src NodeID) (depth []int, parent []NodeID) {
	return t.BFSLive(src, nil)
}

// BFSLive is BFS restricted to the nodes alive in live: failed nodes are
// never visited, so depth/parent describe shortest paths over the surviving
// subgraph (-1 where unreachable, including behind failed cut nodes). A nil
// live (or one with no failures) is exactly BFS; a failed src reaches
// nothing, not even itself. It is the allocating wrapper of BFSLiveInto.
func (t *Topology) BFSLive(src NodeID, live *Liveness) (depth []int, parent []NodeID) {
	n := t.N()
	depth, parent = make([]int, n), make([]NodeID, n)
	t.BFSLiveInto(src, live, depth, parent, make([]NodeID, 0, n))
	return depth, parent
}

// BFSLiveInto is BFSLive over caller-owned buffers: it overwrites depth and
// parent (length N) and returns the reached nodes in visit order, which is
// depth-ascending, in queue's storage. With cap(queue) >= N it allocates
// nothing.
//
//aspen:allocfree
func (t *Topology) BFSLiveInto(src NodeID, live *Liveness, depth []int, parent []NodeID, queue []NodeID) []NodeID {
	for i := range depth {
		depth[i] = -1
		parent[i] = -1
	}
	queue = queue[:0]
	if !live.Alive(src) {
		return queue
	}
	depth[src] = 0
	queue = append(queue, src)
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range t.Neighbors(u) {
			if depth[v] == -1 && live.Alive(v) {
				depth[v] = depth[u] + 1
				parent[v] = u
				queue = append(queue, v)
			}
		}
	}
	return queue
}

// Liveness is a deployment's node-failure view (section 7): one shared
// instance per deployment, read by the simulator, the routing substrate
// and every per-query network, so a node that fails is dead for all of
// them at once — correlated failure, not a per-query fiction. The zero
// node set alive; mutation is not concurrency-safe (engines apply churn
// between epochs, never while steppers run), while concurrent Alive
// reads with no mutation in flight are safe — the engine's parallel
// workers all read this one view.
type Liveness struct {
	dead    []bool
	numDead int
}

// NewLiveness returns an all-alive view over n nodes.
func NewLiveness(n int) *Liveness {
	return &Liveness{dead: make([]bool, n)}
}

// Fail marks id as failed. Idempotent.
func (l *Liveness) Fail(id NodeID) {
	if !l.dead[id] {
		l.dead[id] = true
		l.numDead++
	}
}

// Revive clears the failure mark on id. Idempotent.
func (l *Liveness) Revive(id NodeID) {
	if l.dead[id] {
		l.dead[id] = false
		l.numDead--
	}
}

// Alive reports whether id has not failed. A nil view is all-alive, so
// liveness-optional callers need no guard.
func (l *Liveness) Alive(id NodeID) bool { return l == nil || !l.dead[id] }

// AnyDead reports whether any node is currently failed.
func (l *Liveness) AnyDead() bool { return l != nil && l.numDead > 0 }

// ParentCache memoizes one BFS parent vector per destination over an
// immutable topology, so a loop routing many queries toward the same
// destinations costs one traversal per distinct destination instead of
// one per query. Vectors are identical to a fresh BFS (same
// first-discovered-parent tie-breaking). Safe for concurrent use:
// experiment sweeps share router state across worker goroutines.
//
// A cache built with NewLiveParentCache skips failed nodes during its
// traversals; memoized vectors reflect liveness at computation time, so
// owners must Invalidate after liveness changes.
type ParentCache struct {
	topo    *Topology
	live    *Liveness
	mu      sync.RWMutex
	parents [][]NodeID
}

// NewParentCache returns an empty cache over topo.
func NewParentCache(topo *Topology) *ParentCache {
	return &ParentCache{topo: topo, parents: make([][]NodeID, topo.N())}
}

// NewLiveParentCache returns an empty cache whose traversals avoid nodes
// dead in live. With live nil it is exactly NewParentCache.
func NewLiveParentCache(topo *Topology, live *Liveness) *ParentCache {
	return &ParentCache{topo: topo, live: live, parents: make([][]NodeID, topo.N())}
}

// Parents returns the BFS parent vector toward dst (each entry is the
// neighbor one hop closer to dst, -1 at dst and at unreachable nodes).
// The returned slice is shared and must be treated as read-only.
func (c *ParentCache) Parents(dst NodeID) []NodeID {
	c.mu.RLock()
	p := c.parents[dst]
	c.mu.RUnlock()
	if p != nil {
		return p
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if p = c.parents[dst]; p == nil {
		_, p = c.topo.BFSLive(dst, c.live)
		c.parents[dst] = p
	}
	return p
}

// Invalidate drops every memoized vector. Owners call it when the
// liveness view changes (a failure or revival), since cached vectors may
// route through nodes that have since died.
func (c *ParentCache) Invalidate() {
	c.mu.Lock()
	c.parents = make([][]NodeID, c.topo.N())
	c.mu.Unlock()
}

// HopsFrom returns the hop distance from src to every node (-1 when
// unreachable), reusing buf when it has sufficient capacity. One HopsFrom
// vector answers n Hops queries from the same source, so all-pairs loops
// cost n traversals instead of n^2.
func (t *Topology) HopsFrom(src NodeID, buf []int) []int {
	n := t.N()
	if cap(buf) < n {
		buf = make([]int, n)
	}
	depth := buf[:n]
	for i := range depth {
		depth[i] = -1
	}
	depth[src] = 0
	queue := make([]NodeID, 1, n)
	queue[0] = src
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		for _, v := range t.Neighbors(u) {
			if depth[v] == -1 {
				depth[v] = depth[u] + 1
				queue = append(queue, v)
			}
		}
	}
	return depth
}

// Hops returns the shortest-path hop count between a and b, or -1 when
// disconnected. Generated topologies are always connected. Each call runs
// one BFS; callers looping over many destinations from one source should
// use HopsFrom.
func (t *Topology) Hops(a, b NodeID) int {
	depth, _ := t.BFS(a)
	return depth[b]
}

// Connected reports whether every node can reach node 0.
func (t *Topology) Connected() bool {
	depth := t.HopsFrom(Base, nil)
	for _, d := range depth {
		if d < 0 {
			return false
		}
	}
	return true
}

// Generate builds a connected topology of the given class with n nodes,
// deterministically from seed. For Intel the node count is fixed at 54 and
// n is ignored. It panics when n < 2 for non-Intel classes, mirroring the
// paper's minimum of a base plus one sensor.
func Generate(kind Kind, n int, seed uint64) *Topology {
	if kind == Intel {
		return intelTopology()
	}
	if n < 2 {
		panic("topology: need at least 2 nodes")
	}
	src := rng.New(seed).Split(uint64(kind))
	if kind == Grid {
		return gridTopology(n)
	}
	return randomTopology(kind, n, src)
}

// randomTopology places n nodes uniformly in the field and picks a radio
// range that yields the class's target average degree, retrying until the
// disk graph is connected. Per placement attempt the spatial grid is
// scanned once up front, at preCollect times the analytic radius,
// collecting every pair within it with its squared distance. Probes of the
// degree-calibration binary search at or below the collected radius, the
// connectivity check and the final adjacency are answered from that pair
// list. A probe above it is decided "too high" without a scan when the
// collected degree already exceeds the target band, since degree is
// monotone in the radius; otherwise it re-collects at the probe. Every
// probe decides as counting the pairs a materialization at that radius
// would link (same <= r^2 test) would, so the search trajectory — and
// therefore the final radio range, retry sequence and rng draw count — is
// identical to probing with fully materialized topologies.
func randomTopology(kind Kind, n int, src *rng.Source) *Topology {
	target := kind.targetDegree()
	// For n uniform points in an L x L square, the expected degree at radio
	// range r is ~ (n-1) * pi r^2 / L^2; solve for r as a starting guess,
	// then adjust until the measured average degree brackets the target.
	r := Field * math.Sqrt(target/(float64(n-1)*math.Pi))
	var pairs pairList
	uf := make([]int32, n)
	// Only the connected placement's positions are kept, so every attempt
	// overwrites the same slice.
	pos := make([]geom.Point, n)
	for attempt := 0; ; attempt++ {
		layout := src.Split(uint64(attempt))
		for i := range pos {
			pos[i] = geom.Point{X: layout.Float64() * Field, Y: layout.Float64() * Field}
		}
		// Binary-search the radio range for this placement to hit the
		// target degree within 0.5.
		grid := newCellGrid(pos, r)
		collected := preCollect * r
		pairs.reserve(expectedPairs(n, collected))
		grid.collectPairs(collected, &pairs)
		lo, hi := r/4, r*4
		radio := 0.0
		for iter := 0; iter < 40; iter++ {
			mid := (lo + hi) / 2
			radio = mid
			var d float64
			switch {
			case mid <= collected:
				d = pairs.avgDegreeAt(mid, n)
			case pairs.avgDegree(n) > target+0.25:
				// The degree at mid is at least the collected degree,
				// already too high: no scan needed to decide.
				d = pairs.avgDegree(n)
			default:
				collected = mid
				grid.collectPairs(mid, &pairs)
				d = pairs.avgDegree(n)
			}
			switch {
			case d < target-0.25:
				lo = mid
			case d > target+0.25:
				hi = mid
			default:
				iter = 40
			}
		}
		// A search that ran out of iterations may end on a probe decided
		// without a scan, above the collected radius; every other exit
		// probed within it.
		if radio > collected {
			grid.collectPairs(radio, &pairs)
		}
		// Only a connected placement is materialized: a disconnected one
		// (possible at sparse densities) is retried with fresh positions.
		if pairs.connectedAt(radio, uf) {
			return fromPairs(kind, pos, radio, &pairs)
		}
	}
}

// preCollect is the radius, as a multiple of the analytic radius, at which
// randomTopology collects pairs before its search. The search's first probe
// is 2.125x; on uniform placements it lands 3-4.5x over the target degree,
// and the search settles near 1x, so 1.25x covers the probes that need
// counts with about a third of the pairs the first probe would collect.
const preCollect = 1.25

// pairList is the per-attempt candidate-pair store: all unordered pairs
// (i < j) within the collected radius, with their squared distances, in
// the grid's cell-major scan order. Buffers are reused across collections
// and placement attempts.
type pairList struct {
	i, j []int32
	d2   []float64
}

// collectPairs fills pairs with every pair within radio of each other,
// scanning g once and testing each unordered pair once: nodes are visited
// in cell-major order, and each looks only forward — at the later items of
// its own cell, the later cells of its row, and the later rows of its
// window.
func (g *cellGrid) collectPairs(radio float64, pairs *pairList) {
	pairs.i, pairs.j, pairs.d2 = pairs.i[:0], pairs.j[:0], pairs.d2[:0]
	r2 := radio * radio
	for c := 0; c+1 < len(g.start); c++ {
		cy := c / g.cols
		for at := g.start[c]; at < g.start[c+1]; at++ {
			ii, p := g.items[at], geom.Point{X: g.px[at], Y: g.py[at]}
			x0, x1, _, y1 := g.window(p, radio)
			for y := cy; y <= y1; y++ {
				row := y * g.cols
				lo, hi := g.start[row+x0], g.start[row+x1+1]
				if y == cy {
					lo = at + 1
				}
				ids := g.items[lo:hi]
				xs, ys := g.px[lo:hi], g.py[lo:hi]
				for k := range ids {
					dx, dy := xs[k]-p.X, ys[k]-p.Y
					if d2 := dx*dx + dy*dy; d2 <= r2 {
						pairs.i = append(pairs.i, min(ii, ids[k]))
						pairs.j = append(pairs.j, max(ii, ids[k]))
						pairs.d2 = append(pairs.d2, d2)
					}
				}
			}
		}
	}
}

// avgDegree is the average degree at the collected radius.
func (pl *pairList) avgDegree(n int) float64 {
	return float64(2*len(pl.d2)) / float64(n)
}

// avgDegreeAt counts the average degree at a radius within the collected
// range: one sequential pass over the squared distances.
func (pl *pairList) avgDegreeAt(radio float64, n int) float64 {
	r2 := radio * radio
	edges := 0
	for _, d2 := range pl.d2 {
		if d2 <= r2 {
			edges++
		}
	}
	return float64(2*edges) / float64(n)
}

// expectedPairs is the number of pairs within radio of each other among n
// uniform points in the field, ignoring the border's missing area (which
// only lowers it): n(n-1)/2 times the disk's share of the field.
func expectedPairs(n int, radio float64) int {
	return int(float64(n) * float64(n-1) / 2 * math.Pi * radio * radio / (Field * Field))
}

// reserve grows the list's buffers to hold k pairs without reallocating.
func (pl *pairList) reserve(k int) {
	if cap(pl.d2) < k {
		pl.i, pl.j, pl.d2 = make([]int32, 0, k), make([]int32, 0, k), make([]float64, 0, k)
	}
}

// connectedAt reports whether the disk graph at radio (within the collected
// radius) connects all len(uf) nodes: union-find over the pairs within
// radio, with uf as its scratch parent array. It decides exactly what a
// traversal of the materialized graph would.
func (pl *pairList) connectedAt(radio float64, uf []int32) bool {
	for i := range uf {
		uf[i] = -1 // a root holding a one-node component, as minus its size
	}
	find := func(x int32) int32 {
		for uf[x] >= 0 {
			if p := uf[x]; uf[p] >= 0 {
				uf[x] = uf[p] // path halving
			}
			x = uf[x]
		}
		return x
	}
	r2 := radio * radio
	components := len(uf)
	for k, d2 := range pl.d2 {
		if d2 > r2 {
			continue
		}
		a, b := find(pl.i[k]), find(pl.j[k])
		if a == b {
			continue
		}
		if uf[a] > uf[b] { // union by size: a is the larger component
			a, b = b, a
		}
		uf[a] += uf[b]
		uf[b] = a
		if components--; components == 1 {
			return true
		}
	}
	return components == 1
}

// fromPairs materializes the disk graph at radio (which must be within the
// list's collected radius) from the candidate-pair list: a counting pass
// turns the offset column into list ends, the fill places each neighbour at
// the back of its list and moves the end down to the list's start, and a
// sort per list leaves it ascending — byte-identical to naiveFromPositions
// at the same radius. The fill walks the pairs backwards, so each list
// holds its pairs in scan order, which is close to ascending; a forward
// walk reverses them, and the whole build ran about 25% slower.
func fromPairs(kind Kind, pos []geom.Point, radio float64, pairs *pairList) *Topology {
	r2 := radio * radio
	off := make([]int32, len(pos)+1)
	for k, d2 := range pairs.d2 {
		if d2 <= r2 {
			off[pairs.i[k]]++
			off[pairs.j[k]]++
		}
	}
	total := int32(0)
	for i, c := range off {
		total += c
		off[i] = total
	}
	nbr := make([]NodeID, total)
	for k := len(pairs.d2) - 1; k >= 0; k-- {
		if pairs.d2[k] <= r2 {
			i, j := pairs.i[k], pairs.j[k]
			off[i]--
			nbr[off[i]] = NodeID(j)
			off[j]--
			nbr[off[j]] = NodeID(i)
		}
	}
	for i := range pos {
		sortNodeIDs(nbr[off[i]:off[i+1]])
	}
	return &Topology{kind: kind, pos: pos, radio: radio, nbr: nbr, nbrOff: off}
}

// gridTopology lays out ceil(sqrt(n)) columns on a regular lattice with a
// radio range covering the 8-neighbourhood minus the farthest diagonal
// corner cases, which empirically averages ~7 neighbours in the interior
// (matching the paper's "grid with an average of 7 neighbours").
func gridTopology(n int) *Topology {
	side := int(math.Ceil(math.Sqrt(float64(n))))
	spacing := Field / float64(side)
	pos := make([]geom.Point, 0, n)
	for i := 0; i < n; i++ {
		row, col := i/side, i%side
		pos = append(pos, geom.Point{
			X: (float64(col) + 0.5) * spacing,
			Y: (float64(row) + 0.5) * spacing,
		})
	}
	// sqrt(2)*spacing reaches the diagonal neighbours: interior nodes see
	// 8 neighbours, edge nodes fewer, averaging ~7 on a 10x10 grid.
	return fromPositions(Grid, pos, spacing*math.Sqrt2*1.01)
}

// cellGrid buckets node indices into square cells so disk-graph queries
// visit only the few cells within radio range of a point instead of all n
// nodes. The bucket table is CSR-shaped (one flat item array plus offsets)
// and holds node indices in ascending order per cell, so one grid build is
// O(n) with three allocations and a row of adjacent cells is a single
// contiguous slice. One grid serves every radius probed over the same
// positions: the per-query reach is derived from the queried radius.
type cellGrid struct {
	minX, minY float64
	cell       float64 // cell side length
	cols, rows int
	start      []int32 // CSR offsets: cell c's items are items[start[c]:start[c+1]]
	items      []int32 // node indices, cell-major, ascending within a cell
	// px, py mirror items with the bucketed nodes' coordinates, so the
	// distance test inside a candidate scan streams sequentially instead
	// of gathering pos[items[k]] at random (the dominant cache-miss cost
	// at thousands of nodes).
	px, py []float64
}

// newCellGrid builds the bucket index for pos with cells of side cell,
// clamped so the bucket table stays O(n) even when the radio range is tiny
// relative to the spatial extent.
func newCellGrid(pos []geom.Point, cell float64) *cellGrid {
	minX, minY := pos[0].X, pos[0].Y
	maxX, maxY := minX, minY
	for _, p := range pos[1:] {
		minX, minY = math.Min(minX, p.X), math.Min(minY, p.Y)
		maxX, maxY = math.Max(maxX, p.X), math.Max(maxY, p.Y)
	}
	extent := math.Max(maxX-minX, maxY-minY)
	if extent <= 0 {
		extent = 1
	}
	if limit := float64(2*int(math.Sqrt(float64(len(pos)))) + 1); !(cell > extent/limit) {
		cell = extent / limit
	}
	g := &cellGrid{minX: minX, minY: minY, cell: cell}
	g.cols = int((maxX-minX)/cell) + 1
	g.rows = int((maxY-minY)/cell) + 1
	nCells := g.cols * g.rows
	g.start = make([]int32, nCells+1)
	g.items = make([]int32, len(pos))
	for _, p := range pos {
		g.start[g.cellOf(p)+1]++
	}
	for c := 0; c < nCells; c++ {
		g.start[c+1] += g.start[c]
	}
	cursor := make([]int32, nCells)
	g.px = make([]float64, len(pos))
	g.py = make([]float64, len(pos))
	for i, p := range pos {
		c := g.cellOf(p)
		at := g.start[c] + cursor[c]
		cursor[c]++
		g.items[at] = int32(i)
		g.px[at], g.py[at] = p.X, p.Y
	}
	return g
}

func (g *cellGrid) cellOf(p geom.Point) int {
	return int((p.Y-g.minY)/g.cell)*g.cols + int((p.X-g.minX)/g.cell)
}

// window returns the cell-coordinate rectangle covering the disk of the
// given radius around p, clamped to the grid. Computed once per queried
// node; each covered row is then one contiguous CSR item range.
func (g *cellGrid) window(p geom.Point, radio float64) (x0, x1, y0, y1 int) {
	x0 = int((p.X - radio - g.minX) / g.cell)
	if x0 < 0 {
		x0 = 0
	}
	x1 = int((p.X + radio - g.minX) / g.cell)
	if x1 >= g.cols {
		x1 = g.cols - 1
	}
	y0 = int((p.Y - radio - g.minY) / g.cell)
	if y0 < 0 {
		y0 = 0
	}
	y1 = int((p.Y + radio - g.minY) / g.cell)
	if y1 >= g.rows {
		y1 = g.rows - 1
	}
	return x0, x1, y0, y1
}

// fromPositions builds the disk graph over fixed positions: one grid
// scan collects the candidate pairs, fromPairs materializes the adjacency
// — the same kernel the calibrating generator uses, so there is exactly
// one implementation of the grid-window distance test to keep
// byte-identical with the naive reference.
func fromPositions(kind Kind, pos []geom.Point, radio float64) *Topology {
	var pairs pairList
	newCellGrid(pos, radio).collectPairs(radio, &pairs)
	return fromPairs(kind, pos, radio, &pairs)
}

// sortNodeIDs is an allocation-free ascending insertion sort; neighbor
// lists are short (average degree 6-13), where insertion sort beats
// sort.Slice and its per-call closure allocation.
func sortNodeIDs(xs []NodeID) {
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}

// naiveFromPositions is the retained O(n^2) reference implementation of
// disk-graph discovery. It is not called on any production path; the
// topology tests assert grid-bucketed discovery matches it byte for byte,
// and the package benchmarks report the grid path's speedup over it.
func naiveFromPositions(kind Kind, pos []geom.Point, radio float64) *Topology {
	n := len(pos)
	lists := make([][]NodeID, n)
	r2 := radio * radio
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if pos[i].Dist2(pos[j]) <= r2 {
				lists[i] = append(lists[i], NodeID(j))
				lists[j] = append(lists[j], NodeID(i))
			}
		}
	}
	t := &Topology{kind: kind, pos: pos, radio: radio, nbrOff: make([]int32, n+1)}
	for i, ns := range lists {
		t.nbr = append(t.nbr, ns...)
		t.nbrOff[i+1] = int32(len(t.nbr))
	}
	return t
}

// FromPositions builds a topology directly from positions and a radio
// range. Exposed for tests and for callers replaying recorded layouts.
func FromPositions(pos []geom.Point, radio float64) *Topology {
	return fromPositions(ModerateRandom, pos, radio)
}
