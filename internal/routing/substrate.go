package routing

import (
	"fmt"
	"sync"

	"repro/internal/sim"
	"repro/internal/summary"
	"repro/internal/topology"
)

// SummaryKind selects which summary structure indexes a static attribute
// in the routing tables (Appendix C: intervals as in TinyDB, Bloom filters,
// or histograms, "each of these structures may be useful for particular
// datatypes and value ranges").
type SummaryKind int

const (
	// BloomSummary indexes discrete identifiers (id, cid, rid, x, y).
	BloomSummary SummaryKind = iota
	// IntervalSummary indexes ordered ranges.
	IntervalSummary
	// HistogramSummary indexes dense low-cardinality domains.
	HistogramSummary
)

// IndexSpec declares one indexed static attribute: its name, how to read
// each node's value, and the summary structure to use. Value reads the
// value where the deployment keeps it (a node's id is its number, its drawn
// attributes sit in the workload's node table), so an index copies no
// per-node column: the substrate keeps the spec, and refolds rows after a
// repair by calling Value again.
type IndexSpec struct {
	Attr string
	Kind SummaryKind
	// Value returns node id's static attribute value. It must be pure.
	Value func(id topology.NodeID) int32
	// Lo, Hi bound the domain for HistogramSummary.
	Lo, Hi int32
	// Buckets is the histogram bucket count (default 16).
	Buckets int
}

// Entry is a lightweight view of one (tree, node) routing-table entry over
// the substrate's columnar storage. It is passed by value on the path-
// search hot path, so a subtree test reads one row of one column — no map
// lookups, no per-entry allocation.
type Entry struct {
	s  *Substrate
	ti int
	id topology.NodeID
}

// MayContain reports whether the entry's subtree might hold a node whose
// value in the attribute column col (as resolved once by
// Substrate.ColumnIndex) is k's. It never answers false for a subtree that
// holds one. It panics on out-of-range columns, including the -1
// ColumnIndex returns for unindexed attributes.
func (e Entry) MayContain(col int, k summary.Key) bool {
	return e.s.cols[e.ti][col].MayContain(int(e.id), k)
}

// Overlaps reports whether the entry's subtree might hold a value in
// [lo, hi] in column col. Only an interval column can tell; any other kind
// answers true, conservatively.
func (e Entry) Overlaps(col int, lo, hi int32) bool {
	return e.s.cols[e.ti][col].Overlaps(int(e.id), lo, hi)
}

// Region returns the subtree position summary (Query 3's R-tree), or nil
// when positions are not indexed.
func (e Entry) Region() *summary.Region {
	if e.s.regions == nil {
		return nil
	}
	return e.s.regions[e.ti][e.id]
}

// ScalarSizeBytes sums the wire sizes of every scalar summary in the entry
// — the payload a node ships when refreshing its whole table row.
func (e Entry) ScalarSizeBytes() int { return e.s.rowBytes(e.ti) }

// Substrate is the multi-tree semantic routing substrate of [11]: one or
// more routing trees over the same nodes, with per-subtree attribute
// summaries at every node enabling content-addressed path search.
//
// Routing tables are stored columnar — cols[tree][attr] — rather than as a
// per-(tree, node) map keyed by attribute name. Each column is one flat
// word array with a fixed-width row per node (summary.Column: 4 words for
// a Bloom filter, 1 for an interval, one bit per histogram bucket), so a
// table holds no per-node objects, a fold writes rows in place, and a
// path search's subtree test is a few bit tests on one row against a
// summary.Key its matcher hashed once.
//
// An index lives while someone needs it. The columns and regions built at
// construction (Options) live as long as the substrate; every other one
// is counted: ExtendIndexes and ExtendPositionIndex count a user in,
// ReleaseIndexes and ReleasePositionIndex count one out, and the last
// release frees the tables. A freed column keeps its slot, so the column
// numbers live matchers resolved never shift.
//
// Concurrency: reads (PathToBase and AppendPathToBase, DepthToBase,
// BestTreePath, FindTargets, Entry lookups) are safe from concurrent
// goroutines as long as no mutation — ExtendIndexes, ExtendPositionIndex,
// their releases, RepairTrees — runs at the same time. internal/engine
// upholds this by confining every mutation to its sequential admission,
// retirement and churn phases while parallel workers only read. Every path
// read walks the trees' parents into a buffer the caller owns, so readers
// share no path storage. Borrow and Return are safe from any goroutine.
type Substrate struct {
	Topo  *topology.Topology
	Trees []*Tree
	// cols[tree][col] holds, in row node, the summary of node's subtree in
	// tree for the attribute at column col (column order == specs order);
	// a freed column is the zero Column.
	cols [][]summary.Column
	// regions[tree][node] is the subtree position summary (Query 3's
	// R-tree); nil while positions are not indexed.
	regions [][]*summary.Region
	specs   []IndexSpec
	colOf   map[string]int // attribute name -> column index
	// users[col] counts the users ExtendIndexes let in and ReleaseIndexes
	// has not let out; regionUsers is the same for the regions. Columns
	// below pinned, and the regions when regionsPinned, were built at
	// construction and are never freed.
	users         []int
	pinned        int
	regionUsers   int
	regionsPinned bool

	// patch is the reusable scratch for in-place tree repair.
	patch *PatchScratch
	stats RepairStats

	// scratch is the column Borrow lends, nil while it is lent; scratchMu
	// guards it.
	scratchMu sync.Mutex
	scratch   []int32
}

// RepairStats accumulates what churn-time maintenance has done over the
// substrate's lifetime — the observability counters behind the patched-vs-
// rebuilt split.
type RepairStats struct {
	Patched int // trees repaired in place by PatchTreeLive around their root
	// Rebuilt counts the trees whose root died: the same patch re-roots
	// them at a new root.
	Rebuilt int
}

// Stats returns the cumulative repair counters.
func (s *Substrate) Stats() RepairStats { return s.stats }

// MemBytes estimates the substrate's resident footprint: the per-tree
// derived structures, the words of the live columns (a freed column has
// none), the region summaries (payload bytes plus a fixed per-object
// overhead for headers and size-class slack), and the scratch column Borrow
// lends. It feeds the engine's mem.routing.bytes gauge.
func (s *Substrate) MemBytes() int64 {
	var b int64
	for _, t := range s.Trees {
		b += t.MemBytes()
	}
	for _, cols := range s.cols {
		for i := range cols {
			b += cols[i].MemBytes()
		}
	}
	s.scratchMu.Lock()
	b += sliceBytes(s.scratch)
	s.scratchMu.Unlock()
	const objOverhead = 48
	for _, regs := range s.regions {
		b += sliceBytes(regs)
		for _, r := range regs {
			if r != nil {
				b += int64(r.SizeBytes()) + objOverhead
			}
		}
	}
	return b
}

// Options configures substrate construction.
type Options struct {
	// NumTrees is how many overlapping routing trees to build (the paper
	// evaluates 1-3; 3 is the substrate default in [11]).
	NumTrees int
	// Indexes are the static attributes to index for the substrate's
	// whole life: no release frees them.
	Indexes []IndexSpec
	// IndexPositions adds an R-tree region summary per table entry, for
	// the substrate's whole life.
	IndexPositions bool
}

// NewSubstrate builds the substrate over topo. Tree 0 is rooted at the
// base station; each successive root is the node maximizing the minimum
// hop distance to all existing roots ("choose a new root node furthest
// from any existing roots"). When net is non-nil, construction and summary
// dissemination traffic is charged as control traffic.
func NewSubstrate(topo *topology.Topology, opts Options, net *sim.Network) *Substrate {
	if opts.NumTrees < 1 {
		opts.NumTrees = 1
	}
	s := &Substrate{Topo: topo, colOf: make(map[string]int, len(opts.Indexes)), regionsPinned: opts.IndexPositions,
		scratch: make([]int32, topo.N())}
	var fresh []int
	for _, spec := range opts.Indexes {
		if _, dup := s.colOf[spec.Attr]; !dup {
			c, _ := s.slot(spec)
			fresh = append(fresh, c)
		}
	}
	s.pinned = len(s.specs)
	// Each root's BFS both steers the next root's selection and becomes
	// that root's tree: one traversal per tree. Every BFS returns fresh
	// vectors, so no two trees share the Depth/Parent slices they later
	// patch, even when a tiny topology repeats a root.
	roots := []topology.NodeID{topology.Base}
	depths := make([][]int, 0, opts.NumTrees)
	parents := make([][]topology.NodeID, 0, opts.NumTrees)
	d0, p0 := topo.BFS(topology.Base)
	depths, parents = append(depths, d0), append(parents, p0)
	for len(roots) < opts.NumTrees {
		// Farthest-point selection on hop distance.
		best, bestMin := topology.NodeID(-1), -1
		for i := 0; i < topo.N(); i++ {
			id := topology.NodeID(i)
			minD := 1 << 30
			for _, dd := range depths {
				if dd[id] < minD {
					minD = dd[id]
				}
			}
			if minD > bestMin {
				best, bestMin = id, minD
			}
		}
		roots = append(roots, best)
		db, pb := topo.BFS(best)
		depths, parents = append(depths, db), append(parents, pb)
	}
	for i, r := range roots {
		s.Trees = append(s.Trees, treeFromBFS(topo, r, net, depths[i], parents[i]))
	}
	s.cols = make([][]summary.Column, len(s.Trees))
	if opts.IndexPositions {
		s.regions = make([][]*summary.Region, len(s.Trees))
	}
	s.index(fresh, opts.IndexPositions, net)
	return s
}

// slot returns the column spec's attribute is indexed in, and whether
// that column must be built: a new attribute gets a new slot, and an
// attribute whose column was freed gets its old slot back, now with spec's
// summary kind. A live column is kept as it is, whatever kind spec asks
// for: its first user fixed it.
func (s *Substrate) slot(spec IndexSpec) (col int, fresh bool) {
	c, ok := s.colOf[spec.Attr]
	switch {
	case !ok:
		c = len(s.specs)
		s.colOf[spec.Attr] = c
		s.specs, s.users = append(s.specs, spec), append(s.users, 0)
	case s.live(c):
		return c, false
	default:
		s.specs[c] = spec
	}
	return c, true
}

// live reports whether column c holds tables: built at construction, or
// held by a user.
func (s *Substrate) live(c int) bool { return c < s.pinned || s.users[c] > 0 }

// index builds the columns fresh, and the regions when positions, in every
// tree's tables, folds them bottom-up and ships them, and only them, from
// every entry to its parent. Construction indexes everything at once, so
// each node ships its whole row in one message.
func (s *Substrate) index(fresh []int, positions bool, net *sim.Network) {
	n := s.Topo.N()
	for ti, tree := range s.Trees {
		size := 0
		for _, c := range fresh {
			if c == len(s.cols[ti]) {
				s.cols[ti] = append(s.cols[ti], summary.Column{})
			}
			s.cols[ti][c] = newColumn(s.specs[c], n)
			s.fold(ti, tree, tree.DeepFirst(), c)
			size += s.cols[ti][c].SizeBytes()
		}
		if positions {
			s.regions[ti] = make([]*summary.Region, n)
			s.foldRegions(ti, tree, tree.DeepFirst())
		}
		s.ship(ti, tree, size, positions, net)
	}
}

// fold recomputes, for each node of order, its row in column c: its own
// value, then its children's rows merged in, written in place. order lists
// children before parents: deepest-first for a whole column, or a patch's
// dirty nodes, whose clean children keep rows that provably did not change
// (their subtrees kept their members).
//
//aspen:allocfree
func (s *Substrate) fold(ti int, tree *Tree, order []topology.NodeID, c int) {
	col, value := &s.cols[ti][c], s.specs[c].Value
	for _, id := range order {
		col.Set(int(id), value(id))
		for _, ch := range tree.ChildrenOf(id) {
			col.Merge(int(id), int(ch))
		}
	}
}

// foldRegions is fold for the region column: each node of order gets a new
// R-tree over its own position and its children's bounds.
func (s *Substrate) foldRegions(ti int, tree *Tree, order []topology.NodeID) {
	reg := s.regions[ti]
	for _, id := range order {
		r := summary.NewRegion()
		r.AddPoint(s.Topo.Pos(id))
		for _, c := range tree.ChildrenOf(id) {
			r.Merge(reg[c])
		}
		reg[id] = r
	}
}

// rowBytes is the wire size of one entry's rows in tree ti's live columns
// — the same for every node, since every row of a column has one size.
func (s *Substrate) rowBytes(ti int) int {
	size := 0
	for c := range s.cols[ti] {
		if s.live(c) {
			size += s.cols[ti][c].SizeBytes()
		}
	}
	return size
}

// ship charges, when net is non-nil, one control message from every non-root
// node of tree ti to its parent, in node order, carrying rowBytes of the
// entry's column rows plus its region when regions: the dissemination of a
// built, extended or repaired table. Transfers from failed nodes abort
// unpaid, so a repair charges only the surviving nodes. Each hop is the
// node's up-link, sent by its id when the tree keeps them.
func (s *Substrate) ship(ti int, tree *Tree, rowBytes int, regions bool, net *sim.Network) {
	if net == nil {
		return
	}
	var link []int32
	for i, p := range tree.Parent {
		if p < 0 {
			continue
		}
		id := topology.NodeID(i)
		size := rowBytes
		if regions {
			size += s.regions[ti][id].SizeBytes()
		}
		if tree.UpLink != nil {
			link = tree.UpLink[i : i+1]
		}
		net.TransferLinks(Path{id, p}, link, size, sim.Control)
	}
}

// RepairTrees is the tree-maintenance pass the engine runs after node
// failures: every routing tree in which some failed node is INTERIOR (has
// children — a failed leaf breaks no one's route) is repaired around the
// failure by PatchTreeLive, its summary columns recomputed along the dirtied
// root paths, and the fresh beacons plus table dissemination charged to net
// (the engine's shared stream; failed nodes transmit nothing). A tree whose
// root died is re-rooted by the same patch: its root moves to the alive node
// deepest in the base tree (ties to the lowest ID) — the same "far from the
// base" intent as construction, found by one O(n) scan — and the flood runs
// from there. Either way the tree, columns and charged traffic equal a full
// RebuildTreeLive at that root; the saved work is CPU and allocation.
// Paths walked before the repair (PathToBase results etc.) are the
// callers' own copies and keep the old routes; a sender that walks the
// chain as it sends is on the repaired tree at once. Returns the number of
// trees repaired.
func (s *Substrate) RepairTrees(net *sim.Network, live *topology.Liveness, failed []topology.NodeID) int {
	repaired := 0
	for ti, tree := range s.Trees {
		rooted := live.Alive(tree.Root)
		needs := !rooted
		for _, id := range failed {
			if needs || len(tree.ChildrenOf(id)) > 0 {
				needs = true
				break
			}
		}
		if !needs {
			continue
		}
		if rooted {
			s.stats.Patched++
		} else {
			root := s.farthestAliveRoot(live)
			if root < 0 {
				continue // no alive replacement; leave the tree stale
			}
			tree.Root = root
			s.stats.Rebuilt++
		}
		if s.patch == nil {
			s.patch = NewPatchScratch()
		}
		dirty := PatchTreeLive(s.Topo, tree, net, live, s.patch)
		for c := range s.cols[ti] {
			if s.live(c) {
				s.fold(ti, tree, dirty, c)
			}
		}
		positions := s.regions != nil
		if positions {
			s.foldRegions(ti, tree, dirty)
		}
		s.ship(ti, tree, s.rowBytes(ti), positions, net)
		repaired++
	}
	return repaired
}

// farthestAliveRoot picks the replacement root for a tree whose root died:
// the alive node deepest in the base tree, ties to the lowest node ID.
// Returns -1 when no node is alive (not reachable in practice: the base
// station never churns).
func (s *Substrate) farthestAliveRoot(live *topology.Liveness) topology.NodeID {
	best, bestDepth := topology.NodeID(-1), -1
	base := s.Trees[0]
	for i := 0; i < s.Topo.N(); i++ {
		id := topology.NodeID(i)
		if live.Alive(id) && int(base.Depth[id]) > bestDepth {
			best, bestDepth = id, int(base.Depth[id])
		}
	}
	return best
}

// newColumn returns n empty rows of spec's summary kind.
func newColumn(spec IndexSpec, n int) summary.Column {
	switch spec.Kind {
	case IntervalSummary:
		return summary.NewIntervalColumn(n)
	case HistogramSummary:
		b := spec.Buckets
		if b <= 0 {
			b = 16
		}
		return summary.NewHistogramColumn(n, spec.Lo, spec.Hi, b)
	default:
		return summary.NewBloomColumn(n)
	}
}

// ColumnIndex returns the column of an indexed attribute, or -1 when attr
// is not indexed (never, or no longer). Matchers resolve their attributes
// once at construction so subtree pruning during path search is a pure
// slice index; a column keeps its number while it lives, and an attribute
// indexed again gets its old number back.
func (s *Substrate) ColumnIndex(attr string) int {
	if col, ok := s.colOf[attr]; ok && s.live(col) {
		return col
	}
	return -1
}

// HasIndex reports whether attr is indexed in the routing tables now.
func (s *Substrate) HasIndex(attr string) bool { return s.ColumnIndex(attr) >= 0 }

// ExtendIndexes counts one user in on every attribute of specs, adding the
// attributes not indexed now to every tree's routing tables and charging
// their dissemination — each non-root node ships only the new rows to its
// parent — as control traffic when net is non-nil. A static attribute's
// values are a property of the deployment, not of any one query: while a
// column lives, later users share it for free, on the kind its first user
// asked for. Its tables live while a user needs them: the last
// ReleaseIndexes frees them, and a later user that indexes the attribute
// again builds and pays for it again, on its own kind, in the same column
// number. This is the multi-query traffic-sharing path used by
// internal/engine; the routing trees themselves are never rebuilt, and
// other columns are untouched.
func (s *Substrate) ExtendIndexes(specs []IndexSpec, net *sim.Network) {
	var fresh []int
	for _, spec := range specs {
		c, build := s.slot(spec)
		if build {
			fresh = append(fresh, c)
		}
		s.users[c]++
	}
	if len(fresh) > 0 {
		s.index(fresh, false, net)
	}
}

// ReleaseIndexes counts one user out on every attribute of specs, the
// inverse of an ExtendIndexes with the same specs, and frees a column's
// tables when its last user leaves, unless construction built it. The
// dissemination already charged stays charged. It panics on an attribute
// with no user to count out: a release without its extension.
func (s *Substrate) ReleaseIndexes(specs []IndexSpec) {
	for _, spec := range specs {
		c, ok := s.colOf[spec.Attr]
		if !ok || s.users[c] == 0 {
			panic(fmt.Sprintf("routing: release of index %q, which no user holds", spec.Attr))
		}
		if s.users[c]--; !s.live(c) {
			for ti := range s.cols {
				s.cols[ti][c] = summary.Column{}
			}
		}
	}
}

// ExtendPositionIndex counts one user in on the R-tree region summaries
// of every table entry (Query 3's geometric search), adding them, and
// charging their dissemination like ExtendIndexes, when positions are not
// indexed now.
func (s *Substrate) ExtendPositionIndex(net *sim.Network) {
	s.regionUsers++
	if s.regions == nil {
		s.regions = make([][]*summary.Region, len(s.Trees))
		s.index(nil, true, net)
	}
}

// ReleasePositionIndex counts one user out on the region summaries, as
// ReleaseIndexes does on a column: the last user's release frees them
// unless construction built them. It panics when no user holds them.
func (s *Substrate) ReleasePositionIndex() {
	if s.regionUsers == 0 {
		panic("routing: release of the position index, which no user holds")
	}
	if s.regionUsers--; s.regionUsers == 0 && !s.regionsPinned {
		s.regions = nil
	}
}

// Borrow lends the caller a scratch column of one int32 per node, all
// zero, for work sized by the deployment that a query does outside its
// sampling cycles: Shortcut's last-index column and a multicast tree
// build's node index. The caller must hand it back all zero through
// Return. The substrate keeps one such column for all its queries, made
// with it; a Borrow while it is lent makes a new one, so concurrent
// borrowers never share a column.
func (s *Substrate) Borrow() []int32 {
	s.scratchMu.Lock()
	col := s.scratch
	s.scratch = nil
	s.scratchMu.Unlock()
	if col == nil {
		col = make([]int32, s.Topo.N())
	}
	return col
}

// Return hands back a column Borrow lent, all zero, for the next Borrow.
func (s *Substrate) Return(col []int32) {
	s.scratchMu.Lock()
	s.scratch = col
	s.scratchMu.Unlock()
}

// Entry returns the routing-table entry view for node id in tree ti.
func (s *Substrate) Entry(ti int, id topology.NodeID) Entry {
	return Entry{s: s, ti: ti, id: id}
}
