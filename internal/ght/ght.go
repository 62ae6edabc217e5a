// Package ght implements the geographic hash table substrate the paper
// compares against (section 2.2): GPSR-style geographic routing plus GHT
// key hashing [13]. A join key hashes to a location in the deployment
// field; the node closest to that location is the key's home node, and all
// tuples with that key route to it.
//
// GPSR modelling: greedy geographic forwarding plus perimeter-mode
// recovery — at a local minimum the packet switches to a right-hand-rule
// walk over the Gabriel-graph planarization of the radio graph, as in the
// real protocol, until it reaches a node strictly closer to the
// destination than where it got stuck. This reproduces GPSR's
// characteristic behaviour that the paper's figures depend on: perimeter
// walks around voids make paths substantially longer than tree or
// full-graph paths (Fig 16a, and the GHT rows of Figs 2-3).
package ght

import (
	"math"

	"repro/internal/geom"
	"repro/internal/routing"
	"repro/internal/topology"
)

// Router performs geographic routing and GHT key placement over a topology.
type Router struct {
	topo *topology.Topology
	// planar[n] are n's neighbours in the Gabriel-graph planarization,
	// used by perimeter mode.
	planar [][]topology.NodeID
}

// NewRouter returns a geographic router for topo.
func NewRouter(topo *topology.Topology) *Router {
	r := &Router{topo: topo}
	r.planarize()
	return r
}

// planarize computes the Gabriel graph: the radio link (u,v) survives iff
// no third node lies inside the circle with diameter uv. GPSR runs its
// right-hand rule on this planar subgraph so face walks cannot cross.
func (r *Router) planarize() {
	n := r.topo.N()
	r.planar = make([][]topology.NodeID, n)
	for i := 0; i < n; i++ {
		u := topology.NodeID(i)
		pu := r.topo.Pos(u)
		for _, v := range r.topo.Neighbors(u) {
			if v < u {
				continue // handle each link once
			}
			pv := r.topo.Pos(v)
			mid := geom.Point{X: (pu.X + pv.X) / 2, Y: (pu.Y + pv.Y) / 2}
			radius2 := pu.Dist2(pv) / 4
			keep := true
			for _, w := range r.topo.Neighbors(u) {
				if w == v {
					continue
				}
				if r.topo.Pos(w).Dist2(mid) < radius2 {
					keep = false
					break
				}
			}
			if keep {
				for _, w := range r.topo.Neighbors(v) {
					if w == u {
						continue
					}
					if r.topo.Pos(w).Dist2(mid) < radius2 {
						keep = false
						break
					}
				}
			}
			if keep {
				r.planar[u] = append(r.planar[u], v)
				r.planar[v] = append(r.planar[v], u)
			}
		}
	}
}

// hashPoint maps a join key to a location in the deployment field,
// SplitMix-style, matching GHT's uniform random placement.
func hashPoint(key int32) geom.Point {
	z := uint64(uint32(key)) + 0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	x := float64(uint32(z)) / float64(1<<32) * topology.Field
	y := float64(uint32(z>>32)) / float64(1<<32) * topology.Field
	return geom.Point{X: x, Y: y}
}

// HomeNode returns the node responsible for key: the node whose position is
// closest to the key's hashed location (ties to the lower ID). This is the
// node GPSR's perimeter mode would deliver to.
func (r *Router) HomeNode(key int32) topology.NodeID {
	p := hashPoint(key)
	best := topology.NodeID(0)
	bestD := r.topo.Pos(0).Dist2(p)
	for i := 1; i < r.topo.N(); i++ {
		if d := r.topo.Pos(topology.NodeID(i)).Dist2(p); d < bestD {
			best, bestD = topology.NodeID(i), d
		}
	}
	return best
}

// ObserveFailures is a no-op: the router memoizes nothing, and GPSR's
// geographic forwarding is liveness-blind — a route through a dead node is
// charged and dropped at the dead hop.
func (r *Router) ObserveFailures(*topology.Liveness) {}

// Route returns the GPSR path from src to dst: greedy geographic
// forwarding toward dst's position, switching to perimeter mode at local
// minima. Perimeter walks may revisit nodes — those hops are real
// transmissions and stay on the path, so traffic accounting reflects
// GPSR's face-walking overhead.
func (r *Router) Route(src, dst topology.NodeID) routing.Path {
	if src == dst {
		return routing.Path{src}
	}
	target := r.topo.Pos(dst)
	path := routing.Path{src}
	cur := src
	for cur != dst {
		next, ok := r.greedyStep(cur, target)
		if ok {
			path = append(path, next)
			cur = next
			continue
		}
		walk := r.perimeter(cur, target)
		if walk == nil {
			// Face walk found no closer node (a face-local minimum when
			// routing to a node): fall back to the shortest escape so a
			// reachable destination is always reached.
			walk = r.bfsEscape(cur, target)
		}
		if walk == nil {
			break // cur is globally closest; cannot happen for a node dst
		}
		path = append(path, walk[1:]...)
		cur = path[len(path)-1]
	}
	return path
}

// greedyStep picks the neighbour of cur strictly closer to target than cur
// (the closest such neighbour; ties toward lower ID). ok is false at a
// local minimum.
func (r *Router) greedyStep(cur topology.NodeID, target geom.Point) (topology.NodeID, bool) {
	curD := r.topo.Pos(cur).Dist2(target)
	best := topology.NodeID(-1)
	bestD := curD
	for _, nb := range r.topo.Neighbors(cur) {
		if d := r.topo.Pos(nb).Dist2(target); d < bestD {
			best, bestD = nb, d
		}
	}
	if best < 0 {
		return 0, false
	}
	return best, true
}

// perimeter is GPSR's recovery mode: a right-hand-rule walk on the
// Gabriel-planarized graph, starting counterclockwise from the line toward
// the destination, until reaching a node strictly closer to the target
// than the local minimum (greedy then resumes). Returns nil when no closer
// node exists (cur is the home node). A bounded walk that fails to escape
// (numerically degenerate faces) falls back to a shortest-path escape so
// delivery remains guaranteed on connected graphs.
func (r *Router) perimeter(cur topology.NodeID, target geom.Point) routing.Path {
	stuckD := r.topo.Pos(cur).Dist2(target)
	path := routing.Path{cur}
	prev := topology.NodeID(-1)
	at := cur
	limit := 4 * r.topo.N()
	for step := 0; step < limit; step++ {
		next, ok := r.nextRightHand(at, prev, target)
		if !ok {
			break
		}
		path = append(path, next)
		prev, at = at, next
		if r.topo.Pos(at).Dist2(target) < stuckD {
			return path
		}
		if at == cur && step > 0 {
			// Completed the face without finding a closer node: the
			// destination region is unreachable-closer; cur is home.
			return nil
		}
	}
	// Degenerate face walk: fall back to the shortest escape to preserve
	// the delivery guarantee.
	return r.bfsEscape(cur, target)
}

// nextRightHand picks the planar neighbour next counterclockwise from the
// reference direction (the incoming edge, or the destination bearing when
// entering perimeter mode), implementing GPSR's right-hand rule.
func (r *Router) nextRightHand(at, from topology.NodeID, target geom.Point) (topology.NodeID, bool) {
	nbrs := r.planar[at]
	if len(nbrs) == 0 {
		return 0, false
	}
	p := r.topo.Pos(at)
	var ref float64
	if from >= 0 {
		q := r.topo.Pos(from)
		ref = math.Atan2(q.Y-p.Y, q.X-p.X)
	} else {
		ref = math.Atan2(target.Y-p.Y, target.X-p.X)
	}
	best := topology.NodeID(-1)
	bestDelta := math.Inf(1)
	for _, nb := range nbrs {
		if nb == from && len(nbrs) > 1 {
			continue // take the incoming edge only as a dead-end bounce
		}
		q := r.topo.Pos(nb)
		a := math.Atan2(q.Y-p.Y, q.X-p.X)
		delta := a - ref
		for delta <= 0 {
			delta += 2 * math.Pi
		}
		if delta < bestDelta || (delta == bestDelta && nb < best) {
			best, bestDelta = nb, delta
		}
	}
	if best < 0 {
		return nbrs[0], true // dead end: bounce back
	}
	return best, true
}

// bfsEscape is the fallback recovery: the shortest hop-path from cur to
// the nearest node strictly closer (Euclidean) to target than cur, or nil
// if none exists (cur is globally closest).
func (r *Router) bfsEscape(cur topology.NodeID, target geom.Point) routing.Path {
	curD := r.topo.Pos(cur).Dist2(target)
	parent := make([]topology.NodeID, r.topo.N())
	for i := range parent {
		parent[i] = -2
	}
	parent[cur] = -1
	queue := []topology.NodeID{cur}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, v := range r.topo.Neighbors(u) {
			if parent[v] != -2 {
				continue
			}
			parent[v] = u
			if r.topo.Pos(v).Dist2(target) < curD {
				var p routing.Path
				for at := v; at != -1; at = parent[at] {
					p = append(p, at)
				}
				return p.Reverse()
			}
			queue = append(queue, v)
		}
	}
	return nil
}
