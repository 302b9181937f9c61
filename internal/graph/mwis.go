package graph

import (
	"fmt"
	"math"
	"slices"
)

// Graph is an undirected vertex-weighted graph for the maximum weighted
// independent set problem. Vertices are 0..N-1; parallel edges are
// deduplicated and self-loops are rejected.
//
// A graph has one of two adjacency sources:
//
//   - Stored edges. AddEdge appends to a flat buffer that is compiled on
//     first query into a CSR (compressed sparse row) adjacency: one offsets
//     array and one shared neighbor array, with each vertex's neighbors
//     sorted ascending.
//   - An implicit Adjacency (NewImplicitGraph), which derives a vertex's
//     neighbors on demand from a compact index. GWMIN, Degree and M read it
//     directly; the queries that need sorted neighbor lists (Neighbors,
//     HasEdge, the exact and component solvers) compile it into the same
//     CSR first.
//
// Finalize compiles explicitly; reads after Finalize (and no further
// AddEdge calls) are safe from concurrent goroutines. GWMIN never writes
// to an implicit graph, so it may run concurrently on one without
// Finalize.
type Graph struct {
	weights []float64
	// pend holds every inserted edge as uint64(u)<<32|v with u < v.
	// Finalize sorts and deduplicates it in place; it remains the source
	// of truth so AddEdge after Finalize just marks the CSR dirty.
	pend []uint64
	// adj, when set, is the implicit adjacency and pend stays empty.
	adj Adjacency
	// CSR adjacency, valid while off != nil && !dirty.
	off   []int32
	nbr   []int32
	edges int
	dirty bool
}

// Adjacency is an implicit neighbor source: the edges are a function of a
// compact index rather than a stored list.
type Adjacency interface {
	// Degree returns v's number of neighbors.
	Degree(v int) int
	// AppendNeighbors appends each of v's neighbors to dst exactly once,
	// in any order, and returns the extended slice.
	AppendNeighbors(dst []int32, v int) []int32
}

// NewGraph returns a graph with n vertices of weight zero and no edges.
func NewGraph(n int) *Graph {
	return &Graph{weights: make([]float64, n)}
}

// NewImplicitGraph returns a graph with n vertices of weight zero whose
// edges are adj's. The edge count is the degree sum over two; AddEdge
// panics on such a graph.
func NewImplicitGraph(n int, adj Adjacency) *Graph {
	g := &Graph{weights: make([]float64, n), adj: adj}
	sum := 0
	for v := 0; v < n; v++ {
		sum += adj.Degree(v)
	}
	g.edges = sum / 2
	return g
}

// N returns the number of vertices.
func (g *Graph) N() int { return len(g.weights) }

// M returns the number of distinct edges.
func (g *Graph) M() int {
	if g.adj == nil {
		g.Finalize()
	}
	return g.edges
}

// SetWeight assigns vertex v's weight.
func (g *Graph) SetWeight(v int, w float64) {
	if w < 0 || math.IsNaN(w) {
		panic(fmt.Sprintf("graph: invalid MWIS weight %v for vertex %d", w, v))
	}
	g.weights[v] = w
}

// Weight returns vertex v's weight.
func (g *Graph) Weight(v int) float64 { return g.weights[v] }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v int) int {
	if g.adj != nil {
		return g.adj.Degree(v)
	}
	g.Finalize()
	return int(g.off[v+1] - g.off[v])
}

// Neighbors returns v's adjacency list, sorted ascending. The caller must
// not modify it.
func (g *Graph) Neighbors(v int) []int32 {
	g.Finalize()
	return g.nbr[g.off[v]:g.off[v+1]]
}

// adjacent returns v's neighbors in the source's own order: the CSR row
// when the graph has one, else the implicit adjacency's scan into *buf.
// CSR graphs must be finalized by the caller.
func (g *Graph) adjacent(v int, buf *[]int32) []int32 {
	if g.off == nil && g.adj != nil {
		*buf = g.adj.AppendNeighbors((*buf)[:0], v)
		return *buf
	}
	return g.nbr[g.off[v]:g.off[v+1]]
}

// AddEdge inserts the undirected edge {u,v}. Duplicate edges are ignored;
// self-loops panic (a vertex cannot conflict with itself in the reduction).
func (g *Graph) AddEdge(u, v int) {
	if g.adj != nil {
		panic("graph: AddEdge on an implicit graph")
	}
	if u == v {
		panic(fmt.Sprintf("graph: self-loop on vertex %d", u))
	}
	if u > v {
		u, v = v, u
	}
	g.pend = append(g.pend, uint64(u)<<32|uint64(uint32(v)))
	g.dirty = true
}

// Grow reserves capacity for n additional edges, so bulk construction
// appends with no reallocation.
func (g *Graph) Grow(n int) {
	g.pend = slices.Grow(g.pend, n)
}

// Finalize compiles pending edges into the CSR adjacency. It is called
// implicitly by every adjacency query; call it explicitly before sharing
// the graph across goroutines so concurrent reads race-free.
//
// Edges are bucketed per endpoint with one counting pass and one scatter
// pass, then each vertex's bucket is sorted and deduplicated in place, so
// the compile touches the edge buffer twice — cheaper than sorting it
// globally. An implicit graph is compiled from its adjacency instead.
func (g *Graph) Finalize() {
	if !g.dirty && g.off != nil {
		return
	}
	if g.adj != nil {
		g.compileImplicit()
		return
	}
	n := len(g.weights)
	if cap(g.off) >= n+1 {
		g.off = g.off[:n+1]
		for i := range g.off {
			g.off[i] = 0
		}
	} else {
		g.off = make([]int32, n+1)
	}
	// Counting pass: degree of each endpoint (duplicates included; they are
	// squeezed out below), accumulated at off[v+1].
	for _, e := range g.pend {
		u, v := int32(e>>32), int32(uint32(e))
		g.off[u+1]++
		g.off[v+1]++
	}
	for i := 1; i <= n; i++ {
		g.off[i] += g.off[i-1]
	}
	if cap(g.nbr) >= 2*len(g.pend) {
		g.nbr = g.nbr[:2*len(g.pend)]
	} else {
		g.nbr = make([]int32, 2*len(g.pend))
	}
	cursor := make([]int32, n)
	copy(cursor, g.off[:n])
	for _, e := range g.pend {
		u, v := int32(e>>32), int32(uint32(e))
		g.nbr[cursor[u]] = v
		cursor[u]++
		g.nbr[cursor[v]] = u
		cursor[v]++
	}
	// Sort and deduplicate each bucket, compacting nbr in place. The write
	// cursor w never passes the read window, so overwrites only touch
	// already-consumed entries.
	var w int32
	start := int32(0)
	for v := 0; v < n; v++ {
		end := g.off[v+1]
		seg := g.nbr[start:end]
		slices.Sort(seg)
		g.off[v] = w
		last := int32(-1)
		for _, x := range seg {
			if x != last {
				g.nbr[w] = x
				w++
				last = x
			}
		}
		start = end
	}
	g.off[n] = w
	g.nbr = g.nbr[:w]
	g.edges = int(w) / 2
	g.dirty = false
}

// compileImplicit fills the CSR from the implicit adjacency: rows are
// sized by Degree, filled in place by AppendNeighbors and sorted.
func (g *Graph) compileImplicit() {
	n := len(g.weights)
	off := make([]int32, n+1)
	for v := 0; v < n; v++ {
		off[v+1] = off[v] + int32(g.adj.Degree(v))
	}
	nbr := make([]int32, off[n])
	for v := 0; v < n; v++ {
		row := g.adj.AppendNeighbors(nbr[off[v]:off[v]:off[v+1]], v)
		if len(row) != int(off[v+1]-off[v]) {
			panic(fmt.Sprintf("graph: vertex %d lists %d neighbors but has degree %d", v, len(row), off[v+1]-off[v]))
		}
		slices.Sort(row)
	}
	g.off, g.nbr = off, nbr
}

// HasEdge reports whether {u,v} is an edge.
func (g *Graph) HasEdge(u, v int) bool {
	g.Finalize()
	adj := g.nbr[g.off[u]:g.off[u+1]]
	_, ok := slices.BinarySearch(adj, int32(v))
	return ok
}

// IsIndependentSet reports whether the vertex set contains no edge.
func (g *Graph) IsIndependentSet(vs []int) bool {
	in := make(map[int]struct{}, len(vs))
	for _, v := range vs {
		if v < 0 || v >= g.N() {
			return false
		}
		if _, dup := in[v]; dup {
			return false
		}
		in[v] = struct{}{}
	}
	for _, v := range vs {
		for _, u := range g.Neighbors(v) {
			if _, ok := in[int(u)]; ok {
				return false
			}
		}
	}
	return true
}

// SetWeightSum returns the total weight of the vertex set.
func (g *Graph) SetWeightSum(vs []int) float64 {
	total := 0.0
	for _, v := range vs {
		total += g.weights[v]
	}
	return total
}

// GWMIN is the greedy of Sakai, Togasaki and Yamazaki [22] used by the
// paper's offline scheduler, selecting by W(u)/(deg(u)+1). It guarantees
// an independent set of weight at least Sum_v W(v)/(deg(v)+1).
//
// Unlike [22], which re-evaluates deg(u) in the remaining graph after each
// selection, the ratios here are those of the full graph (see greedy); the
// reproduction's figures were recorded with this selection. The bound still
// holds: a selection deletes at most deg(u)+1 vertices, none ranked above u.
func GWMIN(g *Graph) ([]int, float64) {
	return greedy(g, func(v int) float64 { return g.weights[v] / float64(g.Degree(v)+1) })
}

// GWMIN2 is the second greedy from [22], selecting by
// W(u) / Sum_{x in N[u]} W(x). It often beats GWMIN on weight-skewed graphs.
// The closed-neighborhood sum runs over the sorted adjacency, so the
// floating-point ratios are reproducible across refactors.
func GWMIN2(g *Graph) ([]int, float64) {
	return greedy(g, func(v int) float64 {
		sum := g.weights[v]
		for _, u := range g.Neighbors(v) {
			sum += g.weights[u]
		}
		if sum == 0 {
			return math.Inf(1) // zero-weight isolated vertex: free to take
		}
		return g.weights[v] / sum
	})
}

// greedy visits the vertices by (ratio desc, v asc), ratios taken in the
// full graph, and selects each vertex no earlier selection has deleted,
// deleting its neighbors. The order is total, so the selection does not
// depend on the sort's internals.
//
// Ranking once selects exactly what a lazy max-heap that re-keys each
// popped vertex from the remaining graph would: both ratios only grow as
// vertices are deleted (fewer neighbors, a smaller neighborhood sum; float
// addition of non-negative terms and division are monotone), so a
// re-keyed vertex is still the maximum and is taken at once. Neither
// re-ranks the vertices not yet popped, as Sakai et al.'s GWMIN does.
func greedy(g *Graph, ratio func(v int) float64) ([]int, float64) {
	if g.adj == nil {
		g.Finalize()
	}
	order := make([]rankedVertex, g.N())
	for v := range order {
		r := ratio(v)
		if r == 0 {
			r = 0 // -0 from a -0 weight ranks as +0
		}
		// Ratios are non-negative, whose IEEE bits order like their
		// values; complemented, an ascending sort puts the largest first.
		order[v] = rankedVertex{key: ^math.Float64bits(r), v: int32(v)}
	}
	sortRanked(order)
	deleted := make([]bool, g.N())
	var buf []int32
	var is []int
	total := 0.0
	for _, it := range order {
		v := int(it.v)
		if deleted[v] {
			continue
		}
		is = append(is, v)
		total += g.weights[v]
		for _, u := range g.adjacent(v, &buf) {
			deleted[u] = true
		}
	}
	return is, total
}

// ExactMWIS solves maximum weighted independent set exactly by branch and
// bound, branching on the maximum-degree vertex with a residual-weight
// bound. Exponential in the worst case; intended for instances with up to a
// few dozen vertices (tests and optimality-gap measurements).
func ExactMWIS(g *Graph) ([]int, float64) {
	g.Finalize()
	n := g.N()
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	var best []int
	bestW := math.Inf(-1)
	var cur []int

	var rec func(curW, residual float64)
	rec = func(curW, residual float64) {
		if curW+residual <= bestW {
			return
		}
		// Pick the alive vertex with maximum degree; take isolated
		// vertices greedily (always optimal).
		pick, pickDeg := -1, -1
		for v := 0; v < n; v++ {
			if !alive[v] {
				continue
			}
			deg := 0
			for _, u := range g.Neighbors(v) {
				if alive[u] {
					deg++
				}
			}
			if deg == 0 {
				// Isolated: include unconditionally.
				alive[v] = false
				cur = append(cur, v)
				rec(curW+g.weights[v], residual-g.weights[v])
				cur = cur[:len(cur)-1]
				alive[v] = true
				return
			}
			if deg > pickDeg {
				pick, pickDeg = v, deg
			}
		}
		if pick < 0 {
			if curW > bestW {
				bestW = curW
				best = append(best[:0], cur...)
			}
			return
		}
		// Branch 1: include pick, removing its closed neighborhood.
		removed := []int{pick}
		removedW := g.weights[pick]
		alive[pick] = false
		for _, u := range g.Neighbors(pick) {
			if alive[u] {
				alive[u] = false
				removed = append(removed, int(u))
				removedW += g.weights[u]
			}
		}
		cur = append(cur, pick)
		rec(curW+g.weights[pick], residual-removedW)
		cur = cur[:len(cur)-1]
		for _, v := range removed {
			alive[v] = true
		}
		// Branch 2: exclude pick.
		alive[pick] = false
		rec(curW, residual-g.weights[pick])
		alive[pick] = true
	}

	residual := 0.0
	for v := 0; v < n; v++ {
		residual += g.weights[v]
	}
	rec(0, residual)
	if best == nil {
		return []int{}, 0
	}
	return best, bestW
}
