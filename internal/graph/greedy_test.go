package graph

import (
	"container/heap"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// refItem and refHeap key the reference greedy's lazy heap by
// (ratio desc, v asc) through container/heap.
type refItem struct {
	v     int
	ratio float64
	stamp int64
}

type refHeap []refItem

func (h refHeap) Len() int { return len(h) }
func (h refHeap) Less(i, j int) bool {
	if h[i].ratio != h[j].ratio {
		return h[i].ratio > h[j].ratio
	}
	return h[i].v < h[j].v
}
func (h refHeap) Swap(i, j int) { h[i], h[j] = h[j], h[i] }
func (h *refHeap) Push(x any)   { *h = append(*h, x.(refItem)) }
func (h *refHeap) Pop() any {
	old := *h
	it := old[len(old)-1]
	*h = old[:len(old)-1]
	return it
}

// referenceGreedy is the lazy max-heap greedy that the full-graph ratio
// order replaced: deleting a vertex bumps the version of every alive
// neighbor, an entry is stale exactly when its vertex's version moved
// since it was keyed, and a stale pop is re-keyed from the remaining
// graph and pushed back. ratio may read version (GWMIN's residual degree
// is the initial degree minus the version).
func referenceGreedy(g *Graph, alive []bool, version []int64, ratio func(v int) float64) ([]int, float64) {
	h := make(refHeap, g.N())
	for v := range h {
		h[v] = refItem{v: v, ratio: ratio(v)}
	}
	heap.Init(&h)
	del := func(v int) {
		alive[v] = false
		for _, u := range g.Neighbors(v) {
			if alive[u] {
				version[u]++
			}
		}
	}
	var is []int
	total := 0.0
	for h.Len() > 0 {
		it := heap.Pop(&h).(refItem)
		if !alive[it.v] {
			continue
		}
		if it.stamp != version[it.v] {
			heap.Push(&h, refItem{v: it.v, ratio: ratio(it.v), stamp: version[it.v]})
			continue
		}
		is = append(is, it.v)
		total += g.weights[it.v]
		del(it.v)
		for _, u := range g.Neighbors(it.v) {
			if alive[u] {
				del(int(u))
			}
		}
	}
	return is, total
}

func allAlive(n int) []bool {
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	return alive
}

func referenceGWMIN(g *Graph) ([]int, float64) {
	version := make([]int64, g.N())
	return referenceGreedy(g, allAlive(g.N()), version, func(v int) float64 {
		return g.weights[v] / float64(int64(g.Degree(v))-version[v]+1)
	})
}

func referenceGWMIN2(g *Graph) ([]int, float64) {
	alive := allAlive(g.N())
	return referenceGreedy(g, alive, make([]int64, g.N()), func(v int) float64 {
		sum := g.weights[v]
		for _, u := range g.Neighbors(v) {
			if alive[u] {
				sum += g.weights[u]
			}
		}
		if sum == 0 {
			return math.Inf(1)
		}
		return g.weights[v] / sum
	})
}

// tiedGraph draws a random graph of overlapping cliques (the shape of the
// offline reduction's request ranges) plus sparse cross edges, with
// weights from a small set so that equal ratios, and with them the
// vertex-order tie-break, are common. Some weights are zero, of either
// sign.
func tiedGraph(rng *rand.Rand) *Graph {
	n := 1 + rng.Intn(300)
	g := NewGraph(n)
	for v := 0; v < n; v++ {
		w := float64(rng.Intn(5))
		if w == 0 && rng.Intn(2) == 0 {
			w = math.Copysign(0, -1) // must rank as +0
		}
		g.SetWeight(v, w)
	}
	for c := 0; c < n/4; c++ {
		base, size := rng.Intn(n), 2+rng.Intn(8)
		for i := base; i < min(base+size, n); i++ {
			for j := i + 1; j < min(base+size, n); j++ {
				g.AddEdge(i, j)
			}
		}
	}
	for k := 0; k < n; k++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			g.AddEdge(u, v)
		}
	}
	return g
}

// TestGreedyMatchesLazyHeapReference checks GWMIN and GWMIN2 against the
// lazy-heap reference on random CSR graphs: the same vertices are
// selected in the same order and the weights are bit-identical.
func TestGreedyMatchesLazyHeapReference(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(21))
	for trial := 0; trial < 300; trial++ {
		var g *Graph
		if trial%2 == 0 {
			g = tiedGraph(rng)
		} else {
			g = randomGraph(rng, 1+rng.Intn(60), rng.Float64()*0.5)
		}
		for _, c := range []struct {
			name      string
			got, want func(*Graph) ([]int, float64)
		}{
			{"GWMIN", GWMIN, referenceGWMIN},
			{"GWMIN2", GWMIN2, referenceGWMIN2},
		} {
			gotIS, gotW := c.got(g)
			wantIS, wantW := c.want(g)
			if !slices.Equal(gotIS, wantIS) || gotW != wantW {
				t.Fatalf("trial %d %s: %v (%v), reference %v (%v)", trial, c.name, gotIS, gotW, wantIS, wantW)
			}
		}
	}
}

// csrAdjacency serves a stored graph through the Adjacency interface with
// every neighbor list reversed, so nothing may rely on the implicit
// source's order.
type csrAdjacency struct{ g *Graph }

func (a csrAdjacency) Degree(v int) int { return a.g.Degree(v) }

func (a csrAdjacency) AppendNeighbors(dst []int32, v int) []int32 {
	nb := a.g.Neighbors(v)
	for i := len(nb) - 1; i >= 0; i-- {
		dst = append(dst, nb[i])
	}
	return dst
}

func implicitCopy(g *Graph) *Graph {
	g.Finalize()
	ig := NewImplicitGraph(g.N(), csrAdjacency{g})
	copy(ig.weights, g.weights)
	return ig
}

// TestImplicitGraphMatchesStored checks the implicit adjacency source
// against the same edges stored: edge count and degrees before any
// compile, GWMIN on the uncompiled graph, and the sorted-adjacency queries
// and solvers after it compiles.
func TestImplicitGraphMatchesStored(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(4))
	for trial := 0; trial < 100; trial++ {
		g := tiedGraph(rng)
		ig := implicitCopy(g)
		if ig.M() != g.M() {
			t.Fatalf("trial %d: M = %d, stored %d", trial, ig.M(), g.M())
		}
		for v := 0; v < g.N(); v++ {
			if ig.Degree(v) != g.Degree(v) {
				t.Fatalf("trial %d: vertex %d degree %d, stored %d", trial, v, ig.Degree(v), g.Degree(v))
			}
		}
		gotIS, gotW := GWMIN(ig)
		wantIS, wantW := GWMIN(g)
		if !slices.Equal(gotIS, wantIS) || gotW != wantW {
			t.Fatalf("trial %d: implicit GWMIN %v (%v), stored %v (%v)", trial, gotIS, gotW, wantIS, wantW)
		}
		if ig.off != nil {
			t.Fatalf("trial %d: GWMIN compiled the implicit graph", trial)
		}
		for v := 0; v < g.N(); v++ {
			if !slices.Equal(ig.Neighbors(v), g.Neighbors(v)) {
				t.Fatalf("trial %d: vertex %d neighbors %v, stored %v", trial, v, ig.Neighbors(v), g.Neighbors(v))
			}
		}
		gotIS, gotW = GWMIN2(ig)
		wantIS, wantW = GWMIN2(g)
		if !slices.Equal(gotIS, wantIS) || gotW != wantW {
			t.Fatalf("trial %d: implicit GWMIN2 %v (%v), stored %v (%v)", trial, gotIS, gotW, wantIS, wantW)
		}
	}
}

func TestImplicitGraphRejectsAddEdge(t *testing.T) {
	t.Parallel()
	defer func() {
		if recover() == nil {
			t.Error("AddEdge on an implicit graph did not panic")
		}
	}()
	implicitCopy(pathGraph([]float64{1, 2, 3})).AddEdge(0, 2)
}

// shortAdjacency under-reports one vertex's neighbors.
type shortAdjacency struct{ csrAdjacency }

func (a shortAdjacency) AppendNeighbors(dst []int32, v int) []int32 {
	nb := a.csrAdjacency.AppendNeighbors(dst, v)
	if v == 1 {
		nb = nb[:len(nb)-1]
	}
	return nb
}

func TestImplicitGraphCompileChecksDegrees(t *testing.T) {
	t.Parallel()
	g := pathGraph([]float64{1, 2, 3})
	g.Finalize()
	ig := NewImplicitGraph(3, shortAdjacency{csrAdjacency{g}})
	defer func() {
		if recover() == nil {
			t.Error("compiling an adjacency whose scan disagrees with its degree did not panic")
		}
	}()
	ig.Finalize()
}
