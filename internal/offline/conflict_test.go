package offline

import (
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/power"
)

// referenceGraph is the pairwise conflict-edge expansion the conflict index
// replaced: within the sorted range of one request, every vertex pair
// violating the energy constraint (same predecessor) or the schedule
// constraint (shared request, different disk) is stored as an edge of a
// CSR graph. A pair sharing both requests appears in two ranges and is
// emitted from the predecessor's range only.
func referenceGraph(nodes []Node) *graph.Graph {
	g := graph.NewGraph(len(nodes))
	mentions := make([]uint64, 0, 2*len(nodes))
	for v, n := range nodes {
		g.SetWeight(v, n.Weight)
		mentions = append(mentions,
			uint64(n.I)<<32|uint64(uint32(v)),
			uint64(n.J)<<32|uint64(uint32(v)))
	}
	slices.Sort(mentions)
	for lo := 0; lo < len(mentions); {
		r := core.RequestID(mentions[lo] >> 32)
		hi := lo + 1
		for hi < len(mentions) && core.RequestID(mentions[hi]>>32) == r {
			hi++
		}
		for a := lo; a < hi; a++ {
			u := int(uint32(mentions[a]))
			nu := nodes[u]
			for b := a + 1; b < hi; b++ {
				v := int(uint32(mentions[b]))
				nv := nodes[v]
				if nu.I == nv.I {
					if nu.J == nv.J && r != nu.I {
						continue // counted in the predecessor's range
					}
					g.AddEdge(u, v)
				} else if nu.Disk != nv.Disk {
					g.AddEdge(u, v)
				}
			}
		}
		lo = hi
	}
	g.Finalize()
	return g
}

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

// referenceGWMIN is the lazy max-heap GWMIN that graph.GWMIN replaced:
// deleting a vertex bumps the version of every alive neighbor, an entry is
// stale when its vertex's version moved, and a stale pop is re-keyed with
// the residual degree (the initial degree minus the version).
func referenceGWMIN(g *graph.Graph) ([]int, float64) {
	n := g.N()
	alive := make([]bool, n)
	version := make([]int64, n)
	ratio := func(v int) float64 {
		return g.Weight(v) / float64(int64(g.Degree(v))-version[v]+1)
	}
	h := make(refHeap, n)
	for v := range h {
		alive[v] = true
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
		total += g.Weight(it.v)
		del(it.v)
		for _, u := range g.Neighbors(it.v) {
			if alive[u] {
				del(int(u))
			}
		}
	}
	return is, total
}

// tiedTrace draws a request stream whose arrivals collide often (steps of
// 0, 0.5 or 1 s) over a rf-way replicated layout of numDisks disks.
func tiedTrace(rng *rand.Rand, rf, numDisks int) ([]core.Request, func(core.BlockID) []core.DiskID) {
	numBlocks := 4 + rng.Intn(40)
	locs := make([][]core.DiskID, numBlocks)
	for b := range locs {
		for _, d := range rng.Perm(numDisks)[:rf] {
			locs[b] = append(locs[b], core.DiskID(d))
		}
	}
	reqs := make([]core.Request, 10+rng.Intn(50))
	now := time.Duration(0)
	for i := range reqs {
		now += time.Duration(rng.Intn(3)) * 500 * time.Millisecond
		reqs[i] = core.Request{ID: core.RequestID(i), Block: core.BlockID(rng.Intn(numBlocks)), Arrival: now}
	}
	return reqs, func(b core.BlockID) []core.DiskID { return locs[b] }
}

// TestConflictIndexMatchesPairwiseExpansion checks the implicit adjacency
// against the pairwise expansion on random traces with arrival ties, rf
// 1-5 and MaxSuccessors 0 and 4: identical neighbor sets, counted degrees
// equal to the stored ones, and a GWMIN on the implicit graph that selects
// the reference greedy's set in the same order with a bit-identical
// weight.
func TestConflictIndexMatchesPairwiseExpansion(t *testing.T) {
	t.Parallel()
	cfg := power.DefaultConfig()
	rng := rand.New(rand.NewSource(12))
	for rf := 1; rf <= 5; rf++ {
		for _, maxSucc := range []int{0, 4} {
			for trial := 0; trial < 6; trial++ {
				name := fmt.Sprintf("rf=%d/maxsucc=%d/trial=%d", rf, maxSucc, trial)
				reqs, locs := tiedTrace(rng, rf, rf+rng.Intn(4))
				in, err := Build(reqs, locs, cfg, BuildOptions{MaxSuccessors: maxSucc})
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				ref := referenceGraph(in.Nodes)
				idx := newConflictIndex(in.Nodes, len(reqs))
				if in.Graph.M() != ref.M() {
					t.Fatalf("%s: M = %d, pairwise %d", name, in.Graph.M(), ref.M())
				}
				for v := range in.Nodes {
					got := idx.AppendNeighbors(nil, v)
					slices.Sort(got)
					if want := ref.Neighbors(v); !slices.Equal(got, want) {
						t.Fatalf("%s: vertex %d neighbors %v, pairwise %v", name, v, got, want)
					}
					if idx.Degree(v) != ref.Degree(v) {
						t.Fatalf("%s: vertex %d counted degree %d, pairwise %d", name, v, idx.Degree(v), ref.Degree(v))
					}
				}
				gotIS, gotW := graph.GWMIN(in.Graph)
				wantIS, wantW := referenceGWMIN(ref)
				if !slices.Equal(gotIS, wantIS) || gotW != wantW {
					t.Fatalf("%s: GWMIN %v (%v), reference %v (%v)", name, gotIS, gotW, wantIS, wantW)
				}
				if _, err := in.DeriveSchedule(reqs, locs, gotIS); err != nil {
					t.Fatalf("%s: %v", name, err)
				}
			}
		}
	}
}

// TestImplicitInstanceGraphSolvers checks that the solvers needing sorted
// adjacency still run on an Instance.Graph, compiling it on first use, and
// agree with the pairwise graph.
func TestImplicitInstanceGraphSolvers(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(5))
	edges := 0
	for trial := 0; trial < 40; trial++ {
		reqs, locs := randomInstance(rng)
		in, err := Build(reqs, locs, power.ToyConfig(), BuildOptions{})
		if err != nil {
			t.Fatal(err)
		}
		ref := referenceGraph(in.Nodes)
		edges += ref.M()
		solvers := []struct {
			name  string
			solve func(*graph.Graph) ([]int, float64)
		}{
			{"exact", graph.ExactMWIS},
			{"gwmin2", graph.GWMIN2},
			{"hybrid", func(g *graph.Graph) ([]int, float64) { return graph.ParallelHybridMWIS(g, 4, 2) }},
		}
		for _, s := range solvers {
			gotIS, gotW := s.solve(in.Graph)
			wantIS, wantW := s.solve(ref)
			if !slices.Equal(gotIS, wantIS) || gotW != wantW {
				t.Fatalf("trial %d %s: %v (%v) on the instance graph, %v (%v) pairwise", trial, s.name, gotIS, gotW, wantIS, wantW)
			}
		}
		for v := range in.Nodes {
			for u := range in.Nodes {
				if in.Graph.HasEdge(u, v) != ref.HasEdge(u, v) {
					t.Fatalf("trial %d: HasEdge(%d,%d) = %v, pairwise %v", trial, u, v, in.Graph.HasEdge(u, v), ref.HasEdge(u, v))
				}
			}
		}
	}
	if edges == 0 {
		t.Fatal("no trial produced a conflict edge")
	}
}
