package offline

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/core"
	"repro/internal/graph"
	"repro/internal/power"
)

// Node is one X(i,j,k) vertex of the MWIS reduction: scheduling requests
// r_I and r_J consecutively on disk Disk saves Weight joules.
type Node struct {
	I, J   core.RequestID
	Disk   core.DiskID
	Weight float64
}

// Instance is a constructed MWIS problem plus the node metadata needed to
// derive a schedule from an independent set.
type Instance struct {
	Graph *graph.Graph
	Nodes []Node
}

// BuildOptions bounds graph construction on large traces.
type BuildOptions struct {
	// MaxSuccessors caps, per (request, disk), how many candidate
	// successors inside the replacement window become nodes. In any
	// schedule the realized successor is overwhelmingly one of the next
	// few same-disk requests, so small caps lose almost nothing while
	// keeping the graph near-linear in the trace length. 0 means
	// unlimited (exact reduction).
	MaxSuccessors int
	// MaxNodes aborts construction when exceeded (0 = unlimited),
	// guarding against quadratic blowup on pathological traces.
	MaxNodes int
	// HybridExactLimit, when positive, solves connected components of the
	// conflict graph with at most this many vertices exactly (branch and
	// bound) and only the larger ones greedily. Bursty traces decompose
	// into many small components, so modest limits recover most of the
	// optimum at near-greedy cost.
	HybridExactLimit int
	// Workers bounds the goroutines used for graph construction (the
	// per-disk successor scans are independent) and, with
	// HybridExactLimit, for the component-parallel solve. 0 or 1 means
	// serial. Results are bit-identical for every worker count.
	Workers int
}

// workerCount normalizes the Workers knob.
func (o BuildOptions) workerCount() int {
	if o.Workers < 1 {
		return 1
	}
	return o.Workers
}

// Build constructs the MWIS reduction of Section 3.1.2 for a request
// stream: Step 1 adds a vertex for every non-zero X(i,j,k) (Eqs. 3-4),
// Step 2 adds an edge for every energy-constraint violation (same i) and
// schedule-constraint violation (shared request, different disk).
//
// Construction is allocation-lean and sharded: replica membership is
// gathered into one (disk, request) run grouped by disk instead of a map
// of slices, and each disk's successor scan runs independently
// (concurrently when opts.Workers > 1) into a pre-counted node slice. The
// edges are not stored: the graph's implicit adjacency is a conflict index
// of per-request vertex ranges, from which neighbors are scanned and
// degrees counted in O(vertices). The produced instance is bit-identical
// to the serial construction for every worker count.
func Build(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) (*Instance, error) {
	window := cfg.ReplacementWindow()

	// Step 0: one run of (disk, request index) pairs grouped by disk
	// replaces the per-disk map of request copies. Capacity assumes the
	// common 3-way replication; higher factors regrow geometrically.
	pairs := make([]uint64, 0, 3*len(reqs))
	numDisks := 0
	for i, r := range reqs {
		if r.ID < 0 || int(r.ID) >= len(reqs) {
			// The schedule, and the vertex order, are indexed by ID.
			return nil, fmt.Errorf("offline: request ID %d outside [0, %d)", r.ID, len(reqs))
		}
		locs := locations(r.Block)
		if len(locs) == 0 {
			return nil, fmt.Errorf("offline: request %d block %d has no locations", r.ID, r.Block)
		}
		for _, d := range locs {
			if d < 0 {
				return nil, fmt.Errorf("offline: request %d block %d on negative disk %d", r.ID, r.Block, d)
			}
			pairs = append(pairs, uint64(d)<<32|uint64(uint32(i)))
			numDisks = max(numDisks, int(d)+1)
		}
	}
	// A stable counting sort over the disk IDs, which index slices
	// throughout the pipeline, groups the run by disk; each disk shard is
	// one contiguous range, in request-index order.
	end := make([]int, numDisks)
	for _, p := range pairs {
		end[p>>32]++
	}
	type shard struct{ lo, hi int }
	shards := make([]shard, 0, numDisks)
	lo := 0
	for d, c := range end {
		end[d] = lo
		if c > 0 {
			shards = append(shards, shard{lo, lo + c})
		}
		lo += c
	}
	grouped := make([]uint64, len(pairs))
	for _, p := range pairs {
		grouped[end[p>>32]] = p
		end[p>>32]++
	}
	pairs = grouped

	// Step 1 per disk: sort the disk's requests by (arrival, id), then scan
	// successors inside the replacement window. A cheap counting pass
	// (window arithmetic only) pre-sizes the node slice exactly once.
	nodesByShard := make([][]Node, len(shards))
	var built atomic.Int64 // nodes completed by finished shards
	var exceeded atomic.Bool
	buildShard := func(si int) {
		sh := shards[si]
		d := core.DiskID(pairs[sh.lo] >> 32)
		run := pairs[sh.lo:sh.hi]
		// Order the disk's requests by (arrival, id). The run arrives in
		// request-index order, which for arrival-sorted traces is already
		// correct, so this sort is near-free in the common case.
		slices.SortFunc(run, func(a, b uint64) int {
			ra, rb := reqs[uint32(a)], reqs[uint32(b)]
			if ra.Arrival != rb.Arrival {
				if ra.Arrival < rb.Arrival {
					return -1
				}
				return 1
			}
			switch {
			case ra.ID < rb.ID:
				return -1
			case ra.ID > rb.ID:
				return 1
			}
			return 0
		})
		// Counting pass: pairs inside the window, capped per request at
		// MaxSuccessors — an upper bound on accepted nodes.
		upper := 0
		for i := 0; i < len(run); i++ {
			ti := reqs[uint32(run[i])].Arrival
			c := 0
			for j := i + 1; j < len(run); j++ {
				if reqs[uint32(run[j])].Arrival-ti >= window {
					break
				}
				c++
				if opts.MaxSuccessors > 0 && c >= opts.MaxSuccessors {
					break
				}
			}
			upper += c
		}
		nodes := make([]Node, 0, upper)
		for i := 0; i < len(run); i++ {
			ri := reqs[uint32(run[i])]
			succ := 0
			for j := i + 1; j < len(run); j++ {
				rj := reqs[uint32(run[j])]
				if rj.Arrival-ri.Arrival >= window {
					break
				}
				w := Saving(cfg, ri.Arrival, rj.Arrival)
				if w <= 0 {
					continue
				}
				nodes = append(nodes, Node{I: ri.ID, J: rj.ID, Disk: d, Weight: w})
				if opts.MaxNodes > 0 && built.Load()+int64(len(nodes)) > int64(opts.MaxNodes) {
					exceeded.Store(true)
					return
				}
				succ++
				if opts.MaxSuccessors > 0 && succ >= opts.MaxSuccessors {
					break
				}
			}
		}
		built.Add(int64(len(nodes)))
		nodesByShard[si] = nodes
	}
	if workers := min(opts.workerCount(), len(shards)); workers <= 1 {
		for si := range shards {
			buildShard(si)
			if exceeded.Load() {
				break
			}
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for !exceeded.Load() {
					si := int(next.Add(1)) - 1
					if si >= len(shards) {
						return
					}
					buildShard(si)
				}
			}()
		}
		wg.Wait()
	}
	if exceeded.Load() {
		return nil, fmt.Errorf("offline: MWIS graph exceeds %d nodes", opts.MaxNodes)
	}
	total := 0
	for _, ns := range nodesByShard {
		total += len(ns)
	}
	if opts.MaxNodes > 0 && total > opts.MaxNodes {
		return nil, fmt.Errorf("offline: MWIS graph exceeds %d nodes", opts.MaxNodes)
	}
	// Deterministic vertex order regardless of shard or worker schedule:
	// (I, J, Disk) is unique per node, so this order is total. A counting
	// sort by I (request IDs index the trace) groups the nodes by
	// predecessor; each group holds a few successors per replica and is
	// then sorted by (J, Disk).
	at := make([]int32, len(reqs)+1)
	for _, ns := range nodesByShard {
		for _, nd := range ns {
			at[nd.I+1]++
		}
	}
	for r := 1; r <= len(reqs); r++ {
		at[r] += at[r-1]
	}
	nodes := make([]Node, total)
	for _, ns := range nodesByShard {
		for _, nd := range ns {
			nodes[at[nd.I]] = nd
			at[nd.I]++
		}
	}
	nodesByShard = nil
	for lo := 0; lo < len(nodes); {
		hi := int(at[nodes[lo].I])
		slices.SortFunc(nodes[lo:hi], func(na, nb Node) int {
			if na.J != nb.J {
				return int(na.J) - int(nb.J)
			}
			return int(na.Disk) - int(nb.Disk)
		})
		lo = hi
	}

	// Step 2: conflict edges, kept implicit. The conflict index lists, per
	// request, the vertices that mention it, and derives each vertex's
	// neighbors and degree from the ranges of its two requests on demand.
	g := graph.NewImplicitGraph(len(nodes), newConflictIndex(nodes, len(reqs)))
	for v, n := range nodes {
		g.SetWeight(v, n.Weight)
	}
	return &Instance{Graph: g, Nodes: nodes}, nil
}

// mention is one entry of a request's range in the conflict index: vertex
// v names the range's request, and lives on disk with predecessor pred.
type mention struct {
	v, disk, pred int32
}

// conflictIndex is the implicit adjacency of the MWIS conflict graph.
// Two vertices conflict when they share a request and either share the
// predecessor (energy constraint: one request leads at most one saving
// pair) or sit on different disks (schedule constraint: a request is
// served by one disk). Every conflict is between two vertices of one
// request's range, so each vertex's neighbors are found by scanning the
// ranges of its two requests, and no edge is stored.
type conflictIndex struct {
	nodes   []Node
	entries []mention // request r's range is entries[start[r]:start[r+1]]
	start   []int32
	deg     []int32 // per vertex: exact degree
}

// newConflictIndex builds the per-request ranges, each in vertex order, by
// a counting sort over the numReqs request IDs, and counts every degree in
// O(mentions) without visiting vertex pairs. nodes must be sorted by
// (I, J, Disk).
func newConflictIndex(nodes []Node, numReqs int) *conflictIndex {
	c := &conflictIndex{
		nodes:   nodes,
		entries: make([]mention, 2*len(nodes)),
		start:   make([]int32, numReqs+1),
		deg:     make([]int32, len(nodes)),
	}
	maxDisk := 0
	for _, nd := range nodes {
		c.start[nd.I+1]++
		c.start[nd.J+1]++
		maxDisk = max(maxDisk, int(nd.Disk))
	}
	for r := 1; r <= numReqs; r++ {
		c.start[r] += c.start[r-1]
	}
	next := make([]int32, numReqs)
	copy(next, c.start)
	for v, nd := range nodes {
		e := mention{v: int32(v), disk: int32(nd.Disk), pred: int32(nd.I)}
		c.entries[next[nd.I]] = e
		next[nd.I]++
		c.entries[next[nd.J]] = e
		next[nd.J]++
	}

	// A vertex's neighbors in its I range are every other entry except the
	// same-disk entries that name the request as successor; in its J range,
	// every entry on another disk except the copies of its own (I, J) pair.
	// Seed each degree with the pair correction: 1 - (disks holding the
	// pair), the copies forming a run of the (I, J, Disk) order.
	for lo := 0; lo < len(nodes); {
		hi := lo + 1
		for hi < len(nodes) && nodes[hi].I == nodes[lo].I && nodes[hi].J == nodes[lo].J {
			hi++
		}
		for v := lo; v < hi; v++ {
			c.deg[v] = int32(1 - (hi - lo))
		}
		lo = hi
	}
	onDisk := make([]int32, maxDisk+1)     // range entries per disk
	succOnDisk := make([]int32, maxDisk+1) // of those, naming the request as successor
	for r := 0; r < numReqs; r++ {
		rng := c.entries[c.start[r]:c.start[r+1]]
		size := int32(len(rng))
		for _, e := range rng {
			onDisk[e.disk]++
			if e.pred != int32(r) {
				succOnDisk[e.disk]++
			}
		}
		for _, e := range rng {
			if e.pred == int32(r) {
				c.deg[e.v] += size - 1 - succOnDisk[e.disk]
			} else {
				c.deg[e.v] += size - onDisk[e.disk]
			}
		}
		for _, e := range rng {
			onDisk[e.disk], succOnDisk[e.disk] = 0, 0
		}
	}
	return c
}

// Degree implements graph.Adjacency.
func (c *conflictIndex) Degree(v int) int { return int(c.deg[v]) }

// AppendNeighbors implements graph.Adjacency. The two scans are disjoint:
// a neighbor naming both of v's requests shares v's pair and is found
// only in the I range.
func (c *conflictIndex) AppendNeighbors(dst []int32, v int) []int32 {
	nd := c.nodes[v]
	disk, pred := int32(nd.Disk), int32(nd.I)
	self := int32(v)
	for _, e := range c.entries[c.start[nd.I]:c.start[nd.I+1]] {
		if e.v != self && (e.pred == pred || e.disk != disk) {
			dst = append(dst, e.v)
		}
	}
	for _, e := range c.entries[c.start[nd.J]:c.start[nd.J+1]] {
		if e.disk != disk && e.pred != pred {
			dst = append(dst, e.v)
		}
	}
	return dst
}

// DeriveSchedule is Step 4 of the algorithm: requests appearing in selected
// nodes go to those nodes' disks; requests with no selected node cannot
// save energy anywhere and are placed on a replica already in use when
// possible, else their original location.
func (in *Instance) DeriveSchedule(reqs []core.Request, locations func(core.BlockID) []core.DiskID, selected []int) (core.Schedule, error) {
	sched := make(core.Schedule, len(reqs))
	for i := range sched {
		sched[i] = core.InvalidDisk
	}
	assign := func(r core.RequestID, d core.DiskID) error {
		if sched[r] != core.InvalidDisk && sched[r] != d {
			return fmt.Errorf("offline: request %d assigned to disks %d and %d (selection not independent)", r, sched[r], d)
		}
		sched[r] = d
		return nil
	}
	for _, v := range selected {
		if v < 0 || v >= len(in.Nodes) {
			return nil, fmt.Errorf("offline: selected vertex %d out of range", v)
		}
		n := in.Nodes[v]
		if err := assign(n.I, n.Disk); err != nil {
			return nil, err
		}
		if err := assign(n.J, n.Disk); err != nil {
			return nil, err
		}
	}
	// Flat membership set over disk IDs: one allocation instead of a map,
	// grown on the rare disk ID past the initial span.
	used := make([]bool, 256)
	mark := func(d core.DiskID) {
		if int(d) >= len(used) {
			grown := make([]bool, max(2*len(used), int(d)+1))
			copy(grown, used)
			used = grown
		}
		used[d] = true
	}
	for _, d := range sched {
		if d != core.InvalidDisk {
			mark(d)
		}
	}
	for _, r := range reqs {
		if sched[r.ID] != core.InvalidDisk {
			continue
		}
		locs := locations(r.Block)
		if len(locs) == 0 {
			return nil, fmt.Errorf("offline: request %d block %d has no locations", r.ID, r.Block)
		}
		choice := locs[0]
		for _, d := range locs {
			if int(d) < len(used) && used[d] {
				choice = d
				break
			}
		}
		sched[r.ID] = choice
		mark(choice)
	}
	return sched, nil
}

// Solve runs the full offline pipeline with the GWMIN greedy the paper uses
// (Section 4.3): build the reduction, solve MWIS, derive the schedule.
// With opts.Workers > 1 graph construction (and a hybrid solve's
// components) run concurrently; the schedule and stats are bit-identical
// for every worker count.
func Solve(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions) (core.Schedule, Stats, error) {
	in, err := Build(reqs, locations, cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	var selected []int
	if opts.HybridExactLimit > 0 {
		selected, _ = graph.ParallelHybridMWIS(in.Graph, opts.HybridExactLimit, opts.workerCount())
	} else {
		selected, _ = graph.ParallelGWMIN(in.Graph, opts.workerCount())
	}
	sched, err := in.DeriveSchedule(reqs, locations, selected)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Evaluate(reqs, sched, cfg, locations)
	return sched, st, err
}

// SolveExact is Solve with the exact branch-and-bound MWIS solver; only
// viable on small instances (tests, worked examples).
func SolveExact(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config) (core.Schedule, Stats, error) {
	in, err := Build(reqs, locations, cfg, BuildOptions{})
	if err != nil {
		return nil, Stats{}, err
	}
	selected, _ := graph.ExactMWIS(in.Graph)
	sched, err := in.DeriveSchedule(reqs, locations, selected)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Evaluate(reqs, sched, cfg, locations)
	return sched, st, err
}

// Gadget builds the Theorem 3 NP-completeness reduction from an arbitrary
// graph G: disks are G's vertices; every edge e=(u,v) contributes a request
// r_e replicated on disks u and v plus dummy requests r_eu (only on u) and
// r_ev (only on v) at the same arrival time, with consecutive edge groups
// separated by more than the replacement window.
func Gadget(n int, edges [][2]int, cfg power.Config) ([]core.Request, func(core.BlockID) []core.DiskID, error) {
	if n <= 0 {
		return nil, nil, fmt.Errorf("offline: gadget needs vertices, got %d", n)
	}
	sep := cfg.ReplacementWindow() + time.Second
	var reqs []core.Request
	locs := make([][]core.DiskID, 0, 3*len(edges))
	addReq := func(at time.Duration, disks ...core.DiskID) {
		b := core.BlockID(len(locs))
		locs = append(locs, disks)
		reqs = append(reqs, core.Request{ID: core.RequestID(len(reqs)), Block: b, Arrival: at})
	}
	for idx, e := range edges {
		u, v := e[0], e[1]
		if u < 0 || v < 0 || u >= n || v >= n || u == v {
			return nil, nil, fmt.Errorf("offline: gadget edge %d = (%d,%d) invalid for %d vertices", idx, u, v, n)
		}
		at := time.Duration(idx+1) * sep
		addReq(at, core.DiskID(u), core.DiskID(v)) // r_e
		addReq(at, core.DiskID(u))                 // r_eu
		addReq(at, core.DiskID(v))                 // r_ev
	}
	lookup := func(b core.BlockID) []core.DiskID {
		if b < 0 || int(b) >= len(locs) {
			return nil
		}
		return locs[b]
	}
	return reqs, lookup, nil
}
