package offline

import (
	"fmt"
	"slices"
	"time"

	"repro/internal/core"
	"repro/internal/power"
)

// Improve refines a feasible offline schedule by local search: each pass
// visits every request and moves it to the replica location that most
// reduces total analytic energy, until a pass makes no progress or
// maxPasses is reached. Energy deltas are evaluated incrementally from the
// per-disk timelines (a move only disturbs the gaps adjacent to the moved
// request), so a pass costs O(N * replicationFactor * log N).
//
// The paper notes (Section 5.1) that "more sophisticated set cover and
// independent set algorithms" could push its greedy results further; this
// is that refinement for the MWIS pipeline, and it never worsens a
// schedule.
func Improve(reqs []core.Request, sched core.Schedule, cfg power.Config, locations func(core.BlockID) []core.DiskID, maxPasses int) (core.Schedule, int, error) {
	if len(sched) != len(reqs) {
		return nil, 0, fmt.Errorf("offline: schedule covers %d of %d requests", len(sched), len(reqs))
	}
	out := sched.Clone()
	tl := newTimelines(reqs, out, cfg)
	moves := 0
	for pass := 0; pass < maxPasses; pass++ {
		improvedThisPass := false
		for _, r := range reqs {
			cur := out[r.ID]
			locs := locations(r.Block)
			best := cur
			bestDelta := 0.0
			for _, d := range locs {
				if d == cur {
					continue
				}
				delta := tl.removalDelta(cur, r) + tl.insertionDelta(d, r)
				if delta < bestDelta-1e-9 {
					best, bestDelta = d, delta
				}
			}
			if best != cur {
				tl.remove(cur, r)
				tl.insert(best, r)
				out[r.ID] = best
				moves++
				improvedThisPass = true
			}
		}
		if !improvedThisPass {
			break
		}
	}
	return out, moves, nil
}

// timelines maintains per-disk request timelines sorted by (time, id) with
// incremental energy-delta queries. Disks index a slice directly (disk IDs
// are dense), avoiding per-query map lookups on the local-search hot path,
// and a timeline holds only each request's (time, id) key, so its binary
// searches stay in few cache lines.
type timelines struct {
	cfg  power.Config
	gc   gapCoster
	tail float64
	byD  [][]slot
}

// slot is a request's place on a disk timeline: its arrival and ID, the
// timeline's sort key.
type slot struct {
	at time.Duration
	id core.RequestID
}

func slotOf(r core.Request) slot { return slot{at: r.Arrival, id: r.ID} }

func cmpSlot(a, b slot) int {
	if a.at != b.at {
		if a.at < b.at {
			return -1
		}
		return 1
	}
	return int(a.id) - int(b.id)
}

func newTimelines(reqs []core.Request, sched core.Schedule, cfg power.Config) *timelines {
	tl := &timelines{
		cfg:  cfg,
		gc:   newGapCoster(cfg),
		tail: cfg.Breakeven().Seconds()*cfg.IdlePower + cfg.SpinDownEnergy,
	}
	numDisks := 0
	for _, d := range sched {
		if int(d)+1 > numDisks {
			numDisks = int(d) + 1
		}
	}
	tl.byD = make([][]slot, numDisks)
	counts := make([]int, numDisks)
	for _, r := range reqs {
		counts[sched[r.ID]]++
	}
	for d, c := range counts {
		if c > 0 {
			tl.byD[d] = make([]slot, 0, c)
		}
	}
	for _, r := range reqs {
		d := sched[r.ID]
		tl.byD[d] = append(tl.byD[d], slotOf(r))
	}
	for d := range tl.byD {
		slices.SortFunc(tl.byD[d], cmpSlot)
	}
	return tl
}

// disk returns disk d's timeline, growing the table when a local-search
// move targets a previously unused replica disk.
func (tl *timelines) disk(d core.DiskID) []slot {
	if int(d) >= len(tl.byD) {
		return nil
	}
	return tl.byD[d]
}

// pos locates r in disk d's timeline.
func (tl *timelines) pos(d core.DiskID, r core.Request) int {
	i, found := slices.BinarySearchFunc(tl.disk(d), slotOf(r), cmpSlot)
	if !found {
		panic(fmt.Sprintf("offline: request %d not on disk %d", r.ID, d))
	}
	return i
}

func (tl *timelines) gap(a, b time.Duration) float64 { return tl.gc.cost(b - a) }

// removalDelta returns the energy change from removing r from disk d.
func (tl *timelines) removalDelta(d core.DiskID, r core.Request) float64 {
	rs := tl.disk(d)
	i := tl.pos(d, r)
	switch {
	case len(rs) == 1:
		return -(tl.cfg.SpinUpEnergy + tl.tail)
	case i == 0:
		return -tl.gap(rs[0].at, rs[1].at)
	case i == len(rs)-1:
		return -tl.gap(rs[i-1].at, rs[i].at)
	default:
		return tl.gap(rs[i-1].at, rs[i+1].at) -
			tl.gap(rs[i-1].at, rs[i].at) -
			tl.gap(rs[i].at, rs[i+1].at)
	}
}

// insertionDelta returns the energy change from adding r to disk d.
func (tl *timelines) insertionDelta(d core.DiskID, r core.Request) float64 {
	rs := tl.disk(d)
	if len(rs) == 0 {
		return tl.cfg.SpinUpEnergy + tl.tail
	}
	i, _ := slices.BinarySearchFunc(rs, slotOf(r), cmpSlot)
	switch {
	case i == 0:
		return tl.gap(r.Arrival, rs[0].at)
	case i == len(rs):
		return tl.gap(rs[i-1].at, r.Arrival)
	default:
		return tl.gap(rs[i-1].at, r.Arrival) +
			tl.gap(r.Arrival, rs[i].at) -
			tl.gap(rs[i-1].at, rs[i].at)
	}
}

func (tl *timelines) remove(d core.DiskID, r core.Request) {
	rs := tl.byD[d]
	i := tl.pos(d, r)
	tl.byD[d] = append(rs[:i], rs[i+1:]...)
}

func (tl *timelines) insert(d core.DiskID, r core.Request) {
	for int(d) >= len(tl.byD) {
		tl.byD = append(tl.byD, nil)
	}
	rs := tl.byD[d]
	i, _ := slices.BinarySearchFunc(rs, slotOf(r), cmpSlot)
	rs = slices.Insert(rs, i, slotOf(r))
	tl.byD[d] = rs
}

// SolveRefined runs the greedy MWIS pipeline followed by local-search
// refinement, the configuration used for the full-trace MWIS experiments.
func SolveRefined(reqs []core.Request, locations func(core.BlockID) []core.DiskID, cfg power.Config, opts BuildOptions, passes int) (core.Schedule, Stats, error) {
	sched, _, err := Solve(reqs, locations, cfg, opts)
	if err != nil {
		return nil, Stats{}, err
	}
	sched, _, err = Improve(reqs, sched, cfg, locations, passes)
	if err != nil {
		return nil, Stats{}, err
	}
	st, err := Evaluate(reqs, sched, cfg, locations)
	return sched, st, err
}
