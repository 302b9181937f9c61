package simkernel

import (
	"cmp"
	"container/heap"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"repro/internal/core"
)

// ptrHeap is the reference event queue: a container/heap binary heap of
// item pointers that compares through the items. It is the ordering
// oracle for both production queues (the serial engine's keyed 4-ary heap
// and the sharded kernel's calendar queue), so it must stay independent of
// them.
type ptrHeap []*eventItem

func (h ptrHeap) Len() int { return len(h) }
func (h ptrHeap) Less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	return h[i].seq < h[j].seq
}
func (h ptrHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].index = i
	h[j].index = j
}
func (h *ptrHeap) Push(x any) {
	it := x.(*eventItem)
	it.index = len(*h)
	*h = append(*h, it)
}
func (h *ptrHeap) Pop() any {
	old := *h
	n := len(old)
	it := old[n-1]
	old[n-1] = nil
	it.index = fired
	*h = old[:n-1]
	return it
}

// refEngine is a reference serial kernel over ptrHeap with the Engine's
// observable contract: (time, scheduling-order) firing, preloaded runs
// merged beside the heap, lazy cancellation with cancelled entries reaped
// only when they reach the heap top, and the heap's occupancy high-water.
// It allocates a fresh record per event, so it shares none of the Engine's
// pooling either.
type refEngine struct {
	now       time.Duration
	seq       uint64
	q         ptrHeap
	runs      []preloadRun
	fired     uint64
	cancelled int
	hw        int
}

func (r *refEngine) Now() time.Duration  { return r.now }
func (r *refEngine) Fired() uint64       { return r.fired }
func (r *refEngine) Live() int           { return r.Pending() - r.cancelled }
func (r *refEngine) queueHighWater() int { return r.hw }

func (r *refEngine) Pending() int {
	n := len(r.q)
	for _, run := range r.runs {
		n += len(run.events) - run.next
	}
	return n
}

func (r *refEngine) At(t time.Duration, fn Event) Handle {
	it := &eventItem{at: t, seq: r.seq, fn: fn}
	r.seq++
	heap.Push(&r.q, it)
	r.hw = max(r.hw, len(r.q))
	return Handle{item: it}
}

func (r *refEngine) After(d time.Duration, fn Event) Handle { return r.At(r.now+d, fn) }

func (r *refEngine) Cancel(h Handle) {
	if h.item == nil || h.item.index == fired || h.item.cancelled {
		return
	}
	h.item.cancelled = true
	r.cancelled++
}

func (r *refEngine) Preload(reqs []core.Request, fn func(core.Request, time.Duration)) {
	if len(reqs) == 0 {
		return
	}
	events := make([]preloadEvent, len(reqs))
	for i, q := range reqs {
		events[i] = preloadEvent{at: q.Arrival, seq: r.seq, req: q}
		r.seq++
	}
	slices.SortStableFunc(events, func(a, b preloadEvent) int { return cmp.Compare(a.at, b.at) })
	r.runs = append(r.runs, preloadRun{events: events, fn: fn})
}

// next reaps cancelled heap tops, then returns the run index holding the
// earliest live event, -1 for the heap, or ok=false when nothing is left.
func (r *refEngine) next() (src int, ok bool) {
	for len(r.q) > 0 && r.q[0].cancelled {
		heap.Pop(&r.q)
		r.cancelled--
	}
	src = -1
	var at time.Duration
	var seq uint64
	if len(r.q) > 0 {
		at, seq, ok = r.q[0].at, r.q[0].seq, true
	}
	for i, run := range r.runs {
		ev := run.events[run.next]
		if !ok || ev.at < at || (ev.at == at && ev.seq < seq) {
			src, at, seq, ok = i, ev.at, ev.seq, true
		}
	}
	return src, ok
}

func (r *refEngine) Step() bool {
	src, ok := r.next()
	if !ok {
		return false
	}
	r.fired++
	if src >= 0 {
		run := &r.runs[src]
		ev, fn := run.events[run.next], run.fn
		if run.next++; run.next == len(run.events) {
			r.runs = slices.Delete(r.runs, src, src+1)
		}
		r.now = ev.at
		fn(ev.req, r.now)
		return true
	}
	it := heap.Pop(&r.q).(*eventItem)
	r.now = it.at
	it.fn(r.now)
	return true
}

func (r *refEngine) RunUntil(deadline time.Duration) time.Duration {
	for {
		src, ok := r.next()
		if !ok {
			break
		}
		var at time.Duration
		if src >= 0 {
			at = r.runs[src].events[r.runs[src].next].at
		} else {
			at = r.q[0].at
		}
		if at > deadline {
			break
		}
		r.Step()
	}
	r.now = max(r.now, deadline)
	return r.now
}

// scriptKernel is the surface a heap script drives: the Engine under test
// and refEngine both provide it.
type scriptKernel interface {
	Now() time.Duration
	At(t time.Duration, fn Event) Handle
	After(d time.Duration, fn Event) Handle
	Cancel(h Handle)
	Preload(reqs []core.Request, fn func(core.Request, time.Duration))
	Step() bool
	RunUntil(deadline time.Duration) time.Duration
	Pending() int
	Live() int
	Fired() uint64
	queueHighWater() int
}

type engineUnderTest struct{ *Engine }

func (e engineUnderTest) queueHighWater() int { return e.queueHW }

// runHeapScript plays one random script against k and returns its log:
// every firing (event id and virtual time) interleaved with the kernel's
// observable state after each top-level operation. Event ids are
// handed out in scheduling order, so equal logs mean equal (at, seq)
// firing orders. Callbacks draw from the same seeded source as the script,
// so two kernels stay in lockstep for exactly as long as they agree.
func runHeapScript(seed int64, ops int, k scriptKernel) []string {
	rng := rand.New(rand.NewSource(seed))
	var log []string
	var handles []Handle
	nextID := 0
	// Gaps pile events onto a few instants: most schedules tie with
	// another, so the seq tie-break decides most of the order.
	gap := func() time.Duration {
		if rng.Intn(4) > 0 {
			return time.Duration(rng.Intn(4)) * time.Microsecond
		}
		return time.Duration(rng.Intn(200)) * time.Microsecond
	}
	cancelSome := func() {
		// Any handle ever issued: live, already cancelled (a double
		// cancel), or fired and possibly recycled (a stale cancel).
		if len(handles) > 0 {
			k.Cancel(handles[rng.Intn(len(handles))])
		}
	}
	var event func(id int) Event
	schedule := func(after bool) {
		id := nextID
		nextID++
		var h Handle
		if after {
			h = k.After(gap(), event(id))
		} else {
			h = k.At(k.Now()+gap(), event(id))
		}
		handles = append(handles, h)
	}
	event = func(id int) Event {
		return func(now time.Duration) {
			log = append(log, fmt.Sprintf("fire %d @%v", id, now))
			switch rng.Intn(6) {
			case 0, 1:
				schedule(true)
			case 2:
				schedule(true)
				cancelSome()
			case 3:
				cancelSome()
			}
		}
	}
	for op := 0; op < ops; op++ {
		// Scripts alternate build-up and drain phases, so the heap grows
		// several levels deep before it empties.
		switch c := rng.Intn(100); {
		case op/200%2 == 0 && c < 80 || c < 30:
			schedule(c%3 == 0)
		case c < 50:
			cancelSome()
		case c < 55:
			reqs := make([]core.Request, 1+rng.Intn(12))
			for i := range reqs {
				reqs[i] = core.Request{ID: core.RequestID(nextID), Arrival: k.Now() + gap()}
				nextID++
			}
			k.Preload(reqs, func(r core.Request, now time.Duration) {
				log = append(log, fmt.Sprintf("deliver %d @%v", r.ID, now))
			})
		case c < 75:
			k.RunUntil(k.Now() + gap())
		default:
			k.Step()
		}
		log = append(log, fmt.Sprintf("op %d: now=%v pending=%d live=%d fired=%d hw=%d",
			op, k.Now(), k.Pending(), k.Live(), k.Fired(), k.queueHighWater()))
	}
	k.RunUntil(k.Now() + time.Hour)
	log = append(log, fmt.Sprintf("drained: now=%v pending=%d live=%d fired=%d hw=%d",
		k.Now(), k.Pending(), k.Live(), k.Fired(), k.queueHighWater()))
	return log
}

// TestEngineHeapMatchesReference drives the serial Engine and refEngine
// through the same random scripts of At/After/Cancel (stale and double
// cancels included), Preload, Step and RunUntil with heavy timestamp ties,
// and requires the same firing order and the same Pending/Live/Fired/
// queue high-water after every operation.
func TestEngineHeapMatchesReference(t *testing.T) {
	t.Parallel()
	for seed := int64(1); seed <= 60; seed++ {
		want := runHeapScript(seed, 1500, &refEngine{})
		got := runHeapScript(seed, 1500, engineUnderTest{&Engine{}})
		for i := range min(len(want), len(got)) {
			if got[i] != want[i] {
				t.Fatalf("seed %d: line %d: engine %q, reference %q", seed, i, got[i], want[i])
			}
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: engine logged %d lines, reference %d", seed, len(got), len(want))
		}
	}
}
