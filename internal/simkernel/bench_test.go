package simkernel

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/core"
)

func benchArrivals(n int) []core.Request {
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{
			ID:      core.RequestID(i),
			Block:   core.BlockID(i % 64),
			Arrival: time.Duration(i) * time.Millisecond,
		}
	}
	return reqs
}

// BenchmarkSchedulePerEvent is the pre-Preload arrival path: one heap push
// and one closure per request.
func BenchmarkSchedulePerEvent(b *testing.B) {
	reqs := benchArrivals(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		fired := 0
		for _, r := range reqs {
			r := r
			e.At(r.Arrival, func(time.Duration) { fired++ })
		}
		e.Run()
		if fired != len(reqs) {
			b.Fatalf("fired %d of %d", fired, len(reqs))
		}
	}
}

// BenchmarkSchedulePreloaded is the same workload through Preload: one
// sorted run merged lazily with the heap.
func BenchmarkSchedulePreloaded(b *testing.B) {
	reqs := benchArrivals(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		fired := 0
		e.Preload(reqs, func(core.Request, time.Duration) { fired++ })
		e.Run()
		if fired != len(reqs) {
			b.Fatalf("fired %d of %d", fired, len(reqs))
		}
	}
}

// BenchmarkScheduleMixed interleaves a preloaded arrival run with per-event
// heap traffic (the shape of a real simulation: one run of arrivals plus
// disk timers scheduled on the fly).
func BenchmarkScheduleMixed(b *testing.B) {
	reqs := benchArrivals(10000)
	b.ResetTimer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		var e Engine
		fired := 0
		e.Preload(reqs, func(r core.Request, now time.Duration) {
			fired++
			if r.ID%8 == 0 {
				e.After(3*time.Millisecond, func(time.Duration) { fired++ })
			}
		})
		e.Run()
	}
}

// idleChurnArrivals is BenchmarkEngineIdleTimerChurn's trace: Poisson
// arrivals, each to a uniformly random one of sources disks, so each disk
// sees a mean gap of one second.
func idleChurnArrivals(n, sources int) []core.Request {
	rng := rand.New(rand.NewSource(1))
	reqs := make([]core.Request, n)
	var at time.Duration
	for i := range reqs {
		at += time.Duration(rng.ExpFloat64() * float64(time.Second) / float64(sources))
		reqs[i] = core.Request{ID: core.RequestID(i), Block: core.BlockID(rng.Intn(sources)), Arrival: at}
	}
	return reqs
}

// runIdleChurn replays reqs through e the way the storage layer drives
// the serial kernel: arrivals come from a preloaded run, each schedules a
// service completion, and each completion cancels its disk's idle timer
// and arms a new one. A timer that fires starts a spin-down. It returns
// the number of live idle timers cancelled.
func runIdleChurn(e *Engine, reqs []core.Request, sources int) (cancels int) {
	const (
		service  = 10 * time.Millisecond
		idle     = 1400 * time.Millisecond
		spinDown = 500 * time.Millisecond
	)
	timers := make([]Handle, sources)
	spunDown := func(time.Duration) {}
	idleFire := func(time.Duration) { e.After(spinDown, spunDown) }
	complete := make([]Event, sources)
	for d := range complete {
		complete[d] = func(time.Duration) {
			if !timers[d].Cancelled() {
				cancels++
			}
			e.Cancel(timers[d])
			timers[d] = e.After(idle, idleFire)
		}
	}
	e.Preload(reqs, func(r core.Request, _ time.Duration) {
		e.After(service, complete[r.Block])
	})
	e.Run()
	return cancels
}

// BenchmarkEngineIdleTimerChurn is the serial kernel's rung of the batch
// benchmark ladder, shaped like one trace-driven Figure 10-12 cell: 180
// disks each re-arm an idle timer after every request they serve, so
// about 30% of heap pushes are cancelled before they fire and the heap
// holds about 300 entries, most of them reaped lazily.
func BenchmarkEngineIdleTimerChurn(b *testing.B) {
	const sources = 180
	reqs := idleChurnArrivals(50_000, sources)
	b.ReportAllocs()
	b.ResetTimer()
	var events uint64
	for i := 0; i < b.N; i++ {
		var e Engine
		runIdleChurn(&e, reqs, sources)
		events += e.Fired()
	}
	b.ReportMetric(float64(events)/b.Elapsed().Seconds(), "events/sec")
}
