package storage

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
)

// sinkTracer returns a tracer streaming JSONL into the returned buffer,
// plus a counter of every event it emitted. These tests never fill its
// ring, so only an explicit flush reaches the sink.
func sinkTracer() (*obs.Tracer, *bytes.Buffer, *int) {
	var sink bytes.Buffer
	emitted := new(int)
	tr := obs.NewTracer(64)
	tr.SetSink(&sink, false)
	tr.SetObserver(func(obs.Event) { *emitted++ })
	return tr, &sink, emitted
}

// checkFlushed asserts that every emitted event reached the sink and none
// is left in the ring.
func checkFlushed(t *testing.T, tr *obs.Tracer, sink *bytes.Buffer, emitted int) {
	t.Helper()
	if tr.Len() != 0 {
		t.Errorf("%d events left in the tracer ring after the failed run", tr.Len())
	}
	evs, err := obs.ReadJSONL(sink)
	if err != nil {
		t.Fatal(err)
	}
	if emitted == 0 || len(evs) != emitted {
		t.Errorf("sink holds %d of %d emitted events", len(evs), emitted)
	}
}

// TestFailedRunFlushesEventLog pins that a run ending in a simulation
// error still flushes its event log: the events around the failure are
// the ones the log is read for.
func TestFailedRunFlushesEventLog(t *testing.T) {
	t.Parallel()
	tr, sink, emitted := sinkTracer()
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	reqs := []core.Request{{ID: 0, Block: 0}}
	if _, err := RunOnline(smallConfig(2), loc, offReplica{}, reqs, WithTracer(tr)); err == nil {
		t.Fatal("off-replica scheduling not detected")
	}
	checkFlushed(t, tr, sink, *emitted)
}

// feedLiveSet admits n requests to ls, each dispatched to disk
// Block mod NumDisks on the shard owning that disk.
func feedLiveSet(ls *LiveSet, numDisks, n int) {
	for i := 0; i < n; i++ {
		r := core.Request{ID: core.RequestID(i), Block: core.BlockID(i), Arrival: time.Duration(i) * 50 * time.Millisecond}
		d := core.DiskID(i % numDisks)
		lv := ls.Shard(0)
		for s := 0; s < ls.NumShards(); s++ {
			if base, count := ls.ShardRange(s); int(d) >= base && int(d) < base+count {
				lv = ls.Shard(s)
			}
		}
		lv.Advance(r.Arrival)
		lv.BeginRequest(r.Arrival, uint64(r.ID))
		lv.Arrive(r)
		lv.Dispatch(r, d, lv.DecisionBase())
		lv.EndRequest()
	}
}

// TestLiveSetFinishTwice pins that one flag guards the end of a serving
// run at any shard count: the first Finish reports, a second one errors.
func TestLiveSetFinishTwice(t *testing.T) {
	t.Parallel()
	const disks, n = 8, 40
	loc := func(b core.BlockID) []core.DiskID { return []core.DiskID{core.DiskID(int(b) % disks)} }
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			ls, err := NewLiveSet(smallConfig(disks), loc, shards, false)
			if err != nil {
				t.Fatal(err)
			}
			feedLiveSet(ls, disks, n)
			res, err := ls.Finish("static")
			if err != nil {
				t.Fatal(err)
			}
			if res.Served != n || res.Response.Count() != n {
				t.Fatalf("served %d with %d samples, want %d", res.Served, res.Response.Count(), n)
			}
			if _, err := ls.Finish("static"); err == nil {
				t.Fatal("second Finish succeeded")
			}
		})
	}
}

// TestLiveSetFailedRunFlushesEventLog is TestFailedRunFlushesEventLog for
// the serving path, where N shards first merge what they journaled.
func TestLiveSetFailedRunFlushesEventLog(t *testing.T) {
	t.Parallel()
	const disks = 8
	loc := func(core.BlockID) []core.DiskID { return []core.DiskID{0} }
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			tr, sink, emitted := sinkTracer()
			ls, err := NewLiveSet(smallConfig(disks), loc, shards, false, WithTracer(tr))
			if err != nil {
				t.Fatal(err)
			}
			lv := ls.Shard(0)
			for i, d := range []core.DiskID{0, 0, 1} { // disk 1 holds no replica
				r := core.Request{ID: core.RequestID(i), Arrival: time.Duration(i) * time.Millisecond}
				lv.Advance(r.Arrival)
				lv.BeginRequest(r.Arrival, uint64(r.ID))
				lv.Arrive(r)
				lv.Dispatch(r, d, lv.DecisionBase())
				lv.EndRequest()
			}
			if _, err := ls.Finish("static"); err == nil {
				t.Fatal("off-replica dispatch not detected")
			}
			checkFlushed(t, tr, sink, *emitted)
		})
	}
}
