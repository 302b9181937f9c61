package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/obs/monitor"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/storage"
	"repro/internal/workload"
)

// rackLocalConfig builds a shard-aligned serving config: rack-local
// placement over racks contiguous stripes, so the engine accepts any shard
// count dividing racks.
func rackLocalConfig(t *testing.T, disks, blocks, rf, racks int) (Config, *placement.Placement) {
	t.Helper()
	p, err := placement.GenerateRackLocal(placement.GenerateConfig{
		NumDisks: disks, NumBlocks: blocks,
		ReplicationFactor: rf, ZipfExponent: 1, Seed: 7,
	}, racks)
	if err != nil {
		t.Fatal(err)
	}
	pc := power.DefaultConfig()
	return Config{
		System: storage.Config{
			NumDisks: disks,
			Power:    pc,
			Mech:     diskmodel.Cheetah15K5(),
			Policy:   power.TwoCompetitive{Config: pc},
		},
		Router: NewRouter(p, 8),
	}, p
}

// runShardedSequential runs one Sequential pass at the given shard count
// and returns the result, the event log and the state log.
func runShardedSequential(t *testing.T, cfg Config, shards int, reqs []core.Request, workers int) (*storage.Result, []byte, []byte) {
	t.Helper()
	var trace, states bytes.Buffer
	tr := obs.NewTracer(256)
	tr.SetSink(&trace, false)
	cfg.Sequential = true
	cfg.Shards = shards
	cfg.Tracer = tr
	cfg.StateLog = &states
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, reqs, workers)
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return res, trace.Bytes(), states.Bytes()
}

// TestShardedSequentialByteIdentical is the tentpole determinism pin: the
// same request sequence decided on 1, 2 and 4 shards — under heavy
// submitter concurrency — must produce byte-identical event logs, state
// logs and accounting. The merge layer earns its keep here: per-shard
// kernels run interleaved in wall time, yet the canonical streams cannot
// tell.
func TestShardedSequentialByteIdentical(t *testing.T) {
	t.Parallel()
	cfg, _ := rackLocalConfig(t, 16, 96, 3, 4)
	cfg.MaxInFlight = 128
	reqs := workload.CelloLike(600, 96, 11)
	serial, serialLog, serialStates := runShardedSequential(t, cfg, 1, reqs, 1)
	if serial.Served != 600 || serial.Dropped != 0 {
		t.Fatalf("serial served/dropped = %d/%d", serial.Served, serial.Dropped)
	}
	if len(serialStates) == 0 {
		t.Fatal("serial run logged no state transitions")
	}
	serialResp, err := json.Marshal(serial.Response)
	if err != nil {
		t.Fatal(err)
	}
	for _, shards := range []int{2, 4} {
		for _, workers := range []int{1, 16} {
			res, log, states := runShardedSequential(t, cfg, shards, reqs, workers)
			if res.Energy != serial.Energy || res.EnergyByState != serial.EnergyByState {
				t.Errorf("shards=%d workers=%d: energy %v/%v != serial %v/%v",
					shards, workers, res.Energy, res.EnergyByState, serial.Energy, serial.EnergyByState)
			}
			if res.Served != serial.Served || res.Dropped != serial.Dropped ||
				res.SpinUps != serial.SpinUps || res.SpinDowns != serial.SpinDowns ||
				res.Horizon != serial.Horizon {
				t.Errorf("shards=%d workers=%d: counters diverge", shards, workers)
			}
			if !bytes.Equal(log, serialLog) {
				t.Errorf("shards=%d workers=%d: event log differs from serial", shards, workers)
			}
			if !bytes.Equal(states, serialStates) {
				t.Errorf("shards=%d workers=%d: state log differs from serial", shards, workers)
			}
			resp, err := json.Marshal(res.Response)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(resp, serialResp) {
				t.Errorf("shards=%d workers=%d: response samples diverge", shards, workers)
			}
		}
	}
}

// TestShardedSequentialDoctorClean rides the full monitor suite on a
// 4-shard concurrent sequential run: the merged stream must satisfy every
// batch-path invariant.
func TestShardedSequentialDoctorClean(t *testing.T) {
	t.Parallel()
	cfg, p := rackLocalConfig(t, 16, 96, 2, 4)
	cfg.MaxInFlight = 64
	cfg.Shards = 4
	cfg.Sequential = true
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	cfg.Tracer = obs.NewTracer(256)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, workload.CelloLike(400, 96, 3), 8)
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations on a sharded sequential run:\n%s", rep.String())
	}
}

// TestShardedLiveDoctorClean runs wall-clock mode on 4 shards with the
// doctor attached and checks the merged stream stays clean under
// concurrent submitters.
func TestShardedLiveDoctorClean(t *testing.T) {
	t.Parallel()
	cfg, p := rackLocalConfig(t, 16, 96, 2, 4)
	cfg.MaxInFlight = 64
	cfg.Shards = 4
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	cfg.Tracer = obs.NewTracer(256)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	submitTrace(t, e, cycleBlocks(n, 96), 8)
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != n || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want %d/0", res.Served, res.Dropped, n)
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations on a sharded live run:\n%s", rep.String())
	}
}

// TestShardAlignment covers the topology validations: a random placement
// straddles shard ranges and must be rejected; a rack-local one aligned to
// the shard count is accepted, and the router then refuses cross-shard
// replica moves.
func TestShardAlignment(t *testing.T) {
	t.Parallel()
	misaligned, _ := testConfig(t, 16, 200, 3)
	misaligned.Shards = 4
	if _, err := New(misaligned); err == nil {
		t.Error("misaligned placement accepted at 4 shards")
	}
	cfg, _ := rackLocalConfig(t, 16, 96, 2, 4)
	cfg.Shards = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Rack 0 owns disks 0..3: an in-shard move is fine, a cross-shard one
	// must be refused now that the engine pinned the alignment.
	var b core.BlockID
	for b = 0; b < 96; b++ {
		if locs := cfg.Router.Lookup(b); len(locs) > 0 && locs[0] < 4 {
			break
		}
	}
	if err := cfg.Router.Update(b, []core.DiskID{0, 3}); err != nil {
		t.Errorf("in-shard update rejected: %v", err)
	}
	if err := cfg.Router.Update(b, []core.DiskID{0, 12}); err == nil {
		t.Error("cross-shard update accepted on an aligned router")
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	// More shards than disks is rejected outright.
	tiny, _ := rackLocalConfig(t, 4, 20, 2, 2)
	tiny.Shards = 8
	if _, err := New(tiny); err == nil {
		t.Error("8 shards over 4 disks accepted")
	}
}

// TestDrainUnderFullLoad is the satellite stress test: submitters hammer a
// 4-shard live engine while Drain races them, and the doctor plus the
// engine's own conservation check must still hold — every admitted request
// is either decided (and served by the drain) or rejected, never lost.
func TestDrainUnderFullLoad(t *testing.T) {
	t.Parallel()
	cfg, p := rackLocalConfig(t, 16, 96, 2, 4)
	cfg.MaxInFlight = 256
	cfg.Shards = 4
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	cfg.Tracer = obs.NewTracer(256)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var decided, rejected atomic.Int64
	type drained struct {
		res *storage.Result
		err error
	}
	drainc := make(chan drained, 1)
	go func() {
		time.Sleep(50 * time.Millisecond)
		res, err := e.Drain()
		drainc <- drained{res, err}
	}()
	submitters(t, e, 16, func(g int, submit submitFunc) {
		for i := 0; ; i++ {
			_, err := submit(core.Request{Block: core.BlockID((g*31 + i) % 96)})
			switch {
			case err == nil:
				decided.Add(1)
			case errors.Is(err, ErrDraining):
				rejected.Add(1)
				return
			case errors.Is(err, ErrQueueFull):
				rejected.Add(1)
			default:
				t.Errorf("submit: %v", err)
				return
			}
		}
	})
	d := <-drainc
	res, err := d.res, d.err
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != int(decided.Load()) {
		t.Fatalf("served %d != decided %d (rejected %d)", res.Served, decided.Load(), rejected.Load())
	}
	if res.Dropped != 0 {
		t.Fatalf("dropped %d, want 0", res.Dropped)
	}
	if decided.Load() == 0 {
		t.Fatal("no requests decided before drain")
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations on drain under load:\n%s", rep.String())
	}
}

// TestDrainingCountedOnce is the satellite-1 regression: one rejected
// submission during drain must increment the draining outcome counter
// exactly once (the old Submit checked the flag twice).
func TestDrainingCountedOnce(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	col := obs.NewCollector()
	cfg.Collector = col
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(core.Request{Block: 1}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("err = %v, want ErrDraining", err)
	}
	c := col.Counter("esched_serve_requests_total", "Serving submissions by outcome.",
		obs.Label{Key: "outcome", Value: "draining"})
	if got := c.Value(); got != 1 {
		t.Fatalf("draining counter = %v after one rejection, want 1", got)
	}
	if got := e.inflight.Load(); got != 0 {
		t.Fatalf("inflight = %d after rejection, want 0", got)
	}
}

// TestShardStateSurfaced checks the per-shard breakdown in Snapshot.
func TestShardStateSurfaced(t *testing.T) {
	t.Parallel()
	cfg, _ := rackLocalConfig(t, 16, 96, 2, 4)
	cfg.Shards = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, cycleBlocks(64, 96), 1)
	snap := e.Snapshot()
	if len(snap.Shards) != 4 {
		t.Fatalf("snapshot has %d shards, want 4", len(snap.Shards))
	}
	var decisions uint64
	covered := 0
	for i, ss := range snap.Shards {
		if ss.Shard != i || ss.NumDisks != 4 || ss.BaseDisk != i*4 {
			t.Fatalf("shard %d range = %+v", i, ss)
		}
		decisions += ss.Decisions
		covered += ss.NumDisks
	}
	if covered != 16 {
		t.Fatalf("shard ranges cover %d disks, want 16", covered)
	}
	if decisions != 64 || snap.Totals.Decisions != 64 {
		t.Fatalf("per-shard decisions %d / total %d, want 64", decisions, snap.Totals.Decisions)
	}
	if snap.Kernel == nil || len(snap.Kernel.Shards) != 4 {
		t.Fatalf("kernel snapshot = %+v", snap.Kernel)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestRingOrder pins the admission ring's FIFO contract including a
// wraparound lap.
func TestRingOrder(t *testing.T) {
	t.Parallel()
	r := newRing(4) // capacity 4
	ps := make([]*pending, 10)
	for i := range ps {
		ps[i] = &pending{}
	}
	if r.pop() != nil {
		t.Fatal("pop on empty ring")
	}
	for lap := 0; lap < 2; lap++ {
		for i := 0; i < 4; i++ {
			r.push(ps[lap*4+i])
		}
		if r.empty() {
			t.Fatal("ring empty after pushes")
		}
		for i := 0; i < 4; i++ {
			if got := r.pop(); got != ps[lap*4+i] {
				t.Fatalf("lap %d pop %d: wrong item", lap, i)
			}
		}
		if !r.empty() {
			t.Fatal("ring not empty after draining")
		}
	}
}

// TestSequentialReleaseReachesEveryShard pins the Sequential sequencer's
// hand-off: a submitter that releases a run of requests must run
// combining on exactly the shards it pushed to, even while another
// submitter releases the next run. A shard skipped there holds a request
// nobody decides, and its submitter waits forever; submitTrace's
// per-Submit deadline turns that into a failure with a goroutine dump.
// Many short runs at GOMAXPROCS >= 2 make the interleaving likely without
// the race detector.
func TestSequentialReleaseReachesEveryShard(t *testing.T) {
	if procs := runtime.GOMAXPROCS(0); procs < 2 {
		defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(2))
	}
	cfg, _ := rackLocalConfig(t, 16, 96, 3, 4)
	cfg.Sequential = true
	cfg.Shards = 4
	cfg.MaxInFlight = 64
	reqs := workload.CelloLike(120, 96, 5)
	rounds := 150
	if testing.Short() {
		rounds = 20
	}
	for round := 0; round < rounds; round++ {
		e, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		submitTrace(t, e, reqs, 8)
		res, err := e.Drain()
		if err != nil {
			t.Fatal(err)
		}
		if res.Served != len(reqs) {
			t.Fatalf("round %d: served %d of %d", round, res.Served, len(reqs))
		}
	}
}
