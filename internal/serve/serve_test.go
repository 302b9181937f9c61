package serve

import (
	"bytes"
	"errors"
	"runtime"
	"sync"
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

func testConfig(t *testing.T, disks, blocks, rf int) (Config, *placement.Placement) {
	t.Helper()
	p := testPlacement(t, disks, blocks, rf)
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

// submitDeadline bounds one Submit in these tests. A request that waits
// longer has hung: the test fails at once with every goroutine's stack
// rather than running into the test binary's timeout.
const submitDeadline = 20 * time.Second

// submitFunc is a watched Engine.Submit with no per-request deadline.
type submitFunc func(core.Request) (Decision, error)

// submitters runs body on `workers` goroutines (worker g gets g) and
// waits for all of them. Every Submit a worker makes through its submit
// func is held to submitDeadline; an overrun fails the test with a
// goroutine dump. Workers report their own errors with t.Error, and a
// failed worker fails the test before submitters returns.
func submitters(t *testing.T, e *Engine, workers int, body func(g int, submit submitFunc)) {
	t.Helper()
	var wg sync.WaitGroup
	// since[g] is when worker g's current Submit began (unix ns), 0 if idle.
	since := make([]atomic.Int64, workers)
	for g := 0; g < workers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			body(g, func(r core.Request) (Decision, error) {
				since[g].Store(time.Now().UnixNano())
				defer since[g].Store(0)
				return e.Submit(r, 0)
			})
		}(g)
	}
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	tick := time.NewTicker(50 * time.Millisecond)
	defer tick.Stop()
	for {
		select {
		case <-done:
			if t.Failed() {
				t.FailNow()
			}
			return
		case now := <-tick.C:
			for g := range since {
				if at := since[g].Load(); at != 0 && now.UnixNano()-at > int64(submitDeadline) {
					stacks := make([]byte, 1<<20)
					stacks = stacks[:runtime.Stack(stacks, true)]
					t.Fatalf("submitter %d: Submit waited over %v\n%s", g, submitDeadline, stacks)
				}
			}
		}
	}
}

// submitOne is one watched Submit from the test goroutine.
func submitOne(t *testing.T, e *Engine, r core.Request) Decision {
	t.Helper()
	var d Decision
	submitters(t, e, 1, func(_ int, submit submitFunc) {
		var err error
		if d, err = submit(r); err != nil {
			t.Error(err)
		}
	})
	return d
}

// cycleBlocks returns n requests for blocks 0, 1, ..., blocks-1, 0, ...
func cycleBlocks(n, blocks int) []core.Request {
	reqs := make([]core.Request, n)
	for i := range reqs {
		reqs[i] = core.Request{Block: core.BlockID(i % blocks)}
	}
	return reqs
}

// submitTrace feeds a pre-generated trace to an engine with `workers`
// concurrent submitters (worker g owns IDs congruent to g), each
// submitting its IDs in order. workers=1 is the serial baseline.
func submitTrace(t *testing.T, e *Engine, reqs []core.Request, workers int) {
	t.Helper()
	submitters(t, e, workers, func(g int, submit submitFunc) {
		for i := g; i < len(reqs); i += workers {
			if _, err := submit(reqs[i]); err != nil {
				t.Error(err)
				return
			}
		}
	})
}

// runSequential runs one full serving pass over reqs and returns the final
// accounting plus the canonical JSONL event log.
func runSequential(t *testing.T, cfg Config, reqs []core.Request, workers int) (*storage.Result, []byte) {
	t.Helper()
	var buf bytes.Buffer
	tr := obs.NewTracer(256)
	tr.SetSink(&buf, false)
	cfg.Sequential = true
	cfg.Tracer = tr
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, reqs, workers)
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	return res, buf.Bytes()
}

// TestSequentialDeterminism is the satellite determinism check: the same
// request sequence served serially and highly concurrently must yield
// identical energy accounting — and, stronger, a byte-identical event log.
func TestSequentialDeterminism(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 10, 80, 3)
	cfg.MaxInFlight = 128
	reqs := workload.CelloLike(400, 80, 11)
	serial, serialLog := runSequential(t, cfg, reqs, 1)
	if serial.Served != 400 || serial.Dropped != 0 {
		t.Fatalf("serial served/dropped = %d/%d", serial.Served, serial.Dropped)
	}
	if serial.Energy <= 0 {
		t.Fatal("no energy accounted")
	}
	for _, workers := range []int{4, 16} {
		conc, concLog := runSequential(t, cfg, reqs, workers)
		if conc.Energy != serial.Energy {
			t.Errorf("workers=%d: energy %v != serial %v", workers, conc.Energy, serial.Energy)
		}
		if conc.EnergyByState != serial.EnergyByState {
			t.Errorf("workers=%d: by-state %v != serial %v", workers, conc.EnergyByState, serial.EnergyByState)
		}
		if conc.Served != serial.Served || conc.Dropped != serial.Dropped ||
			conc.SpinUps != serial.SpinUps || conc.SpinDowns != serial.SpinDowns ||
			conc.Horizon != serial.Horizon {
			t.Errorf("workers=%d: counters diverge: %+v vs %+v", workers, conc, serial)
		}
		if !bytes.Equal(concLog, serialLog) {
			t.Errorf("workers=%d: event log differs from serial run", workers)
		}
	}
}

// TestSequentialDoctorClean attaches the full monitor suite to a concurrent
// sequential run: a serving run must satisfy every batch-path invariant.
func TestSequentialDoctorClean(t *testing.T) {
	t.Parallel()
	cfg, p := testConfig(t, 8, 60, 2)
	cfg.MaxInFlight = 64
	mon := monitor.NewSuite(monitor.Config{
		Power:     cfg.System.Power,
		Mech:      cfg.System.Mech,
		Policy:    cfg.System.Policy,
		Locations: p.Locations,
	})
	cfg.Sequential = true
	cfg.Tracer = obs.NewTracer(256)
	cfg.Monitor = mon
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	submitTrace(t, e, workload.CelloLike(300, 60, 3), 8)
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
	if !mon.Passed() {
		var rep bytes.Buffer
		mon.WriteReport(&rep)
		t.Fatalf("doctor violations on a live serving run:\n%s", rep.String())
	}
}

// TestWSCRoundsServeAll runs live (wall-clock) mode with WSC decision
// rounds under concurrent submitters and checks full conservation.
func TestWSCRoundsServeAll(t *testing.T) {
	t.Parallel()
	cfg, p := testConfig(t, 8, 60, 2)
	cfg.Mode = ModeWSC
	cfg.MaxInFlight = 64
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
	const n = 200
	submitTrace(t, e, cycleBlocks(n, 60), 8)
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
		t.Fatalf("doctor violations:\n%s", rep.String())
	}
}

// TestBackpressureQueueFull parks requests behind a withheld sequential ID
// so the admission bound is hit deterministically.
func TestBackpressureQueueFull(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	cfg.Sequential = true
	cfg.MaxInFlight = 4
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// IDs 1..4 can never be decided while ID 0 is withheld: they park in
	// the reorder buffer and hold their admission slots.
	var wg sync.WaitGroup
	for id := 1; id <= 4; id++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			_, err := e.Submit(core.Request{ID: core.RequestID(id), Block: 1}, 0)
			if !errors.Is(err, ErrDraining) {
				t.Errorf("parked request %d: err = %v, want ErrDraining", id, err)
			}
		}(id)
	}
	waitFor(t, func() bool { return e.inflight.Load() == 4 })
	if _, err := e.Submit(core.Request{ID: 5, Block: 1}, 0); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("overflow submit: err = %v, want ErrQueueFull", err)
	}
	// Graceful drain rejects the parked backlog (their predecessor never
	// arrives) and still reconciles cleanly.
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	wg.Wait()
	if res.Served != 0 || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want 0/0", res.Served, res.Dropped)
	}
	if _, err := e.Submit(core.Request{ID: 6, Block: 1}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
}

// TestGracefulDrain checks that in-flight work completes and accounting
// reconciles when the engine is stopped mid-service.
func TestGracefulDrain(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 6, 40, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	const n = 150
	submitTrace(t, e, cycleBlocks(n, 40), 1)
	// Decisions are made; disk service is still outstanding in virtual time.
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != n || res.Dropped != 0 {
		t.Fatalf("served/dropped = %d/%d, want %d/0", res.Served, res.Dropped, n)
	}
	if res.Energy <= 0 {
		t.Fatal("no energy accounted")
	}
	if _, err := e.Submit(core.Request{Block: 1}, 0); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: err = %v, want ErrDraining", err)
	}
	if res2, err := e.Drain(); err != nil || res2 != res {
		t.Fatalf("second Drain = (%p, %v), want same result", res2, err)
	}
	snap := e.Snapshot()
	if snap.Totals.Served != n || !snap.Totals.Draining {
		t.Fatalf("final snapshot totals = %+v", snap.Totals)
	}
}

// TestDeadlineExpiry blocks the decision loop long enough for a short
// per-request deadline to lapse; the request must be dropped (504 path)
// and the run must still reconcile.
func TestDeadlineExpiry(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	blockLoop(e, 60*time.Millisecond)
	if _, err := e.Submit(core.Request{Block: 1}, time.Millisecond); !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// A generous deadline on a live loop decides fine.
	if _, err := e.Submit(core.Request{Block: 1}, time.Minute); err != nil {
		t.Fatalf("generous deadline: %v", err)
	}
	res, err := e.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res.Served != 1 || res.Dropped != 1 {
		t.Fatalf("served/dropped = %d/%d, want 1/1", res.Served, res.Dropped)
	}
}

func TestSubmitUnknownBlock(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Submit(core.Request{Block: 999}, 0); !errors.Is(err, ErrNoReplica) {
		t.Fatalf("err = %v, want ErrNoReplica", err)
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestDecisionFields sanity-checks the decision surface against the view.
func TestDecisionFields(t *testing.T) {
	t.Parallel()
	cfg, p := testConfig(t, 4, 20, 2)
	e, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d := submitOne(t, e, core.Request{Block: 3})
	locs := p.Locations(3)
	found := false
	for _, l := range locs {
		if l == d.Disk {
			found = true
		}
	}
	if !found {
		t.Fatalf("decision disk %d not a replica of block 3 (%v)", d.Disk, locs)
	}
	if d.Cost < 0 || d.EnergyJ < 0 {
		t.Fatalf("negative cost %v / energy %v", d.Cost, d.EnergyJ)
	}
	if e.Decisions() != 1 {
		t.Fatalf("Decisions() = %d, want 1", e.Decisions())
	}
	if _, err := e.Drain(); err != nil {
		t.Fatal(err)
	}
}

// TestNewValidation covers constructor rejections.
func TestNewValidation(t *testing.T) {
	t.Parallel()
	cfg, _ := testConfig(t, 4, 20, 2)
	if _, err := New(Config{System: cfg.System}); err == nil {
		t.Error("nil router accepted")
	}
	bad := cfg
	bad.System.NumDisks = 5
	if _, err := New(bad); err == nil {
		t.Error("router/system disk mismatch accepted")
	}
	sharded := cfg
	sharded.System.Shards = 4
	if _, err := New(sharded); err == nil {
		t.Error("sharded kernel accepted on the serving path")
	}
}

// blockLoop occupies every decision shard for d without deciding: it seizes
// all combining tokens, so submissions queue in the rings until release.
func blockLoop(e *Engine, d time.Duration) {
	acquired := make(chan struct{})
	go func() {
		for _, s := range e.shards {
			for !s.tok.CompareAndSwap(0, 1) {
				time.Sleep(time.Microsecond)
			}
		}
		close(acquired)
		time.Sleep(d)
		for _, s := range e.shards {
			s.tok.Store(0)
		}
		// Combine anything that queued while the tokens were held, exactly
		// as a real holder's release-recheck would.
		for _, s := range e.shards {
			if !s.ring.empty() {
				e.combineOn(s)
			}
		}
	}()
	<-acquired
}

func waitFor(t *testing.T, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition not reached in 5s")
		}
		time.Sleep(time.Millisecond)
	}
}
