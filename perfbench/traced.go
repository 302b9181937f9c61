package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/experiments"
	"repro/internal/graph"
	"repro/internal/metrics"
	"repro/internal/obs"
	"repro/internal/offline"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/storage"
)

// The traced figure run recomputes a figure workload from the layers'
// public functions — workload, placement, offline (+graph), sched,
// storage — in the same order and on the same worker pool shape as
// experiments, timing every layer call. Its tables must digest equal to
// the untraced run's, which proves the instrumentation result-neutral.
// Spans are recorded at cell and phase granularity; per-call layers
// (sched decisions) are aggregated into counts and totals per cell.

// span is one traced interval, in seconds since the run began.
type span struct {
	ID     int     `json:"id"`
	Parent int     `json:"parent"` // -1 for the root
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"`
	End    float64 `json:"end_s"`
}

// spanLog collects spans in memory; it is written out once at the end.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func (l *spanLog) begin(parent int, name string) int {
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans = append(l.spans, span{ID: len(l.spans), Parent: parent, Name: name, Start: now})
	return len(l.spans) - 1
}

// end closes span id and returns its duration.
func (l *spanLog) end(id int) time.Duration {
	now := time.Since(l.t0).Seconds()
	l.mu.Lock()
	defer l.mu.Unlock()
	l.spans[id].End = now
	return time.Duration((now - l.spans[id].Start) * 1e9)
}

// layerTotals accumulates layer time and call counts; each cell owns one
// and the run sums them.
type layerTotals struct {
	workloadGen, placementGen time.Duration
	placementCalls            int
	build, solve, solveRF5    time.Duration
	nodes, edges              int
	online, batch             time.Duration
	onlineCalls, batchCalls   int64
	run                       time.Duration
	events                    float64
	cells, timedInCells       time.Duration // for the coverage ratio
}

func (a *layerTotals) add(b layerTotals) {
	a.workloadGen += b.workloadGen
	a.placementGen += b.placementGen
	a.placementCalls += b.placementCalls
	a.build += b.build
	a.solve += b.solve
	a.solveRF5 += b.solveRF5
	a.nodes += b.nodes
	a.edges += b.edges
	a.online += b.online
	a.batch += b.batch
	a.onlineCalls += b.onlineCalls
	a.batchCalls += b.batchCalls
	a.run += b.run
	a.events += b.events
	a.cells += b.cells
	a.timedInCells += b.timedInCells
}

// metrics maps the totals onto per-layer metric names. Times are sums over
// calls, so with parallel cells they can exceed the wall time.
func (a *layerTotals) metrics() map[string]float64 {
	self := a.run - a.online - a.batch
	m := map[string]float64{
		"workload.gen_s":      a.workloadGen.Seconds(),
		"placement.gen_s":     a.placementGen.Seconds(),
		"placement.calls":     float64(a.placementCalls),
		"offline.build_s":     a.build.Seconds(),
		"offline.solve_s":     a.solve.Seconds(),
		"offline.solve_s_rf5": a.solveRF5.Seconds(),
		"offline.graph_nodes": float64(a.nodes),
		"offline.graph_edges": float64(a.edges),
		"sched.online_s":      a.online.Seconds(),
		"sched.online_calls":  float64(a.onlineCalls),
		"sched.batch_s":       a.batch.Seconds(),
		"sched.batch_calls":   float64(a.batchCalls),
		"storage.run_s":       a.run.Seconds(),
		"storage.self_s":      self.Seconds(),
		"simkernel.events":    a.events,
	}
	if a.events > 0 {
		m["storage.ns_per_event"] = float64(self) / a.events
	}
	if a.cells > 0 {
		m["trace.coverage"] = float64(a.timedInCells) / float64(a.cells)
	}
	return m
}

// timedOnline and timedBatch wrap a scheduler, timing each decision call.
type timedOnline struct {
	inner sched.Online
	lt    *layerTotals
}

func (t timedOnline) Name() string { return t.inner.Name() }

func (t timedOnline) Schedule(r core.Request, v sched.View) core.DiskID {
	t0 := time.Now()
	d := t.inner.Schedule(r, v)
	t.lt.online += time.Since(t0)
	t.lt.onlineCalls++
	return d
}

type timedBatch struct {
	inner sched.Batch
	lt    *layerTotals
}

func (t timedBatch) Name() string { return t.inner.Name() }

func (t timedBatch) ScheduleBatch(reqs []core.Request, v sched.View) []core.DiskID {
	t0 := time.Now()
	out := t.inner.ScheduleBatch(reqs, v)
	t.lt.batch += time.Since(t0)
	t.lt.batchCalls++
	return out
}

// tracer is one traced computation: the span log and the run's totals.
type tracer struct {
	log     *spanLog
	root    int
	total   layerTotals
	mu      sync.Mutex
	replays []func(storage.RunOption) error // see countEvents
}

// genTrace times one trace generation.
func (t *tracer) genTrace(s experiments.Scale) []core.Request {
	id := t.log.begin(t.root, "workload.gen")
	reqs := experiments.Cello.Requests(s)
	t.total.workloadGen += t.log.end(id)
	return reqs
}

// genPlacement times one placement build into lt.
func (t *tracer) genPlacement(lt *layerTotals, parent int, s experiments.Scale, rf int, z float64) (*placement.Placement, error) {
	id := t.log.begin(parent, fmt.Sprintf("placement.gen rf=%d z=%.2f", rf, z))
	plc, err := placement.Generate(placement.GenerateConfig{
		NumDisks: s.NumDisks, NumBlocks: s.NumBlocks,
		ReplicationFactor: rf, ZipfExponent: z, Seed: s.Seed + 7,
	})
	lt.placementGen += t.log.end(id)
	lt.placementCalls++
	return plc, err
}

// cell times one measurement cell under parent: body runs with the cell's
// own totals, which are merged into the run's afterwards.
func (t *tracer) cell(parent int, name string, body func(lt *layerTotals, id int) error) error {
	var lt layerTotals
	id := t.log.begin(parent, name)
	err := body(&lt, id)
	lt.cells = t.log.end(id)
	lt.timedInCells = lt.placementGen + lt.build + lt.solve + lt.run
	t.mu.Lock()
	t.total.add(lt)
	t.mu.Unlock()
	return err
}

// pool runs n jobs over the worker pool shape experiments uses (jobs fed
// in index order, first error wins).
func pool(n int, job func(i int) error) error {
	jobs := make(chan int)
	errs := make(chan error, n)
	var wg sync.WaitGroup
	for w := 0; w < min(poolWorkers(), n); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				if err := job(i); err != nil {
					errs <- err
				}
			}
		}()
	}
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	close(errs)
	return <-errs
}

// poolWorkers is experiments' default cell parallelism.
func poolWorkers() int { return runtime.GOMAXPROCS(0)/2 + 1 }

// runOnline and runBatch time one storage run, scheduler included. The
// scheduler is built by a factory so countEvents can replay the run later.
func (t *tracer) runOnline(lt *layerTotals, parent int, cfg storage.Config, loc sched.Locator, newSched func() sched.Online, reqs []core.Request) (*storage.Result, error) {
	id := t.log.begin(parent, "storage.run")
	res, err := storage.RunOnline(cfg, loc, timedOnline{newSched(), lt}, reqs)
	lt.run += t.log.end(id)
	t.replay(func(opt storage.RunOption) error {
		_, err := storage.RunOnline(cfg, loc, newSched(), reqs, opt)
		return err
	})
	return res, err
}

func (t *tracer) runBatch(lt *layerTotals, parent int, cfg storage.Config, loc sched.Locator, newSched func() sched.Batch, reqs []core.Request, interval time.Duration) (*storage.Result, error) {
	id := t.log.begin(parent, "storage.run")
	res, err := storage.RunBatch(cfg, loc, timedBatch{newSched(), lt}, reqs, interval)
	lt.run += t.log.end(id)
	t.replay(func(opt storage.RunOption) error {
		_, err := storage.RunBatch(cfg, loc, newSched(), reqs, interval, opt)
		return err
	})
	return res, err
}

func (t *tracer) replay(run func(storage.RunOption) error) {
	t.mu.Lock()
	t.replays = append(t.replays, run)
	t.mu.Unlock()
}

// countEvents replays every timed storage run, untimed, with the
// run-metrics collector attached and sums the kernel's executed-event
// gauge. Counting during the timed runs would charge the collector's
// per-event updates to storage.self_s.
func (t *tracer) countEvents() error {
	events := make([]float64, len(t.replays))
	err := pool(len(t.replays), func(i int) error {
		col := obs.NewCollector()
		if err := t.replays[i](storage.WithCollector(col)); err != nil {
			return err
		}
		events[i] = col.Gauge("esched_sim_events_fired", "Simulation kernel events executed.").Value()
		return nil
	})
	for _, e := range events {
		t.total.events += e
	}
	return err
}

// algoCell is experiments' measurement cell (one algorithm on one
// placement and trace), rebuilt from the layer calls with each timed.
func (t *tracer) algoCell(lt *layerTotals, parent int, s experiments.Scale, reqs []core.Request, plc *placement.Placement, algo string, cost sched.CostConfig) (experiments.Run, error) {
	cfg := storage.DefaultConfig()
	cfg.NumDisks = s.NumDisks
	cfg.Shards = s.Shards
	if algo == experiments.AlgoMWIS {
		return t.mwisCell(lt, parent, s, reqs, plc, cfg)
	}
	var res *storage.Result
	var err error
	switch algo {
	case experiments.AlgoRandom:
		res, err = t.runOnline(lt, parent, cfg, plc.Locations, func() sched.Online { return sched.NewRandom(plc.Locations, s.Seed+1) }, reqs)
	case experiments.AlgoStatic:
		res, err = t.runOnline(lt, parent, cfg, plc.Locations, func() sched.Online { return sched.Static{Locations: plc.Locations} }, reqs)
	case experiments.AlgoHeuristic:
		res, err = t.runOnline(lt, parent, cfg, plc.Locations, func() sched.Online { return sched.Heuristic{Locations: plc.Locations, Cost: cost} }, reqs)
	case experiments.AlgoWSC:
		res, err = t.runBatch(lt, parent, cfg, plc.Locations, func() sched.Batch {
			return sched.WSC{Locations: plc.Locations, Cost: cost, Scratch: &sched.CoverScratch{}}
		}, reqs, s.BatchInterval)
	default:
		return experiments.Run{}, fmt.Errorf("unknown algorithm %q", algo)
	}
	if err != nil {
		return experiments.Run{}, err
	}
	return experiments.Run{
		Algo:       algo,
		NormEnergy: res.NormalizedEnergy(),
		SpinUps:    res.SpinUps,
		SpinDowns:  res.SpinDowns,
		Mean:       res.Response.Mean(),
		P90:        res.Response.Percentile(90),
		Response:   &res.Response,
		PerDisk:    res.PerDisk,
	}, nil
}

// mwisCell is offline.SolveRefined plus the per-disk breakdown, split into
// graph construction (offline.build) and everything after it
// (offline.solve: greedy MWIS, schedule derivation, local-search
// refinement, evaluation, breakdown).
func (t *tracer) mwisCell(lt *layerTotals, parent int, s experiments.Scale, reqs []core.Request, plc *placement.Placement, cfg storage.Config) (experiments.Run, error) {
	opts := offline.BuildOptions{
		MaxSuccessors: s.MWISSuccessors,
		MaxNodes:      s.MWISMaxNodes,
		Workers:       s.SolverWorkers(),
	}
	id := t.log.begin(parent, "offline.build")
	in, err := offline.Build(reqs, plc.Locations, cfg.Power, opts)
	lt.build += t.log.end(id)
	if err != nil {
		return experiments.Run{}, err
	}
	id = t.log.begin(parent, "offline.solve")
	perDisk, horizon, err := solveRefined(in, reqs, plc, cfg, s, max(opts.Workers, 1))
	lt.solve += t.log.end(id)
	lt.nodes += in.Graph.N()
	lt.edges += in.Graph.M()
	if err != nil {
		return experiments.Run{}, err
	}
	spinUps, spinDowns := 0, 0
	for _, st := range perDisk {
		spinUps += st.SpinUps
		spinDowns += st.SpinDowns
	}
	return experiments.Run{
		Algo:       experiments.AlgoMWIS,
		NormEnergy: offline.BreakdownEnergy(perDisk) / offline.AlwaysOnEnergy(cfg.Power, s.NumDisks, horizon),
		SpinUps:    spinUps,
		SpinDowns:  spinDowns,
		PerDisk:    perDisk,
	}, nil
}

// solveRefined replays offline.SolveRefined's steps after Build, including
// its two evaluations, so the timed work matches the untraced path.
func solveRefined(in *offline.Instance, reqs []core.Request, plc *placement.Placement, cfg storage.Config, s experiments.Scale, workers int) ([]diskmodel.Stats, time.Duration, error) {
	selected, _ := graph.ParallelGWMIN(in.Graph, workers)
	schedule, err := in.DeriveSchedule(reqs, plc.Locations, selected)
	if err != nil {
		return nil, 0, err
	}
	if _, err := offline.Evaluate(reqs, schedule, cfg.Power, plc.Locations); err != nil {
		return nil, 0, err
	}
	schedule, _, err = offline.Improve(reqs, schedule, cfg.Power, plc.Locations, s.MWISPasses)
	if err != nil {
		return nil, 0, err
	}
	if _, err := offline.Evaluate(reqs, schedule, cfg.Power, plc.Locations); err != nil {
		return nil, 0, err
	}
	horizon := offline.Horizon(reqs, cfg.Power)
	perDisk, err := offline.Breakdown(reqs, schedule, cfg.Power, s.NumDisks, horizon)
	return perDisk, horizon, err
}

// figTraced runs the traced recomputation of a figure workload and writes
// its span log to spansPath.
func figTraced(wl string, s experiments.Scale, spansPath string) figOut {
	t := &tracer{log: &spanLog{t0: time.Now()}}
	t.root = t.log.begin(-1, wl)
	var tables map[string]string
	var err error
	if wl == "sweep-cello" {
		tables, err = t.sweep(s)
	} else {
		tables, err = t.sim(s)
	}
	wall := t.log.end(t.root)
	if err == nil {
		err = t.countEvents()
	}
	fo := figOut{WallS: wall.Seconds(), Tables: tables, Layers: t.total.metrics()}
	if err != nil {
		fo.Err = err.Error()
	}
	if werr := writeJSON(spansPath, map[string]any{
		"workload": wl, "seed": s.Seed, "spans": t.log.spans, "layers": fo.Layers,
	}); werr != nil && fo.Err == "" {
		fo.Err = werr.Error()
	}
	return fo
}

// sweep mirrors experiments' replication sweep (Figures 6, 7, 8, 13).
func (t *tracer) sweep(s experiments.Scale) (map[string]string, error) {
	reqs := t.genTrace(s)
	cost := sched.DefaultCost(storage.DefaultConfig().Power)
	rfs, algos := experiments.ReplicationFactors(), experiments.Algorithms()
	placements := make([]*placement.Placement, len(rfs))
	for i, rf := range rfs {
		plc, err := t.genPlacement(&t.total, t.root, s, rf, 1)
		if err != nil {
			return nil, err
		}
		placements[i] = plc
	}
	runs := make([][]experiments.Run, len(rfs))
	for i := range runs {
		runs[i] = make([]experiments.Run, len(algos))
	}
	err := pool(len(rfs)*len(algos), func(i int) error {
		ri, ai := i/len(algos), i%len(algos)
		return t.cell(t.root, fmt.Sprintf("cell rf=%d %s", rfs[ri], algos[ai]), func(lt *layerTotals, id int) error {
			run, err := t.algoCell(lt, id, s, reqs, placements[ri], algos[ai], cost)
			runs[ri][ai] = run
			if rfs[ri] == 5 {
				lt.solveRF5 = lt.solve // the sweep's straggler cell
			}
			return err
		})
	})
	if err != nil {
		return nil, err
	}
	sw := &experiments.ReplicationSweep{Trace: experiments.Cello, Scale: s, RFs: rfs, Runs: map[int][]experiments.Run{}}
	for i, rf := range rfs {
		sw.Runs[rf] = runs[i]
	}
	return map[string]string{
		"6": sw.Figure6().Render(), "7": sw.Figure7().Render(),
		"8": sw.Figure8().Render(), "13": sw.Figure13().Render(),
	}, nil
}

// sim mirrors experiments.Figure10, Figure11 and Figure12 on Cello,
// rendering the same tables.
func (t *tracer) sim(s experiments.Scale) (map[string]string, error) {
	tables := map[string]string{}
	for _, fig := range []struct {
		n string
		f func(experiments.Scale) (*experiments.Table, error)
	}{{"10", t.figure10}, {"11", t.figure11}, {"12", t.figure12}} {
		tb, err := fig.f(s)
		if err != nil {
			return nil, fmt.Errorf("figure %s: %w", fig.n, err)
		}
		tables[fig.n] = tb.Render()
	}
	return tables, nil
}

func (t *tracer) figure10(s experiments.Scale) (*experiments.Table, error) {
	reqs := t.genTrace(s)
	cost := sched.DefaultCost(storage.DefaultConfig().Power)
	algos := []string{experiments.AlgoRandom, experiments.AlgoStatic, experiments.AlgoHeuristic}
	tb := &experiments.Table{
		Title:  fmt.Sprintf("Figure 10: normalized energy vs replication factor and data locality z (%s)", experiments.Cello),
		Header: append([]string{"z", "replication"}, algos...),
	}
	type point struct {
		z  float64
		rf int
	}
	var points []point
	for _, z := range s.ZipfSteps {
		for _, rf := range experiments.ReplicationFactors() {
			points = append(points, point{z, rf})
		}
	}
	energies := make([][]float64, len(points))
	err := pool(len(points), func(i int) error {
		p := points[i]
		return t.cell(t.root, fmt.Sprintf("fig10 z=%.2f rf=%d", p.z, p.rf), func(lt *layerTotals, id int) error {
			plc, err := t.genPlacement(lt, id, s, p.rf, p.z)
			if err != nil {
				return err
			}
			energies[i] = make([]float64, len(algos))
			for a, algo := range algos {
				run, err := t.algoCell(lt, id, s, reqs, plc, algo, cost)
				if err != nil {
					return err
				}
				energies[i][a] = run.NormEnergy
			}
			return nil
		})
	})
	if err != nil {
		return nil, err
	}
	for i, p := range points {
		row := []string{fmt.Sprintf("%.2f", p.z), fmt.Sprint(p.rf)}
		for a := range algos {
			row = append(row, fmt.Sprintf("%.3f", energies[i][a]))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}

func (t *tracer) figure11(s experiments.Scale) (*experiments.Table, error) {
	reqs := t.genTrace(s)
	plc, err := t.genPlacement(&t.total, t.root, s, 3, 1)
	if err != nil {
		return nil, err
	}
	pwr := storage.DefaultConfig().Power
	tb := &experiments.Table{
		Title:  fmt.Sprintf("Figure 11: cost-function tradeoff at replication factor 3 (%s); energy and response normalized to alpha=0", experiments.Cello),
		Header: []string{"beta", "alpha", "norm energy", "norm response", "energy (abs)", "response (abs)"},
	}
	for _, beta := range s.Betas {
		var baseEnergy float64
		var baseResp time.Duration
		for i, alpha := range s.Alphas {
			cost := sched.CostConfig{Alpha: alpha, Beta: beta, Power: pwr}
			var run experiments.Run
			err := t.cell(t.root, fmt.Sprintf("fig11 beta=%v alpha=%v", beta, alpha), func(lt *layerTotals, id int) error {
				var err error
				run, err = t.algoCell(lt, id, s, reqs, plc, experiments.AlgoHeuristic, cost)
				return err
			})
			if err != nil {
				return nil, err
			}
			if i == 0 {
				baseEnergy = run.NormEnergy
				baseResp = run.Mean
			}
			tb.AddRow(fmt.Sprintf("%.0f", beta), fmt.Sprintf("%.1f", alpha),
				fmt.Sprintf("%.3f", run.NormEnergy/baseEnergy),
				fmt.Sprintf("%.3f", float64(run.Mean)/float64(baseResp)),
				fmt.Sprintf("%.3f", run.NormEnergy),
				run.Mean.Round(time.Millisecond).String())
		}
	}
	return tb, nil
}

func (t *tracer) figure12(s experiments.Scale) (*experiments.Table, error) {
	reqs := t.genTrace(s)
	plc, err := t.genPlacement(&t.total, t.root, s, 3, 1)
	if err != nil {
		return nil, err
	}
	cost := sched.DefaultCost(storage.DefaultConfig().Power)
	thresholds := metrics.LogSpace(time.Millisecond, 30*time.Second, 14)
	names := []string{"always-on"}
	var ccdfs [][]float64
	err = t.cell(t.root, "fig12 always-on", func(lt *layerTotals, id int) error {
		cfg := storage.DefaultConfig()
		cfg.NumDisks = s.NumDisks
		cfg.Policy = power.AlwaysOn{}
		cfg.InitialState = core.StateIdle
		res, err := t.runOnline(lt, id, cfg, plc.Locations, func() sched.Online { return sched.Static{Locations: plc.Locations} }, reqs)
		if err == nil {
			ccdfs = append(ccdfs, res.Response.CCDF(thresholds))
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	for _, algo := range []string{experiments.AlgoRandom, experiments.AlgoStatic, experiments.AlgoHeuristic, experiments.AlgoWSC} {
		err := t.cell(t.root, "fig12 "+algo, func(lt *layerTotals, id int) error {
			run, err := t.algoCell(lt, id, s, reqs, plc, algo, cost)
			if err == nil {
				names = append(names, algo)
				ccdfs = append(ccdfs, run.Response.CCDF(thresholds))
			}
			return err
		})
		if err != nil {
			return nil, err
		}
	}
	tb := &experiments.Table{
		Title:  fmt.Sprintf("Figure 12: P[response time > x] at replication factor 3 (%s)", experiments.Cello),
		Header: append([]string{"x"}, names...),
	}
	for i, x := range thresholds {
		row := []string{x.Round(time.Millisecond).String()}
		for _, c := range ccdfs {
			row = append(row, fmt.Sprintf("%.4f", c[i]))
		}
		tb.AddRow(row...)
	}
	return tb, nil
}
