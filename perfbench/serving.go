package main

import (
	"bufio"
	"bytes"
	"cmp"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/core"
	"repro/internal/diskmodel"
	"repro/internal/obs"
	"repro/internal/placement"
	"repro/internal/power"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/storage"
	"repro/internal/workload"
)

// The serving workload, serve-batch, runs `eschedd serve -mode wsc
// -shards 2` (rack-local placement) as a child process and drives it over
// loopback HTTP with the benchmark's own generator (loadgen.go): rounds of
// a closed-loop job of compact POST /v1/schedule/batch requests, 64
// Financial-like blocks per POST, a window of POSTs in flight on one
// connection. Traced runs add an open-loop rate ladder of single-request
// JSON POST /v1/schedule calls.
//
// The closed-loop job is pipelined by one busy-polling goroutine (see
// pipeline), and the daemon runs with GOMAXPROCS=1: two busy threads on
// at least two cores, neither of which ever idles.
//
// Every reply is checked: a 200's disk must hold a replica of its block,
// the daemon's /state decision count must equal the client's successes,
// and the drain summary must account for every decision.

// Serving parameters. Placement flags are passed explicitly so the
// benchmark pins the workload even if eschedd's defaults move.
const (
	numDisks  = 180
	numBlocks = 30000
	rf        = 3
	// racks is the daemon's -shards: one rack-local placement rack per
	// decision shard.
	racks     = 2
	perPost   = 64    // blocks per batch POST
	window    = 4     // POSTs in flight in a closed-loop job
	jobBlocks = 48000 // blocks per closed-loop job, one job per round
	// serveConns keep-alive connections carry the open-loop ladder.
	serveConns = 2
	// daemonProcs is the daemon's GOMAXPROCS: with the generator busy on
	// one core, a second P could only take turns with it.
	daemonProcs = 1
	// serveSetupReps daemon starts are timed for setup_s; the last one
	// serves the session.
	serveSetupReps = 9
	refRate        = 2000
	// A round starts every roundPeriod (at least 3 per run), so the
	// simulated disks work off each job's burst before the next one and
	// the session spans the whole measuring time.
	roundPeriod = time.Second
	// The traced open-loop ladder makes ladderPasses passes over
	// openRates, a slice of openSlice at each rate.
	openSlice    = 500 * time.Millisecond
	ladderPasses = 3
)

var openRates = []float64{1000, refRate, 4000, 8000}

// daemon is one running eschedd.
type daemon struct {
	cmd            *exec.Cmd
	base           string
	stdout, stderr bytes.Buffer
	setup          time.Duration
}

var ctl = &http.Client{Timeout: 10 * time.Second}

func startDaemon(r *run, n int) (*daemon, error) {
	addrFile := filepath.Join(r.work, fmt.Sprintf("addr-%d", n))
	d := &daemon{cmd: exec.Command(r.eschedd, "serve", "-addr", "127.0.0.1:0", "-addrfile", addrFile,
		"-disks", fmt.Sprint(numDisks), "-blocks", fmt.Sprint(numBlocks), "-rf", fmt.Sprint(rf),
		"-z", "1", "-seed", fmt.Sprint(r.seed), "-mode", "wsc", "-shards", fmt.Sprint(racks))}
	d.cmd.Env = append(os.Environ(), fmt.Sprintf("GOMAXPROCS=%d", daemonProcs))
	d.cmd.Stdout, d.cmd.Stderr = &d.stdout, &d.stderr
	t0 := time.Now()
	if err := startProc(d.cmd); err != nil {
		return nil, err
	}
	for deadline := t0.Add(30 * time.Second); time.Now().Before(deadline); waitUntil(time.Now().Add(250 * time.Microsecond)) {
		if d.base == "" {
			b, err := os.ReadFile(addrFile)
			if err != nil || !bytes.HasSuffix(b, []byte("\n")) {
				continue
			}
			d.base = "http://" + strings.TrimSpace(string(b))
		}
		resp, err := ctl.Get(d.base + "/healthz")
		if err != nil {
			continue
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			d.setup = time.Since(t0)
			return d, nil
		}
	}
	d.cmd.Process.Kill()
	waitProc(d.cmd)
	return nil, fmt.Errorf("eschedd not healthy after 30s: %s", d.stderr.String())
}

// drainSummary is what eschedd prints after a graceful drain.
type drainSummary struct {
	decisions, served, dropped int64
	energyJ                    float64
	ok                         bool
}

var (
	decisionsRe = regexp.MustCompile(`(?m)^decisions: (\d+)$`)
	energyRe    = regexp.MustCompile(`(?m)^energy: ([0-9.]+) J`)
	requestsRe  = regexp.MustCompile(`(?m)^requests: (\d+) served, (\d+) dropped$`)
)

func parseDrain(out string) drainSummary {
	d, r, e := decisionsRe.FindStringSubmatch(out), requestsRe.FindStringSubmatch(out), energyRe.FindStringSubmatch(out)
	if d == nil || r == nil || e == nil {
		return drainSummary{}
	}
	atoi := func(s string) int64 { v, _ := strconv.ParseInt(s, 10, 64); return v }
	energy, _ := strconv.ParseFloat(e[1], 64)
	return drainSummary{decisions: atoi(d[1]), served: atoi(r[1]), dropped: atoi(r[2]), energyJ: energy, ok: true}
}

// stop drains the daemon with SIGTERM and waits for it to exit.
func (d *daemon) stop() (drain time.Duration, rssMB float64, sum drainSummary, err error) {
	ctl.CloseIdleConnections()
	t0 := time.Now()
	if err := d.cmd.Process.Signal(syscall.SIGTERM); err != nil {
		return 0, 0, sum, err
	}
	rssMB, err = waitProc(d.cmd)
	drain = time.Since(t0)
	if err != nil {
		return drain, rssMB, sum, fmt.Errorf("eschedd: %w: %s", err, d.stderr.String())
	}
	return drain, rssMB, parseDrain(d.stdout.String()), nil
}

// peakRSS is the daemon's peak resident set so far (VmHWM), in MB.
func (d *daemon) peakRSS() (float64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", d.cmd.Process.Pid))
	if err != nil {
		return 0, err
	}
	for _, l := range strings.Split(string(b), "\n") {
		if f := strings.Fields(l); len(f) == 3 && f[0] == "VmHWM:" && f[2] == "kB" {
			kb, err := strconv.ParseFloat(f[1], 64)
			return kb / 1024, err
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%d/status", d.cmd.Process.Pid)
}

// daemonState is the part of /state the benchmark reads.
type daemonState struct {
	Decisions uint64 `json:"decisions"`
}

func (d *daemon) state() (daemonState, error) {
	var st daemonState
	resp, err := ctl.Get(d.base + "/state")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	return st, json.NewDecoder(resp.Body).Decode(&st)
}

// scrape reads /metrics as a map from series (name plus labels) to value.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := ctl.Get(d.base + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	return parseProm(resp.Body), nil
}

func parseProm(r io.Reader) map[string]float64 {
	m := map[string]float64{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m
}

// replicaPlacement recomputes the daemon's placement from its flags.
func replicaPlacement(seed int64) (*placement.Placement, error) {
	return placement.GenerateRackLocal(placement.GenerateConfig{NumDisks: numDisks, NumBlocks: numBlocks,
		ReplicationFactor: rf, ZipfExponent: 1, Seed: seed}, racks)
}

// replyCheck tallies one phase's replies against the replica placement.
type replyCheck struct {
	plc                  *placement.Placement
	sent, ok, failed     int64
	wrongReplica         int64
	firstWrong, firstErr string
}

func (c *replyCheck) add(s sample) {
	blocks := s.blocks
	c.sent += int64(len(blocks))
	if s.err != nil {
		c.failed += int64(len(blocks))
		if c.firstErr == "" {
			c.firstErr = s.err.Error()
		}
		return
	}
	for i, b := range blocks {
		d := s.disks[i]
		if d == core.InvalidDisk {
			c.failed++
			continue
		}
		c.ok++
		if !holdsReplica(c.plc, b, d) {
			c.wrongReplica++
			if c.firstWrong == "" {
				c.firstWrong = fmt.Sprintf("block %d on disk %d, replicas %v", b, d, c.plc.Locations(b))
			}
		}
	}
}

func (c *replyCheck) merge(o *replyCheck) {
	c.sent += o.sent
	c.ok += o.ok
	c.failed += o.failed
	c.wrongReplica += o.wrongReplica
	c.firstWrong = cmp.Or(c.firstWrong, o.firstWrong)
	c.firstErr = cmp.Or(c.firstErr, o.firstErr)
}

func holdsReplica(plc *placement.Placement, b core.BlockID, d core.DiskID) bool {
	for _, x := range plc.Locations(b) {
		if x == d {
			return true
		}
	}
	return false
}

// blockCursor hands out consecutive slices of a cyclic block sequence.
type blockCursor struct {
	seq []core.BlockID
	pos int
}

func (c *blockCursor) take(n int) []core.BlockID {
	out := make([]core.BlockID, n)
	for i := range out {
		out[i] = c.seq[c.pos%len(c.seq)]
		c.pos++
	}
	return out
}

// session is one daemon being driven: the block stream and the running
// reply tally.
type session struct {
	d     *daemon
	cur   *blockCursor
	total *replyCheck
}

// job runs one closed-loop job of n blocks and checks its replies. spans,
// when non-nil, receives a span per POST under parent.
func (s *session) job(n int, spans *spanLog, parent int) ([]sample, time.Duration, *replyCheck) {
	samples, wall := pipeline(strings.TrimPrefix(s.d.base, "http://"), s.cur.take(n), perPost, window, spans, parent)
	return samples, wall, s.tally(samples)
}

// tally checks a phase's replies and adds them to the session's tally.
func (s *session) tally(samples []sample) *replyCheck {
	chk := &replyCheck{plc: s.total.plc}
	for _, sm := range samples {
		chk.add(sm)
	}
	s.total.merge(chk)
	return chk
}

// latencies returns the samples' latencies in milliseconds.
func latencies(samples []sample) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = ms(s.latency())
	}
	return out
}

// roundStats collects the closed-loop jobs' per-round measurements, which
// the metrics are interquartile means of.
type roundStats struct {
	jobWall, jobRate []float64
	jobP50, jobP99   []float64
}

// round runs one measuring round: one closed-loop job.
func (s *session) round(st *roundStats) {
	samples, wall, chk := s.job(jobBlocks, nil, 0)
	lat := latencies(samples)
	st.jobWall = append(st.jobWall, wall.Seconds())
	st.jobRate = append(st.jobRate, float64(chk.ok)/wall.Seconds())
	st.jobP50 = append(st.jobP50, tailPercentile(lat, 50).Value)
	st.jobP99 = append(st.jobP99, tailPercentile(lat, 99).Value)
}

// report sets the end-to-end serving metrics from the rounds.
func (st *roundStats) report(r *run) {
	r.set("wall_s", midMean(st.jobWall))
	r.set("decisions_per_s", midMean(st.jobRate))
	r.detail["job_wall_s"] = st.jobWall
	// The job's latency is per POST. Its tail, serve.http_rtt_p99_us, is a
	// per-layer metric: closed-loop p99s spread by about a quarter of their
	// median over ten runs on a 2-core VM, too much to gate a change on.
	r.set("lat_p50_ms", midMean(st.jobP50))
	r.detail["lat_ms"] = map[string][]float64{"p50": st.jobP50, "p99": st.jobP99}
}

// rateAcc pools one open-loop rate's slices across the ladder's passes.
type rateAcc struct {
	lat, late    []float64 // from the due time; generator lateness
	sent, failed int64
	backlog      bool
}

// ladder runs the open-loop rate ladder over serveConns connections:
// ladderPasses passes, each a slice at every rate, pooled per rate. It
// reports the reference rate's latency, max_rate_ok and the generator's
// lateness.
func (s *session) ladder(r *run) {
	var conns []*conn
	for i := 0; i < serveConns; i++ {
		c := newConn(s.d.base)
		defer c.close()
		conns = append(conns, c)
	}
	accs := map[float64]*rateAcc{}
	for pass := 0; pass < ladderPasses; pass++ {
		for _, rate := range openRates {
			n := int(rate * openSlice.Seconds())
			samples, _ := phase{conns: conns, blocks: s.cur.take(n), rate: rate, overrun: openSlice / 2}.run()
			chk := s.tally(samples)
			acc := accs[rate]
			if acc == nil {
				acc = &rateAcc{}
				accs[rate] = acc
			}
			lag := make([]float64, len(samples))
			for i, sm := range samples {
				lag[i] = ms(sm.lag())
				acc.late = append(acc.late, ms(sm.genLate()))
			}
			acc.lat = append(acc.lat, latencies(samples)...)
			acc.sent += chk.sent
			acc.failed += chk.failed
			acc.backlog = acc.backlog || growingBacklog(lag) || chk.sent < int64(n)
		}
	}
	// One request in flight per connection: the latency from the due time
	// is dominated by how fast idle cores wake.
	ref := accs[refRate]
	r.set("serve.ref_p50_ms", tailPercentile(ref.lat, 50).Value)
	r.set("serve.ref_p99_ms", tailPercentile(ref.lat, 99).Value)
	var ladder []ratePhase
	var late []float64
	for _, rate := range openRates {
		acc := accs[rate]
		late = append(late, acc.late...)
		ladder = append(ladder, ratePhase{Rate: rate, P99Ms: tailPercentile(acc.lat, 99).Value,
			Attempted: acc.sent, Failed: acc.failed, Backlog: acc.backlog,
			LateP99Ms: tailPercentile(acc.late, 99).Value})
	}
	r.set("serve.max_rate_ok", maxRateOK(ladder))
	r.detail["rate_ladder"] = ladder
	r.set("loadgen.late_p50_ms", tailPercentile(late, 50).Value)
	r.set("loadgen.late_p99_ms", tailPercentile(late, 99).Value)
}

func runServing(r *run) error {
	if r.eschedd == "" {
		return fmt.Errorf("serve-batch needs -eschedd")
	}
	if runtime.NumCPU() < 2 {
		return fmt.Errorf("serve-batch needs 2 CPUs: the generator busy-polls one")
	}
	plc, err := replicaPlacement(r.seed)
	if err != nil {
		return err
	}
	reqs := workload.FinancialLike(200000, numBlocks, r.seed)
	cur := &blockCursor{seq: make([]core.BlockID, len(reqs))}
	for i, q := range reqs {
		cur.seq[i] = q.Block
	}

	var setups []float64
	var d *daemon
	for i := 0; i < serveSetupReps; i++ {
		if d, err = startDaemon(r, i); err != nil {
			return err
		}
		setups = append(setups, d.setup.Seconds())
		if i < serveSetupReps-1 {
			// eschedd installs its SIGTERM handler just after it starts
			// serving; a SIGTERM in between kills it without a drain.
			time.Sleep(50 * time.Millisecond)
			if _, _, _, err := d.stop(); err != nil {
				return err
			}
		}
	}
	r.set("setup_s", median(setups))
	r.detail["setup_s"] = setups
	running := true
	defer func() {
		if running {
			d.cmd.Process.Kill()
			waitProc(d.cmd)
		}
	}()

	st0, err := d.state()
	if err != nil {
		return err
	}
	s := &session{d: d, cur: cur, total: &replyCheck{plc: plc}}
	s.job(jobBlocks, nil, 0) // warm-up, not measured

	var before map[string]float64
	if r.trace {
		if before, err = d.scrape(); err != nil {
			return err
		}
	}
	// Rounds spread the jobs over the whole measuring time, and each
	// metric is an interquartile mean over rounds, so a burst of host noise
	// spoils one round rather than the only sample.
	st := &roundStats{}
	rounds := max(3, int(r.seconds/roundPeriod))
	start := time.Now()
	for i := 0; i < rounds; i++ {
		waitUntil(start.Add(time.Duration(i) * roundPeriod))
		s.round(st)
	}
	if r.trace {
		after, err := d.scrape()
		if err != nil {
			return err
		}
		servePhaseMetrics(r, before, after)
		r.set("serve.http_rtt_p50_us", midMean(st.jobP50)*1e3)
		r.set("serve.http_rtt_p99_us", midMean(st.jobP99)*1e3)
		s.ladder(r)
	}
	st.report(r)
	if r.trace {
		// One more closed-loop job with a span per request shows what
		// recording spans costs.
		spans := &spanLog{t0: time.Now()}
		root := spans.begin(-1, "closed job")
		_, twall, _ := s.job(jobBlocks, spans, root)
		spans.end(root)
		r.set("trace.overhead_s", twall.Seconds()-r.values["wall_s"])
		r.detail["traced_wall_s"] = twall.Seconds()
		path := filepath.Join(r.work, "spans.json")
		if err := writeJSON(path, map[string]any{"workload": r.workload, "seed": r.seed, "spans": spans.spans}); err != nil {
			return err
		}
		r.detail["spans"] = path
	}

	stEnd, err := d.state()
	if err != nil {
		return err
	}
	// peak_rss_mb is the peak while serving. The drain that follows
	// settles the whole session's backlog; in the sharded mode it replays
	// every shard journal and its peak, several times the serving peak,
	// swings with where the collector happens to run.
	serveRSS, err := d.peakRSS()
	if err != nil {
		return err
	}
	drain, rss, sum, err := d.stop()
	running = false
	if err != nil {
		return err
	}
	r.set("peak_rss_mb", serveRSS)
	r.set("storage.drain_peak_rss_mb", rss)
	r.set("storage.drain_s", drain.Seconds())
	r.attempted, r.failed = s.total.sent, s.total.failed
	if sum.decisions > 0 {
		r.set("serve.energy_j_per_1k", sum.energyJ/float64(sum.decisions)*1000)
	}
	checkServing(r, s.total, stEnd.Decisions-st0.Decisions, sum)

	if r.trace {
		if err := inProcessLayers(r, plc, cur.take(200000)); err != nil {
			return err
		}
		submitUS := perPost * r.values["serve.submit_ns"] / 1e3
		r.set("serve.http_self_us", r.values["serve.http_rtt_p50_us"]-submitUS)
	}
	return nil
}

// checkServing applies the serving correctness checks.
func checkServing(r *run, total *replyCheck, stateDelta uint64, sum drainSummary) {
	r.detail["replies"] = map[string]any{"sent": total.sent, "ok": total.ok, "failed": total.failed,
		"wrong_replica": total.wrongReplica, "state_decisions": stateDelta,
		"drain": map[string]int64{"decisions": sum.decisions, "served": sum.served, "dropped": sum.dropped}}
	if total.firstErr != "" {
		r.detail["first_error"] = total.firstErr
	}
	for _, p := range servingProblems(total, stateDelta, sum) {
		r.fail("%s", p)
	}
}

// servingProblems lists the serving checks a session failed.
func servingProblems(total *replyCheck, stateDelta uint64, sum drainSummary) []string {
	var out []string
	if total.wrongReplica > 0 {
		out = append(out, fmt.Sprintf("%d replies chose a disk without a replica (first: %s)", total.wrongReplica, total.firstWrong))
	}
	if stateDelta != uint64(total.ok) {
		out = append(out, fmt.Sprintf("/state counts %d decisions, clients got %d", stateDelta, total.ok))
	}
	switch {
	case !sum.ok:
		out = append(out, "no drain summary")
	case sum.served+sum.dropped != sum.decisions:
		out = append(out, fmt.Sprintf("drain: %d served + %d dropped != %d decisions", sum.served, sum.dropped, sum.decisions))
	case uint64(sum.decisions) != stateDelta:
		out = append(out, fmt.Sprintf("drain reports %d decisions, /state %d", sum.decisions, stateDelta))
	}
	return out
}

// servePhaseMetrics turns the /metrics delta over the closed job into the
// engine's per-phase means and outcome counters.
func servePhaseMetrics(r *run, before, after map[string]float64) {
	delta := func(k string) float64 { return after[k] - before[k] }
	meanUS := func(phase string) float64 {
		sel := `{phase="` + phase + `"}`
		if n := delta("esched_span_phase_seconds_count" + sel); n > 0 {
			return delta("esched_span_phase_seconds_sum"+sel) / n * 1e6
		}
		return 0
	}
	r.set("serve.queue_us", meanUS("queue"))
	r.set("serve.decide_us", meanUS("decide"))
	r.set("serve.dispatch_us", meanUS("dispatch"))
	if n := delta("esched_serve_round_size_count"); n > 0 {
		r.set("serve.decisions_per_round", delta("esched_serve_round_size_sum")/n)
	}
	r.set("serve.queue_full", after[`esched_serve_requests_total{outcome="queue_full"}`])
	r.set("serve.deadline_expired", after[`esched_serve_requests_total{outcome="deadline_expired"}`])
}

// engineConfig mirrors the engine eschedd builds from the same flags.
func engineConfig(plc *placement.Placement, col *obs.Collector) serve.Config {
	pc := power.DefaultConfig()
	return serve.Config{
		System: storage.Config{
			NumDisks: numDisks,
			Power:    pc,
			Mech:     diskmodel.Cheetah15K5(),
			Policy:   power.TwoCompetitive{Config: pc},
		},
		Router:      serve.NewRouter(plc, 0),
		Shards:      racks,
		Mode:        serve.ModeWSC,
		Cost:        sched.CostConfig{Alpha: 0.2, Beta: 10, Power: pc},
		MaxInFlight: 4096,
		RoundMax:    512,
		Collector:   col,
	}
}

// inProcessLayers times the serving layers below HTTP in this process,
// after the daemon has exited: Router.Lookup, and Engine.Submit with and
// without the metrics collector eschedd attaches (the difference is the
// span and metrics cost).
func inProcessLayers(r *run, plc *placement.Placement, blocks []core.BlockID) error {
	router := serve.NewRouter(plc, 0)
	t0 := time.Now()
	n := 0
	for rep := 0; rep < 5; rep++ {
		for _, b := range blocks {
			n += len(router.Lookup(b))
		}
	}
	if n == 0 {
		return fmt.Errorf("router found no replicas")
	}
	r.set("serve.router_lookup_ns", float64(time.Since(t0))/float64(5*len(blocks)))
	submit := func(col *obs.Collector) (float64, error) {
		eng, err := serve.New(engineConfig(plc, col))
		if err != nil {
			return 0, err
		}
		t0 := time.Now()
		for _, b := range blocks {
			if _, err := eng.Submit(core.Request{Block: b}, 0); err != nil {
				return 0, err
			}
		}
		ns := float64(time.Since(t0)) / float64(len(blocks))
		if _, err := eng.Drain(); err != nil {
			return 0, err
		}
		return ns, nil
	}
	withCol, err := submit(obs.NewCollector())
	if err != nil {
		return err
	}
	noCol, err := submit(nil)
	if err != nil {
		return err
	}
	r.set("serve.submit_ns", withCol)
	r.set("serve.submit_ns_nocol", noCol)
	r.set("obs.span_ns", withCol-noCol)
	return nil
}
