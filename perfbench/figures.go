package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/experiments"
	"repro/internal/placement"
)

// The figure workloads regenerate full-scale Cello figures cold: every
// repetition runs in a fresh child process with a fresh sweep cache, so
// nothing is memoized across repetitions and the child's peak RSS is the
// computation's own.
//
//	sweep-cello  Figures 6, 7, 8, 13: the replication sweep, 5 rf × 5
//	             algorithms, through experiments.NewSweepCache().Sweep
//	sim-cello    Figures 10, 11, 12: ~110 trace-driven online/batch runs,
//	             through experiments.Figure10/11/12

// figOut is a figure child's report.
type figOut struct {
	SetupS []float64 `json:"setup_s,omitempty"`
	WallS  float64   `json:"wall_s"`
	// CellS holds the seconds of every cell the experiments worker pool ran
	// (as its telemetry monitor saw them) and PoolWallS the pooled phase's
	// wall time.
	CellS     []float64 `json:"cell_s,omitempty"`
	PoolWallS float64   `json:"pool_wall_s,omitempty"`
	Attempted int64     `json:"attempted"`
	Failed    int64     `json:"failed"`
	// Tables maps a figure number to its rendered text.
	Tables map[string]string  `json:"tables,omitempty"`
	Layers map[string]float64 `json:"layers,omitempty"`
	Err    string             `json:"err,omitempty"`
}

// figureNumbers lists the tables each figure workload renders.
var figureNumbers = map[string][]string{
	"sweep-cello": {"6", "7", "8", "13"},
	"sim-cello":   {"10", "11", "12"},
}

// setupReps is how many times a figure child regenerates the inputs.
const setupReps = 5

// fullScale is the paper-scale configuration with the benchmark's seed.
func fullScale(seed int64) experiments.Scale {
	s := experiments.FullScale()
	s.Seed = seed
	return s
}

// figInputs lists the placements a figure workload's computation builds
// (experiments derives every placement seed as Seed+7).
func figInputs(wl string, s experiments.Scale) []placement.GenerateConfig {
	zs := []float64{1}
	if wl == "sim-cello" {
		zs = s.ZipfSteps
	}
	var out []placement.GenerateConfig
	for _, z := range zs {
		for _, rf := range experiments.ReplicationFactors() {
			out = append(out, placement.GenerateConfig{
				NumDisks: s.NumDisks, NumBlocks: s.NumBlocks,
				ReplicationFactor: rf, ZipfExponent: z, Seed: s.Seed + 7,
			})
		}
	}
	return out
}

// figChild runs one figure child job and decodes its report.
func figChild(job, wl string, seed int64, extra ...string) (figOut, float64, error) {
	var fo figOut
	args := append([]string{"child", "-job", job, "-workload", wl, "-seed", fmt.Sprint(seed)}, extra...)
	out, rssMB, err := runSelf(args...)
	if err == nil {
		err = json.Unmarshal(out, &fo)
	}
	return fo, rssMB, err
}

// runFigures drives a figure workload: one setup child, then either cold
// children until the measuring time is spent (untraced) or one cold and
// one traced child (traced).
func runFigures(r *run) error {
	setup, _, err := figChild("setup", r.workload, r.seed)
	if err != nil {
		return err
	}
	r.set("setup_s", median(setup.SetupS))
	r.detail["setup_s"] = setup.SetupS

	var walls, rss, dps, cellsMs []float64
	var lats []map[string]pctl
	var first figOut
	perCell := int64(fullScale(r.seed).NumRequests)
	for start := time.Now(); len(walls) == 0 || (!r.trace && time.Since(start) < r.seconds); {
		fo, mb, err := figChild("cold", r.workload, r.seed)
		if err != nil {
			return err
		}
		if len(walls) == 0 {
			first = fo
		}
		r.attempted += fo.Attempted
		r.failed += fo.Failed
		if fo.Err != "" {
			r.fail("cold run: %s", fo.Err)
		}
		r.checkTables("cold", fo.Tables)
		cells := make([]float64, len(fo.CellS))
		for i, c := range fo.CellS {
			cells[i] = c * 1e3
		}
		p50, p99 := tailPercentile(cells, 50), tailPercentile(cells, 99)
		walls, rss = append(walls, fo.WallS), append(rss, mb)
		dps = append(dps, float64((fo.Attempted-fo.Failed)*perCell)/fo.WallS)
		cellsMs = append(cellsMs, cells...)
		lats = append(lats, map[string]pctl{"p50": p50, "p99": p99})
	}
	r.set("wall_s", median(walls))
	// The smallest repetition's peak: the collector running late only ever
	// adds to a peak, by nearly half on sweep-cello (1.8 GB against 2.7 GB).
	r.set("peak_rss_mb", slices.Min(rss))
	r.set("decisions_per_s", median(dps))
	// The p50 of every repetition's cells together.
	r.set("lat_p50_ms", tailPercentile(cellsMs, 50).Value)
	r.detail["wall_s"] = walls
	r.detail["peak_rss_mb"] = rss
	r.detail["cell_latency_ms"] = lats
	if !r.trace {
		return nil
	}

	spans := filepath.Join(r.work, "spans.json")
	traced, _, err := figChild("traced", r.workload, r.seed, "-spans", spans)
	if err != nil {
		return err
	}
	if traced.Err != "" {
		r.fail("traced run: %s", traced.Err)
	}
	r.checkTables("traced", traced.Tables)
	for k, v := range traced.Layers {
		r.set(k, v)
	}
	// Pool use comes from the untraced run: it is the real experiments
	// worker pool, seen through its own telemetry.
	cellSum, critical := 0.0, 0.0
	for _, s := range first.CellS {
		cellSum += s
		critical = max(critical, s)
	}
	if first.PoolWallS > 0 {
		r.set("experiments.pool_util", cellSum/(first.PoolWallS*float64(poolWorkers())))
	}
	r.set("experiments.critical_cell_s", critical)
	r.set("trace.overhead_s", traced.WallS-first.WallS)
	r.detail["traced_wall_s"] = traced.WallS
	r.detail["spans"] = spans
	return nil
}

//go:embed refs.json
var refsJSON []byte

// references maps workload → seed → figure number → digest of the
// canonical rendered table, recorded with `perfbench record`.
var references = sync.OnceValues(func() (map[string]map[string]map[string]string, error) {
	var refs map[string]map[string]map[string]string
	err := json.Unmarshal(refsJSON, &refs)
	return refs, err
})

// canonical normalizes a rendered table for comparison: trailing blanks
// dropped from every line and trailing empty lines removed.
func canonical(text string) string {
	lines := strings.Split(text, "\n")
	for i, l := range lines {
		lines[i] = strings.TrimRight(l, " \t\r")
	}
	return strings.TrimRight(strings.Join(lines, "\n"), "\n")
}

func digest(text string) string {
	sum := sha256.Sum256([]byte(canonical(text)))
	return hex.EncodeToString(sum[:])
}

// checkTables verifies a run's rendered figures: every expected table is
// present, matches the recorded reference digest for this seed when one
// exists and every other computation of the run, and at seed 1 matches the
// committed results/figN.txt.
func (r *run) checkTables(label string, tables map[string]string) {
	for _, p := range verifyTables(r.workload, r.seed, r.root, tables) {
		r.fail("%s: %s", label, p)
	}
	refs, _ := references()
	_, ok := refs[r.workload][fmt.Sprint(r.seed)]
	r.detail["reference"] = ok
	// Every computation in a run, traced or not, must render the same
	// tables: that is the whole check for a seed without a reference.
	for n, t := range tables {
		d := digest(t)
		if first, seen := r.digests[n]; !seen {
			r.digests[n] = d
		} else if first != d {
			r.fail("%s: figure %s differs from the run's first computation", label, n)
		}
	}
	r.detail["tables"] = r.digests
}

// verifyTables is checkTables' pure part: the list of mismatches.
func verifyTables(wl string, seed int64, root string, tables map[string]string) []string {
	var problems []string
	refs, err := references()
	if err != nil {
		return []string{"references: " + err.Error()}
	}
	want := refs[wl][fmt.Sprint(seed)]
	for _, n := range figureNumbers[wl] {
		t, ok := tables[n]
		if !ok || strings.TrimSpace(t) == "" {
			problems = append(problems, fmt.Sprintf("figure %s missing", n))
			continue
		}
		if ref, ok := want[n]; ok && digest(t) != ref {
			problems = append(problems, fmt.Sprintf("figure %s digest %s, reference %s", n, digest(t)[:12], ref[:12]))
		}
		if seed != 1 {
			continue
		}
		committed, err := os.ReadFile(filepath.Join(root, "results", "fig"+n+".txt"))
		if err != nil {
			problems = append(problems, fmt.Sprintf("figure %s: %v", n, err))
		} else if canonical(string(committed)) != canonical(t) {
			problems = append(problems, fmt.Sprintf("figure %s differs from results/fig%s.txt", n, n))
		}
	}
	return problems
}

// childMain is the child side of the figure workloads: it prints one
// figOut as JSON.
func childMain(args []string) int {
	fs := flag.NewFlagSet("perfbench child", flag.ContinueOnError)
	job := fs.String("job", "", "setup | cold | traced")
	wl := fs.String("workload", "", "figure workload")
	seed := fs.Int64("seed", 1, "input seed")
	spans := fs.String("spans", "", "traced: write the span log here")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if _, ok := figureNumbers[*wl]; !ok {
		fmt.Fprintf(os.Stderr, "perfbench child: unknown workload %q\n", *wl)
		return 2
	}
	s := fullScale(*seed)
	var fo figOut
	switch *job {
	case "setup":
		fo = figSetup(*wl, s)
	case "cold":
		fo = figCold(*wl, s)
	case "traced":
		fo = figTraced(*wl, s, *spans)
	default:
		fmt.Fprintf(os.Stderr, "perfbench child: unknown job %q\n", *job)
		return 2
	}
	if err := json.NewEncoder(os.Stdout).Encode(fo); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench child:", err)
		return 1
	}
	return 0
}

// figSetup times generating the workload's inputs (trace and placements)
// setupReps times.
func figSetup(wl string, s experiments.Scale) figOut {
	var fo figOut
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		experiments.Cello.Requests(s)
		for _, pc := range figInputs(wl, s) {
			if _, err := placement.Generate(pc); err != nil {
				fo.Err = err.Error()
				return fo
			}
		}
		fo.SetupS = append(fo.SetupS, time.Since(t0).Seconds())
	}
	return fo
}

// figCold runs the workload's computation through the public experiments
// API, exactly as `figures -scale full` would, with only the sweep
// telemetry monitor attached (it times the pooled cells).
func figCold(wl string, s experiments.Scale) figOut {
	fo := figOut{Tables: map[string]string{}}
	mon := experiments.NewMonitor()
	s.Monitor = mon
	t0 := time.Now()
	var err error
	if wl == "sweep-cello" {
		var sw *experiments.ReplicationSweep
		sw, err = experiments.NewSweepCache().Sweep(s, experiments.Cello)
		fo.Attempted = int64(len(experiments.ReplicationFactors()) * len(experiments.Algorithms()))
		if err == nil {
			for n, t := range map[string]*experiments.Table{
				"6": sw.Figure6(), "7": sw.Figure7(), "8": sw.Figure8(), "13": sw.Figure13(),
			} {
				fo.Tables[n] = t.Render()
			}
		}
		fo.PoolWallS = time.Since(t0).Seconds()
	} else {
		// Runs per figure: 10 = zipf steps × rf × 3 algorithms; 11 = alphas ×
		// betas; 12 = always-on plus 4 online algorithms.
		figs := []struct {
			n    string
			runs int
			f    func(experiments.Scale, experiments.Trace) (*experiments.Table, error)
		}{
			{"10", len(s.ZipfSteps) * len(experiments.ReplicationFactors()) * 3, experiments.Figure10},
			{"11", len(s.Alphas) * len(s.Betas), experiments.Figure11},
			{"12", 5, experiments.Figure12},
		}
		for _, fig := range figs {
			f0 := time.Now()
			t, ferr := fig.f(s, experiments.Cello)
			if fig.n == "10" {
				fo.PoolWallS = time.Since(f0).Seconds()
			}
			fo.Attempted += int64(fig.runs)
			if ferr != nil {
				fo.Failed += int64(fig.runs)
				err = errors.Join(err, ferr)
				continue
			}
			fo.Tables[fig.n] = t.Render()
		}
	}
	fo.WallS = time.Since(t0).Seconds()
	cells, failed := monitorCells(mon)
	fo.CellS = cells
	if wl == "sweep-cello" {
		fo.Failed = int64(failed)
		if err != nil && failed == 0 {
			fo.Failed = fo.Attempted
		}
	}
	if err != nil {
		fo.Err = err.Error()
	}
	return fo
}

// monitorCells reads the per-cell seconds and failed-cell count of every
// sweep the monitor tracked, through its /progress endpoint.
func monitorCells(mon *experiments.Monitor) ([]float64, int) {
	rec := httptest.NewRecorder()
	mon.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/progress", nil))
	var p struct {
		Sweeps []struct {
			Failed int `json:"failed"`
			Cells  []struct {
				State string  `json:"state"`
				Secs  float64 `json:"seconds"`
			} `json:"cells"`
		} `json:"sweeps"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &p); err != nil {
		return nil, 0
	}
	var cells []float64
	failed := 0
	for _, sw := range p.Sweeps {
		failed += sw.Failed
		for _, c := range sw.Cells {
			if c.State == "done" || c.State == "failed" {
				cells = append(cells, c.Secs)
			}
		}
	}
	return cells, failed
}

// recordMain prints fresh reference digests for the given seeds (JSON in
// refs.json's shape). Record references only from a tree whose figures
// are known good.
func recordMain(args []string) int {
	fs := flag.NewFlagSet("perfbench record", flag.ContinueOnError)
	seeds := fs.String("seeds", "1", "comma-separated seeds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	refs := map[string]map[string]map[string]string{}
	for wl := range figureNumbers {
		refs[wl] = map[string]map[string]string{}
		for _, seed := range strings.Split(*seeds, ",") {
			n, err := strconv.ParseInt(seed, 10, 64)
			var fo figOut
			if err == nil {
				fo, _, err = figChild("cold", wl, n)
			}
			if err == nil && fo.Err != "" {
				err = errors.New(fo.Err)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench record:", err)
				return 1
			}
			refs[wl][seed] = map[string]string{}
			for n, t := range fo.Tables {
				refs[wl][seed][n] = digest(t)
			}
			fmt.Fprintf(os.Stderr, "recorded %s seed %s\n", wl, seed)
		}
	}
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(refs); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench record:", err)
		return 1
	}
	return 0
}
