// Command perfbench is the repository's end-to-end benchmark. Each
// workload drives one path a user actually hits: a cold full-scale figure
// regeneration (sweep-cello, sim-cello) or eschedd serving decisions over
// HTTP (serve-batch). Run it through run.py, which builds this
// program and eschedd first:
//
//	python3 perfbench/run.py --workload sweep-cello --seed 1 --seconds 30 --trace 0
//
// The last line of standard output is one JSON object: the correctness
// verdict, attempted/failed counts and the metrics (end-to-end with
// --trace 0, per-layer with --trace 1). Lines before it, prefixed "# ",
// record the host facts and per-run details. See NOTES.md for every
// metric's definition.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics reported with --trace 0, on every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"peak_rss_mb", "MB"},
	{"decisions_per_s", "1/s"},
	{"lat_p50_ms", "ms"},
}

// perLayer lists the metrics reported with --trace 1. A layer a workload
// does not exercise reports 0.
var perLayer = []metricDef{
	{"workload.gen_s", "s"},
	{"placement.gen_s", "s"},
	{"placement.calls", "count"},
	{"offline.build_s", "s"},
	{"offline.solve_s", "s"},
	{"offline.solve_s_rf5", "s"},
	{"offline.graph_nodes", "count"},
	{"offline.graph_edges", "count"},
	{"sched.online_s", "s"},
	{"sched.online_calls", "count"},
	{"sched.batch_s", "s"},
	{"sched.batch_calls", "count"},
	{"storage.run_s", "s"},
	{"storage.self_s", "s"},
	{"simkernel.events", "count"},
	{"storage.ns_per_event", "ns"},
	{"experiments.pool_util", "ratio"},
	{"experiments.critical_cell_s", "s"},
	{"trace.coverage", "ratio"},
	{"trace.overhead_s", "s"},
	{"serve.router_lookup_ns", "ns"},
	{"serve.submit_ns", "ns"},
	{"serve.submit_ns_nocol", "ns"},
	{"obs.span_ns", "ns"},
	{"serve.ref_p50_ms", "ms"},
	{"serve.ref_p99_ms", "ms"},
	{"serve.http_rtt_p50_us", "us"},
	{"serve.http_rtt_p99_us", "us"},
	{"serve.http_self_us", "us"},
	{"serve.queue_us", "us"},
	{"serve.decide_us", "us"},
	{"serve.dispatch_us", "us"},
	{"serve.decisions_per_round", "count"},
	{"serve.queue_full", "count"},
	{"serve.deadline_expired", "count"},
	{"storage.drain_s", "s"},
	{"storage.drain_peak_rss_mb", "MB"},
	{"loadgen.late_p50_ms", "ms"},
	{"loadgen.late_p99_ms", "ms"},
	{"serve.max_rate_ok", "1/s"},
	{"serve.energy_j_per_1k", "J"},
	{"failed_frac", "ratio"},
}

// workloads maps each workload name to the function that runs it.
var workloads = map[string]func(*run) error{
	"sweep-cello": runFigures,
	"sim-cello":   runFigures,
	"serve-batch": runServing,
}

// run is one benchmark invocation: its parameters and what it measured.
type run struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	root     string // repository checkout
	work     string // directory for this run's files
	eschedd  string // eschedd binary

	attempted, failed int64
	problems          []string           // correctness failures
	digests           map[string]string  // figure → first rendered table digest
	values            map[string]float64 // metric name → value
	detail            map[string]any     // per-run facts printed before the result
}

// fail records a correctness failure; the run's verdict becomes false.
func (r *run) fail(format string, args ...any) {
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

func (r *run) set(name string, v float64) { r.values[name] = v }

// metric is one entry of the result's "metrics" object.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runDeadline bounds a whole invocation; children are killed past it.
const runDeadline = 170 * time.Second

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "child":
			os.Exit(childMain(os.Args[2:]))
		case "record":
			os.Exit(recordMain(os.Args[2:]))
		}
	}
	if err := benchMain(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func benchMain(args []string) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		wl      = fs.String("workload", "", "sweep-cello | sim-cello | serve-batch")
		seed    = fs.Int64("seed", 1, "input seed")
		seconds = fs.Int("seconds", 10, "measuring time")
		trace   = fs.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		root    = fs.String("root", ".", "repository checkout")
		work    = fs.String("work", ".bench_build/run", "directory for run files")
		eschedd = fs.String("eschedd", "", "eschedd binary (serving workloads)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	drive, ok := workloads[*wl]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *wl)
	}
	if *seconds < 1 || *trace < 0 || *trace > 1 {
		return errors.New("-seconds must be >= 1 and -trace 0 or 1")
	}
	r := &run{
		workload: *wl, seed: *seed, seconds: time.Duration(*seconds) * time.Second,
		trace: *trace == 1, root: *root, eschedd: *eschedd,
		work:   filepath.Join(*work, fmt.Sprintf("%s-seed%d-trace%d", *wl, *seed, *trace)),
		values: map[string]float64{}, detail: map[string]any{}, digests: map[string]string{},
	}
	if err := os.RemoveAll(r.work); err != nil {
		return err
	}
	if err := os.MkdirAll(r.work, 0o755); err != nil {
		return err
	}
	watchdog := time.AfterFunc(runDeadline, func() {
		killChildren()
		fmt.Fprintln(os.Stderr, "perfbench: run exceeded", runDeadline)
		os.Exit(1)
	})
	defer watchdog.Stop()
	defer killChildren()

	host := hostFacts(r)
	if err := drive(r); err != nil {
		return err
	}
	return emit(os.Stdout, r, host)
}

// emit prints the host facts, the run detail and the result line.
func emit(w io.Writer, r *run, host map[string]any) error {
	defs := endToEnd
	if r.trace {
		defs = perLayer
	}
	if r.attempted < 1 {
		return errors.New("nothing was attempted")
	}
	r.set("failed_frac", failedFrac(r.failed, r.attempted))
	res := result{Correct: len(r.problems) == 0, Attempted: r.attempted, Failed: r.failed,
		Metrics: map[string]metric{}}
	for _, d := range defs {
		res.Metrics[d.name] = metric{Value: r.values[d.name], Unit: d.unit}
	}
	r.detail["problems"] = r.problems
	r.detail["failed_frac"] = r.values["failed_frac"]
	for _, line := range []struct {
		tag string
		v   any
	}{{"host", host}, {"detail", r.detail}, {"", res}} {
		b, err := json.Marshal(line.v)
		if err != nil {
			return err
		}
		if line.tag != "" {
			fmt.Fprintf(w, "# %s: ", line.tag)
		}
		fmt.Fprintf(w, "%s\n", b)
	}
	return writeJSON(filepath.Join(r.work, "result.json"), map[string]any{
		"host": host, "detail": r.detail, "result": res})
}

// writeJSON writes v to path as indented JSON.
func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// hostFacts records what a result depends on besides the code: the host's
// CPUs, the toolchain, the source tree and a fixed calibration timing
// (recorded, never divided out, so drift between hosts stays visible).
func hostFacts(r *run) map[string]any {
	return map[string]any{
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"commit":     sourceID(r.root),
		"workload":   r.workload,
		"seed":       r.seed,
		"seconds":    r.seconds.Seconds(),
		"trace":      r.trace,
		"calib_ms":   calibrate(),
		"started":    time.Now().UTC().Format(time.RFC3339),
	}
}

// sourceID names the code under test: the git commit when the checkout is
// a repository, else a digest of every Go source and module file (the
// benchmark also runs from plain exported trees).
func sourceID(root string) string {
	if head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD")); err == nil {
		ref := strings.TrimSpace(string(head))
		if name, ok := strings.CutPrefix(ref, "ref: "); ok {
			if id, err := os.ReadFile(filepath.Join(root, ".git", name)); err == nil {
				return strings.TrimSpace(string(id))
			}
		} else {
			return ref
		}
	}
	h := sha256.New()
	filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() && path != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(path, ".go") || d.Name() == "go.mod") {
			if b, err := os.ReadFile(path); err == nil {
				rel, _ := filepath.Rel(root, path)
				fmt.Fprintf(h, "%s %d\n", rel, len(b))
				h.Write(b)
			}
		}
		return nil
	})
	return "tree:" + hex.EncodeToString(h.Sum(nil))[:16]
}

// calibrate times a fixed CPU-bound loop (SHA-256 over 16 MiB, median of
// three) in milliseconds.
func calibrate() float64 {
	buf := make([]byte, 16<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	var xs []float64
	for i := 0; i < 3; i++ {
		t0 := time.Now()
		sha256.Sum256(buf)
		xs = append(xs, ms(time.Since(t0)))
	}
	return median(xs)
}
