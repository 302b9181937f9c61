package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
)

// committedTables reads the workload's figures from results/ as the
// benchmark would render them at seed 1.
func committedTables(t *testing.T, wl string) map[string]string {
	t.Helper()
	tables := map[string]string{}
	for _, n := range figureNumbers[wl] {
		b, err := os.ReadFile(filepath.Join("..", "results", "fig"+n+".txt"))
		if err != nil {
			t.Fatal(err)
		}
		tables[n] = string(b)
	}
	return tables
}

func TestCommittedFiguresMatchReferences(t *testing.T) {
	for wl := range figureNumbers {
		if p := verifyTables(wl, 1, "..", committedTables(t, wl)); len(p) > 0 {
			t.Errorf("%s: %v", wl, p)
		}
	}
}

func TestPerturbedTableFails(t *testing.T) {
	tables := committedTables(t, "sweep-cello")
	// One digit of one cell of Figure 6 moves in the third decimal.
	perturbed := strings.Replace(tables["6"], "0.423", "0.424", 1)
	if perturbed == tables["6"] {
		t.Fatal("test table lacks the cell to perturb")
	}
	tables["6"] = perturbed
	p := verifyTables("sweep-cello", 1, "..", tables)
	if len(p) != 2 {
		t.Fatalf("want a reference and a results/ mismatch for figure 6, got %v", p)
	}
	// Held-out seeds are checked against their references alone.
	if p := verifyTables("sweep-cello", 2, "..", tables); len(p) == 0 {
		t.Error("perturbed table passed the seed-2 reference")
	}
	delete(tables, "7")
	if p := verifyTables("sweep-cello", 1, "..", tables); !strings.Contains(strings.Join(p, ";"), "figure 7 missing") {
		t.Errorf("missing table not reported: %v", p)
	}
}

func TestCanonicalIgnoresTrailingBlanks(t *testing.T) {
	if digest("a  \nb\n\n") != digest("a\nb") {
		t.Error("trailing blanks changed the digest")
	}
	if digest("a\nb") == digest("a\nc") {
		t.Error("different tables share a digest")
	}
}

func TestWrongReplicaFails(t *testing.T) {
	plc, err := replicaPlacement(1)
	if err != nil {
		t.Fatal(err)
	}
	b := core.BlockID(17)
	replicas := plc.Locations(b)
	var stranger core.DiskID
	for holdsReplica(plc, b, stranger) {
		stranger++
	}
	good := &replyCheck{plc: plc}
	good.add(sample{blocks: []core.BlockID{b}, disks: []core.DiskID{replicas[len(replicas)-1]}})
	sum := drainSummary{decisions: 1, served: 1, ok: true}
	if p := servingProblems(good, 1, sum); len(p) > 0 {
		t.Fatalf("a correct reply failed: %v", p)
	}
	bad := &replyCheck{plc: plc}
	bad.add(sample{blocks: []core.BlockID{b}, disks: []core.DiskID{stranger}})
	if p := servingProblems(bad, 1, sum); len(p) != 1 || !strings.Contains(p[0], "without a replica") {
		t.Fatalf("wrong replica not reported: %v", p)
	}
}

func TestServingAccounting(t *testing.T) {
	plc, err := replicaPlacement(3)
	if err != nil {
		t.Fatal(err)
	}
	chk := &replyCheck{plc: plc}
	blocks := []core.BlockID{1, 2, 3}
	disks := []core.DiskID{plc.Locations(1)[0], core.InvalidDisk, plc.Locations(3)[1]}
	chk.add(sample{blocks: blocks, disks: disks})
	chk.add(sample{blocks: blocks, disks: make([]core.DiskID, 3), err: os.ErrDeadlineExceeded})
	if chk.sent != 6 || chk.ok != 2 || chk.failed != 4 || chk.wrongReplica != 0 {
		t.Fatalf("tally %+v", chk)
	}
	ok := drainSummary{decisions: 2, served: 2, ok: true}
	if p := servingProblems(chk, 2, ok); len(p) > 0 {
		t.Errorf("consistent accounting failed: %v", p)
	}
	for name, tc := range map[string]struct {
		delta uint64
		sum   drainSummary
	}{
		"state counts more decisions": {3, drainSummary{decisions: 3, served: 3, ok: true}},
		"drain loses a request":       {2, drainSummary{decisions: 2, served: 1, ok: true}},
		"drain disagrees with state":  {2, drainSummary{decisions: 3, served: 3, ok: true}},
		"no drain summary":            {2, drainSummary{}},
	} {
		if p := servingProblems(chk, tc.delta, tc.sum); len(p) == 0 {
			t.Errorf("%s: not reported", name)
		}
	}
}

func TestParseDaemonOutput(t *testing.T) {
	out := "decisions: 47900\nenergy: 123456 J (0.512 of always-on 241125 J) over 30s\n" +
		"spin operations: 3 up / 5 down\nrequests: 47890 served, 10 dropped\n"
	sum := parseDrain(out)
	if !sum.ok || sum.decisions != 47900 || sum.served != 47890 || sum.dropped != 10 || sum.energyJ != 123456 {
		t.Fatalf("parsed %+v", sum)
	}
	if parseDrain("decisions: 1\n").ok {
		t.Error("partial summary parsed as complete")
	}
	disks := make([]core.DiskID, 3)
	if err := parseBatchReply([]byte("4 100\n! queue_full\n17 250\n"), disks); err != nil {
		t.Fatal(err)
	}
	if disks[0] != 4 || disks[1] != core.InvalidDisk || disks[2] != 17 {
		t.Fatalf("disks %v", disks)
	}
	if parseBatchReply([]byte("4 100\n"), disks) == nil {
		t.Error("short reply accepted")
	}
	m := parseProm(strings.NewReader("# HELP x y\nesched_serve_round_size_sum 12\n" +
		`esched_span_phase_seconds_count{phase="queue"} 3` + "\n"))
	if m["esched_serve_round_size_sum"] != 12 || m[`esched_span_phase_seconds_count{phase="queue"}`] != 3 {
		t.Fatalf("scrape %v", m)
	}
}

func TestSampleTimes(t *testing.T) {
	s := sample{due: 10 * time.Millisecond, pick: 12 * time.Millisecond,
		sent: 12*time.Millisecond + 30*time.Microsecond, done: 13 * time.Millisecond}
	if s.latency() != 3*time.Millisecond || s.lag() != 2*time.Millisecond+30*time.Microsecond ||
		s.genLate() != 30*time.Microsecond {
		t.Fatalf("latency %v lag %v late %v", s.latency(), s.lag(), s.genLate())
	}
}

// TestCatalogMatchesBenchmarkJSON keeps the repository's BENCHMARK.json and
// the metrics this program prints in step.
func TestCatalogMatchesBenchmarkJSON(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &spec); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for w := range workloads {
		want = append(want, w)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program %v", names, want)
	}
	for _, c := range []struct {
		name string
		json []struct{ Name, Unit string }
		defs []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.json) != len(c.defs) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, program %d", c.name, len(c.json), len(c.defs))
			continue
		}
		for i, m := range c.json {
			if m.Name != c.defs[i].name || m.Unit != c.defs[i].unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), program %s (%s)", c.name, i, m.Name, m.Unit, c.defs[i].name, c.defs[i].unit)
			}
		}
	}
}
