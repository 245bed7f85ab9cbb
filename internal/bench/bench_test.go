package bench

import (
	"slices"
	"strings"
	"testing"
	"time"
)

func TestReportFormatting(t *testing.T) {
	rep := &Report{ID: "x", Title: "Test", Headers: []string{"a", "bb"}}
	rep.AddRow("1", "2")
	rep.AddRow("longer", "v")
	rep.Note("hello %d", 7)
	out := rep.String()
	if !strings.Contains(out, "=== x: Test ===") {
		t.Fatalf("missing title: %q", out)
	}
	if !strings.Contains(out, "note: hello 7") {
		t.Fatalf("missing note: %q", out)
	}
	// Aligned: header and rows share column start.
	lines := strings.Split(out, "\n")
	if !strings.HasPrefix(lines[1], "a ") {
		t.Fatalf("header line: %q", lines[1])
	}
}

func TestConfigDefaults(t *testing.T) {
	c := Config{}.WithDefaults()
	if c.Scale != 1 || c.Seed != 42 || c.Queries != 40 {
		t.Fatalf("defaults: %+v", c)
	}
	if n := (Config{Scale: 0.001}).WithDefaults().n(8000); n != 100 {
		t.Fatalf("n floor = %d", n)
	}
	if n := (Config{Scale: 2}).WithDefaults().n(100); n != 200 {
		t.Fatalf("scaled n = %d", n)
	}
}

func TestRegistryComplete(t *testing.T) {
	// The registry is the paper: every artifact of Section V plus the
	// DESIGN.md §4 ablations, and nothing else, so a one-off
	// experiment cannot be registered unnoticed.
	want := map[string]bool{
		"fig7": true, "table4": true, "fig9": true, "fig10": true,
		"fig11": true, "fig12": true, "table5": true, "table6": true,
		"fig13": true, "fig14": true, "fig15": true, "fig16": true,
		"fig17": true, "table7": true, "fig18": true, "fig19": true,
		"abl-iterator": true, "abl-hashring": true,
		"abl-diskindex": true, "abl-tuner": true,
	}
	for id := range want {
		if _, ok := Get(id); !ok {
			t.Errorf("experiment %q not registered", id)
		}
	}
	for _, e := range All() {
		if !want[e.ID] {
			t.Errorf("experiment %q is not a paper artifact or ablation", e.ID)
		}
	}
}

func TestMeasureSerial(t *testing.T) {
	n := 0
	timing, err := MeasureSerial(10, func(qi int) error {
		n++
		time.Sleep(time.Millisecond)
		return nil
	})
	if err != nil || n != 10 {
		t.Fatalf("ran %d, err %v", n, err)
	}
	if timing.Queries != 10 || timing.Mean < time.Millisecond || timing.QPS <= 0 || timing.QPS > 1000 {
		t.Fatalf("timing = %+v", timing)
	}
}

func TestMeasureConcurrentOverlaps(t *testing.T) {
	start := time.Now()
	timing, err := MeasureConcurrent(8, 8, func(qi int) error {
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	wall := time.Since(start)
	// 8 sleeps of 20ms at concurrency 8 must overlap: well under 160ms.
	if wall > 100*time.Millisecond {
		t.Fatalf("no overlap: wall = %v", wall)
	}
	if timing.Queries != 8 {
		t.Fatalf("timing = %+v", timing)
	}
}

func TestMeasureErrorsPropagate(t *testing.T) {
	if _, err := MeasureSerial(3, func(qi int) error {
		if qi == 1 {
			return errSentinel
		}
		return nil
	}); err != errSentinel {
		t.Fatalf("err = %v", err)
	}
	if _, err := MeasureConcurrent(4, 2, func(qi int) error {
		if qi == 2 {
			return errSentinel
		}
		return nil
	}); err != errSentinel {
		t.Fatalf("concurrent err = %v", err)
	}
}

var errSentinel = &sentinelError{}

type sentinelError struct{}

func (*sentinelError) Error() string { return "sentinel" }

func TestTuneEfForRecall(t *testing.T) {
	// Recall grows with ef; target reachable at 64.
	ef, r, err := TuneEfForRecall(0.9, []int{16, 32, 64, 128}, func(ef int) (float64, error) {
		return float64(ef) / 70, nil
	})
	if err != nil || ef != 64 {
		t.Fatalf("ef = %d, err %v", ef, err)
	}
	if r < 0.9 {
		t.Fatalf("recall = %v", r)
	}
	// Unreachable: largest/best returned.
	ef, r, err = TuneEfForRecall(0.99, []int{16, 32}, func(ef int) (float64, error) {
		return 0.5, nil
	})
	if err != nil || r != 0.5 {
		t.Fatalf("fallback: ef=%d r=%v err=%v", ef, r, err)
	}
	if _, _, err := TuneEfForRecall(0.9, nil, nil); err == nil {
		t.Fatal("empty ladder should fail")
	}
}

func TestSelRange(t *testing.T) {
	lo, hi := selRange(1000, 0.99)
	if lo != 0 || hi != 989 {
		t.Fatalf("selRange(0.99) = %d..%d", lo, hi)
	}
	lo, hi = selRange(1000, 0.01)
	if lo != 0 || hi != 9 {
		t.Fatalf("selRange(0.01) = %d..%d", lo, hi)
	}
	_, hi = selRange(10, 0.001)
	if hi != 0 {
		t.Fatalf("tiny selectivity hi = %d", hi)
	}
}

// TestExperimentSmoke runs every Section V experiment that loads the
// engine end to end at minimum scale, ensuring the harness plumbing
// (registry, dataset generation, the load and query path, report
// assembly) works without waiting for the full evaluation. fig11,
// fig12 and fig18 drive the virtual-warehouse simulation, so a change
// that breaks it fails here; rows are asserted, not timings.
func TestExperimentSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	for _, id := range []string{
		"fig7", "fig9", "fig10", "fig11", "fig12", "fig13", "fig14", "fig15", "fig16",
		"fig17", "fig18", "fig19", "table4", "table5", "table6", "table7",
	} {
		rep := smokeRun(t, id)
		if len(rep.Rows) == 0 {
			t.Fatalf("%s produced no rows", id)
		}
		switch id {
		case "fig15":
			// The strategy is the engine's EXPLAIN: the CBO picks
			// post-filter on the 1%-selectivity workload, and without it
			// the planner defaults to pre-filter.
			want := map[string]string{"on": "post-filter", "off": "pre-filter (default)"}
			for _, row := range rep.Rows {
				if row[2] != want[row[1]] {
					t.Fatalf("fig15 row %v: CBO %s picked %q, want %q", row, row[1], row[2], want[row[1]])
				}
			}
		case "fig18":
			// Serving covers every cold worker's scans: Fig 18's claim,
			// which no timing moves.
			col := slices.Index(rep.Headers, "brute-force fallbacks")
			for _, row := range rep.Rows {
				if col < 0 || row[col] != "0" {
					t.Fatalf("fig18 row %v: want 0 brute-force fallbacks (headers %v)", row, rep.Headers)
				}
			}
		}
	}
}
