package bench

import (
	"os"
	"strings"
	"testing"
)

// smokeConfig is the scale tier-1 runs experiments at.
var smokeConfig = Config{Scale: 0.02, Queries: 5}

// smokeReports holds each experiment's report at smokeConfig, so the
// tests that read one run it once per test binary.
var smokeReports = map[string]*Report{}

func smokeRun(t *testing.T, id string) *Report {
	t.Helper()
	if rep, ok := smokeReports[id]; ok {
		return rep
	}
	e, ok := Get(id)
	if !ok {
		t.Fatalf("missing %s", id)
	}
	rep, err := e.Run(smokeConfig)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	smokeReports[id] = rep
	return rep
}

// pinnedExperiments are the experiments whose non-timing cells are
// one value for a seed at any GOMAXPROCS.
var pinnedExperiments = []string{"fig9", "fig10", "fig13", "fig14", "fig15", "fig16", "fig19", "table6", "table7"}

// timingHeaders name the columns a wall clock fills.
var timingHeaders = map[string]bool{"QPS": true, "Latency": true, "Speedup": true}

// pinnedCells renders every non-timing cell of the pinned experiments,
// one "id | cell | cell ..." line per report row.
func pinnedCells(t *testing.T) string {
	var b strings.Builder
	for _, id := range pinnedExperiments {
		rep := smokeRun(t, id)
		for _, row := range rep.Rows {
			cells := []string{id}
			for i, c := range row {
				if i < len(rep.Headers) && !timingHeaders[rep.Headers[i]] {
					cells = append(cells, c)
				}
			}
			b.WriteString(strings.Join(cells, " | ") + "\n")
		}
	}
	return b.String()
}

// TestPinnedCells holds the answers behind Section V's rows — recall,
// the chosen ef, segment counts, index sizes, the plan picked — to
// the values testdata/cells.golden recorded at seed 42, Scale 0.02.
// A change to how experiments load or query the engine must leave
// them as they are.
func TestPinnedCells(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	want, err := os.ReadFile("testdata/cells.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := pinnedCells(t)
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < len(gl) || i < len(wl); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Errorf("line %d:\n got  %q\n want %q", i+1, g, w)
		}
	}
}
