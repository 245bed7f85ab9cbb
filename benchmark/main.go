// Command benchmark is BlendHouse's standing end-to-end benchmark: four
// workloads, each one process holding engine, server and load generator,
// measured end to end with tracing off and — in a separate traced run —
// layer by layer from outside. See README.md in this directory.
//
//	bash benchmark/run.sh --workload topk_warm_inproc --seed 1 --seconds 20 --trace 0
//	bash benchmark/run.sh --repeat 10 --out head.json     # every workload, ten seeds
//	bash benchmark/run.sh --compare parent.json head.json
//	bash benchmark/run.sh --smoke
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strings"
	"time"
)

// The process models a 2-vCPU node: never more than two
// load-generating goroutines, GOMAXPROCS pinned so numbers do not
// change meaning on a bigger builder.
const maxProcs = 2

// rounds is how many equal rounds the measured window is cut into; qps
// is the median of their rates, which one slow stretch cannot move.
const rounds = 5

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// benchmarkFile is BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadBenchmarkFile(path string) (*benchmarkFile, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("run from the repository root: %w", err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(b, &bf); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &bf, nil
}

func main() {
	runtime.GOMAXPROCS(maxProcs)
	var (
		workload = flag.String("workload", "all", "workload name, or all")
		seed     = flag.Int64("seed", 1, "seed for every generated input")
		seconds  = flag.Float64("seconds", 0, "length of the measured window (0 = run_seconds of BENCHMARK.json)")
		trace    = flag.Int("trace", 0, "0: end-to-end metrics, tracing off; 1: per-layer metrics from the traced pass")
		repeat   = flag.Int("repeat", 1, "runs per workload, each in its own process with seed, seed+1, …")
		out      = flag.String("out", "", "write every run of this invocation to this JSON file (input of -compare)")
		compare  = flag.Bool("compare", false, "compare two -out files: -compare parent.json change.json")
		smoke    = flag.Bool("smoke", false, "2 s window, one round, one set-up: proves the workloads still run")
		spans    = flag.String("spans", ".bench_build/spans.json", "where a traced run writes its spans")
	)
	flag.Parse()
	bf, err := loadBenchmarkFile("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	if *compare {
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("usage: -compare parent.json change.json"))
		}
		os.Exit(compareFiles(bf, flag.Arg(0), flag.Arg(1)))
	}
	if *seconds <= 0 {
		*seconds = float64(bf.RunSeconds)
	}

	if sp := specByName(*workload); sp != nil && *repeat == 1 {
		rc := newRunConfig(*seed, *seconds, *trace == 1, *smoke)
		rc.spansPath = *spans
		res, err := runWorkload(sp, rc)
		if err != nil {
			fatal(err)
		}
		if err := report(bf, res, rc.trace); err != nil {
			fatal(err)
		}
		if *out != "" {
			if err := writeRuns(*out, []*result{res}); err != nil {
				fatal(err)
			}
		}
		if !res.Correct {
			os.Exit(1)
		}
		return
	}

	// Several runs: each in a child process, as the driver runs them, so
	// no run inherits another's heap, registries or caches.
	var names []string
	if *workload == "all" {
		for _, sp := range specs {
			names = append(names, sp.name)
		}
	} else if specByName(*workload) != nil {
		names = []string{*workload}
	} else {
		fatal(fmt.Errorf("unknown workload %q", *workload))
	}
	var runs []*result
	failed := false
	for _, name := range names {
		for i := 0; i < *repeat; i++ {
			res, err := runChild(name, *seed+int64(i), *seconds, *trace, *smoke)
			if err != nil {
				fatal(fmt.Errorf("%s seed %d: %w", name, *seed+int64(i), err))
			}
			runs = append(runs, res)
			failed = failed || !res.Correct
			fmt.Printf("%-20s seed %-3d correct=%v attempted=%d failed=%d %s\n",
				name, res.Seed, res.Correct, res.Attempted, res.Failed, oneLine(res, *trace == 1))
		}
	}
	if *repeat > 1 && *trace == 0 {
		printSpreads(bf, runs)
	}
	if *out != "" {
		if err := writeRuns(*out, runs); err != nil {
			fatal(err)
		}
	}
	if failed {
		os.Exit(1)
	}
}

// newRunConfig is the run shape: three set-ups (their median is
// setup_s), a 2 s warm-up that is thrown away, then the window in five
// rounds. A traced run sets up once — setup_s is not among its metrics
// and the replay needs the time. A smoke run only proves the workload
// still runs.
func newRunConfig(seed int64, seconds float64, trace, smoke bool) runConfig {
	rc := runConfig{
		seed: seed, window: time.Duration(seconds * float64(time.Second)),
		rounds: rounds, warmup: 2 * time.Second, setups: 3,
		trace: trace, replay: 300,
	}
	if trace {
		rc.setups = 1
	}
	if smoke {
		rc.smoke, rc.window, rc.rounds, rc.setups, rc.replay = true, 2*time.Second, 1, 1, 40
		rc.warmup = 500 * time.Millisecond
	}
	return rc
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// report prints every metric by name with its unit, then the one JSON
// line the driver reads: exactly the metrics BENCHMARK.json declares
// for this mode.
func report(bf *benchmarkFile, res *result, traced bool) error {
	hb, _ := json.Marshal(res.Header)
	fmt.Printf("workload %s seed %d\nheader %s\n", res.Workload, res.Seed, hb)
	for _, n := range res.Notes {
		fmt.Println("note:", n)
	}
	defs, vals := bf.EndToEnd, res.EndToEnd
	if traced {
		defs, vals = bf.PerLayer, res.PerLayer
	}
	type mv struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := map[string]mv{}
	for _, d := range defs {
		v, ok := vals[d.Name]
		if !ok {
			return fmt.Errorf("BENCHMARK.json declares %q but the run did not measure it", d.Name)
		}
		fmt.Printf("%-36s %14.6g %s\n", d.Name, v, d.Unit)
		metrics[d.Name] = mv{v, d.Unit}
	}
	for name := range vals {
		if _, ok := metrics[name]; !ok {
			return fmt.Errorf("the run measured %q but BENCHMARK.json does not declare it", name)
		}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// runChild runs one workload once in a child process of this binary
// and reads its result back through a -out file.
func runChild(name string, seed int64, seconds float64, trace int, smoke bool) (*result, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tmp, err := os.CreateTemp(".bench_build", "run-*.json")
	if err != nil {
		return nil, err
	}
	tmp.Close()
	defer os.Remove(tmp.Name())
	args := []string{"--workload", name, "--seed", fmt.Sprint(seed), "--seconds", fmt.Sprint(seconds),
		"--trace", fmt.Sprint(trace), "--out", tmp.Name()}
	if smoke {
		args = append(args, "--smoke")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	runErr := cmd.Run()
	runs, err := readRuns(tmp.Name())
	if err != nil || len(runs) != 1 {
		return nil, fmt.Errorf("child failed (%v): %s", runErr, lastLine(stdout.String()))
	}
	return runs[0], nil
}

func lastLine(s string) string {
	s = strings.TrimSpace(s)
	return s[strings.LastIndexByte(s, '\n')+1:]
}

func oneLine(res *result, traced bool) string {
	vals := res.EndToEnd
	if traced {
		vals = res.PerLayer
	}
	names := make([]string, 0, len(vals))
	for n := range vals {
		names = append(names, n)
	}
	sort.Strings(names)
	var sb strings.Builder
	for _, n := range names {
		if traced && !strings.HasPrefix(n, "share.") && n != "bench.unattributed_share" {
			continue
		}
		fmt.Fprintf(&sb, "%s=%.4g ", n, vals[n])
	}
	return sb.String()
}

func writeRuns(path string, runs []*result) error {
	b, err := json.MarshalIndent(map[string]any{"runs": runs}, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

func readRuns(path string) ([]*result, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var f struct {
		Runs []*result `json:"runs"`
	}
	if err := json.Unmarshal(b, &f); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return f.Runs, nil
}

// valuesOf groups the end-to-end values of runs by workload and metric.
func valuesOf(runs []*result) map[string]map[string][]float64 {
	out := map[string]map[string][]float64{}
	for _, r := range runs {
		if out[r.Workload] == nil {
			out[r.Workload] = map[string][]float64{}
		}
		for name, v := range r.EndToEnd {
			out[r.Workload][name] = append(out[r.Workload][name], v)
		}
	}
	return out
}

// printSpreads prints, per workload and end-to-end metric, the median
// and the interquartile spread as a share of it, beside the bound —
// the driver's own acceptance arithmetic.
func printSpreads(bf *benchmarkFile, runs []*result) {
	vals := valuesOf(runs)
	fmt.Printf("\n%-20s %-20s %12s %9s %7s\n", "workload", "metric", "median", "spread", "bound")
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			v := vals[w.Name][d.Name]
			if len(v) < 2 {
				continue
			}
			flag := ""
			if s := spread(v); d.Name != "setup_s" && s > d.Bound/3 {
				flag = "  > bound/3"
			}
			fmt.Printf("%-20s %-20s %12.5g %8.2f%% %6.0f%%%s\n", w.Name, d.Name, median(v), 100*spread(v), 100*d.Bound, flag)
		}
	}
}

// compareFiles applies BENCHMARK.json's bounds to two sets of runs and
// prints one row per (workload, metric): ok, regressed (the change's
// median is worse than the parent's by more than the bound) or
// unresolved (either side's own spread is wider than the bound, so
// "no change" cannot be claimed). Exit status: 0 all ok, 1 a
// regression, 3 unresolved rows only.
func compareFiles(bf *benchmarkFile, parentPath, changePath string) int {
	parentRuns, err := readRuns(parentPath)
	if err != nil {
		fatal(err)
	}
	changeRuns, err := readRuns(changePath)
	if err != nil {
		fatal(err)
	}
	parent, change := valuesOf(parentRuns), valuesOf(changeRuns)
	regressed, unresolved := 0, 0
	fmt.Printf("%-20s %-20s %12s %12s %8s %7s  %s\n", "workload", "metric", "parent", "change", "worse", "bound", "verdict")
	for _, w := range bf.Workloads {
		for _, d := range bf.EndToEnd {
			p, c := parent[w.Name][d.Name], change[w.Name][d.Name]
			if len(p) == 0 || len(c) == 0 {
				fmt.Printf("%-20s %-20s %12s %12s %8s %6.0f%%  unresolved (missing)\n", w.Name, d.Name, "-", "-", "-", 100*d.Bound)
				unresolved++
				continue
			}
			verdict, worse := judge(d, p, c)
			switch verdict {
			case "regressed":
				regressed++
			case "unresolved":
				unresolved++
			}
			fmt.Printf("%-20s %-20s %12.5g %12.5g %+7.2f%% %6.0f%%  %s\n", w.Name, d.Name, median(p), median(c), 100*worse, 100*d.Bound, verdict)
		}
	}
	fmt.Printf("%d regressed, %d unresolved\n", regressed, unresolved)
	switch {
	case regressed > 0:
		return 1
	case unresolved > 0:
		return 3
	}
	return 0
}

// judge compares two sets of values of one metric. worse is how much
// worse the change's median is, as a share of the parent's (negative =
// better).
func judge(d metricDef, parent, change []float64) (verdict string, worse float64) {
	mp, mc := median(parent), median(change)
	if mp != 0 {
		worse = (mc - mp) / mp
	}
	if d.Better == "higher" {
		worse = -worse
	}
	switch {
	case worse > d.Bound:
		return "regressed", worse
	case d.Name != "setup_s" && (spread(parent) > d.Bound || spread(change) > d.Bound):
		return "unresolved", worse
	}
	return "ok", worse
}
