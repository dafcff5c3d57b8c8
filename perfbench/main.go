// Command perfbench is the repository's benchmark: one command that runs
// one seeded workload against the system in-process, checks every output
// against the offline engine, and prints every metric by name with its
// unit. README.md in this directory documents the workloads, the metrics
// and the layer each one belongs to.
//
//	perfbench --workload routed-small|reproduce --seed N --seconds S --trace 0|1
//
// With --trace 0 the last line of standard output carries the end-to-end
// metrics of BENCHMARK.json; with --trace 1 it carries the per-layer
// metrics, measured in a separate traced run. Progress and the layer
// tables go to standard error; spans go to .bench_build/spans/.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"sort"
	"sync/atomic"
	"syscall"
	"time"
)

// benchFile is the benchmark definition at the root of the checkout; the
// metric names and units printed come from it.
const benchFile = "BENCHMARK.json"

// spanDir receives the traced run's spans (inside the checkout's build
// directory, which git ignores).
const spanDir = ".bench_build/spans"

type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

type benchDef struct {
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int64                `json:"attempted"`
	Failed    int64                `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// run is the state one workload execution accumulates: metrics by name,
// request tallies, correctness findings and spans.
type run struct {
	seed    int64
	seconds float64
	traced  bool
	tr      *tracer

	metrics   map[string]float64
	attempted atomic.Int64 // operations the workload issued
	failed    atomic.Int64 // operations that returned an error
	// nextReq numbers the run's event posts; the number is part of each
	// post's X-Request-ID and idempotency key, so keys never repeat.
	nextReq  atomic.Int64
	problems []string
}

func (r *run) set(name string, v float64) { r.metrics[name] = v }

// wrong records a correctness finding; any finding makes the run incorrect.
func (r *run) wrong(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	r.problems = append(r.problems, msg)
	logf("INCORRECT: %s", msg)
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

var workloads = map[string]func(*run) error{
	"routed-small": func(r *run) error { return runServing(r, routedSmall) },
	"reproduce":    runReproduce,
}

func main() {
	name := flag.String("workload", "", "workload to run: routed-small or reproduce")
	seed := flag.Int64("seed", 1, "seed for the workload's generated inputs")
	seconds := flag.Float64("seconds", 40, "measurement time budget for the serving workloads")
	traced := flag.Int("trace", 0, "1 runs the traced pass and prints the per-layer metrics")
	flag.Parse()
	if err := mainErr(*name, *seed, *seconds, *traced == 1); err != nil {
		logf("error: %v", err)
		os.Exit(1)
	}
}

func mainErr(name string, seed int64, seconds float64, traced bool) error {
	def, err := readBenchDef(benchFile)
	if err != nil {
		return err
	}
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	r := &run{seed: seed, seconds: seconds, traced: traced, tr: newTracer(traced), metrics: map[string]float64{}}
	start := time.Now()
	if err := fn(r); err != nil {
		return err
	}
	r.set("rss_peak_mb", peakRSSMB())
	r.set("fail_ratio", float64(r.failed.Load())/float64(max(r.attempted.Load(), 1)))
	logf("%s seed=%d done in %.1fs: attempted=%d failed=%d incorrect=%d",
		name, seed, time.Since(start).Seconds(), r.attempted.Load(), r.failed.Load(), len(r.problems))
	if traced {
		path, err := r.tr.write(spanDir, fmt.Sprintf("%s-seed%d.json", name, seed),
			map[string]any{"workload": name, "seed": seed, "metrics": r.metrics})
		if err != nil {
			return err
		}
		for _, t := range r.tr.summarize() {
			logf("span %-22s n=%-7d total=%8.3fs self=%8.3fs", t.Name, t.Count, t.TotalS, t.SelfS)
		}
		logf("spans written to %s", path)
	}
	defs := def.EndToEnd
	if traced {
		defs = def.PerLayer
	}
	line, err := buildResult(r, defs, !traced)
	if err != nil {
		return err
	}
	out, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Println(string(out))
	return nil
}

// buildResult selects the printed metrics. Every end-to-end metric must
// have been measured; a per-layer metric whose layer the workload does
// not run reads 0 (README.md lists which layers each workload runs).
func buildResult(r *run, defs []metricDef, requireAll bool) (resultLine, error) {
	line := resultLine{
		Correct:   len(r.problems) == 0,
		Attempted: r.attempted.Load(),
		Failed:    r.failed.Load(),
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	if line.Attempted < 1 {
		return line, fmt.Errorf("workload attempted nothing")
	}
	for _, d := range defs {
		v, ok := r.metrics[d.Name]
		if !ok && requireAll {
			return line, fmt.Errorf("end-to-end metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricOut{Value: v, Unit: d.Unit}
	}
	known := map[string]bool{}
	for _, d := range defs {
		known[d.Name] = true
	}
	var extra []string
	for name := range r.metrics {
		if !known[name] {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		logf("metric %s = %g (not printed in this mode)", name, r.metrics[name])
	}
	return line, nil
}

func readBenchDef(path string) (*benchDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("reading benchmark definition (run from the checkout root): %w", err)
	}
	var def benchDef
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", path, err)
	}
	return &def, nil
}

// peakRSSMB is the process's peak resident set size in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
