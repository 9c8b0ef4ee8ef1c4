// Command benchmark is the repository's benchmark: four closed-loop
// workloads over the cache economy, each run in one process, measured in
// one-second windows, its outputs checked. See README.md.
//
//	benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//	benchmark -selfcheck [-runs N]
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and the metrics (the end-to-end set without tracing,
// the per-layer set with it).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

var stderr io.Writer = os.Stderr

const outDir = "benchmark/out"

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultFile is what a run leaves under benchmark/out/: the result plus
// where and how it was taken, so a noisy run is visible as noisy.
type resultFile struct {
	Workload   string             `json:"workload"`
	Seed       int64              `json:"seed"`
	Seconds    int                `json:"seconds"`
	Traced     bool               `json:"traced"`
	Windows    int                `json:"windows"`
	GoVersion  string             `json:"go_version"`
	NumCPU     int                `json:"nproc"`
	GOMAXPROCS int                `json:"gomaxprocs"`
	GitSHA     string             `json:"git_sha"`
	TakenAt    string             `json:"taken_at"`
	Health     map[string]float64 `json:"harness"`
	Violations []string           `json:"violations,omitempty"`
	Result     resultLine         `json:"result"`
}

func gitSHA() string {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	return "unknown"
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: sim-paper, wire-single, routed-batch or http-mixed")
	seed := flag.Int64("seed", 1, "seed of the generated inputs")
	seconds := flag.Int("seconds", 20, "length of the measured window, seconds")
	trace := flag.Int("trace", 0, "1 runs with the harness's tracing on and prints the per-layer metrics")
	selfcheck := flag.Bool("selfcheck", false, "run every workload as two interleaved sets of runs and compare them against the bounds in BENCHMARK.json")
	runs := flag.Int("runs", 3, "with -selfcheck: runs per set")
	flag.Parse()

	// The stack is sized for a small box; more processors than four would
	// only add scheduler placement noise to two clients' traffic.
	runtime.GOMAXPROCS(min(runtime.NumCPU(), 4))

	if *selfcheck {
		os.Exit(selfCheck(*runs, *seconds))
	}
	if *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "benchmark: --seconds must be at least 1 and --trace 0 or 1")
		os.Exit(2)
	}
	cfg := runConfig{workload: *workloadName, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: outDir, sc: fullScale}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	line, err := report(cfg, out, os.Stdout)
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: %s: %v\n", cfg.workload, err)
		os.Exit(1)
	}
	if !line.Correct {
		os.Exit(1)
	}
}

// report prints every metric by name and unit, writes the result file and
// ends with the result line.
func report(cfg runConfig, out *outcome, w io.Writer) (resultLine, error) {
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	line := resultLine{
		Correct:   len(out.violations) == 0 && out.failed == 0 && out.attempted > 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := out.metrics[d.Name]
		if !ok {
			return line, fmt.Errorf("metric %s was not measured", d.Name)
		}
		line.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
		fmt.Fprintf(w, "%-34s %16.4f %s\n", d.Name, v, d.Unit)
	}
	health := make([]string, 0, len(out.health))
	for k := range out.health {
		health = append(health, k)
	}
	sort.Strings(health)
	for _, k := range health {
		fmt.Fprintf(w, "# %-32s %16.4f\n", k, out.health[k])
	}
	for _, v := range out.violations {
		fmt.Fprintf(stderr, "benchmark: %s: output check failed: %s\n", cfg.workload, v)
	}

	file := resultFile{
		Workload: cfg.workload, Seed: cfg.seed, Seconds: cfg.seconds, Traced: cfg.trace, Windows: out.windows,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), GitSHA: gitSHA(),
		TakenAt: time.Now().UTC().Format(time.RFC3339), Health: out.health, Violations: out.violations, Result: line,
	}
	name := cfg.workload + ".result.json"
	if cfg.trace {
		name = cfg.workload + ".trace.result.json"
	}
	data, err := json.MarshalIndent(file, "", "  ")
	if err != nil {
		return line, err
	}
	if err := os.WriteFile(filepath.Join(cfg.outDir, name), data, 0o644); err != nil {
		return line, err
	}
	last, err := json.Marshal(line)
	if err != nil {
		return line, err
	}
	_, err = fmt.Fprintf(w, "%s\n", last)
	return line, err
}
