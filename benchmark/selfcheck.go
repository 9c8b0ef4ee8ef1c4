package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// benchmarkJSON is the part of BENCHMARK.json the self-check reads.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func readBenchmarkJSON(path string) (*benchmarkJSON, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchmarkJSON
	if err := json.Unmarshal(data, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// quartiles are the first and third quartile as Python's
// statistics.quantiles(v, n=4) computes them, which is what the driver
// of this benchmark uses for a metric's spread.
func quartiles(v []float64) (q1, q3 float64) {
	s := sorted(v)
	m := len(s)
	if m < 2 {
		return s[0], s[0]
	}
	at := func(i int) float64 {
		j := min(max(i*(m+1)/4, 1), m-1)
		delta := float64(i*(m+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// selfCheck runs every workload runs×2 times as this same binary, in two
// interleaved sets (A B A B …, each run on its own seed), and holds the
// sets to the bounds in BENCHMARK.json: the second set's median may not
// be worse than the first's by more than the bound, and the spread of
// all runs (interquartile range over median) must stay inside it too,
// set-up time excepted. Identical code on both sides, so any breach is
// the benchmark's own noise. It prints a table and returns the exit code.
func selfCheck(runs, seconds int) int {
	bench, err := readBenchmarkJSON("BENCHMARK.json")
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
		return 2
	}
	self, err := os.Executable()
	if err != nil {
		fmt.Fprintf(stderr, "benchmark: selfcheck: %v\n", err)
		return 2
	}
	breaches := 0
	fmt.Printf("| workload | metric | median A | median B | B worse by | spread (IQR/median) | bound | |\n|---|---|---|---|---|---|---|---|\n")
	for _, wl := range bench.Workloads {
		sets := [2]map[string][]float64{{}, {}}
		for i := 0; i < 2*runs; i++ {
			cmd := exec.Command(self, "--workload", wl.Name, "--seed", strconv.Itoa(i+1), "--seconds", strconv.Itoa(seconds), "--trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				fmt.Fprintf(stderr, "benchmark: selfcheck: %s run %d: %v\n", wl.Name, i+1, err)
				return 1
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var line resultLine
			if err := json.Unmarshal(lines[len(lines)-1], &line); err != nil || !line.Correct {
				fmt.Fprintf(stderr, "benchmark: selfcheck: %s run %d: bad result line (%v): %s\n", wl.Name, i+1, err, lines[len(lines)-1])
				return 1
			}
			// Every run made is reported, not only the medians.
			fmt.Fprintf(stderr, "%s run %d (set %c, seed %d):", wl.Name, i+1, 'A'+rune(i%2), i+1)
			for _, e := range bench.EndToEnd {
				v := line.Metrics[e.Name].Value
				sets[i%2][e.Name] = append(sets[i%2][e.Name], v)
				fmt.Fprintf(stderr, " %s=%.4g", e.Name, v)
			}
			fmt.Fprintln(stderr)
		}
		for _, e := range bench.EndToEnd {
			a, b := median(sets[0][e.Name]), median(sets[1][e.Name])
			worse := (b - a) / a
			if e.Better == "higher" {
				worse = (a - b) / a
			}
			all := append(append([]float64(nil), sets[0][e.Name]...), sets[1][e.Name]...)
			q1, q3 := quartiles(all)
			spread := (q3 - q1) / median(all)
			verdict := "ok"
			if worse > e.Bound || (e.Name != "setup_s" && spread > e.Bound) {
				verdict = "BREACH"
				breaches++
			}
			fmt.Printf("| %s | %s | %.4f | %.4f | %+.1f%% | %.1f%% | %.0f%% | %s |\n",
				wl.Name, e.Name, a, b, worse*100, spread*100, e.Bound*100, verdict)
		}
	}
	if breaches > 0 {
		fmt.Fprintf(stderr, "benchmark: selfcheck: %d breaches\n", breaches)
		return 1
	}
	return 0
}
