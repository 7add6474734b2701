package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"strings"
)

// benchDef is the part of BENCHMARK.json the spread report reads.
type benchDef struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readBench(path string) (*benchDef, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var b benchDef
	if err := json.Unmarshal(raw, &b); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &b, nil
}

// spreadReport runs each workload `runs` times, each with its own seed
// (cfg.seed, cfg.seed+1, ...), as separate processes of this binary, and
// prints for every end-to-end metric the median, quartiles (as Python's
// statistics.quantiles(values, n=4) gives them) and the interquartile
// range as a share of the median, against the metric's bound. A metric
// is steady when that spread is below a third of its bound; setup_s is
// reported but not gated on spread. It fails when any run fails or any
// gated spread exceeds its bound.
func spreadReport(cfg config, benchFile string, runs int, only string) error {
	b, err := readBench(benchFile)
	if err != nil {
		return err
	}
	seconds := float64(b.RunSeconds)
	flag.Visit(func(f *flag.Flag) {
		if f.Name == "seconds" {
			seconds = cfg.seconds
		}
	})
	var names []string
	if only != "" {
		names = strings.Split(only, ",")
	} else {
		for _, w := range b.Workloads {
			names = append(names, w.Name)
		}
	}
	self, err := os.Executable()
	if err != nil {
		return err
	}
	bad := 0
	var table []string
	for _, w := range names {
		values := map[string][]float64{}
		for r := 0; r < runs; r++ {
			seed := cfg.seed + int64(r)
			cmd := exec.Command(self, "-workload", w, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds),
				"-trace", "0", "-pathmark", cfg.pathmark, "-workdir", cfg.workdir)
			var out bytes.Buffer
			cmd.Stdout = &out
			cmd.Stderr = nil // the per-run summaries would drown the report
			runErr := cmd.Run()
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var rep report
			if jerr := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); jerr != nil || runErr != nil || !rep.Correct {
				fmt.Fprintf(os.Stderr, "perfbench: spread: %s seed %d: FAILED (exit %v, correct=%v, failed=%d/%d)\n",
					w, seed, runErr, rep.Correct, rep.Failed, rep.Attempted)
				bad++
				continue
			}
			fmt.Fprintf(os.Stderr, "perfbench: spread: %s seed %d: ok, %d ops\n", w, seed, rep.Attempted)
			for name, m := range rep.Metrics {
				values[name] = append(values[name], m.Value)
			}
		}
		for _, e := range b.EndToEnd {
			xs := values[e.Name]
			if len(xs) < 2 {
				table = append(table, fmt.Sprintf("%-13s %-18s too few runs", w, e.Name))
				bad++
				continue
			}
			q1, q2, q3 := quartiles(xs)
			spread := (q3 - q1) / q2
			verdict := "steady"
			switch {
			case e.Name == "setup_s":
				verdict = "(not gated)"
			case spread > e.Bound:
				verdict = "WIDER THAN BOUND"
				bad++
			case spread > e.Bound/3:
				verdict = "within bound, above bound/3"
			}
			table = append(table, fmt.Sprintf("%-13s %-18s %12.4f %12.4f %12.4f %8.4f %6.3f  %s",
				w, e.Name, q2, q1, q3, spread, e.Bound, verdict))
		}
	}
	fmt.Printf("%-13s %-18s %12s %12s %12s %8s %6s\n", "workload", "metric", "median", "q1", "q3", "iqr/med", "bound")
	for _, t := range table {
		fmt.Println(t)
	}
	if bad > 0 {
		return fmt.Errorf("spread: %d failed runs or spreads beyond their bound", bad)
	}
	return nil
}
