package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"text/tabwriter"
)

// The self-agreement gate and the calibration table. Both run each
// workload as a child process of this same binary, one at a time, the
// way the driver does, so every run starts from a fresh heap.

// childResult is what a child run printed: the result line and, from
// the report line before it, the timings as measured.
type childResult struct {
	result
	Diag map[string]float64
}

// childRun runs one workload in a child process and decodes the last
// two lines of its standard output.
func childRun(cfg runConfig, name string, seed int64, trace bool, stderr io.Writer) (*childResult, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	t := "0"
	if trace {
		t = "1"
	}
	args := []string{"-workload", name, "-seed", strconv.FormatInt(seed, 10),
		"-seconds", strconv.FormatFloat(cfg.seconds, 'f', -1, 64), "-trace", t, "-out", cfg.outDir}
	cmd := exec.Command(exe, args...)
	cmd.Stderr = stderr
	out, err := cmd.Output()
	lines := bytes.Split(bytes.TrimSpace(out), []byte("\n"))
	var res childResult
	if jerr := json.Unmarshal(lines[len(lines)-1], &res.result); jerr != nil || len(lines) < 2 {
		return nil, fmt.Errorf("%s seed %d: no result line (%v, run: %v)", name, seed, jerr, err)
	}
	var rep report
	if jerr := json.Unmarshal(lines[len(lines)-2], &rep); jerr != nil {
		return nil, fmt.Errorf("%s seed %d: no report line: %v", name, seed, jerr)
	}
	res.Diag = rep.Diag
	if !res.Correct {
		return &res, fmt.Errorf("%s seed %d: %d of %d ops failed", name, seed, res.Failed, res.Attempted)
	}
	return &res, nil
}

func selectedWorkloads(cfg runConfig) []string {
	if cfg.workload != "" {
		return []string{cfg.workload}
	}
	var names []string
	for _, w := range workloadDefs {
		names = append(names, w.Name)
	}
	return names
}

// agreeMain runs two sets of runs of the same code with one seed and
// compares them with the benchmark's own bounds. Each workload is run
// four times in ABBA order — set A takes the first and last run, set B
// the two in between, a set's value is the mean of its two runs — so a
// machine that drifts steadily through the four runs favours neither
// set. The traced run is made once per set: its exact counts must
// repeat bit for bit.
func agreeMain(cfg runConfig, stdout, stderr io.Writer) int {
	names := selectedWorkloads(cfg)
	type pair struct {
		e2e   [2]map[string]float64
		layer [2]*childResult
	}
	runs := map[string]*pair{}
	for _, n := range names {
		p := &pair{}
		p.e2e[0], p.e2e[1] = map[string]float64{}, map[string]float64{}
		runs[n] = p
		for i, set := range []int{0, 1, 1, 0} {
			fmt.Fprintf(stderr, "agree: %s run %d of 4 (set %c)\n", n, i+1, 'A'+set)
			res, err := childRun(cfg, n, cfg.seed, false, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "agree:", err)
				return 1
			}
			for _, d := range endToEndDefs {
				p.e2e[set][d.Name] += res.Metrics[d.Name].Value / 2
			}
			for name, v := range res.Diag {
				p.e2e[set][name] += v / 2
			}
		}
		for set := 0; set < 2; set++ {
			fmt.Fprintf(stderr, "agree: %s traced run (set %c)\n", n, 'A'+set)
			res, err := childRun(cfg, n, cfg.seed, true, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "agree:", err)
				return 1
			}
			p.layer[set] = res
		}
	}
	failed := false
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintln(tw, "workload\tmetric\tset A\tset B\tgap\tbound\tverdict")
	for _, n := range names {
		for _, d := range reportedDefs() {
			a, b := runs[n].e2e[0][d.Name], runs[n].e2e[1][d.Name]
			gap := 0.0
			if a != 0 {
				gap = math.Abs(b-a) / math.Abs(a)
			}
			// Only gated metrics can fail the gate; a raw timing is
			// shown for the reader.
			bound, verdict := fmt.Sprintf("%.0f%%", 100*d.Bound), "ok"
			switch {
			case d.Bound == 0:
				bound, verdict = "-", "diag"
			case gap > d.Bound:
				verdict, failed = "DISAGREE", true
			}
			fmt.Fprintf(tw, "%s\t%s\t%.4f\t%.4f\t%.1f%%\t%s\t%s\n", n, d.Name, a, b, 100*gap, bound, verdict)
		}
	}
	tw.Flush()
	exact, same := 0, 0
	for _, n := range names {
		for _, d := range perLayerDefs {
			if !exactPerLayer(d.Name) {
				continue
			}
			exact++
			a, b := runs[n].layer[0].Metrics[d.Name].Value, runs[n].layer[1].Metrics[d.Name].Value
			if a == b {
				same++
				continue
			}
			failed = true
			fmt.Fprintf(stdout, "exact count differs: %s %s: %v vs %v\n", n, d.Name, a, b)
		}
	}
	fmt.Fprintf(stdout, "exact counts identical between the sets: %d of %d\n", same, exact)
	if failed {
		return 1
	}
	return 0
}

// calibrateMain runs n sets, set i with seed+i (alternating the walk
// order), and prints per (workload, metric) the median, the quartiles
// and the spread — interquartile range over median, the figure the
// driver holds against the bound.
func calibrateMain(cfg runConfig, n int, stdout, stderr io.Writer) int {
	names := selectedWorkloads(cfg)
	values := map[string]map[string][]float64{}
	for _, w := range names {
		values[w] = map[string][]float64{}
	}
	for set := 0; set < n; set++ {
		order := names
		if set%2 == 1 {
			order = reversed(names)
		}
		for _, w := range order {
			fmt.Fprintf(stderr, "calibrate: set %d/%d %s\n", set+1, n, w)
			res, err := childRun(cfg, w, cfg.seed+int64(set), false, stderr)
			if err != nil {
				fmt.Fprintln(stderr, "calibrate:", err)
				return 1
			}
			for _, d := range endToEndDefs {
				values[w][d.Name] = append(values[w][d.Name], res.Metrics[d.Name].Value)
			}
			for name, v := range res.Diag {
				values[w][name] = append(values[w][name], v)
			}
		}
	}
	over := false
	tw := tabwriter.NewWriter(stdout, 0, 0, 2, ' ', 0)
	fmt.Fprintf(tw, "workload\tmetric\tunit\tq1\tmedian\tq3\tspread\tbound\t\n")
	for _, w := range names {
		for _, d := range reportedDefs() {
			q1, q2, q3 := quartiles(values[w][d.Name])
			sp := spread(values[w][d.Name])
			bound, note := fmt.Sprintf("%.0f%%", 100*d.Bound), ""
			switch {
			case d.Bound == 0:
				bound, note = "-", "diag"
			case d.Name != "setup_s" && sp > d.Bound:
				note, over = "OVER", true
			case sp > d.Bound/3:
				note = "wide"
			}
			fmt.Fprintf(tw, "%s\t%s\t%s\t%.4f\t%.4f\t%.4f\t%.1f%%\t%s\t%s\n",
				w, d.Name, d.Unit, q1, q2, q3, 100*sp, bound, note)
		}
	}
	tw.Flush()
	fmt.Fprintf(stdout, "%d sets, seeds %d..%d, %s s per run\n", n, cfg.seed, cfg.seed+int64(n)-1,
		strings.TrimSuffix(strconv.FormatFloat(cfg.seconds, 'f', 1, 64), ".0"))
	if over {
		return 1
	}
	return 0
}

func reversed(xs []string) []string {
	out := make([]string, len(xs))
	for i, x := range xs {
		out[len(xs)-1-i] = x
	}
	return out
}
