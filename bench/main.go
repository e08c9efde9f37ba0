// Command bench is the certsql benchmark: five fixed-content workloads,
// five gated end-to-end metrics, a traced run that breaks an op down by layer,
// and a self-agreement gate. See README.md in this directory. From
// bench/ (a module of its own that requires the parent through a
// replace directive):
//
//	go run . -workload paper_warm -seed 1            end-to-end metrics
//	go run . -workload paper_warm -seed 1 -trace 1   per-layer metrics
//	go run . -seed 1                                 every workload
//	go run . -agree                                  two sets, compared
//	go run . -calibrate 10                           ten sets, spreads
//	go run . -manifest > ../BENCHMARK.json           regenerate the manifest
//
// The driver's form, `bash bench/run.sh --workload W --seed N --seconds S
// --trace 0|1`, builds this program inside the checkout and runs it.
// The last line of standard output is always one JSON object with the
// keys correct, attempted, failed and metrics; the line before it is
// the full report (environment, sample counts, harness health).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

// result is the last line of output, the shape the driver reads.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run (default: all, one after the other)")
	seed := fs.Int64("seed", 1, "seed for parameter draws and the write stream")
	seconds := fs.Float64("seconds", runSeconds, "how long the timed blocks run")
	trace := fs.Int("trace", 0, "1: traced run, print the per-layer metrics instead of the end-to-end ones")
	outDir := fs.String("out", "out", "directory for traces and scratch data")
	agree := fs.Bool("agree", false, "run every workload twice, compare, exit 1 if a gap exceeds its bound")
	calibrate := fs.Int("calibrate", 0, "run N sets with seeds seed..seed+N-1 and print median, quartiles and spread")
	manifest := fs.Bool("manifest", false, "print BENCHMARK.json as the harness's own tables define it")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 || (*trace != 0 && *trace != 1) || *seconds <= 0 {
		fmt.Fprintln(stderr, "bench: bad arguments; see -h")
		return 2
	}
	cfg := runConfig{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1, outDir: *outDir}
	switch {
	case *manifest:
		return printManifest(stdout, stderr)
	case *agree:
		return agreeMain(cfg, stdout, stderr)
	case *calibrate > 0:
		return calibrateMain(cfg, *calibrate, stdout, stderr)
	}

	names := []string{cfg.workload}
	if cfg.workload == "" {
		names = names[:0]
		for _, w := range workloadDefs {
			names = append(names, w.Name)
		}
	} else if _, ok := findWorkload(cfg.workload); !ok {
		fmt.Fprintf(stderr, "bench: unknown workload %q\n", cfg.workload)
		return 2
	}
	final := result{Correct: true, Metrics: map[string]metric{}}
	enc := json.NewEncoder(stdout)
	for _, name := range names {
		c := cfg
		c.workload = name
		rep := runWorkload(c)
		if err := enc.Encode(rep); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
		if rep.Error != "" {
			fmt.Fprintf(stderr, "bench: %s: %s\n", name, rep.Error)
		}
		final.Correct = final.Correct && rep.Correct
		final.Attempted += rep.OpsAttempted
		final.Failed += rep.OpsFailed
		for k, v := range rep.Metrics {
			if len(names) > 1 {
				k = name + "/" + k
			}
			final.Metrics[k] = v
		}
	}
	if err := enc.Encode(final); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	if !final.Correct {
		return 1
	}
	return 0
}
