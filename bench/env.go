package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"time"
)

// envBlock says where and on what a run was made.
type envBlock struct {
	NProc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	Commit     string  `json:"commit"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds"`
	Short      bool    `json:"short"`
	Instance   int64   `json:"instance_seed"`
	OpsPerBlk  int     `json:"ops_per_block"`
	ProbeMs    float64 `json:"probe_nominal_ms"`
}

func environment(cfg runConfig, w workload) envBlock {
	e := envBlock{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		Commit: commit(), Seed: cfg.seed, Seconds: cfg.seconds, Short: cfg.short,
		Instance: instanceSeed, ProbeMs: probeNominalMs,
	}
	switch w := w.(type) {
	case *inproc:
		e.OpsPerBlk = len(w.ops)
	case *served:
		e.OpsPerBlk = w.cyclesPerBlock * (1 + servedRounds*nQueryClass)
	}
	return e
}

// commit names the source revision: run.sh passes it in (the driver's
// checkout is not a git repository, so it is often "unknown").
func commit() string {
	if c := os.Getenv("BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" && s.Value != "" {
				return s.Value
			}
		}
	}
	return "unknown"
}

// spinIters sizes the spin loop to about 200 ms on the machine the
// benchmark was calibrated on. It is a constant: the loop is fixed
// work, and how long it takes before and after a workload says whether
// the machine itself changed speed in between.
const spinIters = 90_000_000

var spinSink uint64

// spin times the fixed loop, in ms; the unit tests' smoke run spins a
// twentieth of it.
func spin(short bool) float64 {
	iters := spinIters
	if short {
		iters /= 20
	}
	t0 := time.Now()
	x := uint64(88172645463325252)
	for i := 0; i < iters; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
	}
	spinSink = x
	return float64(time.Since(t0)) / float64(time.Millisecond)
}
