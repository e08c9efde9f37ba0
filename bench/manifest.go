package main

import (
	"encoding/json"
	"fmt"
	"io"
)

// manifestDoc is BENCHMARK.json, the driver's view of the benchmark.
type manifestDoc struct {
	Command    []string         `json:"command"`
	Paths      []string         `json:"paths"`
	RunSeconds int              `json:"run_seconds"`
	Workloads  []manifestWhy    `json:"workloads"`
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestWhy struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

type manifestMetric struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

// buildManifest renders the harness's tables in BENCHMARK.json's shape.
func buildManifest() manifestDoc {
	doc := manifestDoc{
		Command:    []string{"bash", "bench/run.sh"},
		Paths:      []string{"bench"},
		RunSeconds: runSeconds,
	}
	for _, w := range workloadDefs {
		doc.Workloads = append(doc.Workloads, manifestWhy{w.Name, w.Why})
	}
	for _, d := range endToEndDefs {
		bound := d.Bound
		doc.EndToEnd = append(doc.EndToEnd, manifestMetric{d.Name, d.Unit, d.Better, &bound})
	}
	for _, d := range perLayerDefs {
		doc.PerLayer = append(doc.PerLayer, manifestMetric{Name: d.Name, Unit: d.Unit, Better: d.Better})
	}
	return doc
}

func printManifest(stdout, stderr io.Writer) int {
	data, err := json.MarshalIndent(buildManifest(), "", "  ")
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", data)
	return 0
}
