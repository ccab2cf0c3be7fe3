package main

import (
	"fmt"
	"sort"
)

// Spec is BENCHMARK.json: the one place that names the workloads and the
// metrics with their units, directions and regression bounds. The program
// reads units and bounds from it by metric name and refuses to report a
// metric it does not declare.
type Spec struct {
	Command    []string       `json:"command"`
	Paths      []string       `json:"paths"`
	RunSeconds int            `json:"run_seconds"`
	Workloads  []WorkloadDecl `json:"workloads"`
	EndToEnd   []MetricDecl   `json:"end_to_end"`
	PerLayer   []MetricDecl   `json:"per_layer"`
}

type WorkloadDecl struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

// MetricDecl declares one metric. Bound is the share of the parent's median
// by which an end-to-end metric may get worse; per-layer metrics have none.
type MetricDecl struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadSpec(path string) (*Spec, error) {
	var s Spec
	if err := readJSON(path, &s); err != nil {
		return nil, err
	}
	for _, m := range append(append([]MetricDecl(nil), s.EndToEnd...), s.PerLayer...) {
		if m.Better != "higher" && m.Better != "lower" {
			return nil, fmt.Errorf("%s: metric %s: better must be higher or lower, not %q", path, m.Name, m.Better)
		}
	}
	return &s, nil
}

// decls returns the metrics a run in the given mode reports.
func (s *Spec) decls(trace bool) []MetricDecl {
	if trace {
		return s.PerLayer
	}
	return s.EndToEnd
}

// conform turns what a workload measured into exactly the declared metric
// set of the run's mode: units come from the declaration, a per-layer metric
// of a layer the workload does not execute reads 0, and a measured name
// with no declaration — or a missing end-to-end metric — is a failed check.
func (s *Spec) conform(trace bool, measured map[string]Metric, c *checks) map[string]Metric {
	out := make(map[string]Metric, len(measured))
	for _, d := range s.decls(trace) {
		m, ok := measured[d.Name]
		if !ok && !trace {
			c.check(false, "end-to-end metric %s was not measured", d.Name)
		}
		if !ok {
			m = Metric{N: 0}
		}
		m.Unit = d.Unit
		out[d.Name] = m
	}
	var extra []string
	for name := range measured {
		if _, ok := out[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	c.check(len(extra) == 0, "measured metrics not declared in BENCHMARK.json: %v", extra)
	return out
}
