package main

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"
)

// benchmarkFile is the part of BENCHMARK.json the smoke check reads.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []declared `json:"end_to_end"`
	PerLayer []declared `json:"per_layer"`
}

type declared struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// smoke runs every workload once at tiny sizes, untraced and traced, and
// checks that each run is correct and emits exactly the metrics the
// benchmark definition at specPath declares, with their units.
func smoke(specPath, scratch string) error {
	raw, err := os.ReadFile(specPath)
	if err != nil {
		return err
	}
	var spec benchmarkFile
	if err := json.Unmarshal(raw, &spec); err != nil {
		return fmt.Errorf("%s: %w", specPath, err)
	}
	var names []string
	for _, w := range spec.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		return fmt.Errorf("%s declares workloads %v, the benchmark runs %v", specPath, names, workloadNames)
	}
	for _, name := range workloadNames {
		for _, traced := range []bool{false, true} {
			res, err := measure(name, 1, 0, traced, true, scratch)
			if err != nil {
				return err
			}
			want := spec.EndToEnd
			if traced {
				want = spec.PerLayer
			}
			if !res.Correct {
				err = fmt.Errorf("%d of %d operations failed", res.Failed, res.Attempted)
			} else {
				err = sameMetrics(res.Metrics, want)
			}
			if err != nil {
				return fmt.Errorf("%s (traced=%v): %w", name, traced, err)
			}
		}
	}
	return nil
}

// sameMetrics checks that got holds exactly the declared metrics, each with
// its declared unit.
func sameMetrics(got metrics, want []declared) error {
	for _, d := range want {
		m, ok := got[d.Name]
		if !ok {
			return fmt.Errorf("metric %s not emitted", d.Name)
		}
		if m.Unit != d.Unit {
			return fmt.Errorf("metric %s has unit %q, declared %q", d.Name, m.Unit, d.Unit)
		}
	}
	if len(got) != len(want) {
		return fmt.Errorf("emitted %d metrics, declared %d", len(got), len(want))
	}
	return nil
}
