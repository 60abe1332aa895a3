package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Contract is BENCHMARK.json: the names, units, directions and bounds a
// driver holds this benchmark to.
type Contract struct {
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []ContractMetric `json:"end_to_end"`
	PerLayer []ContractMetric `json:"per_layer"`
}

type ContractMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

func loadContract(root string) (*Contract, error) {
	blob, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return nil, err
	}
	var c Contract
	if err := json.Unmarshal(blob, &c); err != nil {
		return nil, fmt.Errorf("BENCHMARK.json: %w", err)
	}
	return &c, nil
}

// worsening is how much worse b is than a, as a share of a, in the metric's
// own direction; negative means b is better.
func worsening(better string, a, b float64) float64 {
	if better == "higher" {
		return (a - b) / a
	}
	return (b - a) / a
}

// selfcheck runs every workload twice back to back on one binary, with
// seeds seed and seed+1, and fails if the second run of any (workload,
// end-to-end metric) pair is worse than the first by more than the metric's
// bound in BENCHMARK.json, or if any operation failed. One run per side is a
// harsher test than the medians of ten a driver compares.
func (b *bench) selfcheck(seed int64) (int, error) {
	contract, err := loadContract(b.root)
	if err != nil {
		return 1, err
	}
	excess, failedOps := 0, 0
	for _, w := range workloads {
		var runs [2]*Result
		for i := range runs {
			if runs[i], err = b.runOne(w, seed+int64(i), false); err != nil {
				return 1, fmt.Errorf("%s: %w", w.Name, err)
			}
			failedOps += runs[i].OpsFailed
		}
		fmt.Printf("%s  (ops %d+%d, failed %d+%d)\n", w.Name,
			runs[0].OpsTotal, runs[1].OpsTotal, runs[0].OpsFailed, runs[1].OpsFailed)
		for _, m := range contract.EndToEnd {
			first, second := runs[0].EndToEnd[m.Name].Value, runs[1].EndToEnd[m.Name].Value
			worse := worsening(m.Better, first, second)
			verdict := "ok"
			if worse > m.Bound {
				verdict = "EXCESS"
				excess++
			}
			fmt.Printf("  %-18s %12.4f -> %12.4f %-4s %+7.2f%% worse (bound %.0f%%)  %s\n",
				m.Name, first, second, m.Unit, 100*worse, 100*m.Bound, verdict)
		}
	}
	if excess > 0 || failedOps > 0 {
		return 1, fmt.Errorf("selfcheck: %d metrics beyond their bound, %d failed operations", excess, failedOps)
	}
	fmt.Println("selfcheck: every metric within its bound, no failed operations")
	return 0, nil
}
