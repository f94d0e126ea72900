package workload_test

import (
	"fmt"

	"repro/internal/workload"
	"repro/platform/registry"
)

// Record a halo-exchange workload, round-trip it through the binary trace
// format, and replay it on a freshly built world: the replayed timeline
// must reproduce the recording event for event, byte for byte.
func Example() {
	spec := registry.Spec{Platform: "mem", Ranks: 4, Seed: 1, Workload: "halo"}
	cfg := workload.Config{Pattern: "halo", Backend: spec.Key(), Ranks: 4, Steps: 4, Seed: 1}

	w, err := registry.Build(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	res, err := workload.Run(w, cfg)
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	// The trace is a compact versioned binary blob (DESIGN.md §12).
	tr, err := workload.Unmarshal(res.Trace.Marshal())
	if err != nil {
		fmt.Println("error:", err)
		return
	}

	w2, err := registry.Build(spec)
	if err != nil {
		fmt.Println("error:", err)
		return
	}
	if _, err := workload.Replay(w2, tr); err != nil {
		fmt.Println("diverged:", err)
		return
	}
	fmt.Printf("replayed %d events bit-identically\n", len(tr.Events))
	// Output: replayed 80 events bit-identically
}
