// Command concordbench regenerates every figure of the paper (E1-E8), the
// synthetic quantifications (E9-E11) and the multi-workstation load scenario
// (E12), printing one table per experiment. See DESIGN.md §6 for the
// experiment index and EXPERIMENTS.md for the paper-vs-measured record,
// which also holds the pinned figures of E13-E16 and E18-E20.
//
// Usage:
//
//	concordbench                            # run all experiments
//	concordbench E5 E12                     # run selected experiments
package main

import (
	"fmt"
	"os"

	"concord/internal/experiments"
)

func main() {
	runs := map[string]func() (experiments.Report, error){
		"E1": experiments.E1LevelStack, "E2": experiments.E2DesignPlane,
		"E3": experiments.E3ChipPlanning, "E4": experiments.E4DAHierarchy,
		"E5": experiments.E5Delegation, "E6": experiments.E6Scripts,
		"E7": experiments.E7StateGraph, "E8": experiments.E8FailureMatrix,
		"E9": experiments.E9Cooperation, "E10": experiments.E10CommitProtocols,
		"E11": experiments.E11RecoveryPoints, "E12": experiments.E12MultiWorkstation,
	}
	order := []string{"E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9", "E10", "E11", "E12"}

	selected := os.Args[1:]
	if len(selected) == 0 {
		selected = order
	}
	for _, id := range selected {
		run, ok := runs[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v)\n", id, order)
			os.Exit(2)
		}
		rep, err := run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
	}
}
