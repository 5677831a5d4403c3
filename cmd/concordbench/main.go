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
	byID := make(map[string]experiments.Experiment, len(experiments.Table))
	var ids []string
	for _, e := range experiments.Table {
		byID[e.ID] = e
		ids = append(ids, e.ID)
	}
	selected := os.Args[1:]
	if len(selected) == 0 {
		selected = ids
	}
	for _, id := range selected {
		e, ok := byID[id]
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown experiment %q (have %v)\n", id, ids)
			os.Exit(2)
		}
		rep, err := e.Run()
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s failed: %v\n", id, err)
			os.Exit(1)
		}
		fmt.Println(rep.String())
	}
}
