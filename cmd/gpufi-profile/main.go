// Command gpufi-profile prints the dynamic instruction profiles of the
// evaluated applications — the data behind Fig. 3 of the paper.
package main

import (
	"flag"
	"fmt"
	"log"
	"sort"

	"gpufi"
	"gpufi/internal/isa"
	"gpufi/internal/swfi"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gpufi-profile: ")
	perOp := flag.Bool("ops", false, "print per-opcode counts instead of category shares")
	flag.Parse()

	for _, w := range gpufi.HPCSuite() {
		counts, err := gpufi.Profile(w)
		if err != nil {
			log.Fatal(err)
		}
		report(w.Name, counts, *perOp)
	}
	for _, c := range []struct {
		name  string
		net   *gpufi.Network
		input []float32
	}{
		{"LeNetLite", gpufi.NewLeNetLite(), gpufi.LeNetInput(0)},
		{"YoloLite", gpufi.NewYoloLite(), gpufi.YoloInput(0)},
	} {
		counts, err := swfi.ProfileCNN(c.net, c.input)
		if err != nil {
			log.Fatal(err)
		}
		report(c.name, counts, *perOp)
	}
}

func report(name string, counts swfi.Counts, perOp bool) {
	if !perOp {
		fmt.Println(swfi.FigureProfile(name, counts))
		return
	}
	fmt.Printf("%s (total %d thread-instructions):\n", name, counts.Total())
	type oc struct {
		op isa.Opcode
		n  uint64
	}
	var rows []oc
	for op, n := range counts {
		if n > 0 {
			rows = append(rows, oc{isa.Opcode(op), n})
		}
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].n > rows[j].n })
	for _, r := range rows {
		fmt.Printf("  %-8s %10d (%5.1f%%)\n", r.op, r.n, 100*float64(r.n)/float64(counts.Total()))
	}
}
