package main

import (
	"fmt"
	"os"
	"sort"
)

// A/A: the same binary measured against itself. N full sets of the four
// workloads run one after another, each set on its own seed and with
// the workload order alternating, and every metric's spread between the
// sets is compared with the bound the benchmark fixed for it. A metric
// whose own run-to-run spread exceeds its bound cannot resolve a
// regression of that size: it is reported as unresolved, and the fix is
// a longer run or a demotion to per-layer detail, never a wider bound.

// quartiles follows Python's statistics.quantiles(values, n=4) (the
// default, exclusive method), which is what the driver computes.
func quartiles(values []float64) (q1, q2, q3 float64) {
	data := append([]float64(nil), values...)
	sort.Float64s(data)
	ld := len(data)
	if ld < 2 {
		return data[0], data[0], data[0]
	}
	const n = 4
	var q [n - 1]float64
	for i := 1; i < n; i++ {
		j := min(max(i*(ld+1)/n, 1), ld-1)
		delta := i*(ld+1) - j*n
		q[i-1] = (data[j-1]*float64(n-delta) + data[j]*float64(delta)) / n
	}
	return q[0], q[1], q[2]
}

func runAA(c *config, sets int) error {
	defs := endToEnd
	if c.trace {
		defs = perLayer
	}
	got := make(map[string]map[string][]float64) // workload → metric → one value per set
	for set := 0; set < sets; set++ {
		order := append([]string(nil), workloadNames...)
		if set%2 == 1 {
			for i, j := 0, len(order)-1; i < j; i, j = i+1, j-1 {
				order[i], order[j] = order[j], order[i]
			}
		}
		for _, name := range order {
			res, err := child(c, name, c.seed+int64(set))
			if err != nil {
				return err
			}
			ms := res.EndToEnd
			if c.trace {
				ms = res.PerLayer
			}
			if got[name] == nil {
				got[name] = make(map[string][]float64)
			}
			for metric, v := range ms {
				got[name][metric] = append(got[name][metric], v.Value)
			}
		}
	}
	fmt.Printf("\nA/A over %d sets (seeds %d..%d, %v s per run)\n", sets, c.seed, c.seed+int64(sets)-1, c.seconds)
	fmt.Printf("%-10s %-38s %14s %9s %7s %13s\n", "workload", "metric", "median", "spread", "bound", "spread/bound")
	unresolved := 0
	for _, name := range workloadNames {
		for _, d := range defs {
			vals := got[name][d.Name]
			if len(vals) == 0 {
				continue
			}
			q1, q2, q3 := quartiles(vals)
			spread := 0.0
			if q2 != 0 {
				spread = (q3 - q1) / q2
			}
			line := fmt.Sprintf("%-10s %-38s %14.4f %8.1f%%", name, d.Name, q2, spread*100)
			if d.Bound > 0 {
				line += fmt.Sprintf(" %6.0f%% %13.2f", d.Bound*100, spread/d.Bound)
				// setup_s is gated on its median only, not on its spread.
				if spread > d.Bound && d.Name != "setup_s" {
					line += "  unresolved"
					unresolved++
				}
			}
			fmt.Println(line)
		}
	}
	if unresolved > 0 {
		fmt.Fprintf(os.Stderr, "bench: %d metric(s) spread wider than their bound\n", unresolved)
		os.Exit(3)
	}
	return nil
}
