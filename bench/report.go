package main

import (
	"fmt"
	"io"
	"maps"
	"slices"
)

// printOutcome prints every metric of the run by name with its unit —
// the end-to-end set of an untraced run, the per-layer set, the ladder
// and the share table of a traced one — and the oracle's verdict.
func printOutcome(w io.Writer, res *outcome, traced bool) {
	cond := res.Conditions
	fmt.Fprintf(w, "== %s  seed=%v seconds=%v trace=%v  (%v, GOMAXPROCS=%v, fs=%v)\n",
		res.Workload, cond["seed"], cond["seconds"], traced, cond["cpu_model"], cond["gomaxprocs"], cond["filesystem"])
	set := res.EndToEnd
	if traced {
		set = res.PerLayer
	}
	for _, name := range slices.Sorted(maps.Keys(set)) {
		v := set[name]
		fmt.Fprintf(w, "  %-42s %14.4f %-6s", name, v.Value, v.Unit)
		if v.Samples > 0 {
			fmt.Fprintf(w, "  n=%d p25=%.4f p75=%.4f p%g=%.4f", v.Samples, v.P25, v.P75, v.TailQ*100, v.TailV)
		}
		fmt.Fprintln(w)
	}
	if len(res.SpanSelfMs) > 0 {
		fmt.Fprint(w, "  span self time by layer (traced requests):")
		for _, layer := range slices.Sorted(maps.Keys(res.SpanSelfMs)) {
			fmt.Fprintf(w, "  %s %.0f ms", layer, res.SpanSelfMs[layer])
		}
		fmt.Fprintln(w)
	}
	if len(res.Ladder) > 0 {
		printLadder(w, res.LadderUnit, res.Ladder)
	}
	verdict := "oracle: ok"
	if !res.Correct {
		verdict = "oracle: FAILED"
	}
	fmt.Fprintf(w, "  %s — %d operations attempted, %d failed\n", verdict, res.Attempted, res.Failed)
	for _, v := range res.Violations {
		fmt.Fprintf(w, "    violation: %s\n", v)
	}
}
