// Command provbench reproduces the paper: its tables (T1-T4), the
// §2.3.2 worked examples (E1-E3), Propositions 1-3 and Theorem 1
// (P1-P3, TH1), cost figures (F1-F4), ablations (A1-A2) and extensions
// (X1-X3). Service performance is measured elsewhere: `go run ./bench`
// end to end and per layer, the Go micro-benchmarks by cmd/benchjson.
//
// Usage:
//
//	provbench -exp T3          one experiment
//	provbench -exp E1,E2,E3    several
//	provbench                  all of them
//
// The exit status is 1 if any check failed, 2 on unknown experiment ids.
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
)

// experiment is one reproducible artifact.
type experiment struct {
	id    string
	title string
	run   func()
}

var experiments = []experiment{
	{"T1", "Table 1 — syntax round-trip", expT1},
	{"T2", "Table 2 — reduction rules on minimal witnesses", expT2},
	{"T3", "Table 3 — sample pattern language", expT3},
	{"T4", "Table 4 — monitored semantics mirrors plain semantics", expT4},
	{"E1", "§2.3.2 — authentication", expE1},
	{"E2", "§2.3.2 — auditing", expE2},
	{"E3", "§2.3.2 — photography competition", expE3},
	{"P1", "Proposition 1 — ≼ is a partial order", expP1},
	{"P2", "Proposition 2 — log erasure correspondence", expP2},
	{"P3", "Proposition 3 — completeness is not preserved", expP3},
	{"TH1", "Theorem 1 — correctness is preserved", expTH1},
	{"F1", "Figure — dynamic tracking overhead vs pipeline depth", expF1},
	{"F2", "Figure — pattern matching cost vs provenance length", expF2},
	{"F3", "Figure — ≼-checking cost vs log size", expF3},
	{"F4", "Figure — middleware throughput, in-proc vs TCP", expF4},
	{"A1", "Ablation — memoised vs naive matcher", expA1},
	{"A2", "Ablation — provenance truncation (depth-k)", expA2},
	{"X1", "Extension §5 — trust and adequacy", expX1},
	{"X2", "Extension §5 — static analysis vs dynamic runs", expX2},
	{"X3", "Extension — auditing under an unreliable network", expX3},
}

func main() {
	expFlag := flag.String("exp", "", "comma-separated experiment ids (default: all)")
	list := flag.Bool("list", false, "list experiment ids")
	flag.Parse()

	if *list {
		for _, e := range experiments {
			fmt.Printf("%-4s %s\n", e.id, e.title)
		}
		return
	}

	var ids []string
	if *expFlag != "" {
		ids = strings.Split(*expFlag, ",")
	}
	os.Exit(run(experiments, ids))
}

// run executes the experiments named by ids (all of them when ids is
// empty) and returns the process exit status.
func run(exps []experiment, ids []string) int {
	want := map[string]bool{}
	for _, id := range ids {
		want[strings.ToUpper(strings.TrimSpace(id))] = true
	}
	known := map[string]bool{}
	for _, e := range exps {
		known[e.id] = true
	}
	var unknown []string
	for id := range want {
		if !known[id] {
			unknown = append(unknown, id)
		}
	}
	if len(unknown) > 0 {
		sort.Strings(unknown)
		fmt.Fprintf(os.Stderr, "provbench: unknown experiments: %s\n", strings.Join(unknown, ", "))
		return 2
	}

	before := failures
	for _, e := range exps {
		if len(want) > 0 && !want[e.id] {
			continue
		}
		fmt.Printf("==== %s: %s ====\n", e.id, e.title)
		e.run()
		fmt.Println()
	}
	if n := failures - before; n > 0 {
		fmt.Fprintf(os.Stderr, "provbench: %d checks failed\n", n)
		return 1
	}
	return 0
}

// failures counts failed checks across every experiment run.
var failures int

// pass/fail helpers keep the report format uniform.
func check(label string, ok bool) {
	mark := "ok  "
	if !ok {
		mark = "FAIL"
		failures++
	}
	fmt.Printf("  [%s] %s\n", mark, label)
}

func row(cols ...string) {
	fmt.Printf("  %s\n", strings.Join(cols, " | "))
}
