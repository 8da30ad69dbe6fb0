// Command benchjson turns `go test -bench` output into a
// machine-readable benchmark artifact and, given a baseline, gates on
// regressions. CI runs the repo benchmarks with -count=N on the PR and
// on the main-branch baseline, lets benchstat render the human
// comparison, and uses this tool for the pass/fail decision and for the
// BENCH_results.json artifact the benchmark trajectory is tracked by.
//
//	benchjson -new new.txt [-old old.txt] [-out BENCH_results.json] \
//	          [-gate 'Ingest|Append|Audit'] [-threshold 20] [-alloc-threshold 10]
//
// Multiple -count samples of one benchmark are reduced to their median
// (robust to one noisy run, like benchstat). A gated benchmark fails
// the build when its median ns/op regresses by more than -threshold
// percent against the baseline, or — when both sides carry -benchmem
// columns — when its median allocs/op regresses by more than
// -alloc-threshold percent. The allocation gate is the cheaper and far
// more stable of the two (allocs/op is deterministic modulo pool
// warmup, where ns/op shares the runner with noisy neighbours), so it
// holds the zero-alloc ingest hot path at its floor: a change that
// re-introduces per-record garbage fails the PR even when the runner
// is too noisy for the ns/op gate to notice. Benchmarks present on
// only one side are reported but never fail either gate (new
// benchmarks must not break the PR that introduces them).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// sample is one benchmark line's measurements.
type sample struct {
	nsPerOp     float64
	bytesPerOp  float64
	allocsPerOp float64
	hasMem      bool
}

// result is one benchmark's reduced (median) measurement.
type result struct {
	Name        string  `json:"name"`
	Samples     int     `json:"samples"`
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp float64 `json:"allocs_per_op,omitempty"`
}

// delta compares one benchmark across baseline and PR.
type delta struct {
	Name           string  `json:"name"`
	OldNs          float64 `json:"old_ns_per_op"`
	NewNs          float64 `json:"new_ns_per_op"`
	DeltaPct       float64 `json:"delta_pct"`
	OldAllocs      float64 `json:"old_allocs_per_op,omitempty"`
	NewAllocs      float64 `json:"new_allocs_per_op,omitempty"`
	AllocsDeltaPct float64 `json:"allocs_delta_pct,omitempty"`
	Gated          bool    `json:"gated"`
}

// artifact is the BENCH_results.json layout.
type artifact struct {
	Benchmarks []result `json:"benchmarks"`
	Baseline   []result `json:"baseline,omitempty"`
	Deltas     []delta  `json:"deltas,omitempty"`
	Gate       *gate    `json:"gate,omitempty"`
}

type gate struct {
	Pattern           string   `json:"pattern"`
	ThresholdPct      float64  `json:"threshold_pct"`
	AllocThresholdPct float64  `json:"alloc_threshold_pct"`
	Violations        []string `json:"violations"`
}

var benchLine = regexp.MustCompile(`^(Benchmark\S+?)(?:-\d+)?\s+\d+\s+([\d.]+) ns/op(.*)$`)

// parseFile reads one `go test -bench` output file into per-benchmark
// sample lists.
func parseFile(path string) (map[string][]sample, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return parse(f)
}

// parse reads `go test -bench` output into per-benchmark sample lists.
func parse(r io.Reader) (map[string][]sample, error) {
	out := make(map[string][]sample)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		m := benchLine.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		s := sample{nsPerOp: ns}
		rest := strings.Fields(m[3])
		for i := 0; i+1 < len(rest); i += 2 {
			v, err := strconv.ParseFloat(rest[i], 64)
			if err != nil {
				continue
			}
			switch rest[i+1] {
			case "B/op":
				s.bytesPerOp = v
				s.hasMem = true
			case "allocs/op":
				s.allocsPerOp = v
				s.hasMem = true
			}
		}
		out[m[1]] = append(out[m[1]], s)
	}
	return out, sc.Err()
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// reduce collapses samples to sorted median results.
func reduce(samples map[string][]sample) []result {
	out := make([]result, 0, len(samples))
	for name, ss := range samples {
		r := result{Name: name, Samples: len(ss)}
		var ns, bs, as []float64
		hasMem := false
		for _, s := range ss {
			ns = append(ns, s.nsPerOp)
			bs = append(bs, s.bytesPerOp)
			as = append(as, s.allocsPerOp)
			hasMem = hasMem || s.hasMem
		}
		r.NsPerOp = median(ns)
		if hasMem {
			r.BytesPerOp = median(bs)
			r.AllocsPerOp = median(as)
		}
		out = append(out, r)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

func main() {
	var (
		newPath   = flag.String("new", "", "bench output of the change under test (required)")
		oldPath   = flag.String("old", "", "bench output of the baseline (optional; enables deltas and the gate)")
		outPath   = flag.String("out", "BENCH_results.json", "artifact path")
		gatePat   = flag.String("gate", "", "regexp of benchmark names the regression gate applies to")
		threshold = flag.Float64("threshold", 20, "max tolerated ns/op regression, percent")
		allocThr  = flag.Float64("alloc-threshold", 10, "max tolerated allocs/op regression, percent")
	)
	flag.Parse()
	if *newPath == "" {
		fmt.Fprintln(os.Stderr, "benchjson: -new is required")
		os.Exit(2)
	}

	newSamples, err := parseFile(*newPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	art := artifact{Benchmarks: reduce(newSamples)}
	if len(art.Benchmarks) == 0 {
		fmt.Fprintln(os.Stderr, "benchjson: no benchmark lines in", *newPath)
		os.Exit(2)
	}

	failed := false
	if *oldPath != "" {
		oldSamples, err := parseFile(*oldPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
		failed, err = compare(&art, oldSamples, *gatePat, *threshold, *allocThr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
			os.Exit(2)
		}
	}

	data, err := json.MarshalIndent(art, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchjson: %v\n", err)
		os.Exit(2)
	}
	fmt.Printf("benchjson: %d benchmarks", len(art.Benchmarks))
	if len(art.Deltas) > 0 {
		fmt.Printf(", %d compared against baseline", len(art.Deltas))
	}
	fmt.Printf(" → %s\n", *outPath)
	if failed {
		os.Exit(1)
	}
}

// compare fills art's baseline and deltas from the baseline samples and
// reports whether a benchmark matching gatePat regressed past either
// threshold (percent).
func compare(art *artifact, oldSamples map[string][]sample, gatePat string, threshold, allocThr float64) (failed bool, err error) {
	art.Baseline = reduce(oldSamples)
	var gated *regexp.Regexp
	if gatePat != "" {
		gated, err = regexp.Compile(gatePat)
		if err != nil {
			return false, fmt.Errorf("bad -gate: %v", err)
		}
		art.Gate = &gate{Pattern: gatePat, ThresholdPct: threshold, AllocThresholdPct: allocThr, Violations: []string{}}
	}
	oldByName := make(map[string]result, len(art.Baseline))
	for _, r := range art.Baseline {
		oldByName[r.Name] = r
	}
	for _, nr := range art.Benchmarks {
		or, ok := oldByName[nr.Name]
		if !ok || or.NsPerOp == 0 {
			continue
		}
		d := delta{
			Name:     nr.Name,
			OldNs:    or.NsPerOp,
			NewNs:    nr.NsPerOp,
			DeltaPct: (nr.NsPerOp - or.NsPerOp) / or.NsPerOp * 100,
			Gated:    gated != nil && gated.MatchString(nr.Name),
		}
		if or.AllocsPerOp > 0 || nr.AllocsPerOp > 0 {
			d.OldAllocs = or.AllocsPerOp
			d.NewAllocs = nr.AllocsPerOp
			if or.AllocsPerOp > 0 {
				d.AllocsDeltaPct = (nr.AllocsPerOp - or.AllocsPerOp) / or.AllocsPerOp * 100
			}
		}
		art.Deltas = append(art.Deltas, d)
		if d.Gated && d.DeltaPct > threshold {
			art.Gate.Violations = append(art.Gate.Violations, d.Name)
			fmt.Fprintf(os.Stderr, "benchjson: REGRESSION %s: %.0f → %.0f ns/op (%+.1f%% > %.0f%%)\n",
				d.Name, d.OldNs, d.NewNs, d.DeltaPct, threshold)
			failed = true
		}
		// The allocation gate only fires when the baseline has memory
		// columns too — a benchmark that just grew -benchmem must not
		// fail the PR that adds the measurement.
		if d.Gated && or.AllocsPerOp > 0 && d.AllocsDeltaPct > allocThr {
			art.Gate.Violations = append(art.Gate.Violations, d.Name+" (allocs)")
			fmt.Fprintf(os.Stderr, "benchjson: ALLOC REGRESSION %s: %.1f → %.1f allocs/op (%+.1f%% > %.0f%%)\n",
				d.Name, d.OldAllocs, d.NewAllocs, d.AllocsDeltaPct, allocThr)
			failed = true
		}
	}
	return failed, nil
}
