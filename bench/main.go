// Command bench is the repository's benchmark: four seeded workloads
// against in-process provd nodes wired as cmd/provd wires them (mutual
// TLS, auth.Guard, fsync on), with a correctness oracle on every run.
//
//	go run ./bench --workload firehose --seed 1 --seconds 10 --trace 0
//	go run ./bench                 # all four workloads, one after another
//	go run ./bench --trace 1       # the per-layer run: ladder, probes, spans
//	go run ./bench -aa 2           # A/A: two full sets, spread per metric
//
// The untraced run prints the end-to-end metrics a user of the log
// service sees; the traced run prints one metric set per layer
// (package), measured only from this directory: a ladder of the same
// batches pushed through ever more of the write path, spans around each
// call into a layer's public API, and the difference of each layer's
// public Stats() before and after. The last line of standard output is
// one JSON object: {"correct","attempted","failed","metrics"}.
// BENCHMARK.json at the repository root names this command for the
// driver; README.md in this directory is the glossary.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"syscall"
)

func main() {
	var (
		workloadFlag = flag.String("workload", "all", "workload to run: firehose, trickle, audit-mix, fleet, or all")
		seed         = flag.Int64("seed", 1, "seed of every generated input")
		seconds      = flag.Float64("seconds", 30, "length of the timed phase; preload sizes scale with it")
		trace        = flag.Int("trace", 0, "1 runs the per-layer measurement (ladder, probes, spans) instead of the end-to-end one")
		aa           = flag.Int("aa", 0, "A/A mode: run this many full sets of the same binary and print the spread of every metric")
		dir          = flag.String("dir", filepath.Join("bench", "out", "data"), "scratch directory for store data (its filesystem sets the fsync cost)")
		out          = flag.String("out", filepath.Join("bench", "out"), "directory for results.json and trace-<workload>.json")
		spec         = flag.Bool("spec", false, "print BENCHMARK.json as the metric registry defines it, and exit")
	)
	flag.Parse()
	if *spec {
		data, err := json.MarshalIndent(benchmarkSpec(), "", "  ")
		if err != nil {
			fatal(err)
		}
		fmt.Println(string(data))
		return
	}
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("--seconds must be positive"))
	}
	c := &config{workload: *workloadFlag, seed: *seed, seconds: *seconds, trace: *trace != 0, dir: *dir, out: *out}
	if err := os.MkdirAll(c.out, 0o755); err != nil {
		fatal(err)
	}
	switch {
	case *aa > 0:
		if err := runAA(c, *aa); err != nil {
			fatal(err)
		}
	case c.workload == "all":
		if err := runAll(c); err != nil {
			fatal(err)
		}
	default:
		if err := runOne(c); err != nil {
			fatal(err)
		}
	}
}

// errOracle marks a run whose numbers were printed but whose oracle
// failed: exit code 2, where any other failure is 1.
var errOracle = errors.New("the correctness oracle failed; see the violations above")

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	if errors.Is(err, errOracle) {
		os.Exit(2)
	}
	os.Exit(1)
}

// runOne executes one workload in this process, prints its metrics,
// records them in results.json, and ends standard output with the
// driver's JSON line. An oracle violation makes the exit code non-zero.
func runOne(c *config) error {
	// Each run gets its own data directory, removed afterwards, so runs
	// sharing -dir (A/A children) never see each other's stores.
	c.dir = filepath.Join(c.dir, "run-"+strconv.Itoa(os.Getpid()))
	defer func() {
		// Delete the run's data and wait for the deletion to reach the
		// disk, so the next run does not pay for this one's cleaning up.
		os.RemoveAll(c.dir)
		syscall.Sync()
	}()
	res, err := execute(c)
	if err != nil {
		return err
	}
	printOutcome(os.Stdout, res, c.trace)
	if err := mergeResults(filepath.Join(c.out, "results.json"), res, c.trace); err != nil {
		return err
	}
	set := res.EndToEnd
	if c.trace {
		set = res.PerLayer
	}
	type driverValue struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	metrics := make(map[string]driverValue, len(set))
	for name, v := range set {
		metrics[name] = driverValue{v.Value, v.Unit}
	}
	line, err := json.Marshal(map[string]any{
		"correct": res.Correct, "attempted": res.Attempted, "failed": res.Failed, "metrics": metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return errOracle
	}
	return nil
}

// child runs one workload in a process of its own (peak RSS and CPU
// time are per process) and returns its outcome from results.json.
func child(c *config, name string, seed int64) (*outcome, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	tr := "0"
	if c.trace {
		tr = "1"
	}
	cmd := exec.Command(exe, "--workload", name, "--seed", strconv.FormatInt(seed, 10),
		"--seconds", strconv.FormatFloat(c.seconds, 'g', -1, 64), "--trace", tr, "-dir", c.dir, "-out", c.out)
	cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("workload %s: %w", name, err)
	}
	all, err := loadResults(filepath.Join(c.out, "results.json"))
	if err != nil {
		return nil, err
	}
	return all.Workloads[resultKey(name, c.trace)], nil
}

func runAll(c *config) error {
	for _, name := range workloadNames {
		if _, err := child(c, name, c.seed); err != nil {
			return err
		}
	}
	return nil
}

// resultsFile is bench/out/results.json: the latest outcome of every
// workload, traced and untraced, each with the conditions it ran under.
type resultsFile struct {
	Workloads map[string]*outcome `json:"workloads"`
}

func resultKey(workload string, traced bool) string {
	if traced {
		return workload + "/trace"
	}
	return workload
}

func loadResults(path string) (*resultsFile, error) {
	rf := &resultsFile{Workloads: map[string]*outcome{}}
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return rf, nil
	}
	if err != nil {
		return nil, err
	}
	if err := json.Unmarshal(data, rf); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return rf, nil
}

func mergeResults(path string, res *outcome, traced bool) error {
	rf, err := loadResults(path)
	if err != nil {
		return err
	}
	rf.Workloads[resultKey(res.Workload, traced)] = res
	data, err := json.MarshalIndent(rf, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
