package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func smokeConfig(t *testing.T, workload string) *config {
	t.Helper()
	return &config{workload: workload, seed: 7, seconds: 1, quick: true, dir: t.TempDir(), out: t.TempDir()}
}

// Every workload, one second each, oracle on: the run is correct, and
// every end-to-end metric comes out as a finite, non-zero number (the
// driver refuses zeros).
func TestSmokeAllWorkloads(t *testing.T) {
	for _, name := range workloadNames {
		t.Run(name, func(t *testing.T) {
			res, err := execute(smokeConfig(t, name))
			if err != nil {
				t.Fatal(err)
			}
			if !res.Correct || res.Failed != 0 {
				t.Fatalf("oracle failed (%d of %d operations): %v", res.Failed, res.Attempted, res.Violations)
			}
			if res.Attempted < 1 {
				t.Fatalf("attempted = %d", res.Attempted)
			}
			for _, d := range endToEnd {
				v, ok := res.EndToEnd[d.Name]
				if !ok || v.Value <= 0 || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
					t.Errorf("%s = %v (present %v): want a finite positive number", d.Name, v.Value, ok)
				}
				if v.Unit != d.Unit {
					t.Errorf("%s unit %q, registry says %q", d.Name, v.Unit, d.Unit)
				}
			}
			if _, err := json.Marshal(res); err != nil {
				t.Errorf("outcome does not marshal: %v", err)
			}
		})
	}
}

// An ack the generator loses is exactly what the oracle exists to
// catch: the blocks no longer tile the spine and the record count no
// longer matches.
func TestOracleTripsOnDroppedAck(t *testing.T) {
	c := smokeConfig(t, "firehose")
	c.seconds, c.dropAck = 0.3, true
	res, err := execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Fatalf("run with a dropped ack reported correct (failed=%d)", res.Failed)
	}
	joined := strings.Join(res.Violations, "\n")
	if !strings.Contains(joined, "never acked") || !strings.Contains(joined, "records, want") {
		t.Errorf("violations do not name the gap and the count mismatch:\n%s", joined)
	}
}

// The traced run reports every per-layer metric, a ladder that ends at
// the end-to-end cost, and writes the spans.
func TestTracedRun(t *testing.T) {
	defer func(d time.Duration) { rungTime = d }(rungTime)
	rungTime = 50 * time.Millisecond
	c := smokeConfig(t, "fleet")
	c.trace = true
	res, err := execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Correct {
		t.Fatalf("oracle failed: %v", res.Violations)
	}
	for _, d := range perLayer {
		if v, ok := res.PerLayer[d.Name]; !ok || math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			t.Errorf("per-layer metric %s missing or not finite (%v)", d.Name, v.Value)
		}
	}
	for name := range res.PerLayer {
		if unitOf(name) == "" {
			t.Errorf("run reports %s, which the registry does not list", name)
		}
	}
	if n := len(res.Ladder); n == 0 || res.Ladder[n-1].Layer != "end-to-end" {
		t.Fatalf("ladder = %+v", res.Ladder)
	}
	var sum float64
	for _, r := range res.Ladder[:len(res.Ladder)-1] {
		sum += r.Self
	}
	if e2e := res.Ladder[len(res.Ladder)-1].Self; math.Abs(sum-e2e) > 1e-6*e2e {
		t.Errorf("rungs + unattributed sum to %.1f ns/record, end-to-end is %.1f", sum, e2e)
	}
	data, err := os.ReadFile(filepath.Join(c.out, "trace-fleet.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Spans []span `json:"spans"`
	}
	if err := json.Unmarshal(data, &doc); err != nil || len(doc.Spans) == 0 {
		t.Fatalf("trace file: %v, %d spans", err, len(doc.Spans))
	}
	for _, sp := range doc.Spans {
		if sp.End < sp.Start || sp.Layer == "" || sp.Req == 0 {
			t.Fatalf("malformed span %+v", sp)
		}
	}
}

// BENCHMARK.json is what the driver reads; the registry is what the
// program prints. They must list the same metrics, units, directions
// and bounds, and the same workloads.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	if len(spec.Workloads) != len(workloadNames) {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", len(spec.Workloads), len(workloadNames))
	}
	for i, w := range spec.Workloads {
		if w.Name != workloadNames[i] || w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %d: %q (why: %d chars), want %q with a one-line why of at most 200", i, w.Name, len(w.Why), workloadNames[i])
		}
	}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, the registry %d", kind, len(got), len(want))
			return
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, registry %+v", kind, i, got[i], want[i])
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
	haveSetup := false
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %v outside (0, 0.25]", d.Name, d.Bound)
		}
		haveSetup = haveSetup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !haveSetup {
		t.Error("end_to_end lacks setup_s (unit s, lower is better)")
	}
	if len(perLayer) > 128 || len(endToEnd) > 16 {
		t.Errorf("%d per-layer and %d end-to-end metrics exceed the driver's 128/16", len(perLayer), len(endToEnd))
	}
}

// quartiles must agree with Python's statistics.quantiles(v, n=4).
func TestQuartilesMatchPython(t *testing.T) {
	q1, q2, q3 := quartiles([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if q1 != 2.75 || q2 != 5.5 || q3 != 8.25 {
		t.Errorf("quartiles(1..10) = %v %v %v, Python gives 2.75 5.5 8.25", q1, q2, q3)
	}
	q1, q2, q3 = quartiles([]float64{10, 14})
	if q1 != 9 || q2 != 12 || q3 != 15 {
		t.Errorf("quartiles(10,14) = %v %v %v, Python gives 9 12 15", q1, q2, q3)
	}
}
