package main

import (
	"reflect"
	"strings"
	"testing"
)

func mustParse(t *testing.T, text string) map[string][]sample {
	t.Helper()
	s, err := parse(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestParseAndReduce(t *testing.T) {
	out := `goos: linux
BenchmarkIdle/conns=100-8   	     100	     300 ns/op	      12.0 goroutines	  64 B/op	       2 allocs/op	     900 p99-wake-ns
BenchmarkIdle/conns=100-8   	     100	     100 ns/op	      12.0 goroutines	  32 B/op	       1 allocs/op	     800 p99-wake-ns
BenchmarkIdle/conns=100-8   	     100	     200 ns/op	      12.0 goroutines	  48 B/op	       3 allocs/op	     700 p99-wake-ns
BenchmarkPlain-16           	    5000	     100 ns/op
BenchmarkPlain-16           	    5000	     400 ns/op
BenchmarkPlain-16           	    5000	     200 ns/op
BenchmarkPlain-16           	    5000	     300 ns/op
PASS
ok  	repro	1.0s
`
	got := reduce(mustParse(t, out))
	want := []result{
		{Name: "BenchmarkIdle/conns=100", Samples: 3, NsPerOp: 200, BytesPerOp: 48, AllocsPerOp: 2},
		{Name: "BenchmarkPlain", Samples: 4, NsPerOp: 250},
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reduce =\n%+v\nwant\n%+v", got, want)
	}
}

func TestCompareGates(t *testing.T) {
	const pat = "Ingest"
	line := func(name, ns, allocs string) string {
		return name + "-8 \t 100 \t " + ns + " ns/op \t 64 B/op \t " + allocs + " allocs/op\n"
	}
	for _, tc := range []struct {
		name     string
		old, new string
		want     []string
	}{
		{"ns within 20%", line("BenchmarkIngest", "100", "10"), line("BenchmarkIngest", "119", "10"), nil},
		{"ns past 20%", line("BenchmarkIngest", "100", "10"), line("BenchmarkIngest", "121", "10"), []string{"BenchmarkIngest"}},
		{"allocs within 10%", line("BenchmarkIngest", "100", "10"), line("BenchmarkIngest", "100", "11"), nil},
		{"allocs past 10%", line("BenchmarkIngest", "100", "10"), line("BenchmarkIngest", "100", "12"), []string{"BenchmarkIngest (allocs)"}},
		{"both past", line("BenchmarkIngest", "100", "10"), line("BenchmarkIngest", "200", "20"), []string{"BenchmarkIngest", "BenchmarkIngest (allocs)"}},
		{"gated on the median, not the worst sample",
			line("BenchmarkIngest", "100", "10") + line("BenchmarkIngest", "100", "10") + line("BenchmarkIngest", "100", "10"),
			line("BenchmarkIngest", "100", "10") + line("BenchmarkIngest", "900", "10") + line("BenchmarkIngest", "105", "10"), nil},
		{"new only", line("BenchmarkIngest", "100", "10"), line("BenchmarkIngest", "100", "10") + line("BenchmarkIngestNew", "900", "90"), nil},
		{"old only", line("BenchmarkIngest", "100", "10") + line("BenchmarkIngestGone", "1", "1"), line("BenchmarkIngest", "100", "10"), nil},
		{"ungated regression", line("BenchmarkAudit", "100", "10"), line("BenchmarkAudit", "500", "50"), nil},
	} {
		t.Run(tc.name, func(t *testing.T) {
			art := artifact{Benchmarks: reduce(mustParse(t, tc.new))}
			failed, err := compare(&art, mustParse(t, tc.old), pat, 20, 10)
			if err != nil {
				t.Fatal(err)
			}
			if failed != (len(tc.want) > 0) {
				t.Errorf("failed = %v, want %v", failed, len(tc.want) > 0)
			}
			if got := art.Gate.Violations; !(len(got) == 0 && len(tc.want) == 0) && !reflect.DeepEqual(got, tc.want) {
				t.Errorf("violations = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestCompareWithoutGate(t *testing.T) {
	art := artifact{Benchmarks: reduce(mustParse(t, "BenchmarkIngest-8 100 900 ns/op\n"))}
	failed, err := compare(&art, mustParse(t, "BenchmarkIngest-8 100 100 ns/op\n"), "", 20, 10)
	if err != nil || failed || art.Gate != nil {
		t.Fatalf("compare without a pattern: failed=%v err=%v gate=%v", failed, err, art.Gate)
	}
	if len(art.Deltas) != 1 || art.Deltas[0].DeltaPct != 800 {
		t.Fatalf("deltas = %+v, want one at +800%%", art.Deltas)
	}
}
