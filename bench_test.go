// Package repro_test holds the benchmark harness: one testing.B benchmark
// per table/figure of the reproduction (see DESIGN.md §4 and
// EXPERIMENTS.md). Run with:
//
//	go test -bench=. -benchmem .
package repro_test

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/denote"
	"repro/internal/gen"
	"repro/internal/logs"
	"repro/internal/monitor"
	"repro/internal/parser"
	"repro/internal/pattern"
	"repro/internal/runtime"
	"repro/internal/semantics"
	"repro/internal/store"
	"repro/internal/syntax"
	"repro/internal/trust"
	"repro/internal/wire"
)

func mustSys(b *testing.B, src string) syntax.System {
	b.Helper()
	s, err := parser.ParseSystem(src)
	if err != nil {
		b.Fatal(err)
	}
	return s
}

func pipelineSrc(depth int) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "p0[h0!(v)]")
	for i := 0; i < depth; i++ {
		fmt.Fprintf(&sb, " || p%d[h%d?(any as x).h%d!(x)]", i+1, i, i+1)
	}
	return sb.String()
}

func flatProv(n int) syntax.Prov {
	k := make(syntax.Prov, 0, n)
	for i := 0; i < n; i++ {
		p := string(rune('a' + i%4))
		if i%2 == 0 {
			k = append(k, syntax.OutEvent(p, nil))
		} else {
			k = append(k, syntax.InEvent(p, nil))
		}
	}
	return k
}

// --- T1: syntax, parsing, printing ---

func BenchmarkT1Parse(b *testing.B) {
	src := `
		c1[sub!(e1) | pub?(any;c1!any as x, any as y).done1!(x, y)] ||
		o[*( sub?{ ((c1+c3)!any;any as x).in1!(x) [] (c2!any;any as x).in2!(x) }
		   | res?(any as y, any as z).*(pub!(y, z)) )] ||
		j1[*(in1?(any as x).(new r. res!(x, r)))]
	`
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := parser.ParseSystem(src); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkT1Print(b *testing.B) {
	s := mustSys(b, pipelineSrc(8))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = s.String()
	}
}

// --- T2: reduction ---

func BenchmarkT2ReductionStep(b *testing.B) {
	n := semantics.Normalize(mustSys(b, `a[m!(v)] || b[m?(any as x).0]`))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		steps := semantics.Steps(n)
		if len(steps) == 0 {
			b.Fatal("no step")
		}
	}
}

func BenchmarkT2ReductionRun(b *testing.B) {
	for _, depth := range []int{4, 16} {
		s := mustSys(b, pipelineSrc(depth))
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				semantics.RunToQuiescence(s, 10*depth+10)
			}
		})
	}
}

func BenchmarkT2Normalize(b *testing.B) {
	cfg := gen.Default()
	rng := rand.New(rand.NewSource(7))
	systems := make([]syntax.System, 32)
	for i := range systems {
		systems[i] = cfg.System(rng)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		semantics.Normalize(systems[i%len(systems)])
	}
}

// --- T3/F2: pattern matching ---

func BenchmarkT3PatternMatch(b *testing.B) {
	classes := []struct {
		name string
		pat  pattern.Pattern
	}{
		{"direct", pattern.SeqP(pattern.Out(pattern.Name("c"), pattern.AnyP()), pattern.AnyP())},
		{"origin", pattern.SeqP(pattern.AnyP(), pattern.Out(pattern.Name("d"), pattern.AnyP()))},
		{"star", pattern.StarP(pattern.AltP(
			pattern.Out(pattern.All(), pattern.AnyP()),
			pattern.In(pattern.All(), pattern.AnyP())))},
	}
	for _, c := range classes {
		m := pattern.Compile(c.pat)
		for _, l := range []int{8, 64} {
			k := flatProv(l)
			b.Run(fmt.Sprintf("%s/len=%d", c.name, l), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					m.Match(k)
				}
			})
		}
	}
}

// --- A1: matcher ablation ---

func BenchmarkMatcherAblation(b *testing.B) {
	a := pattern.Out(pattern.Name("a"), pattern.AnyP())
	pat := pattern.StarP(pattern.AltP(pattern.SeqP(a, a), pattern.SeqP(a, a, a)))
	m := pattern.Compile(pat)
	adversarial := func(n int) syntax.Prov {
		k := make(syntax.Prov, n)
		for i := range k {
			k[i] = syntax.OutEvent("a", nil)
		}
		k[n-1] = syntax.InEvent("b", nil)
		return k
	}
	for _, n := range []int{16, 28} {
		k := adversarial(n)
		b.Run(fmt.Sprintf("memo/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				m.Match(k)
			}
		})
		b.Run(fmt.Sprintf("naive/len=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pattern.MatchNaive(pat, k)
			}
		})
	}
}

// --- T4: monitored semantics ---

func BenchmarkT4MonitoredStep(b *testing.B) {
	m := monitor.New(mustSys(b, `a[m!(v)] || b[m?(any as x).0]`))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(monitor.Steps(m)) == 0 {
			b.Fatal("no step")
		}
	}
}

// --- F1: tracking overhead ---

func BenchmarkTrackingOverhead(b *testing.B) {
	for _, depth := range []int{4, 16, 32} {
		s := mustSys(b, pipelineSrc(depth))
		prog := core.FromSystem(s)
		b.Run(fmt.Sprintf("plain/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				semantics.RunToQuiescence(s, 10*depth+10)
			}
		})
		b.Run(fmt.Sprintf("monitored/depth=%d", depth), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				prog.Run(core.Options{Deterministic: true, MaxSteps: 10*depth + 10})
			}
		})
	}
}

// --- F2: pattern scaling (provenance growth) ---

func BenchmarkPatternScaling(b *testing.B) {
	pat := pattern.Compile(pattern.SeqP(pattern.AnyP(), pattern.Out(pattern.Name("a"), pattern.AnyP())))
	for _, l := range []int{4, 32, 256} {
		k := flatProv(l)
		b.Run(fmt.Sprintf("len=%d", l), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				pat.Match(k)
			}
		})
	}
}

// --- F3: ≼ checking / audit query ---

func BenchmarkLogOrder(b *testing.B) {
	for _, depth := range []int{8, 32, 64} {
		prog := core.FromSystem(mustSys(b, pipelineSrc(depth)))
		rep := prog.Run(core.Options{Deterministic: true, MaxSteps: 10*depth + 10})
		k, ok := core.ProvenanceOf(rep.Final, "v")
		if !ok {
			b.Fatal("value lost")
		}
		v := syntax.Annot(syntax.Chan("v"), k)
		b.Run(fmt.Sprintf("denote+le/log=%d", logs.Size(rep.Log)), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if !logs.Le(denote.Denote(v), rep.Log) {
					b.Fatal("correctness lost")
				}
			}
		})
	}
}

func BenchmarkDenote(b *testing.B) {
	v := syntax.Annot(syntax.Chan("v"), flatProv(64))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		denote.Denote(v)
	}
}

// --- F4: runtime middleware ---

func BenchmarkRuntimeInProc(b *testing.B) {
	net := runtime.NewNet()
	defer net.Close()
	a := net.Register("a")
	bb := net.Register("b")
	ch := syntax.Fresh(syntax.Chan("bench"))
	v := syntax.Fresh(syntax.Chan("v"))
	any := pattern.AnyP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(ch, v); err != nil {
			b.Fatal(err)
		}
		if _, err := bb.Recv(ch, time.Second, any); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRuntimeSinkMirror measures send/receive throughput with a
// durable store mirror attached through the ordered async pipeline
// (position assigned under the mutex, batches flushed by a dedicated
// goroutine). The final Flush is included, so the figure is for fully
// durable mirroring of the log.
func BenchmarkRuntimeSinkMirror(b *testing.B) {
	st, err := store.Open(b.TempDir(), store.Options{})
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	net := runtime.NewNet()
	defer net.Close()
	net.SetSink(st)
	a := net.Register("a")
	bb := net.Register("b")
	ch := syntax.Fresh(syntax.Chan("bench"))
	v := syntax.Fresh(syntax.Chan("v"))
	any := pattern.AnyP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := a.Send(ch, v); err != nil {
			b.Fatal(err)
		}
		if _, err := bb.Recv(ch, time.Second, any); err != nil {
			b.Fatal(err)
		}
	}
	if err := net.Flush(); err != nil {
		b.Fatal(err)
	}
}

func BenchmarkRuntimeTCP(b *testing.B) {
	srv := runtime.NewServer(runtime.NewNet())
	addr, err := srv.Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	defer srv.Net.Close()
	ca, err := runtime.Dial(addr, "a")
	if err != nil {
		b.Fatal(err)
	}
	defer ca.Close()
	cb, err := runtime.Dial(addr, "b")
	if err != nil {
		b.Fatal(err)
	}
	defer cb.Close()
	ch := syntax.Fresh(syntax.Chan("bench"))
	v := syntax.Fresh(syntax.Chan("v"))
	any := pattern.AnyP()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := ca.Send(ch, v); err != nil {
			b.Fatal(err)
		}
		if _, err := cb.Recv(ch, 5*time.Second, any); err != nil {
			b.Fatal(err)
		}
	}
}

// --- E3: the competition as an end-to-end workload ---

func BenchmarkCompetitionRound(b *testing.B) {
	s := mustSys(b, `
		c1[sub!(e1) | pub?(any;c1!any as x, any as y).done1!(x, y)] ||
		o[*( sub?{ ((c1+c3)!any;any as x).in1!(x) [] (c2!any;any as x).in2!(x) }
		   | res?(any as y, any as z).*(pub!(y, z)) )] ||
		j1[*(in1?(any as x).(new r. res!(x, r)))]
	`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// 8 steps deliver c1's result (send,recv,fwd,judge recv,res,recv,pub,recv).
		tr := semantics.Run(s, int64(i), 8)
		if tr.Len() == 0 {
			b.Fatal("no progress")
		}
	}
}

// --- TH1: correctness checking cost ---

func BenchmarkCorrectnessCheck(b *testing.B) {
	m := monitor.New(mustSys(b, pipelineSrc(8)))
	for {
		steps := monitor.Steps(m)
		if len(steps) == 0 {
			break
		}
		m = steps[0].Next
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, bad := monitor.FirstIncorrectValue(m); bad {
			b.Fatal("incorrect")
		}
	}
}

// --- X1: trust scoring ---

func BenchmarkTrustScore(b *testing.B) {
	pol := trust.NewPolicy().Rate("a", 0.9).Rate("b", 0.4)
	k := flatProv(64)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		pol.Score(k)
	}
}

// --- X2: static analysis ---

func BenchmarkFlowAnalysis(b *testing.B) {
	prog := core.FromSystem(mustSys(b, `
		c[m!(v)] ||
		a[m?(c!any;any as x).okA!(x)] ||
		b[m?(any;d!any as y).okB!(y)] ||
		f[*(m?(any as x).m!(x))]
	`))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		prog.Analyze(0)
	}
}

// --- wire codec ---

func BenchmarkWireRoundTrip(b *testing.B) {
	m := &syntax.Message{Chan: "ch", Payload: []syntax.AnnotatedValue{
		syntax.Annot(syntax.Chan("v"), flatProv(16)),
	}}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		enc := wire.EncodeMessage(m)
		if _, err := wire.DecodeMessage(enc); err != nil {
			b.Fatal(err)
		}
	}
}
