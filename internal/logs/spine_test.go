package logs_test

import (
	"math/rand"
	"strconv"
	"testing"

	"repro/internal/denote"
	"repro/internal/gen"
	"repro/internal/logs"
	"repro/internal/testutil"
)

// spineIndex is the value index logs.LeSpine takes: each B term's ascending
// positions in acts.
func spineIndex(acts []logs.Action) map[logs.Term][]int32 {
	idx := make(map[logs.Term][]int32)
	for i, a := range acts {
		idx[a.B] = append(idx[a.B], int32(i))
	}
	return idx
}

// leSpineBoth decides φ ≼ spine(acts[:n]) with logs.LeSpine, indexed and
// unindexed, and fails if the two disagree.
func leSpineBoth(tb testing.TB, phi logs.Log, acts []logs.Action, n int) bool {
	tb.Helper()
	at := func(i int) logs.Action { return acts[i] }
	got := logs.LeSpine(phi, n, at, spineIndex(acts))
	if scan := logs.LeSpine(phi, n, at, nil); scan != got {
		tb.Fatalf("LeSpine indexed %v, unindexed %v\nφ = %s\nψ = %s", got, scan, phi, logs.Spine(acts[:n]))
	}
	return got
}

// genSpine draws spine actions from gen's action generator, with some
// channels and values replaced by ?.
func genSpine(rng *rand.Rand, cfg gen.Config, max int) []logs.Action {
	acts := make([]logs.Action, rng.Intn(max+1))
	for i := range acts {
		a := cfg.Action(rng)
		switch rng.Intn(8) {
		case 0:
			a.A = logs.UnknownT()
		case 1:
			a.B = logs.UnknownT()
		}
		acts[i] = a
	}
	return acts
}

// assembledClaim builds a claim from the spine's own actions: one or two
// chains, each a newest-first subsequence of acts, some channels
// abstracted into binders, now and then a free variable value.
func assembledClaim(rng *rand.Rand, acts []logs.Action) logs.Log {
	chain := func() logs.Log {
		var picked []logs.Action
		for q := len(acts) - 1; q >= 0 && len(picked) < 4; q-- {
			if rng.Intn(3) == 0 {
				a := acts[q]
				if (a.Kind == logs.Snd || a.Kind == logs.Rcv) && rng.Intn(3) == 0 {
					a.A = logs.VarT("x" + strconv.Itoa(q))
				}
				if rng.Intn(16) == 0 {
					a.B = logs.VarT("free")
				}
				picked = append(picked, a)
			}
		}
		l := logs.Nil()
		for i := len(picked) - 1; i >= 0; i-- {
			l = logs.Prefix(picked[i], l)
		}
		return l
	}
	if rng.Intn(4) == 0 {
		return logs.Compose(chain(), chain())
	}
	return chain()
}

// TestLeSpineMatchesLe is the differential behind the store's and the
// runtime's audits: logs.LeSpine over a spine's actions and value index
// decides exactly what logs.Le decides over the built spine, on 100k cases
// whose claims come from four sources — random logs, weakenings of the
// spine itself, denotations of random provenance (nested channel
// provenance included) and claims assembled from the spine's actions.
func TestLeSpineMatchesLe(t *testing.T) {
	rng := testutil.Rand(testutil.Seed(t, 1))
	cfg := gen.Default()
	values := append(append([]string(nil), cfg.Channels...), cfg.Principals...)
	const cases = 100_000
	holds := 0
	for c := 0; c < cases; c++ {
		acts := genSpine(rng, cfg, 12)
		var phi logs.Log
		switch c % 4 {
		case 0:
			phi = cfg.Log(rng)
		case 1:
			fresh := 0
			phi = logs.Spine(acts)
			for k := 1 + rng.Intn(4); k > 0; k-- {
				phi = cfg.Weaken(rng, phi, &fresh)
			}
		case 2:
			v := logs.UnknownT()
			if rng.Intn(6) != 0 {
				v = logs.NameT(values[rng.Intn(len(values))])
			}
			phi = denote.DenoteTerm(v, cfg.Prov(rng))
		default:
			phi = assembledClaim(rng, acts)
		}
		n := len(acts)
		if rng.Intn(4) == 0 {
			n = rng.Intn(n + 1) // a prefix: the index holds positions ≥ n
		}
		want := logs.Le(phi, logs.Spine(acts[:n]))
		if got := leSpineBoth(t, phi, acts, n); got != want {
			t.Fatalf("case %d: LeSpine = %v, Le = %v\nφ = %s\nψ = %s", c, got, want, phi, logs.Spine(acts[:n]))
		}
		if want {
			holds++
		}
	}
	// Both verdicts must be well represented, or the agreement is vacuous.
	if holds < cases/5 || holds > cases*4/5 {
		t.Fatalf("%d of %d cases hold: the generators lost their balance", holds, cases)
	}
	t.Logf("%d of %d cases hold", holds, cases)
}

// byteSource reads bounded choices from fuzz input; exhausted input
// reads as zeros, which end every recursion below.
type byteSource []byte

func (s *byteSource) next(n int) int {
	if len(*s) == 0 {
		return 0
	}
	v := int((*s)[0]) % n
	*s = (*s)[1:]
	return v
}

func (s *byteSource) term(names []string, bound []string) logs.Term {
	switch k := s.next(len(names) + 2); {
	case k < len(names):
		return logs.NameT(names[k])
	case k == len(names):
		return logs.UnknownT()
	case len(bound) > 0:
		return logs.VarT(bound[s.next(len(bound))])
	default:
		return logs.VarT("free")
	}
}

func (s *byteSource) action(bound []string) logs.Action {
	return logs.Action{
		Principal: []string{"a", "b", "c"}[s.next(3)],
		Kind:      logs.ActKind(s.next(4)),
		A:         s.term([]string{"m", "n", "l"}, bound),
		B:         s.term([]string{"m", "n", "v", "w"}, bound),
	}
}

func (s *byteSource) claim(depth int, bound []string) logs.Log {
	if depth == 0 {
		return logs.Nil()
	}
	switch s.next(4) {
	case 0:
		return logs.Nil()
	case 1:
		return logs.Compose(s.claim(depth-1, bound), s.claim(depth-1, bound))
	default:
		a := s.action(bound)
		if (a.Kind == logs.Snd || a.Kind == logs.Rcv) && s.next(2) == 0 {
			x := "x" + strconv.Itoa(depth)
			a.A = logs.VarT(x)
			bound = append(bound[:len(bound):len(bound)], x)
		}
		return logs.Prefix(a, s.claim(depth-1, bound))
	}
}

// FuzzLeSpine turns bytes into a spine and a claim and compares logs.LeSpine,
// indexed and unindexed, with logs.Le over the built spine.
func FuzzLeSpine(f *testing.F) {
	f.Add([]byte{3, 0, 0, 0, 2, 1, 1, 0, 2, 2, 0, 0, 0, 2, 2, 0, 0, 2})
	f.Add([]byte{6, 1, 4, 1, 2, 0, 5, 0, 0, 3, 1, 3, 2, 1, 0, 1, 2, 0, 4, 1, 3, 0})
	f.Add([]byte{8, 2, 1, 3, 3, 1, 0, 2, 1, 1, 2, 3, 0, 5, 2, 2, 1, 0, 3, 3, 2, 2, 1, 1, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := byteSource(data)
		acts := make([]logs.Action, src.next(16))
		for i := range acts {
			acts[i] = src.action(nil)
		}
		phi := src.claim(6, nil)
		if got, want := leSpineBoth(t, phi, acts, len(acts)), logs.Le(phi, logs.Spine(acts)); got != want {
			t.Fatalf("LeSpine = %v, Le = %v\nφ = %s\nψ = %s", got, want, phi, logs.Spine(acts))
		}
	})
}
