package logs

import (
	"testing"
)

func sampleLog() Log {
	return Compose(
		Prefix(SndAct("a", NameT("m"), NameT("v")),
			Prefix(RcvAct("b", NameT("m"), NameT("v")), Nil())),
		Prefix(IftAct("c", NameT("v"), NameT("v")), Nil()),
	)
}

// TestAllMatchesActions: the lazy iterator yields exactly the preorder
// action slice.
func TestAllMatchesActions(t *testing.T) {
	l := sampleLog()
	want := Actions(l)
	var got []Action
	for a := range All(l) {
		got = append(got, a)
	}
	if len(got) != len(want) {
		t.Fatalf("All yielded %d actions, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("action %d = %s, want %s", i, got[i], want[i])
		}
	}
}

// TestAllEarlyStop: breaking out of the range stops the walk.
func TestAllEarlyStop(t *testing.T) {
	n := 0
	for range All(sampleLog()) {
		n++
		if n == 2 {
			break
		}
	}
	if n != 2 {
		t.Fatalf("visited %d actions after break, want 2", n)
	}
}

// TestSpineMatchesPrefixFold: Spine(oldest first) equals folding Prefix
// by hand, most recent at the head.
func TestSpineMatchesPrefixFold(t *testing.T) {
	acts := []Action{
		SndAct("a", NameT("m"), NameT("v")),
		RcvAct("b", NameT("m"), NameT("v")),
		SndAct("b", NameT("n"), NameT("v")),
	}
	want := Nil()
	for _, a := range acts {
		want = Prefix(a, want)
	}
	if got := Spine(acts); !Equal(got, want) {
		t.Fatalf("Spine = %s, want %s", got, want)
	}
}
