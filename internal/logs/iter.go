package logs

import (
	"fmt"
	"iter"
)

// All returns the actions of φ as a lazy preorder sequence. Unlike
// Actions, no intermediate slice is materialised, so callers can audit
// arbitrarily large logs incrementally and stop early.
func All(l Log) iter.Seq[Action] {
	return func(yield func(Action) bool) {
		walkAll(l, yield)
	}
}

// walkAll iterates Pre spines with a loop rather than recursion: spine
// length is the full history of a monitored run, far deeper than the
// stack should go. Recursion depth is bounded by Comp nesting only.
func walkAll(l Log, yield func(Action) bool) bool {
	for {
		switch t := l.(type) {
		case Empty:
			return true
		case *Pre:
			if !yield(t.Act) {
				return false
			}
			l = t.Rest
		case *Comp:
			if !walkAll(t.L, yield) {
				return false
			}
			l = t.R
		default:
			panic(fmt.Sprintf("logs: All: unknown log %T", l))
		}
	}
}

// Spine builds the linear log of a globally ordered action sequence given
// oldest first — the shape the monitored semantics produces when every
// reduction prepends its action. The most recent action ends up at the
// head, as in §3.3. Deciding ≼ against a spine needs no Log at all: see
// LeSpine.
func Spine(acts []Action) Log {
	l := Nil()
	for _, a := range acts {
		l = Prefix(a, l)
	}
	return l
}
