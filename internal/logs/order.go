package logs

import (
	"fmt"
	"sort"
)

// Le decides the information order φ ≼ ψ of §3.1 ("ψ tells us at least as
// much about the past as φ"), defined as the smallest relation on closed
// logs satisfying
//
//	Log-Nil    ∅ ≼ φ
//	Log-Pre1   α ≾ α'  ∧  φσ ≼ ψσ'   ⟹  α;φ ≼ α';ψ
//	Log-Pre2   φ ≼ ψ                  ⟹  φ ≼ α;ψ
//	Log-Comp1  φ ≼ ψ  ∧  φ' ≼ ψ       ⟹  φ|φ' ≼ ψ
//	Log-Comp2  φ ≼ ψ                  ⟹  φ ≼ ψ|ψ'   (and symmetrically)
//
// where α ≾ α' means α' = ασ for some substitution σ of values for
// variables, and σ, σ' are closing substitutions for the continuations.
//
// The decision procedure is a structural search: left compositions split
// (Log-Comp1 takes a nonlinear interpretation, so both components may
// reference the same right-log actions), left prefixes either match a
// right prefix (Log-Pre1, with the substitutions computed by one-way
// unification rather than guessed) or skip into the right log (Log-Pre2,
// Log-Comp2). Every recursive call consumes left or right structure, so
// the search terminates.
func Le(phi, psi Log) bool {
	return le(phi, psi)
}

func le(phi, psi Log) bool {
	switch l := phi.(type) {
	case Empty:
		return true // Log-Nil
	case *Comp:
		// Log-Comp1: both components must be justified by ψ (nonlinear:
		// they may share right-log actions).
		return le(l.L, psi) && le(l.R, psi)
	case *Pre:
		return lePre(l, psi)
	default:
		panic(fmt.Sprintf("logs: Le: unknown log %T", phi))
	}
}

// lePre handles a left prefix α;φ against an arbitrary right log.
func lePre(l *Pre, psi Log) bool {
	switch r := psi.(type) {
	case Empty:
		return false // no rule concludes α;φ ≼ ∅
	case *Comp:
		// Log-Comp2 (both orientations).
		return lePre(l, r.L) || lePre(l, r.R)
	case *Pre:
		// Log-Pre1: match the two actions.
		if sigmaL, sigmaR, ok := matchActions(l.Act, r.Act); ok {
			if le(ApplySubst(l.Rest, sigmaL), ApplySubst(r.Rest, sigmaR)) {
				return true
			}
		}
		// Log-Pre2: skip the right action.
		return lePre(l, r.Rest)
	default:
		panic(fmt.Sprintf("logs: lePre: unknown log %T", psi))
	}
}

// LeSpine decides φ ≼ ψ where ψ is the spine of the actions at(0), …,
// at(n-1), given oldest first: the same relation as
// Le(φ, Spine([at(0) … at(n-1)])), decided without building ψ. Three
// facts make that sound:
//
//   - a spine has no |, so Log-Comp2 never fires;
//   - Log-Pre2 unrolls along the spine, so α;φ ≼ spine(n) holds iff some
//     position q < n matches α (Log-Pre1) with φσ ≼ spine(q), the actions
//     older than q;
//   - instantiate requires a non-variable term to be equal, so a position
//     whose B term differs from α's cannot match.
//
// idx maps a B term to the ascending positions holding it; only those
// positions are tried, newest first below n. A nil idx, or a variable B
// on the left (which ⟦−⟧ never leaves after substitution), falls back
// to trying every position below n. The recursion is as deep as the
// claim, never as the log, and a φ that holds is usually found on the
// first path tried: a genuine audit costs about the claim's size times
// its candidate positions, not the log's length. That is not a bound.
// A failed branch is retried from scratch, so a φ that does not hold
// explores every path: when φ's value was forwarded k times, each of
// φ's d levels has up to k candidates, and the search can cost k^d. A
// 40-event forged claim over testdata/forwarding-loop.pc runs for more
// than 20 s; ROADMAP item 11 plans a memoised decision that bounds it.
// Le stays the reference, and the decision for logs that are trees.
func LeSpine(phi Log, n int, at func(int) Action, idx map[Term][]int32) bool {
	return spine{at: at, idx: idx}.le(phi, n)
}

type spine struct {
	at  func(int) Action
	idx map[Term][]int32
}

// le decides φ ≼ spine(n).
func (s spine) le(phi Log, n int) bool {
	switch l := phi.(type) {
	case Empty:
		return true // Log-Nil
	case *Comp:
		return s.le(l.L, n) && s.le(l.R, n) // Log-Comp1
	case *Pre:
		if s.idx == nil || l.Act.B.IsVar() {
			for q := n - 1; q >= 0; q-- {
				if s.pre(l, q) {
					return true
				}
			}
			return false
		}
		pos := s.idx[l.Act.B]
		for i := sort.Search(len(pos), func(i int) bool { return int(pos[i]) >= n }) - 1; i >= 0; i-- {
			if s.pre(l, int(pos[i])) {
				return true
			}
		}
		return false
	default:
		panic(fmt.Sprintf("logs: LeSpine: unknown log %T", phi))
	}
}

// pre is Log-Pre1 at position q: α matches at(q) and φσ ≼ spine(q).
func (s spine) pre(l *Pre, q int) bool {
	sigma, _, ok := matchActions(l.Act, s.at(q))
	return ok && s.le(ApplySubst(l.Rest, sigma), q)
}

// matchActions implements α ≾ α' of Log-Pre1: it returns σL, the bindings
// for the left action's variables witnessing α' = α σL. The instantiation
// is strictly one-way — a substitution replaces variables with values — so
// right-side variables are rigid: a right variable matches only the
// identical left variable (up to the shared name; the paper identifies
// logs up to alpha-conversion, and our denotation uses a deterministic
// fresh-variable discipline so matching by name is sound). σR is returned
// for symmetry of the call site and is currently always empty.
func matchActions(al, ar Action) (Subst, Subst, bool) {
	if al.Principal != ar.Principal || al.Kind != ar.Kind {
		return nil, nil, false
	}
	sigmaL := Subst{}
	if !instantiate(al.A, ar.A, sigmaL) {
		return nil, nil, false
	}
	if !instantiate(al.B, ar.B, sigmaL) {
		return nil, nil, false
	}
	return sigmaL, Subst{}, true
}

// instantiate checks that tr is tl under some extension of σL (left
// variables map to right values, ? or — for alpha-matching — the identical
// right variable).
func instantiate(tl, tr Term, sigmaL Subst) bool {
	if tl.Kind == TVar {
		if b, ok := sigmaL[tl.Name]; ok {
			// Consistency: a left variable bound earlier in this action
			// must map to the same thing.
			return b == tr
		}
		if tr.Kind == TVar {
			// α' = ασ with σ mapping variables to values only: a right
			// variable can only be the left variable left untouched.
			return tl.Name == tr.Name
		}
		sigmaL[tl.Name] = tr
		return true
	}
	return tl == tr
}

// Incomparable reports that neither φ ≼ ψ nor ψ ≼ φ.
func Incomparable(phi, psi Log) bool {
	return !Le(phi, psi) && !Le(psi, phi)
}

// EquivLe reports φ ≼ ψ and ψ ≼ φ: the two logs convey the same
// information.
func EquivLe(phi, psi Log) bool {
	return Le(phi, psi) && Le(psi, phi)
}
