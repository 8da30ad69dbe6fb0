package testutil

import (
	"math/rand"
	"os"
	"strconv"
	"testing"
)

// Seed resolution for randomized suites. Every randomized test in the
// repo funnels through here so the replay story is uniform: a failing
// run always prints its seed, and setting REPRO_SEED=<n> re-runs the
// exact schedule that failed.

// Seed returns def, unless the REPRO_SEED environment variable is set,
// in which case that value wins. Either way the seed is logged if the
// test fails, with the env recipe to replay it.
func Seed(tb testing.TB, def int64) int64 {
	tb.Helper()
	seed := def
	if env := os.Getenv("REPRO_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			tb.Fatalf("REPRO_SEED=%q: %v", env, err)
		}
		seed = v
	}
	tb.Cleanup(func() {
		if tb.Failed() {
			tb.Logf("seed %d (replay: REPRO_SEED=%d go test -run '%s' ...)", seed, seed, tb.Name())
		}
	})
	return seed
}

// Seeds returns n deterministic seeds derived from base, for suites
// that sweep many schedules. When REPRO_SEED is set it narrows the
// sweep to that single seed, so one failing schedule out of dozens can
// be replayed alone.
func Seeds(tb testing.TB, base int64, n int) []int64 {
	tb.Helper()
	if env := os.Getenv("REPRO_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			tb.Fatalf("REPRO_SEED=%q: %v", env, err)
		}
		return []int64{v}
	}
	return deriveSeeds(base, n)
}

// deriveSeeds is the derivation behind Seeds: n deterministic seeds
// from base. A seed that fails in one sweep replays in any other sweep
// sharing the base, or alone via REPRO_SEED.
func deriveSeeds(base int64, n int) []int64 {
	src := rand.New(rand.NewSource(base))
	out := make([]int64, n)
	for i := range out {
		out[i] = src.Int63()
	}
	return out
}

// SeedRange returns the seeds [0, n) for suites that sweep a fixed
// window, narrowed to the single REPRO_SEED when set.
func SeedRange(tb testing.TB, n int) []int64 {
	tb.Helper()
	if env := os.Getenv("REPRO_SEED"); env != "" {
		v, err := strconv.ParseInt(env, 10, 64)
		if err != nil {
			tb.Fatalf("REPRO_SEED=%q: %v", env, err)
		}
		return []int64{v}
	}
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// Rand returns a PRNG for the given seed. Callers must thread this
// single source through everything random in the test so the printed
// seed fully determines the schedule.
func Rand(seed int64) *rand.Rand {
	return rand.New(rand.NewSource(seed))
}
