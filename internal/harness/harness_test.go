package harness

// The deterministic-simulation property suite. Each subtest compiles
// one seeded scenario — workload, topology, fault schedule all derived
// from the seed — and runs it against a real in-process cluster,
// checking exactly-once, spine, replica-convergence, audit-parity, and
// session-soundness invariants. A failing subtest prints its seed;
// REPRO_SEED=<n> re-runs exactly that schedule, alone.
//
// HARNESS_SCHEDULES overrides the schedule count (CI smoke uses a
// handful; the nightly matrix runs the full sweep and more).

import (
	"fmt"
	"os"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/scenario"
	"repro/internal/testutil"
)

// sweepSpec rotates the scenario shape by seed so a sweep covers every
// topology, fleet size and fault emphasis.
func sweepSpec(seed int64) scenario.Spec {
	i := int(uint64(seed) % 12)
	spec := scenario.Default()
	spec.Name = fmt.Sprintf("sweep-%d", i)
	spec.Topology = scenario.Topology(i % 4)
	spec.Replicas = 1 + i%3
	spec.Producers = 1 + i%4
	spec.Batches = 20 + (i%3)*8
	spec.Mix = gen.MixSendHeavy()
	switch i % 3 {
	case 0: // transport-hostile: lost acks and dying connections
		spec.Faults = scenario.FaultPlan{
			DropAck: 200, DropConn: 150, KillLeader: 40, KillReplica: 60,
			Partition: 40, Gap: 60, MaxLeaderKills: 1,
		}
	case 1: // crash-hostile: daemons die and restart
		spec.Faults = scenario.FaultPlan{
			DropAck: 80, DropConn: 60, KillLeader: 120, KillReplica: 200,
			Partition: 40, Gap: 40, MaxLeaderKills: 3,
		}
	default: // network-hostile: partitions and follow-stream gaps
		spec.Faults = scenario.FaultPlan{
			DropAck: 60, DropConn: 60, KillLeader: 30, KillReplica: 60,
			Partition: 180, Gap: 180, MaxLeaderKills: 1,
		}
	}
	return spec
}

func scheduleCount(tb testing.TB) int {
	n := 28 // the acceptance bar is ≥25 distinct schedules
	if env := os.Getenv("HARNESS_SCHEDULES"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v <= 0 {
			tb.Fatalf("HARNESS_SCHEDULES=%q: %v", env, err)
		}
		n = v
	}
	return n
}

// TestScenarioSchedules is the acceptance property: ≥25 distinct
// seeded kill/drop/gap/partition schedules, every invariant checked on
// each, race detector on.
func TestScenarioSchedules(t *testing.T) {
	// Every sweep runs with poison-on-return canaries in the wire
	// pools: a hot-path buffer recycled while still referenced anywhere
	// in the cluster shows up as corrupted records or failed audit
	// parity, not silence.
	testutil.PoisonPools(t)
	for _, seed := range testutil.Seeds(t, 20090817, scheduleCount(t)) {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			seed := testutil.Seed(t, seed) // logs the seed if this subtest fails
			sc := scenario.Compile(sweepSpec(seed), seed)
			res, err := Run(sc, Options{Dir: t.TempDir(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("%s", res)
			if res.Records == 0 || res.Records != uint64(sc.TotalActions) {
				t.Fatalf("run committed %d records, workload has %d", res.Records, sc.TotalActions)
			}
			if res.ClaimsChecked != len(sc.Claims) {
				t.Fatalf("checked %d claims of %d", res.ClaimsChecked, len(sc.Claims))
			}
			// Dropped acks must have been dropped for real and survived as
			// server-side replays.
			if want := res.Faults[scenario.DropAck.String()]; res.AcksDropped < want {
				t.Fatalf("scheduled %d ack drops, proxy dropped %d", want, res.AcksDropped)
			}
		})
	}
}

// TestNoFaultControl: a scenario with an empty fault plan runs clean —
// no replays, no drops, every invariant green. This is the harness's
// own control: if it fails, the harness (not the system under test) is
// broken.
func TestNoFaultControl(t *testing.T) {
	seed := testutil.Seed(t, 42)
	spec := scenario.Default()
	spec.Faults = scenario.FaultPlan{}
	sc := scenario.Compile(spec, seed)
	if len(sc.Faults) != 0 {
		t.Fatalf("empty fault plan compiled %d faults", len(sc.Faults))
	}
	res, err := Run(sc, Options{Dir: t.TempDir(), Logf: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	if res.Replays != 0 || res.AcksDropped != 0 || res.ChunksDropped != 0 {
		t.Fatalf("no-fault run saw failures: %s", res)
	}
	if res.Records != uint64(sc.TotalActions) {
		t.Fatalf("committed %d records, want %d", res.Records, sc.TotalActions)
	}
}

// TestRunDeterministicWorkload: two runs of the same compiled scenario
// commit identical record counts and check identical claims — the
// schedule, not the wall clock, decides what happens.
func TestRunDeterministicWorkload(t *testing.T) {
	seed := testutil.Seed(t, 7)
	sc := scenario.Compile(sweepSpec(seed), seed)
	a, err := Run(sc, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(sc, Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	if a.Records != b.Records || a.Batches != b.Batches || a.ClaimsChecked != b.ClaimsChecked {
		t.Fatalf("two runs of one scenario differ: %s vs %s", a, b)
	}
}
