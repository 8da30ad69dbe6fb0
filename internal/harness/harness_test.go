package harness

// The deterministic-simulation property suite. Each subtest compiles
// one seeded scenario — workload, fleet shape, fault schedule all
// derived from the seed — and runs it against a real in-process
// cluster of one or more partition leaders, checking spine,
// exactly-once, merged-read, replica-convergence, claim-truth,
// audit-parity and session-soundness invariants. A failing subtest
// prints its seed; REPRO_SEED=<n> re-runs exactly that schedule, alone.
//
// HARNESS_SCHEDULES overrides the schedule count (CI smoke uses a
// handful; the nightly matrix runs the full sweep and more).

import (
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/gen"
	"repro/internal/scenario"
	"repro/internal/store"
	"repro/internal/testutil"
)

// sweepSpec rotates the scenario shape by seed so a sweep covers every
// topology, fleet size, leader count and fault emphasis. One seed in
// four (by seed/12) runs a partitioned fleet of 2 or 3 leaders, whose
// fault plan adds stale-map epochs; one replica follows L0 there, as
// the one-leader schedules already cover replica faults at depth.
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
	if j := uint64(seed) / 12 % 8; j%4 == 0 {
		spec.Leaders = 2 + int(j/4)
		spec.Replicas = 1
		spec.Faults.StaleMap = 120
	}
	return spec
}

func scheduleCount(tb testing.TB) int {
	n := 38 // 28 one-leader and 10 multi-leader schedules
	if env := os.Getenv("HARNESS_SCHEDULES"); env != "" {
		v, err := strconv.Atoi(env)
		if err != nil || v <= 0 {
			tb.Fatalf("HARNESS_SCHEDULES=%q: %v", env, err)
		}
		n = v
	}
	return n
}

// TestScenarioSchedules is the acceptance property: distinct seeded
// kill/drop/gap/partition/stale-map schedules over one to three
// leaders, every invariant checked on each, race detector on.
func TestScenarioSchedules(t *testing.T) {
	// Every sweep runs with poison-on-return canaries in the wire
	// pools: a hot-path buffer recycled while still referenced anywhere
	// in the cluster shows up as corrupted records or failed audit
	// parity, not silence.
	testutil.PoisonPools(t)
	for _, seed := range testutil.Seeds(t, 20090817, scheduleCount(t)) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			seed := testutil.Seed(t, seed) // logs the seed if this subtest fails
			sc := scenario.Compile(sweepSpec(seed), seed)
			res, err := Run(sc, Options{Dir: t.TempDir(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("leaders=%d %s", max(1, sc.Spec.Leaders), res)
			if res.Records == 0 || res.Records != uint64(sc.TotalActions) {
				t.Fatalf("run committed %d records, workload has %d", res.Records, sc.TotalActions)
			}
			if res.ClaimsChecked+res.ClaimsSkipped != len(sc.Claims) {
				t.Fatalf("judged %d + skipped %d claims of %d", res.ClaimsChecked, res.ClaimsSkipped, len(sc.Claims))
			}
			// Dropped acks must have been dropped for real and survived as
			// server-side replays.
			if want := res.Faults[scenario.DropAck.String()]; res.AcksDropped < want {
				t.Fatalf("scheduled %d ack drops, proxy dropped %d", want, res.AcksDropped)
			}
			if res.Epochs != res.Faults[scenario.StaleMap.String()] {
				t.Fatalf("injected %d stale-map faults but rolled %d epochs", res.Faults[scenario.StaleMap.String()], res.Epochs)
			}
		})
	}
}

// routingSpec gives the routing path the weight the mixed sweep spreads
// over replicas: 2 or 3 leaders, no replicas, and fault plans that lean
// on stale-map epochs, repeated partition-leader kills, or transport
// faults across re-routes.
func routingSpec(seed int64) scenario.Spec {
	i := int(uint64(seed) % 6)
	spec := scenario.Default()
	spec.Name = fmt.Sprintf("routing-%d", i)
	spec.Principals = 6
	spec.Topology = scenario.Ring
	spec.Leaders = 2 + i%2
	spec.Replicas = 0
	spec.Producers = 1 + i%3
	spec.MaxBatch = 10
	spec.Systems = 1
	switch i % 3 {
	case 0: // routing-hostile: stale maps dominate
		spec.Faults = scenario.FaultPlan{DropAck: 60, DropConn: 60, StaleMap: 250}
	case 1: // crash-hostile: partition leaders die and recover
		spec.Faults = scenario.FaultPlan{
			DropAck: 80, DropConn: 60, KillLeader: 150, StaleMap: 80, MaxLeaderKills: 3,
		}
	default: // transport-hostile
		spec.Faults = scenario.FaultPlan{
			DropAck: 220, DropConn: 150, KillLeader: 40, StaleMap: 60, MaxLeaderKills: 1,
		}
	}
	return spec
}

// TestPartitionedSchedules: ten seeded routing-heavy schedules
// (routingSpec) through the same driver and checks as the mixed sweep —
// per-principal exactly-once across re-routes, per-partition spines,
// the merged read plane, audit locality — race detector on.
func TestPartitionedSchedules(t *testing.T) {
	testutil.PoisonPools(t)
	for _, seed := range testutil.Seeds(t, 50911302, 10) {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			t.Parallel()
			seed := testutil.Seed(t, seed)
			sc := scenario.Compile(routingSpec(seed), seed)
			res, err := Run(sc, Options{Dir: t.TempDir(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			t.Logf("leaders=%d %s", sc.Spec.Leaders, res)
			if res.Records == 0 || res.Records != uint64(sc.TotalActions) {
				t.Fatalf("fleet committed %d records, workload has %d", res.Records, sc.TotalActions)
			}
			if res.ClaimsChecked+res.ClaimsSkipped != len(sc.Claims) {
				t.Fatalf("judged %d + skipped %d claims of %d", res.ClaimsChecked, res.ClaimsSkipped, len(sc.Claims))
			}
			if res.Epochs != res.Faults[scenario.StaleMap.String()] {
				t.Fatalf("injected %d stale-map faults but rolled %d epochs", res.Faults[scenario.StaleMap.String()], res.Epochs)
			}
		})
	}
}

// TestSweepShapes: the default sweep runs both fleet shapes — at least
// 28 one-leader and 10 multi-leader schedules.
func TestSweepShapes(t *testing.T) {
	if os.Getenv("REPRO_SEED") != "" || os.Getenv("HARNESS_SCHEDULES") != "" {
		t.Skip("the shape split is a property of the default sweep")
	}
	one, multi := 0, 0
	for _, seed := range testutil.Seeds(t, 20090817, scheduleCount(t)) {
		if sweepSpec(seed).Leaders > 1 {
			multi++
		} else {
			one++
		}
	}
	if one < 28 || multi < 10 {
		t.Fatalf("default sweep runs %d one-leader and %d multi-leader schedules, want ≥28 and ≥10", one, multi)
	}
}

// TestClaimTruth: every claim the compiler labels genuine verifies on a
// store holding the scenario's workload, and every forged claim is
// refused — over the sweep's specs at one, two and three leaders. This
// is what makes audit parity mean something: a claim every store
// accepts (an empty provenance) or every store refuses agrees
// everywhere whatever the stores hold.
func TestClaimTruth(t *testing.T) {
	t.Parallel()
	for _, seed := range testutil.SeedRange(t, 40) {
		// The leader count shapes only the fault schedule and the claims;
		// the workload, and so the store, is the same for all three.
		st, err := store.Open(filepath.Join(t.TempDir(), "store"), store.Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, b := range scenario.Compile(sweepSpec(seed), seed).Batches {
			if _, err := st.AppendBatch(b.Acts); err != nil {
				t.Fatal(err)
			}
		}
		for leaders := 1; leaders <= 3; leaders++ {
			spec := sweepSpec(seed)
			spec.Leaders = leaders
			sc := scenario.Compile(spec, seed)
			genuine := 0
			for ci, c := range sc.Claims {
				if len(c.Prov) == 0 {
					t.Fatalf("seed %d leaders %d: claim %d has an empty provenance", seed, leaders, ci)
				}
				if got := st.AuditTerm(c.Term, c.Prov) == nil; got != c.Genuine {
					t.Fatalf("seed %d leaders %d: claim %d (%s:%s) verifies=%v, labelled genuine=%v",
						seed, leaders, ci, c.Term, c.Prov, got, c.Genuine)
				}
				if c.Genuine {
					genuine++
				}
			}
			if genuine == 0 || genuine == len(sc.Claims) {
				t.Fatalf("seed %d leaders %d: %d of %d claims genuine, want both kinds", seed, leaders, genuine, len(sc.Claims))
			}
		}
		st.Close()
	}
}

// TestNoFaultControl: a scenario with an empty fault plan runs clean on
// every fleet shape — no replays, no drops, no map rollouts, every claim
// judged. This is the harness's own control: if it fails, the harness
// (not the system under test) is broken.
func TestNoFaultControl(t *testing.T) {
	t.Parallel()
	for leaders := 1; leaders <= 3; leaders++ {
		t.Run(fmt.Sprintf("leaders=%d", leaders), func(t *testing.T) {
			t.Parallel()
			seed := testutil.Seed(t, 42)
			spec := scenario.Default()
			spec.Leaders = leaders
			spec.Faults = scenario.FaultPlan{}
			sc := scenario.Compile(spec, seed)
			if len(sc.Faults) != 0 {
				t.Fatalf("empty fault plan compiled %d faults", len(sc.Faults))
			}
			res, err := Run(sc, Options{Dir: t.TempDir(), Logf: t.Logf})
			if err != nil {
				t.Fatal(err)
			}
			if res.Replays != 0 || res.AcksDropped != 0 || res.ChunksDropped != 0 || res.Epochs != 0 {
				t.Fatalf("no-fault run saw recovery work: %s", res)
			}
			if res.ClaimsSkipped != 0 || res.ClaimsChecked != len(sc.Claims) {
				t.Fatalf("checked %d claims of %d (%d skipped)", res.ClaimsChecked, len(sc.Claims), res.ClaimsSkipped)
			}
			if res.Records != uint64(sc.TotalActions) {
				t.Fatalf("committed %d records, want %d", res.Records, sc.TotalActions)
			}
		})
	}
}

// TestRunDeterministicWorkload: two runs of the same compiled scenario
// commit identical record counts and check identical claims — the
// schedule, not the wall clock, decides what happens.
func TestRunDeterministicWorkload(t *testing.T) {
	t.Parallel()
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
