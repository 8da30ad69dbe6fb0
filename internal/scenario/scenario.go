// Package scenario is the compiler half of the typed scenario
// language: it expands a compact Spec — fleet size, trust topology,
// workload mix, fault plan — into a concrete, fully deterministic
// Scenario: generated .pc systems (via internal/gen), an ingest
// workload of producer-attributed batches, a seeded fault schedule,
// and a set of Definition-3 audit claims, each labelled genuine or
// forged, whose labelled verdict every store holding the claim's
// principal must return.
//
// Everything is a pure function of (Spec, seed): compilation never
// consults time, maps, or any PRNG other than the one derived from the
// seed, so a printed seed is a complete reproduction recipe. The
// harness in internal/harness executes compiled scenarios against a
// real in-process cluster.
package scenario

import (
	"fmt"

	"repro/internal/gen"
	"repro/internal/logs"
	"repro/internal/syntax"
	"repro/internal/testutil"
)

// Topology names the trust/communication shape wired into the
// generated workload: which principals exchange messages with which.
type Topology int

const (
	// Clique: every principal talks to every other (a flat federation).
	Clique Topology = iota
	// Chain: p0 → p1 → … → pN, the supply-chain shape of the paper's
	// examples (each principal receives from its predecessor and sends
	// to its successor).
	Chain
	// Star: every principal talks to p0 (a hub aggregator).
	Star
	// Ring: like Chain but closed (pN also talks to p0).
	Ring
)

func (t Topology) String() string {
	switch t {
	case Clique:
		return "clique"
	case Chain:
		return "chain"
	case Star:
		return "star"
	case Ring:
		return "ring"
	default:
		return fmt.Sprintf("topology(%d)", int(t))
	}
}

// FaultKind names one injectable fault.
type FaultKind int

const (
	// DropAck: the next ingest ack is swallowed and its connection
	// killed — the server committed, the producer replays.
	DropAck FaultKind = iota
	// DropConn: every live connection to the target dies mid-stream.
	DropConn
	// KillLeader: the leader provd restarts — listener drained, store
	// closed, both recovered from disk (sessions included).
	KillLeader
	// KillReplica: the target replica restarts — replicator stopped,
	// store closed and reopened, resume from the durable high-water.
	KillReplica
	// Partition: the target replica loses the network to the leader.
	Partition
	// Heal: the matching partition ends.
	Heal
	// Gap: one follow/query chunk frame toward the target replica
	// evaporates while the stream stays up — the replicator must detect
	// the sequence gap and re-follow.
	Gap
	// StaleMap (multi-leader only): the cluster rolls a new partition-map
	// epoch that moves the target principal to another leader, but the
	// producers keep their old map. Their next append naming that
	// principal hits the old owner, is refused with the stale-epoch
	// reject, and must refetch + re-route exactly-once.
	StaleMap
)

func (k FaultKind) String() string {
	switch k {
	case DropAck:
		return "drop-ack"
	case DropConn:
		return "drop-conn"
	case KillLeader:
		return "kill-leader"
	case KillReplica:
		return "kill-replica"
	case Partition:
		return "partition"
	case Heal:
		return "heal"
	case Gap:
		return "gap"
	case StaleMap:
		return "stale-map"
	default:
		return fmt.Sprintf("fault(%d)", int(k))
	}
}

// FaultPlan gives per-batch injection probabilities in per-mille
// (so a plan is expressible as small integers and compiles without
// floating point). At most one fault is injected per batch.
type FaultPlan struct {
	DropAck     int
	DropConn    int
	KillLeader  int
	KillReplica int
	Partition   int
	Gap         int
	// StaleMap only fires when Spec.Leaders > 1; each hit retires one
	// principal (a principal moves partitions at most once per scenario,
	// so its log splits into at most two leader-resident segments).
	StaleMap int
	// MaxLeaderKills caps leader restarts per scenario (each one stalls
	// the whole cluster while the store recovers).
	MaxLeaderKills int
	// PartitionSpan bounds how many batches a partition lasts before its
	// Heal (1..PartitionSpan). Zero means 3.
	PartitionSpan int
}

// Spec is the compact scenario description the compiler expands.
type Spec struct {
	Name string
	// Principals and Channels size the name pools of the generated
	// systems and workload.
	Principals int
	Channels   int
	Topology   Topology
	// Leaders is how many partition leaders the harness boots under one
	// cluster map (0 means 1). When > 1, KillLeader faults target one
	// partition and StaleMap faults roll map epochs.
	Leaders int
	// Replicas is the number of read replicas the harness boots behind
	// leader L0.
	Replicas int
	// Producers is the number of concurrent exactly-once sessions
	// driving the workload (round-robin over batches).
	Producers int
	// Batches and BatchSize shape the ingest workload: Batches total
	// batches of MinBatch..MaxBatch actions each.
	Batches  int
	MinBatch int
	MaxBatch int
	// Mix weighs the action kinds in the workload.
	Mix gen.Mix
	// Systems is how many closed .pc systems to generate alongside the
	// workload (the fuzz-corpus half of the scenario).
	Systems int
	// Claims is how many Definition-3 audit claims to derive: half
	// genuine (justified by a workload action), half forged.
	Claims int
	Faults FaultPlan
}

// Default is a small, fault-rich spec suitable for -race property
// tests.
func Default() Spec {
	return Spec{
		Name:       "default",
		Principals: 5,
		Channels:   4,
		Topology:   Chain,
		Replicas:   2,
		Producers:  3,
		Batches:    24,
		MinBatch:   2,
		MaxBatch:   12,
		Mix:        gen.MixSendHeavy(),
		Systems:    2,
		Claims:     8,
		Faults: FaultPlan{
			DropAck:        120,
			DropConn:       100,
			KillLeader:     60,
			KillReplica:    100,
			Partition:      80,
			Gap:            80,
			MaxLeaderKills: 2,
		},
	}
}

// Fault is one scheduled injection: before driving batch Batch, apply
// Kind to Target. Target is a replica index for replica faults and -1
// for the leader/producer path — except in multi-leader scenarios,
// where KillLeader's Target is a partition index and StaleMap's Target
// is the index of the principal the new epoch moves.
type Fault struct {
	Batch  int
	Kind   FaultKind
	Target int
}

// Batch is one producer-attributed ingest batch.
type Batch struct {
	Producer int
	Acts     []logs.Action
}

// Claim is one Definition-3 audit claim: a value term and a claimed
// one-event provenance naming a workload principal, to be checked with
// store.AuditTerm. Genuine labels the claim's truth on the workload's
// log: true when an action of the workload justifies it, false for a
// forgery nothing justifies. A converged cluster must return that
// verdict on every store holding the principal's log.
type Claim struct {
	Term    logs.Term
	Prov    syntax.Prov
	Genuine bool
}

// Scenario is a fully expanded, deterministic schedule.
type Scenario struct {
	Spec    Spec
	Seed    int64
	Systems []syntax.System
	Batches []Batch
	Faults  []Fault
	Claims  []Claim
	// TotalActions is the workload size (sum of batch lengths).
	TotalActions int
}

// PrincipalName maps a principal index to its workload name. Exported
// so the harness can resolve a StaleMap fault's Target (a principal
// index) to the name the partition map re-homes.
func PrincipalName(i int) string { return fmt.Sprintf("p%d", i) }

// principals returns the ordered name pool p0..pN-1.
func principals(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = PrincipalName(i)
	}
	return out
}

func channels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("c%d", i)
	}
	return out
}

// peers returns, for each principal index, the ordered list of
// principal indices it communicates with under the topology.
func peers(t Topology, n int) [][]int {
	out := make([][]int, n)
	switch t {
	case Chain:
		for i := 0; i < n; i++ {
			if i+1 < n {
				out[i] = append(out[i], i+1)
			}
			if i > 0 {
				out[i] = append(out[i], i-1)
			}
		}
	case Ring:
		for i := 0; i < n; i++ {
			out[i] = append(out[i], (i+1)%n, (i+n-1)%n)
		}
	case Star:
		for i := 1; i < n; i++ {
			out[i] = append(out[i], 0)
			out[0] = append(out[0], i)
		}
	default: // Clique
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if j != i {
					out[i] = append(out[i], j)
				}
			}
		}
	}
	// A 1-principal fleet talks to itself so generation never stalls.
	for i := range out {
		if len(out[i]) == 0 {
			out[i] = []int{i}
		}
	}
	return out
}

// Compile expands spec into a concrete scenario. It is deterministic
// in (spec, seed): no map iteration, no time, one PRNG.
func Compile(spec Spec, seed int64) *Scenario {
	if spec.Principals <= 0 {
		spec.Principals = 1
	}
	if spec.Channels <= 0 {
		spec.Channels = 1
	}
	if spec.Producers <= 0 {
		spec.Producers = 1
	}
	if spec.MinBatch <= 0 {
		spec.MinBatch = 1
	}
	if spec.MaxBatch < spec.MinBatch {
		spec.MaxBatch = spec.MinBatch
	}
	if spec.Faults.PartitionSpan <= 0 {
		spec.Faults.PartitionSpan = 3
	}
	rng := testutil.Rand(seed)
	sc := &Scenario{Spec: spec, Seed: seed}

	prins := principals(spec.Principals)
	chans := channels(spec.Channels)
	adj := peers(spec.Topology, spec.Principals)

	// (1) Generated .pc systems: the gen pools are the scenario's own
	// principals and channels, so the generated calculus terms and the
	// ingest workload share a vocabulary.
	cfg := gen.Default()
	cfg.Principals = prins
	cfg.Channels = chans
	for i := 0; i < spec.Systems; i++ {
		sc.Systems = append(sc.Systems, cfg.System(rng))
	}

	// (2) The ingest workload. Each action is an exchange along a
	// topology edge: the sender's channel is the edge channel (stable
	// per ordered pair), the value names the batch so audit claims can
	// target concrete workload values.
	edgeChan := func(from, to int) logs.Term {
		return logs.NameT(chans[(from*31+to*7)%len(chans)])
	}
	mix := spec.Mix
	if mix == (gen.Mix{}) {
		mix = gen.MixUniform()
	}
	mkAct := func(b int) logs.Action {
		from := rng.Intn(spec.Principals)
		to := adj[from][rng.Intn(len(adj[from]))]
		val := logs.NameT(fmt.Sprintf("v%d_%d", b, rng.Intn(1+spec.Batches/2)))
		ch := edgeChan(from, to)
		r := rng.Intn(mix.Snd + mix.Rcv + mix.Ift + mix.Iff)
		switch {
		case r < mix.Snd:
			return logs.SndAct(prins[from], ch, val)
		case r < mix.Snd+mix.Rcv:
			return logs.RcvAct(prins[to], ch, val)
		case r < mix.Snd+mix.Rcv+mix.Ift:
			return logs.IftAct(prins[from], val, val)
		default:
			return logs.IffAct(prins[from], ch, val)
		}
	}
	for b := 0; b < spec.Batches; b++ {
		n := spec.MinBatch + rng.Intn(spec.MaxBatch-spec.MinBatch+1)
		acts := make([]logs.Action, n)
		for i := range acts {
			acts[i] = mkAct(b)
		}
		sc.Batches = append(sc.Batches, Batch{Producer: b % spec.Producers, Acts: acts})
		sc.TotalActions += n
	}

	// (3) The fault schedule: at most one fault per batch, rolled in a
	// fixed kind order from per-mille weights. Partitions schedule their
	// own Heal a bounded number of batches later.
	leaderKills := 0
	healAt := make([]int, 0, 4) // parallel slices, sorted by construction
	healTarget := make([]int, 0, 4)
	partitioned := make([]bool, spec.Replicas)
	moved := make([]bool, spec.Principals) // principals already re-homed by a StaleMap epoch
	for b := 0; b < spec.Batches; b++ {
		for len(healAt) > 0 && healAt[0] == b {
			sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: Heal, Target: healTarget[0]})
			partitioned[healTarget[0]] = false
			healAt, healTarget = healAt[1:], healTarget[1:]
		}
		roll := rng.Intn(1000)
		f := spec.Faults
		replica := -1
		if spec.Replicas > 0 {
			replica = rng.Intn(spec.Replicas)
		}
		switch {
		case roll < f.DropAck:
			sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: DropAck, Target: -1})
		case roll < f.DropAck+f.DropConn:
			sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: DropConn, Target: -1})
		case roll < f.DropAck+f.DropConn+f.KillLeader:
			if leaderKills < f.MaxLeaderKills {
				leaderKills++
				target := -1
				if spec.Leaders > 1 {
					target = rng.Intn(spec.Leaders)
				}
				sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: KillLeader, Target: target})
			}
		case roll < f.DropAck+f.DropConn+f.KillLeader+f.KillReplica:
			if replica >= 0 && !partitioned[replica] {
				sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: KillReplica, Target: replica})
			}
		case roll < f.DropAck+f.DropConn+f.KillLeader+f.KillReplica+f.Partition:
			if replica >= 0 && !partitioned[replica] {
				partitioned[replica] = true
				sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: Partition, Target: replica})
				end := b + 1 + rng.Intn(f.PartitionSpan)
				// Keep the heal list sorted; spans are short so a linear
				// insert is fine.
				i := len(healAt)
				for i > 0 && healAt[i-1] > end {
					i--
				}
				healAt = append(healAt[:i], append([]int{end}, healAt[i:]...)...)
				healTarget = append(healTarget[:i], append([]int{replica}, healTarget[i:]...)...)
			}
		case roll < f.DropAck+f.DropConn+f.KillLeader+f.KillReplica+f.Partition+f.Gap:
			if replica >= 0 && !partitioned[replica] {
				sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: Gap, Target: replica})
			}
		case roll < f.DropAck+f.DropConn+f.KillLeader+f.KillReplica+f.Partition+f.Gap+f.StaleMap:
			if spec.Leaders > 1 {
				if p := rng.Intn(spec.Principals); !moved[p] {
					moved[p] = true
					sc.Faults = append(sc.Faults, Fault{Batch: b, Kind: StaleMap, Target: p})
				}
			}
		}
	}
	// Any partition still open heals after the last batch.
	for i, open := range partitioned {
		if open {
			sc.Faults = append(sc.Faults, Fault{Batch: spec.Batches, Kind: Heal, Target: i})
		}
	}

	// (4) Audit claims: even-numbered claims are genuine, odd ones
	// forged, and each is labelled. Both kinds name one principal's
	// event, so a verdict depends on that principal's log and on nothing
	// else: a genuine claim (a value a send or receive carried, claimed
	// with that action's principal and direction) holds on every store
	// holding the action; a forged one (a value no action carries) holds
	// on none.
	var exchanges []logs.Action
	for _, b := range sc.Batches {
		for _, a := range b.Acts {
			if a.Kind == logs.Snd || a.Kind == logs.Rcv {
				exchanges = append(exchanges, a)
			}
		}
	}
	for i := 0; i < spec.Claims; i++ {
		if i%2 == 0 && len(exchanges) > 0 {
			a := exchanges[rng.Intn(len(exchanges))]
			ev := syntax.OutEvent(a.Principal, nil)
			if a.Kind == logs.Rcv {
				ev = syntax.InEvent(a.Principal, nil)
			}
			sc.Claims = append(sc.Claims, Claim{Term: a.B, Prov: syntax.Seq(ev), Genuine: true})
			continue
		}
		p := prins[rng.Intn(len(prins))]
		ev := syntax.OutEvent(p, nil)
		if rng.Intn(2) == 1 {
			ev = syntax.InEvent(p, nil)
		}
		sc.Claims = append(sc.Claims, Claim{Term: logs.NameT(fmt.Sprintf("forged%d", i)), Prov: syntax.Seq(ev)})
	}
	return sc
}

// FaultCounts tallies the schedule by kind, for reporting.
func (s *Scenario) FaultCounts() map[string]int {
	out := make(map[string]int)
	for _, f := range s.Faults {
		out[f.Kind.String()]++
	}
	return out
}

// PC renders the generated systems as .pc source text.
func (s *Scenario) PC() []string {
	out := make([]string, len(s.Systems))
	for i, sys := range s.Systems {
		out[i] = sys.String()
	}
	return out
}
