package main

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/big"
	"math/rand"

	"repro/internal/churn"
	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/service"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// Request kinds, one per wire operation the benchmark sends.
const (
	kindAnalyze   = "analyze"
	kindBatch     = "batch"
	kindPartition = "partition"
	kindPropose   = "propose-batch"
	kindCommit    = "commit"
	kindRollback  = "rollback"
)

// Request is one generated wire request plus what the oracle needs to
// judge its response. Session requests name a session slot; the live id
// is bound when the session is opened.
type Request struct {
	Kind string
	Body []byte
	// Session is the session slot (-1 for stateless requests).
	Session int
	// Sets are the analyzed workloads of an analyze or batch request, in
	// request order; Keys are their oracle keys.
	Sets []workload.Workload
	Keys []int
	// Part is the partitioned workload of a partition request.
	Part *workload.Workload
	// Tasks are the proposed tasks of a propose-batch request.
	Tasks []workload.Task

	// prev is the previous request of the same session; it must complete
	// before this one is sent. done is closed when this one completes.
	prev *Request
	done chan struct{}
}

// path returns the request's URL path given the live session ids.
func (r *Request) path(ids []string) string {
	switch r.Kind {
	case kindAnalyze:
		return "/v1/analyze"
	case kindBatch:
		return "/v1/batch"
	case kindPartition:
		return "/v1/partition"
	}
	return "/v1/sessions/" + ids[r.Session] + "/" + r.Kind
}

// stream yields a workload's deterministic request sequence.
type stream interface {
	next() *Request
}

// subSeed derives an independent generator seed for item i of a stream.
func subSeed(seed int64, tag string, i int) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, i)
	return int64(h.Sum64() >> 1)
}

func mustJSON(v any) []byte {
	b, err := json.Marshal(v)
	if err != nil {
		panic(fmt.Sprintf("marshal generated request: %v", err))
	}
	return b
}

var oneRat = big.NewRat(1, 1)

// genSet draws one sporadic task set with the paper's generator: n tasks,
// utilization u, log-uniform periods in [pmin, pmax], mean deadline gap
// gap. Rounding can push a set a hair over 1, so draws repeat until the
// exact utilization is at most 1.
func genSet(rng *rand.Rand, n int, u float64, pmin, pmax int64, gap float64) model.TaskSet {
	for {
		ts, err := taskgen.New(taskgen.Config{
			N: n, Utilization: u, PeriodMin: pmin, PeriodMax: pmax,
			LogUniformPeriods: true, GapMean: gap,
		}, rng)
		if err == nil && workload.NewSporadic(ts).Validate() == nil && ts.Utilization().Cmp(oneRat) <= 0 {
			return ts
		}
	}
}

// eventsOf turns a sporadic set into its strictly periodic event-stream
// twin.
func eventsOf(ts model.TaskSet) workload.Workload {
	ets := make([]eventstream.Task, len(ts))
	for i, t := range ts {
		ets[i] = eventstream.Task{WCET: t.WCET, Deadline: t.Deadline, Stream: eventstream.Periodic(t.Period)}
	}
	return workload.NewEvents(ets)
}

func analyzeRequest(wl workload.Workload, key int) *Request {
	return &Request{
		Kind: kindAnalyze, Session: -1,
		Body: mustJSON(service.AnalyzeRequest{Workload: wl}),
		Sets: []workload.Workload{wl}, Keys: []int{key},
	}
}

func batchRequest(wls []workload.Workload, keys []int) *Request {
	sets := make([]service.WorkloadSet, len(wls))
	for i, wl := range wls {
		sets[i] = service.WorkloadSet{Workload: wl}
	}
	return &Request{
		Kind: kindBatch, Session: -1,
		Body: mustJSON(service.BatchRequest{Sets: sets}),
		Sets: wls, Keys: keys,
	}
}

// Working-set shape of the hit workload.
const (
	hitWorkingSet  = 512
	hitPartitions  = 16
	batchSize      = 8
	partitionProcs = 8
	partitionTasks = 40
)

// hitStream draws from a fixed warm working set: every analysis and
// every partition bin it asks for was computed during set-up.
type hitStream struct {
	rng   *rand.Rand
	sets  []workload.Workload
	parts []workload.Workload
}

func newHitStream(seed int64) *hitStream {
	s := &hitStream{rng: rand.New(rand.NewSource(subSeed(seed, "hit", 0)))}
	for i := range hitWorkingSet {
		rng := rand.New(rand.NewSource(subSeed(seed, "hit-set", i)))
		n := 8 + rng.Intn(41)
		u := 0.70 + 0.25*rng.Float64()
		s.sets = append(s.sets, workload.NewSporadic(genSet(rng, n, u, 100, 100000, 0.3)))
	}
	for i := range hitPartitions {
		rng := rand.New(rand.NewSource(subSeed(seed, "hit-part", i)))
		s.parts = append(s.parts, genPartitioned(rng))
	}
	return s
}

// genPartitioned draws a partitioned workload that first-fit places
// comfortably: ~40 light tasks over 8 unit-speed processors at a total
// utilization near 4.
func genPartitioned(rng *rand.Rand) workload.Workload {
	procs := make([]workload.Processor, partitionProcs)
	tasks := make([]workload.PartitionedTask, 0, partitionTasks)
	for len(tasks) < partitionTasks {
		ts := genSet(rng, 10, 0.8+0.2*rng.Float64(), 100, 100000, 0.3)
		for _, t := range ts {
			tasks = append(tasks, workload.PartitionedTask{Task: t})
		}
	}
	return workload.NewPartitioned(procs, tasks[:partitionTasks])
}

// warmup lists the requests that fill the caches: each working-set
// workload once, then each partition workload once.
func (s *hitStream) warmup() []*Request {
	out := make([]*Request, 0, len(s.sets)+len(s.parts))
	for i, wl := range s.sets {
		out = append(out, analyzeRequest(wl, i))
	}
	for i := range s.parts {
		out = append(out, s.partitionRequest(i))
	}
	return out
}

func (s *hitStream) partitionRequest(i int) *Request {
	return &Request{
		Kind: kindPartition, Session: -1,
		Body: mustJSON(service.PartitionRequest{Workload: s.parts[i]}),
		Part: &s.parts[i], Keys: []int{i},
	}
}

// next follows the hit mix: 85% analyze, 10% batch of 8, 5% partition.
func (s *hitStream) next() *Request {
	switch r := s.rng.Float64(); {
	case r < 0.85:
		i := s.rng.Intn(len(s.sets))
		return analyzeRequest(s.sets[i], i)
	case r < 0.95:
		wls := make([]workload.Workload, batchSize)
		keys := make([]int, batchSize)
		for k := range wls {
			keys[k] = s.rng.Intn(len(s.sets))
			wls[k] = s.sets[keys[k]]
		}
		return batchRequest(wls, keys)
	default:
		return s.partitionRequest(s.rng.Intn(len(s.parts)))
	}
}

// missStream makes every workload unique: item i is drawn from its own
// seed, so the cache never hits and the stream does not depend on how
// many items an earlier phase consumed.
type missStream struct {
	seed int64
	i    int
}

// missSet draws the paper's setup: n in [8,48], U in [0.90,0.99], gap
// mean 0.3, periods log-uniform over 10^2..10^5, one set in five spread
// over 6 decades, one in ten an event-stream workload.
func missSet(rng *rand.Rand) workload.Workload {
	n := 8 + rng.Intn(41)
	u := 0.90 + 0.09*rng.Float64()
	pmax := int64(100000)
	if rng.Intn(5) == 0 {
		pmax = 100000000
	}
	ts := genSet(rng, n, u, 100, pmax, 0.3)
	if rng.Intn(10) == 0 {
		return eventsOf(ts)
	}
	return workload.NewSporadic(ts)
}

// next follows the miss mix: 80% analyze, 20% batch of 8.
func (s *missStream) next() *Request {
	rng := rand.New(rand.NewSource(subSeed(s.seed, "miss", s.i)))
	s.i++
	if rng.Float64() < 0.8 {
		return analyzeRequest(missSet(rng), -1)
	}
	wls := make([]workload.Workload, batchSize)
	keys := make([]int, batchSize)
	for k := range wls {
		wls[k] = missSet(rng)
		keys[k] = -1
	}
	return batchRequest(wls, keys)
}

// Session workload shape.
const (
	sessionCount    = 16
	sessionSeedSize = 200
	sessionOps      = 4000
	proposeGroup    = 4
	// sessionFleetSeed draws the sessions' committed seed sets.
	sessionFleetSeed = 1
)

// sessionStream replays concurrent churn scenarios round-robin, one
// request per turn: a commit, a rollback, or up to four consecutive
// proposals grouped into one propose-batch. Each session's requests are
// chained so they reach the server in scenario order.
type sessionStream struct {
	scen []churn.Scenario
	pos  []int
	last []*Request
	turn int
}

func newSessionStream(seed int64, count int) *sessionStream {
	s := &sessionStream{pos: make([]int, count), last: make([]*Request, count)}
	cfg := churn.Config{SeedTasks: sessionSeedSize, Ops: sessionOps, TightFrac: 0.2}
	for i := range count {
		// The sessions' committed seed sets are one fixed fleet; --seed
		// draws the op streams replayed against them. Escalation cost
		// depends mostly on the committed set, so a fleet redrawn per
		// seed would swamp a run-to-run comparison with input variance.
		fleet, err := churn.Generate("", cfg, rand.New(rand.NewSource(subSeed(sessionFleetSeed, "session-seed", i))))
		if err != nil {
			panic(fmt.Sprintf("churn scenario: %v", err))
		}
		ops, err := churn.Generate("", cfg, rand.New(rand.NewSource(subSeed(seed, "session", i))))
		if err != nil {
			panic(fmt.Sprintf("churn scenario: %v", err))
		}
		s.scen = append(s.scen, churn.Scenario{Name: fmt.Sprintf("s%d", i), Seed: fleet.Seed, Ops: ops.Ops})
	}
	return s
}

// openBody is the session-open request of slot i.
func (s *sessionStream) openBody(i int) []byte {
	return mustJSON(service.SessionRequest{Workload: s.scen[i].Seed})
}

func (s *sessionStream) next() *Request {
	slot := s.turn % len(s.scen)
	s.turn++
	sc, p := s.scen[slot], s.pos[slot]
	if p >= len(sc.Ops) {
		panic(fmt.Sprintf("session %d ran out of its %d scenario ops", slot, len(sc.Ops)))
	}
	r := &Request{Session: slot, prev: s.last[slot]}
	switch sc.Ops[p].Op {
	case churn.OpCommit:
		r.Kind = kindCommit
		s.pos[slot]++
	case churn.OpRollback:
		r.Kind = kindRollback
		s.pos[slot]++
	default:
		r.Kind = kindPropose
		for s.pos[slot] < len(sc.Ops) && len(r.Tasks) < proposeGroup && sc.Ops[s.pos[slot]].Op == churn.OpPropose {
			r.Tasks = append(r.Tasks, *sc.Ops[s.pos[slot]].Task)
			s.pos[slot]++
		}
		r.Body = mustJSON(service.ProposeBatchRequest{Tasks: r.Tasks})
	}
	s.last[slot] = r
	return r
}

// take pre-generates n requests so generation stays out of the timed
// phases.
func take(s stream, n int) []*Request {
	out := make([]*Request, n)
	for i := range out {
		out[i] = s.next()
		out[i].done = make(chan struct{})
	}
	return out
}
