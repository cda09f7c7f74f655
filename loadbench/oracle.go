package main

import (
	"encoding/json"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/workload"
)

// oracleVerdict analyzes a workload with the cascade over math/big.Rat
// accumulators, the reference arithmetic the server's fast paths are
// property-tested against.
func oracleVerdict(wl workload.Workload) string {
	res, err := engine.AnalyzeWorkload(engine.MustGet("cascade"), wl, core.Options{Arithmetic: core.ArithBigRat})
	if err != nil {
		return "error: " + err.Error()
	}
	return res.Verdict.String()
}

// oracleVerdicts computes the reference verdict of every workload on all
// CPUs; it runs outside the timed phases, after the daemons are idle.
func oracleVerdicts(wls []workload.Workload) []string {
	out := make([]string, len(wls))
	var wg sync.WaitGroup
	next := make(chan int)
	for range runtime.NumCPU() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				out[i] = oracleVerdict(wls[i])
			}
		}()
	}
	for i := range wls {
		next <- i
	}
	close(next)
	wg.Wait()
	return out
}

// outcome is one sent request's result, kept raw during timing and
// judged afterwards.
type outcome struct {
	req    *Request
	status int
	body   []byte
	err    error
	// replica is the X-Edf-Replica header (the serving replica behind a
	// proxy).
	replica string
}

func (o outcome) ok() bool { return o.err == nil && o.status >= 200 && o.status < 300 }

// checker judges responses against the oracle. Stateless verdicts are
// looked up by oracle key (hit working set) or computed for the unique
// workloads of the miss stream; session decisions are compared with an
// in-process admission replay.
type checker struct {
	keyed    []string          // oracle verdict per working-set key
	partBins map[string]string // (workload, processor, tasks) -> oracle verdict
	sessions *sessionOracle
}

// check returns the number of requests whose response disagrees with
// the oracle (failed requests are counted by the caller).
func (c *checker) check(outs []outcome) (int, error) {
	var fresh []workload.Workload
	type ref struct{ out, set int }
	var refs []ref
	verdicts := make([][]string, len(outs))
	bad := make([]bool, len(outs))
	for i, o := range outs {
		if !o.ok() {
			continue
		}
		switch o.req.Kind {
		case kindAnalyze:
			var resp service.AnalyzeResponse
			if err := json.Unmarshal(o.body, &resp); err != nil {
				return 0, fmt.Errorf("decoding analyze response: %w", err)
			}
			verdicts[i] = []string{resp.Result.Verdict}
		case kindBatch:
			var resp service.BatchResponse
			if err := json.Unmarshal(o.body, &resp); err != nil {
				return 0, fmt.Errorf("decoding batch response: %w", err)
			}
			if len(resp.Results) != len(o.req.Sets) {
				bad[i] = true
				continue
			}
			for _, j := range resp.Results {
				verdicts[i] = append(verdicts[i], j.Result.Verdict)
			}
		case kindPartition:
			var resp service.PartitionResponse
			if err := json.Unmarshal(o.body, &resp); err != nil {
				return 0, fmt.Errorf("decoding partition response: %w", err)
			}
			bad[i] = !c.placementOK(o.req.Keys[0], *o.req.Part, resp)
			continue
		default:
			continue // session ops: judged by the session oracle
		}
		for k, key := range o.req.Keys {
			if key < 0 {
				fresh = append(fresh, o.req.Sets[k])
				refs = append(refs, ref{i, k})
			} else if verdicts[i][k] != c.keyed[key] {
				bad[i] = true
			}
		}
	}
	for k, v := range oracleVerdicts(fresh) {
		if verdicts[refs[k].out][refs[k].set] != v {
			bad[refs[k].out] = true
		}
	}
	if c.sessions != nil {
		if err := c.sessions.check(outs, bad); err != nil {
			return 0, err
		}
	}
	mismatches := 0
	for _, b := range bad {
		if b {
			mismatches++
		}
	}
	return mismatches, nil
}

// placementOK re-proves a feasible placement: every task placed exactly
// once, and every bin feasible under the reference-arithmetic cascade.
func (c *checker) placementOK(key int, wl workload.Workload, resp service.PartitionResponse) bool {
	if !resp.Feasible || len(resp.Processors) != len(wl.Processors) {
		return false
	}
	seen := make([]bool, len(wl.PartTasks))
	for _, rep := range resp.Processors {
		for _, ti := range rep.Tasks {
			if ti < 0 || ti >= len(seen) || seen[ti] {
				return false
			}
			seen[ti] = true
		}
		if len(rep.Tasks) == 0 {
			continue
		}
		bin := fmt.Sprint(key, rep.Index, rep.Tasks)
		v, ok := c.partBins[bin]
		if !ok {
			v = oracleVerdict(workload.NewSporadic(partition.BinTasks(wl, rep.Index, rep.Tasks)))
			c.partBins[bin] = v
		}
		if v != core.Feasible.String() || rep.Verdict != v {
			return false
		}
	}
	for _, s := range seen {
		if !s {
			return false
		}
	}
	return true
}

// sessionOracle replays every session's requests, in scenario order,
// against an in-process admission controller running the reference
// arithmetic, and compares each decision with the server's.
type sessionOracle struct {
	seeds []workload.Workload
}

// check marks bad[i] when outs[i] was decided differently by the oracle.
func (so *sessionOracle) check(outs []outcome, bad []bool) error {
	bySlot := make([][]int, len(so.seeds))
	for i, o := range outs {
		if o.req.Session >= 0 {
			bySlot[o.req.Session] = append(bySlot[o.req.Session], i)
		}
	}
	errs := make([]error, len(bySlot))
	var wg sync.WaitGroup
	sem := make(chan struct{}, runtime.NumCPU())
	for slot, seq := range bySlot {
		if len(seq) == 0 {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer func() { <-sem; wg.Done() }()
			errs[slot] = so.replay(slot, outs, seq, bad)
		}()
	}
	wg.Wait()
	for slot, err := range errs {
		if err != nil {
			return fmt.Errorf("oracle session %d: %w", slot, err)
		}
	}
	return nil
}

// replay runs one session's requests, outs[seq...], through a fresh
// oracle controller. Slots own disjoint indices, so concurrent replays
// write disjoint elements of bad.
func (so *sessionOracle) replay(slot int, outs []outcome, seq []int, bad []bool) error {
	adm, err := service.NewAdmission(service.AdmissionConfig{
		Seed:    so.seeds[slot],
		Options: core.Options{Arithmetic: core.ArithBigRat},
	})
	if err != nil {
		return err
	}
	for _, i := range seq {
		if !outs[i].ok() {
			// The server's state after a failed request is unknown; the
			// failure itself is already counted.
			return nil
		}
		same, err := replayOp(adm, outs[i])
		if err != nil {
			return err
		}
		bad[i] = !same
	}
	return nil
}

// replayOp applies one session request to the oracle controller and
// reports whether the server decided the same way.
func replayOp(adm *service.Admission, o outcome) (bool, error) {
	switch o.req.Kind {
	case kindPropose:
		var resp service.ProposeBatchResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return false, fmt.Errorf("decoding propose-batch response: %w", err)
		}
		want, err := adm.ProposeBatch(o.req.Tasks)
		if err != nil {
			return false, err
		}
		if len(resp.Results) != len(want) {
			return false, nil
		}
		for i, w := range want {
			got := resp.Results[i]
			if got.Admitted != w.Admitted || got.Result.Verdict != w.Result.Verdict.String() {
				return false, nil
			}
		}
		return true, nil
	default:
		var resp service.CommitResponse
		if err := json.Unmarshal(o.body, &resp); err != nil {
			return false, fmt.Errorf("decoding %s response: %w", o.req.Kind, err)
		}
		var want service.FinishOutcome
		if o.req.Kind == kindCommit {
			want = adm.Commit()
		} else {
			want = adm.Rollback()
		}
		return resp.Moved == want.Moved && resp.Committed == want.Committed, nil
	}
}
