package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"maps"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/engine"
	"repro/internal/obs"
	"repro/internal/partition"
	"repro/internal/service"
	"repro/internal/store"
	"repro/internal/workload"
)

// span is one timed call into a layer during the traced replay. Spans of
// one replayed request share a trace id; Parent is 0 for the request's
// root span.
type span struct {
	Trace  int    `json:"trace"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// replayMode selects what a replay pass records.
type replayMode int

const (
	modePlain  replayMode = iota // no instrumentation: the untraced wall time
	modeSpans                    // spans around every layer call
	modeAllocs                   // heap allocations per layer call
)

// tracer records the spans (or allocation counts) of a replay pass.
type tracer struct {
	mode  replayMode
	t0    time.Time
	trace int
	spans []span
	stack []int // open span ids
	// closed is the id of the span that closed last.
	closed int
	// allocs[name] = {calls, mallocs} in modeAllocs.
	allocs map[string]*[2]uint64
}

// layer runs f as one call into the named layer.
func (t *tracer) layer(name string, f func()) {
	switch t.mode {
	case modePlain:
		f()
	case modeAllocs:
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		f()
		runtime.ReadMemStats(&after)
		a := t.allocs[name]
		if a == nil {
			a = new([2]uint64)
			t.allocs[name] = a
		}
		a[0]++
		a[1] += after.Mallocs - before.Mallocs
	case modeSpans:
		id := t.open(name)
		f()
		t.close(id)
	}
}

func (t *tracer) open(name string) int {
	parent := 0
	if n := len(t.stack); n > 0 {
		parent = t.stack[n-1]
	}
	t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(t.t0).Nanoseconds()})
	t.stack = append(t.stack, len(t.spans))
	return len(t.spans)
}

func (t *tracer) close(id int) {
	t.spans[id-1].End = time.Since(t.t0).Nanoseconds()
	t.stack = t.stack[:len(t.stack)-1]
	t.closed = id
}

// request wraps one replayed request in its root span.
func (t *tracer) request(kind string, f func()) {
	t.trace++
	t.layer("request:"+kind, f)
}

// stages adds the cascade stages the analyses of the span that closed
// last recorded, as its child spans laid back to back ending where it
// ended: a stage log keeps durations only, like the server's own traces.
func (t *tracer) stages(logs ...*obs.StageLog) {
	if t.mode != modeSpans || t.closed == 0 {
		return
	}
	parent := t.spans[t.closed-1]
	var total int64
	for _, log := range logs {
		for i := range log.Len() {
			total += log.Stage(i).DurNS
		}
	}
	start := parent.End - total
	for _, log := range logs {
		for i := range log.Len() {
			st := log.Stage(i)
			t.spans = append(t.spans, span{Trace: t.trace, ID: len(t.spans) + 1, Parent: parent.ID,
				Name: "core." + stageName(st.Name), Start: start, End: start + st.DurNS})
			start += st.DurNS
		}
	}
}

// stageName drops a stage's parameter: "superpos(3)" -> "superpos".
func stageName(s string) string {
	name, _, _ := strings.Cut(s, "(")
	return name
}

// counts are the event counts a replay pass observes.
type counts struct {
	cacheGets, cacheHits     int
	analyses                 int            // cascade runs, engine jobs and escalations alike
	stageRuns                map[string]int // cascade runs that reached each stage
	allapproxIters           int64
	promotions               uint64
	binChecks, binHits       uint64
	proposals, escalations   int
	storeRecords, storeSyncs uint64
}

func (c *counts) noteStages(log *obs.StageLog) {
	if log.Len() == 0 {
		return
	}
	c.analyses++
	for i := range log.Len() {
		st := log.Stage(i)
		name := stageName(st.Name)
		c.stageRuns[name]++
		if name == "allapprox" {
			c.allapproxIters += st.Iterations
		}
	}
}

// mirror replays requests in-process through the same public functions,
// in the same order, as edfd's handlers call them.
type mirror struct {
	t       *tracer
	c       counts
	cache   *service.Cache
	cascade engine.Analyzer
	adms    []*service.Admission
	st      *store.DiskStore
	ids     []string
}

func newMirror(mode replayMode) *mirror {
	return &mirror{
		t:       &tracer{mode: mode, t0: time.Now(), allocs: map[string]*[2]uint64{}},
		c:       counts{stageRuns: map[string]int{}},
		cache:   service.NewCache(service.DefaultCacheCapacity),
		cascade: engine.MustGet("cascade"),
	}
}

// openSessions opens one admission controller per seed over a fresh
// disk store, journaling each open record as edfd does.
func (m *mirror) openSessions(dir string, seeds []workload.Workload) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	st, err := store.Open(dir, "trace", store.Options{})
	if err != nil {
		return err
	}
	m.st = st
	for i, seed := range seeds {
		adm, err := service.NewAdmission(service.AdmissionConfig{Seed: seed})
		if err != nil {
			return err
		}
		id := fmt.Sprintf("trace-%d", i)
		cfg, err := json.Marshal(service.SessionRequest{Workload: seed})
		if err != nil {
			return err
		}
		if _, err := st.Append(store.Record{Type: store.TypeOpen, Session: id, Config: cfg}); err != nil {
			return err
		}
		m.adms = append(m.adms, adm)
		m.ids = append(m.ids, id)
	}
	return nil
}

// finish closes the mirror's store, so the fsync counts are final.
func (m *mirror) finish() error {
	if m.st == nil {
		return nil
	}
	err := m.st.Close()
	s := m.st.Stats()
	m.c.storeRecords, m.c.storeSyncs = s.Records, s.Syncs
	return err
}

// replay runs one request through the mirror.
func (m *mirror) replay(r *Request) error {
	var err error
	m.t.request(r.Kind, func() {
		switch r.Kind {
		case kindAnalyze:
			err = m.analyze(r)
		case kindBatch:
			err = m.batch(r)
		case kindPartition:
			err = m.partition(r)
		default:
			err = m.session(r)
		}
	})
	return err
}

// analyzeOne mirrors the server's cached single analysis.
func (m *mirror) analyzeOne(wl workload.Workload) (core.Result, bool, string) {
	var fp string
	var cacheable, hit bool
	var res core.Result
	m.t.layer("engine.fingerprint", func() { fp, cacheable = engine.WorkloadFingerprint(wl, "cascade", core.Options{}) })
	if cacheable {
		m.t.layer("service.cache_get", func() { res, hit = m.cache.Get(fp) })
		m.c.cacheGets++
		if hit {
			m.c.cacheHits++
			return res, true, fp
		}
	}
	var log obs.StageLog
	opt := core.Options{}
	if m.t.mode == modeSpans {
		opt.Stages = &log
	}
	var jr engine.JobResult
	m.t.layer("engine.analyze", func() {
		jr = engine.Run(context.Background(), []engine.Job{{Workload: wl, Analyzer: m.cascade, Opt: opt}}, engine.RunOptions{Workers: 1})[0]
	})
	m.t.stages(&log)
	m.c.noteStages(&log)
	m.c.promotions += jr.Promotions
	if cacheable {
		m.t.layer("service.cache_put", func() { m.cache.Put(fp, jr.Result) })
	}
	return jr.Result, false, fp
}

func (m *mirror) analyze(r *Request) error {
	var req service.AnalyzeRequest
	var err error
	m.t.layer("service.decode", func() { err = json.Unmarshal(r.Body, &req) })
	if err != nil {
		return err
	}
	m.t.layer("workload.validate", func() { err = req.Workload.Validate() })
	if err != nil {
		return err
	}
	res, cached, fp := m.analyzeOne(req.Workload)
	m.t.layer("service.encode", func() {
		_, err = json.Marshal(service.AnalyzeResponse{
			Model: string(req.Workload.Kind()), Analyzer: "cascade",
			Result: service.NewResultJSON(res), Cached: cached, Fingerprint: fp,
		})
	})
	return err
}

// batch mirrors the batch handler; misses run one engine job at a time,
// so each job's span is its own.
func (m *mirror) batch(r *Request) error {
	var req service.BatchRequest
	var err error
	m.t.layer("service.decode", func() { err = json.Unmarshal(r.Body, &req) })
	if err != nil {
		return err
	}
	for _, s := range req.Sets {
		m.t.layer("workload.validate", func() { err = s.Workload.Validate() })
		if err != nil {
			return err
		}
	}
	out := make([]service.BatchJobJSON, len(req.Sets))
	for i, s := range req.Sets {
		res, cached, _ := m.analyzeOne(s.Workload)
		out[i] = service.BatchJobJSON{SetIndex: i, Model: string(s.Workload.Kind()), Analyzer: "cascade",
			Result: service.NewResultJSON(res), Cached: cached}
	}
	m.t.layer("service.encode", func() { _, err = json.Marshal(service.BatchResponse{Results: out}) })
	return err
}

func (m *mirror) partition(r *Request) error {
	var req service.PartitionRequest
	var err error
	m.t.layer("service.decode", func() { err = json.Unmarshal(r.Body, &req) })
	if err != nil {
		return err
	}
	m.t.layer("workload.validate", func() { err = req.Workload.Validate() })
	if err != nil {
		return err
	}
	var pl partition.Placement
	m.t.layer("partition.place", func() {
		pl, err = partition.Place(context.Background(), req.Workload, partition.Config{Analyzer: "cascade", Cache: m.cache})
	})
	if err != nil {
		return err
	}
	m.c.binChecks += pl.Stats.BinChecks
	m.c.binHits += pl.Stats.CacheHits
	m.c.promotions += pl.Stats.Promotions
	m.t.layer("service.encode", func() {
		_, err = json.Marshal(service.PartitionResponse{Model: string(workload.Partitioned), Analyzer: "cascade", Placement: pl})
	})
	return err
}

// session mirrors the journaled session handlers: the admission decision
// under the session, then its write-ahead record — synchronous for a
// commit, submitted to the group-commit batcher otherwise.
func (m *mirror) session(r *Request) error {
	adm, id := m.adms[r.Session], m.ids[r.Session]
	var err error
	var resp any
	switch r.Kind {
	case kindPropose:
		var req service.ProposeBatchRequest
		m.t.layer("service.decode", func() { err = json.Unmarshal(r.Body, &req) })
		if err != nil {
			return err
		}
		var outs []service.ProposeOutcome
		m.t.layer("service.propose", func() { outs, err = adm.ProposeBatch(req.Tasks) })
		if err != nil {
			return err
		}
		var recs []store.Record
		var logs []*obs.StageLog
		br := service.ProposeBatchResponse{}
		for i, out := range outs {
			m.c.proposals++
			if out.Escalated {
				m.c.escalations++
				logs = append(logs, &outs[i].Stages)
				m.c.noteStages(&outs[i].Stages)
				m.c.promotions += out.Promotions
			}
			if out.Admitted {
				raw, err := json.Marshal(req.Tasks[i])
				if err != nil {
					return err
				}
				recs = append(recs, store.Record{Type: store.TypeAdmit, Session: id, Task: raw})
			}
			br.Results = append(br.Results, service.ProposeResponse{Admitted: out.Admitted, Result: service.NewResultJSON(out.Result),
				Utilization: out.Utilization, Committed: out.Committed, Pending: out.Pending, Escalated: out.Escalated, Path: out.Path})
		}
		m.t.stages(logs...)
		if len(recs) > 0 {
			m.t.layer("store.submit", func() { _, err = m.st.Submit(recs...) })
		}
		resp = br
	case kindCommit:
		var out service.FinishOutcome
		m.t.layer("service.propose", func() { out = adm.Commit() })
		m.t.layer("store.append_sync", func() { _, err = m.st.Append(store.Record{Type: store.TypeCommit, Session: id}) })
		resp = service.CommitResponse{Moved: out.Moved, Committed: out.Committed, Utilization: out.Utilization}
	default:
		var out service.FinishOutcome
		m.t.layer("service.propose", func() { out = adm.Rollback() })
		m.t.layer("store.submit", func() { _, err = m.st.Submit(store.Record{Type: store.TypeRollback, Session: id}) })
		resp = service.CommitResponse{Moved: out.Moved, Committed: out.Committed, Utilization: out.Utilization}
	}
	if err != nil {
		return err
	}
	m.t.layer("service.encode", func() { _, err = json.Marshal(resp) })
	return err
}

// layerStat aggregates one layer's spans.
type layerStat struct {
	calls       int
	total, self int64 // ns
}

// selfTimes aggregates spans per layer name: a span's self time is its
// duration minus the time its children cover.
func selfTimes(spans []span) map[string]*layerStat {
	child := make([]int64, len(spans)+1)
	for _, s := range spans {
		if s.Parent > 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	out := map[string]*layerStat{}
	for _, s := range spans {
		ls := out[s.Name]
		if ls == nil {
			ls = &layerStat{}
			out[s.Name] = ls
		}
		ls.calls++
		ls.total += s.End - s.Start
		ls.self += s.End - s.Start - child[s.ID]
	}
	return out
}

// writeSpans writes the spans as JSON lines.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// sessionSeed is one session's seed workload and its open request body.
type sessionSeed struct {
	seed workload.Workload
	body []byte
}

// openSessions opens one session per seed over HTTP and returns the ids.
func openSessions(base string, seeds []sessionSeed) ([]string, error) {
	ids := make([]string, len(seeds))
	for i, s := range seeds {
		resp, err := http.Post(base+"/v1/sessions", "application/json", bytes.NewReader(s.body))
		if err != nil {
			return nil, err
		}
		var st service.SessionResponse
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusCreated || st.ID == "" {
			return nil, fmt.Errorf("opening session %d: status %d: %v", i, resp.StatusCode, err)
		}
		ids[i] = st.ID
	}
	return ids, nil
}

// traceSample is the traced run's fixed input: requests replayed both
// over HTTP at no load and in-process, plus in-process-only probe
// requests that keep the session layers measured on a workload without
// session traffic.
type traceSample struct {
	reqs  []*Request
	probe []*Request
	// seeds are the sessions the session requests of reqs or probe run in.
	seeds []sessionSeed
}

// traceRun measures the per-layer split on the workload's fixed sample:
// the sample's no-load latency over HTTP at one connection, the proxy
// hop (hit workload), then in-process replays through the layers. The
// probe requests, if any, are replayed apart, and fill in only the
// layers the sample never reaches.
func traceRun(cfg config, w *bench, fl *fleet) (map[string]float64, error) {
	ts := w.sample()
	sample := ts.reqs
	ids := fl.ids
	if sample[0].Session >= 0 {
		var err error
		if ids, err = openSessions(fl.entry, ts.seeds); err != nil {
			return nil, err
		}
	}
	cl := newClient(fl.entry, ids)
	defer cl.close()
	outs, httpLat := sequential(sample, func(_ int, r *Request) outcome { return cl.do(r) })
	for _, o := range outs {
		if !o.ok() {
			return nil, fmt.Errorf("no-load %s: status %d: %v", o.req.Kind, o.status, o.err)
		}
	}
	var httpNS int64
	for _, d := range httpLat {
		httpNS += d.Nanoseconds()
	}

	out := map[string]float64{"cluster.hop_us": 0}
	var hopNS float64
	if fl.proxy != nil {
		hop, err := proxyHop(fl.entry, outs)
		if err != nil {
			return nil, err
		}
		out["cluster.hop_us"] = hop / 1e3
		hopNS = hop * float64(len(sample))
	}

	var warmup []*Request
	if w.warmup != nil {
		warmup = w.warmup()
	}
	main, err := replayPasses(cfg, sample, ts.seeds, warmup)
	if err != nil {
		return nil, err
	}
	probe := main
	if len(ts.probe) > 0 {
		if probe, err = replayPasses(cfg, ts.probe, ts.seeds, nil); err != nil {
			return nil, err
		}
	}
	spans := slices.Clone(main.spans)
	if len(ts.probe) > 0 {
		for _, sp := range probe.spans {
			sp.Trace += len(sample)
			sp.ID += len(main.spans)
			if sp.Parent > 0 {
				sp.Parent += len(main.spans)
			}
			spans = append(spans, sp)
		}
	}
	path := filepath.Join(cfg.dir, fmt.Sprintf("spans-%s-%d.jsonl", cfg.spec.name, cfg.seed))
	if err := writeSpans(path, spans); err != nil {
		return nil, err
	}

	mainST, probeST := selfTimes(main.spans), selfTimes(probe.spans)
	// layer picks a layer's spans from the sample, or from the probe when
	// the sample never calls it.
	layer := func(name string) (*layerStat, *[2]uint64) {
		if s := mainST[name]; s != nil {
			return s, main.allocs[name]
		}
		return probeST[name], probe.allocs[name]
	}
	for _, l := range []string{"service.decode", "workload.validate", "engine.fingerprint", "service.cache_get",
		"service.encode", "engine.analyze", "core.liu", "core.devi", "core.superpos", "core.allapprox",
		"partition.place", "service.propose", "store.append_sync"} {
		out[l+"_us"] = 0
		if s, _ := layer(l); s != nil {
			out[l+"_us"] = float64(s.total) / float64(s.calls) / 1e3
		}
	}
	for _, l := range []string{"service.decode", "engine.fingerprint", "partition.place", "service.propose"} {
		out[l+"_allocs"] = 0
		if _, a := layer(l); a != nil {
			out[l+"_allocs"] = ratio(a[1], a[0])
		}
	}
	c, sc := main.c, main.c
	if sc.proposals == 0 {
		sc = probe.c
	}
	out["service.cache_hit_ratio"] = ratio(c.cacheHits, c.cacheGets)
	out["core.superpos_reach"] = ratio(c.stageRuns["superpos"], c.analyses)
	out["core.allapprox_reach"] = ratio(c.stageRuns["allapprox"], c.analyses)
	out["core.allapprox_intervals"] = ratio(c.allapproxIters, int64(c.stageRuns["allapprox"]))
	out["numeric.promotions_per_analysis"] = ratio(c.promotions, uint64(c.analyses))
	out["partition.bin_hit_ratio"] = ratio(c.binHits, c.binChecks)
	out["incremental.escalation_share"] = ratio(sc.escalations, sc.proposals)
	out["store.fsyncs_per_record"] = ratio(sc.storeSyncs, sc.storeRecords)
	out["bench.replay_untraced_ms"] = float64(main.untraced) / 1e6
	out["bench.replay_traced_ms"] = float64(main.traced) / 1e6

	// Every non-root span's self time is attributed to its layer; the
	// roots' own self time is the replay's glue, not a layer.
	var layerNS float64
	for name, s := range mainST {
		if !strings.HasPrefix(name, "request:") {
			layerNS += float64(s.self)
		}
	}
	out["bench.unattributed_share"] = 1 - (layerNS+hopNS)/float64(httpNS)

	fmt.Fprintf(os.Stderr, "  traced replay of %d sampled requests: untraced %.2f ms, traced %.2f ms; no-load HTTP %.2f ms; %d probe requests; spans in %s\n",
		len(sample), out["bench.replay_untraced_ms"], out["bench.replay_traced_ms"], float64(httpNS)/1e6, len(ts.probe), path)
	printLayers(mainST)
	if len(ts.probe) > 0 {
		fmt.Fprintln(os.Stderr, "    probe:")
		printLayers(probeST)
	}
	return out, nil
}

func printLayers(st map[string]*layerStat) {
	for _, n := range slices.Sorted(maps.Keys(st)) {
		s := st[n]
		fmt.Fprintf(os.Stderr, "    %-26s calls %6d  self %10.1f us  mean %9.2f us\n", n, s.calls, float64(s.self)/1e3, float64(s.total)/float64(s.calls)/1e3)
	}
}

func ratio[T int | int64 | uint64](num, den T) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}

// passes is what the in-process replays of one request list observed.
type passes struct {
	spans            []span
	c                counts
	allocs           map[string]*[2]uint64
	untraced, traced time.Duration
}

// replayPasses replays reqs through a fresh mirror per pass — untraced,
// traced, and counting allocations — after replaying warmup untimed and
// opening the sessions of seeds. A first, discarded untraced pass warms
// the process, so the untraced and traced wall times compare fairly.
func replayPasses(cfg config, reqs []*Request, seeds []sessionSeed, warmup []*Request) (passes, error) {
	var p passes
	for pass, mode := range []replayMode{modePlain, modePlain, modeSpans, modeAllocs} {
		m := newMirror(modePlain)
		for _, r := range warmup {
			if err := m.replay(r); err != nil {
				return p, fmt.Errorf("mirror warm-up: %w", err)
			}
		}
		m.t.mode, m.t.trace = mode, 0
		m.c = counts{stageRuns: map[string]int{}}
		if seeds != nil {
			wls := make([]workload.Workload, len(seeds))
			for i := range seeds {
				wls[i] = seeds[i].seed
			}
			if err := m.openSessions(filepath.Join(cfg.dir, fmt.Sprintf("trace-store-%d", os.Getpid())), wls); err != nil {
				return p, err
			}
		}
		m.t.t0 = time.Now()
		for _, r := range reqs {
			if err := m.replay(r); err != nil {
				return p, fmt.Errorf("mirror %s: %w", r.Kind, err)
			}
		}
		wall := time.Since(m.t.t0)
		if err := m.finish(); err != nil {
			return p, err
		}
		if m.st != nil {
			if err := os.RemoveAll(m.st.Dir()); err != nil {
				return p, err
			}
		}
		switch mode {
		case modePlain:
			if pass > 0 {
				p.untraced = wall
			}
		case modeSpans:
			p.traced, p.spans, p.c = wall, m.t.spans, m.c
		case modeAllocs:
			p.allocs = m.t.allocs
		}
	}
	return p, nil
}

// proxyHop pairs each sampled analyze request sent through the proxy
// with the same request sent straight to the replica that served it,
// alternating which goes first, and returns the median difference in
// nanoseconds.
func proxyHop(proxyBase string, outs []outcome) (float64, error) {
	direct := map[string]*client{}
	defer func() {
		for _, c := range direct {
			c.close()
		}
	}()
	proxy := newClient(proxyBase, nil)
	defer proxy.close()
	var diffs []float64
	for i, o := range outs {
		if o.req.Kind != kindAnalyze || o.replica == "" {
			continue
		}
		if direct[o.replica] == nil {
			direct[o.replica] = newClient(o.replica, nil)
		}
		timed := func(c *client) (time.Duration, error) {
			start := time.Now()
			res := c.do(o.req)
			if !res.ok() {
				return 0, fmt.Errorf("hop probe: status %d: %v", res.status, res.err)
			}
			return time.Since(start), nil
		}
		first, second := proxy, direct[o.replica]
		if i%2 == 1 {
			first, second = second, first
		}
		a, err := timed(first)
		if err != nil {
			return 0, err
		}
		b, err := timed(second)
		if err != nil {
			return 0, err
		}
		if i%2 == 1 {
			a, b = b, a
		}
		diffs = append(diffs, float64(a-b))
	}
	if len(diffs) == 0 {
		return 0, errors.New("hop probe: no proxied analyze request in the sample")
	}
	return median(diffs), nil
}
