package service

import (
	"encoding/json"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"repro/internal/eventstream"
	"repro/internal/jsonwire"
	"repro/internal/model"
	"repro/internal/taskgen"
	"repro/internal/workload"
)

// wireShape decodes one body three ways: with the encoding/json
// reference of decode_ref_test.go, with the single-pass decoder the
// daemons call, and with json.Unmarshal through the type's
// UnmarshalJSON (the client, journal replay and the load benchmark's
// mirror path). A non-nil pre is decoded into the same value first, so
// decoding into an already filled value is compared too.
type wireShape struct {
	name          string
	ref, got, std func(pre, body []byte) (any, error)
}

func refDecode[R, T any](conv func(R) T) func(pre, body []byte) (any, error) {
	return func(pre, body []byte) (any, error) {
		var r R
		if pre != nil {
			_ = json.Unmarshal(pre, &r)
		}
		err := json.Unmarshal(body, &r)
		return conv(r), err
	}
}

func wireDecode[T any](decode func(*jsonwire.Decoder, *T)) func(pre, body []byte) (any, error) {
	return func(pre, body []byte) (any, error) {
		var v T
		if pre != nil {
			_ = jsonwire.Decode(pre, &v, decode)
		}
		err := jsonwire.Decode(body, &v, decode)
		return v, err
	}
}

func requestDecode[T any](pre, body []byte) (any, error) {
	var v T
	if pre != nil {
		_ = DecodeRequest(pre, &v)
	}
	err := DecodeRequest(body, &v)
	return v, err
}

func stdDecode[T any](pre, body []byte) (any, error) {
	var v T
	if pre != nil {
		_ = json.Unmarshal(pre, &v)
	}
	err := json.Unmarshal(body, &v)
	return v, err
}

var wireShapes = []wireShape{
	{"analyze", refDecode(refAnalyzeRequest.real), requestDecode[AnalyzeRequest], stdDecode[AnalyzeRequest]},
	{"batch", refDecode(refBatchRequest.real), requestDecode[BatchRequest], stdDecode[BatchRequest]},
	{"set", refDecode(refWorkloadSet.real), wireDecode(decodeSet), stdDecode[WorkloadSet]},
	{"partition", refDecode(refPartitionRequest.real), requestDecode[PartitionRequest], stdDecode[PartitionRequest]},
	{"session", refDecode(refSessionRequest.real), requestDecode[SessionRequest], stdDecode[SessionRequest]},
	{"propose", refDecode(refProposeRequest.real), requestDecode[ProposeRequest], stdDecode[ProposeRequest]},
	{"propose-batch", refDecode(refProposeBatchRequest.real), requestDecode[ProposeBatchRequest], stdDecode[ProposeBatchRequest]},
	{"workload", refDecode(func(w refWorkload) workload.Workload { return workload.Workload(w) }),
		wireDecode(workload.DecodeWorkload), stdDecode[workload.Workload]},
	{"task", refDecode(func(t refTask) workload.Task { return workload.Task(t) }),
		wireDecode(workload.DecodeTask), stdDecode[workload.Task]},
}

// checkDecode asserts that both decoders under test agree with the
// reference on body, decoded into a fresh value or, when the reference
// accepts pre, into the value pre decoded to: the same accept/reject
// decision and, on accept, the same value.
func checkDecode(t *testing.T, s wireShape, pre, body []byte) {
	t.Helper()
	if pre != nil {
		if _, err := s.ref(nil, pre); err != nil {
			pre = nil
		}
	}
	want, wantErr := s.ref(pre, body)
	for _, side := range []struct {
		name   string
		decode func(pre, body []byte) (any, error)
	}{{"single-pass", s.got}, {"json.Unmarshal", s.std}} {
		got, err := side.decode(pre, body)
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s %s on %q after %q: error %v, reference error %v", s.name, side.name, body, pre, err, wantErr)
		}
		if err == nil && !reflect.DeepEqual(got, want) {
			t.Fatalf("%s %s on %q after %q:\n got %#v\nwant %#v", s.name, side.name, body, pre, got, want)
		}
	}
}

// decodeSeeds are the differential corpus: the PR-2 compat bodies
// verbatim, generated workloads of every model, and hand-written edge
// cases of the JSON grammar and of encoding/json's struct decoding.
func decodeSeeds() []string {
	seeds := []string{
		// compat_test.go's PR-2 bodies.
		`{"name":"demo","tasks":[
		{"wcet":2,"deadline":8,"period":10},
		{"wcet":3,"deadline":15,"period":15},
		{"wcet":10,"deadline":80,"period":100}],
		"analyzer":"allapprox","options":{"arithmetic":"float64"}}`,
		`{"sets":[
		{"name":"a","tasks":[{"wcet":2,"deadline":8,"period":10}]},
		{"name":"b","tasks":[{"wcet":3,"deadline":4,"period":10},
		                     {"wcet":4,"deadline":5,"period":10},
		                     {"wcet":3,"deadline":6,"period":10}]}],
		"analyzers":["devi","allapprox"],"workers":2}`,
		`{"tasks":[{"name":"seed","wcet":10,"deadline":90,"period":100}]}`,
		`{"task":{"name":"a","wcet":1,"deadline":50,"period":100}}`,
		`{}`,

		// Trailing bytes and top-level shapes.
		`{"tasks":[{"wcet":1,"deadline":2,"period":3}]} trailing garbage`,
		`{"tasks":[]}{"tasks":[]}`,
		"{\"tasks\":[]} \t\r\n",
		`null`, ``, ` `, `[]`, `"x"`, `5`, `true`, `{`, `{"tasks":[}`, `{"tasks" []}`,

		// Propose tasks with and without a stream.
		`{"task":{"wcet":2,"deadline":8,"stream":[{"cycle":10,"offset":0}]}}`,
		`{"task":null}`, `{"task":{"stream":null}}`, `{"task":{"STREAM":[],"period":"x"}}`,
		`{"task":[]}`, `{"task":"x"}`, `{"task":{"wcet":1,"stream":[null,{"cycle":3}]}}`,
		`{"tasks":[null,{"wcet":1},{"wcet":2,"deadline":3,"stream":[{"cycle":4}]}]}`,
		`{"tasks":[{"wcet":1,"period":"x","stream":[]}]}`,
		`{"tasks":[{"wcet":1,"stream":"x"}]}`,

		// Case folding, including the non-ASCII folds of 'k' and 's'.
		`{"TASKS":[{"WCET":1,"Deadline":2,"PERIOD":3}],"Name":"n","ANALYZER":"qpa"}`,
		"{\"ta\u017fks\":[{\"wcet\":1}]}",
		`{"tas\u212as":[{"wcet\u0000":1}]}`,
		`{"Model":"events","tasks":[{"wcet":1,"deadline":2,"ſtream":[{"Cycle":3}]}]}`,
		`{"task":{"ſtream":[]}}`,

		// Duplicate keys: the last wins, structs and slices merge.
		`{"tasks":[{"wcet":1,"wcet":2,"wcet":null}]}`,
		`{"tasks":[{"wcet":"x"}],"tasks":[{"wcet":1}]}`,
		`{"tasks":[{"wcet":1}],"tasks":null}`,
		`{"model":"events","model":null,"tasks":[{"wcet":1,"deadline":2,"stream":[{"cycle":5},{"cycle":6}],"stream":[{"offset":1}]}]}`,
		`{"analyzers":["a","b"],"analyzers":["c"],"analyzers":["d",null],"sets":[]}`,
		`{"heuristics":["a","b"],"heuristics":["c"],"heuristics":["d",null],"model":"partitioned"}`,
		`{"options":{"arithmetic":"float64"},"options":{"max_level":3},"options":null}`,
		`{"task":{"stream":[]},"task":{"wcet":1}}`,
		`{"tasks":[{"wcet":1}],"tasks":[null,null],"tasks":[{"stream":[]}]}`,
		`{"model":"partitioned","processors":[{"speed":2},null],"tasks":[{"wcet":1,"affinity":[0,1],"affinity":[1],"affinity":[null,null,2]}]}`,
		`{"model":"partitioned","processors":[{"speed":2}],"processors":null,"tasks":[]}`,
		`{"model":"partitioned","processors":[{"speed":2},{"speed":3}],"processors":[{"name":"x"}],"tasks":[]}`,
		`{"name":"a","name":null,"name":"b","name":null}`,

		// Model after tasks, and members the model does not read.
		`{"tasks":[{"wcet":1,"deadline":2,"stream":[{"cycle":3}]}],"model":"events"}`,
		`{"tasks":[{"wcet":1,"affinity":[0]}],"processors":[{}],"model":"partitioned"}`,
		`{"processors":"junk","tasks":[]}`,
		`{"model":"events","tasks":[{"period":"x","affinity":"y","stream":[]}]}`,
		`{"model":"partitioned","tasks":[{"stream":"x","affinity":[1.5]}]}`,
		`{"model":"EVENTS"}`, `{"model":5}`, `{"model":"sporadic","tasks":{}}`, `{"tasks":5}`,

		// Numbers: fractions, exponents and overflow are rejected.
		`{"tasks":[{"wcet":1.5}]}`, `{"tasks":[{"wcet":1e2}]}`, `{"tasks":[{"wcet":1E+2}]}`,
		`{"tasks":[{"wcet":9223372036854775807}]}`, `{"tasks":[{"wcet":9223372036854775808}]}`,
		`{"tasks":[{"wcet":-9223372036854775808}]}`, `{"tasks":[{"wcet":-9223372036854775809}]}`,
		`{"tasks":[{"wcet":-0}]}`, `{"tasks":[{"wcet":01}]}`, `{"tasks":[{"wcet":-}]}`, `{"tasks":[{"wcet":1.}]}`,
		`{"tasks":[{"wcet":.5}]}`, `{"tasks":[{"wcet":+1}]}`, `{"tasks":[{"wcet":99999999999999999999999}]}`,
		`{"workers":1.0,"sets":[]}`, `{"workers":2147483648,"sets":[]}`, `{"options":{"max_level":true}}`,

		// Strings: escapes, surrogates, invalid UTF-8, control bytes.
		`{"name":"\ud800x\udc00\ud83d\ude00\u00e9\"\\\/\b\f\n\r\t","tasks":[]}`,
		`{"name":"\ud800\ud800\udc00\udc00\uDBFF\uDFFF"}`,
		"{\"name\":\"\xff\xfe\xed\xa0\x80ok\"}",
		"{\"name\":\"a\x01b\"}", `{"name":"\x"}`, `{"name":"\u12"}`, `{"name":"\u12g4"}`, `{"name":"abc`,
		`{"name\u0000":1,"tasks":[]}`, `{"n\u0061me":"x"}`,

		// Unknown keys are skipped but syntax-checked.
		`{"unknown":[1,{"a":[true,false,null,-1.5e-3,"s"]}],"tasks":[]}`,
		`{"unknown":[1,]}`, `{"unknown":tru}`, `{"unknown":{"a" 1}}`, `{"unknown":[1 2]}`, `{"a":1,}`,
		`{"tasks":[{"wcet":1}],}`, `{"tasks":[{"wcet":1},]}`,
	}
	// Generated workloads of every model, with 6-decade period spreads.
	rng := rand.New(rand.NewSource(12))
	for i := range 6 {
		pmax := int64(100000)
		if i%2 == 1 {
			pmax = 100000000
		}
		ts, err := taskgen.New(taskgen.Config{N: 4 + 7*i, Utilization: 0.9, PeriodMin: 100, PeriodMax: pmax,
			LogUniformPeriods: true, GapMean: 0.3}, rng)
		if err != nil {
			panic(err)
		}
		ts[0].Name = "τ0"
		ev := make([]eventstream.Task, len(ts))
		pt := make([]workload.PartitionedTask, len(ts))
		for k, t := range ts {
			ev[k] = eventstream.Task{WCET: t.WCET, Deadline: t.Deadline, Stream: eventstream.Periodic(t.Period)}
			pt[k] = workload.PartitionedTask{Task: t}
			if k%3 == 0 {
				pt[k].Affinity = []int{0, 2}
			}
		}
		procs := []workload.Processor{{Name: "p0"}, {Speed: 2}, {}}
		for _, wl := range []workload.Workload{
			workload.NewSporadic(ts), workload.NewEvents(ev), workload.NewPartitioned(procs, pt),
		} {
			seeds = append(seeds,
				mustMarshal(AnalyzeRequest{Name: "gen", Workload: wl, Analyzer: "qpa"}),
				mustMarshal(BatchRequest{Sets: []WorkloadSet{{Name: "s", Workload: wl}, {Workload: wl}}, Analyzers: []string{"all"}}),
				mustMarshal(PartitionRequest{Workload: wl, Heuristics: []string{"balance"}, Workers: 2}),
				mustMarshal(SessionRequest{Workload: wl, Options: OptionsJSON{MaxLevel: 4}}))
		}
		seeds = append(seeds, mustMarshal(ProposeBatchRequest{Tasks: []workload.Task{
			workload.SporadicTask(ts[0]), workload.EventTask(ev[0]),
		}}))
	}
	return seeds
}

func mustMarshal(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return string(b)
}

// FuzzDecodeRequest decodes arbitrary bytes as the wire shape the first
// argument selects, optionally into a value a first body already filled,
// and checks the single-pass decoder against the encoding/json
// reference.
func FuzzDecodeRequest(f *testing.F) {
	seeds := decodeSeeds()
	for k, s := range seeds {
		for i := range wireShapes {
			f.Add(uint8(i), []byte{}, []byte(s))
			// Refill with a neighbour, so every seed also meets a
			// target holding another body's values.
			f.Add(uint8(i), []byte(seeds[(k+1)%len(seeds)]), []byte(s))
		}
	}
	f.Fuzz(func(t *testing.T, shape uint8, pre, body []byte) {
		if len(pre) == 0 {
			pre = nil
		}
		checkDecode(t, wireShapes[int(shape)%len(wireShapes)], pre, body)
	})
}

// TestDecodeDepthLimit checks nesting at and past encoding/json's limit
// of 10000 arrays and objects. These bodies stay out of the fuzz seeds:
// minimizing mutants of 20KB inputs would stall the fuzzer.
func TestDecodeDepthLimit(t *testing.T) {
	for _, depth := range []int{9999, 10000} {
		nested := strings.Repeat("[", depth) + strings.Repeat("]", depth)
		for _, body := range []string{
			`{"x":` + nested + `}`,
			`{"tasks":[{"stream":` + nested[1:len(nested)-1] + `}]}`,
		} {
			for _, s := range wireShapes {
				checkDecode(t, s, nil, []byte(body))
			}
		}
	}
}

// TestDecodeRejectsTrailingBytes pins the rule edfd and edfproxy share:
// only whitespace may follow the request value.
func TestDecodeRejectsTrailingBytes(t *testing.T) {
	for _, body := range []string{
		`{"tasks":[{"wcet":1,"deadline":2,"period":3}]} trailing garbage`,
		`{"tasks":[{"wcet":1,"deadline":2,"period":3}]}{"tasks":[]}`,
		`{"tasks":[]} x`,
	} {
		var req AnalyzeRequest
		if err := DecodeRequest([]byte(body), &req); err == nil {
			t.Errorf("accepted %q", body)
		}
	}
	var req AnalyzeRequest
	if err := DecodeRequest([]byte("{\"tasks\":[]} \n"), &req); err != nil {
		t.Errorf("trailing whitespace rejected: %v", err)
	}
}

// analyzeBody28 is a 28-task analyze body as the load benchmark sends it.
func analyzeBody28() []byte {
	ts, err := taskgen.New(taskgen.Config{N: 28, Utilization: 0.85, PeriodMin: 100, PeriodMax: 100000,
		LogUniformPeriods: true, GapMean: 0.3}, rand.New(rand.NewSource(28)))
	if err != nil {
		panic(err)
	}
	return []byte(mustMarshal(AnalyzeRequest{Workload: workload.NewSporadic(ts)}))
}

// TestDecodeAllocs pins the decoder's allocation budget on the 28-task
// analyze body: the output task slice and nothing per scan pass (the
// encoding/json path allocated 39 times).
func TestDecodeAllocs(t *testing.T) {
	body := analyzeBody28()
	var req AnalyzeRequest
	allocs := testing.AllocsPerRun(200, func() {
		if err := DecodeRequest(body, &req); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 4 {
		t.Errorf("decoding the 28-task analyze body allocates %.1f times, want at most 4", allocs)
	}
	if len(req.Workload.Tasks) != 28 {
		t.Fatalf("decoded %d tasks", len(req.Workload.Tasks))
	}
}

var decodeSink any

// BenchmarkDecode measures one request decode per wire shape the load
// benchmark sends.
func BenchmarkDecode(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	set := func(n int) model.TaskSet {
		ts, err := taskgen.New(taskgen.Config{N: n, Utilization: 0.85, PeriodMin: 100, PeriodMax: 100000,
			LogUniformPeriods: true, GapMean: 0.3}, rng)
		if err != nil {
			b.Fatal(err)
		}
		return ts
	}
	sets := make([]WorkloadSet, 8)
	for i := range sets {
		sets[i] = WorkloadSet{Workload: workload.NewSporadic(set(28))}
	}
	procs := make([]workload.Processor, 8)
	var pt []workload.PartitionedTask
	for _, t := range set(40) {
		pt = append(pt, workload.PartitionedTask{Task: t})
	}
	var tasks []workload.Task
	for _, t := range set(4) {
		tasks = append(tasks, workload.SporadicTask(t))
	}
	cases := []struct {
		name string
		body []byte
		v    func() any
	}{
		{"analyze", analyzeBody28(), func() any { return new(AnalyzeRequest) }},
		{"batch", []byte(mustMarshal(BatchRequest{Sets: sets})), func() any { return new(BatchRequest) }},
		{"partition", []byte(mustMarshal(PartitionRequest{Workload: workload.NewPartitioned(procs, pt)})),
			func() any { return new(PartitionRequest) }},
		{"propose-batch", []byte(mustMarshal(ProposeBatchRequest{Tasks: tasks})), func() any { return new(ProposeBatchRequest) }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(c.body)))
			for b.Loop() {
				v := c.v()
				if err := DecodeRequest(c.body, v); err != nil {
					b.Fatal(err)
				}
				decodeSink = v
			}
		})
	}
}
