package workload

import (
	"fmt"
	"sync"

	"repro/internal/eventstream"
	"repro/internal/jsonwire"
	"repro/internal/model"
)

// The single-pass wire decoder of workloads and tasks. A workload's
// members ("model", "tasks", "processors") may sit in any order inside an
// enclosing request object, so the task array is read before the model
// that types it may be known. Every task is therefore decoded once into
// wireTask, the union of the sporadic, event and partitioned task
// fields, which remembers which fields failed to decode; the model then
// picks the fields it owns, and a decode failure counts only in a field
// that model's task type has — exactly the fields encoding/json would
// have decoded.

// taskFields are the JSON names of every task field under any model, in
// the order of the bit flags below.
var taskFields = []string{
	"name", "wcet", "deadline", "period", "phase",
	"critical_section", "self_suspension", "stream", "affinity",
}

// Decode-failure flags of a wireTask, one per field in taskFields plus
// notObject for an element that is neither an object nor null.
const (
	badName uint16 = 1 << iota
	badWCET
	badDeadline
	badPeriod
	badPhase
	badCriticalSection
	badSelfSuspension
	badStream
	badAffinity
	notObject
)

// The failure flags each task type owns.
const (
	sporadicFields    = notObject | badName | badWCET | badDeadline | badPeriod | badPhase | badCriticalSection | badSelfSuspension
	partitionedFields = sporadicFields | badAffinity
	eventFields       = notObject | badName | badWCET | badDeadline | badStream
)

// wireTask is one task decoded under every model at once.
type wireTask struct {
	PartitionedTask
	stream eventstream.Stream
	// hasStream records a "stream" key (any value, null included): it
	// makes a polymorphic task an event task.
	hasStream bool
	bad       uint16
}

// decodeTask reads one task object (or null, leaving t zero) into the
// union. Fields decode as encoding/json decodes into a struct: a
// repeated key decodes again into the same field.
func decodeTask(d *jsonwire.Decoder, t *wireTask) {
	switch d.Peek() {
	case '{':
		d.Enter()
	case 'n':
		d.Null()
		return
	default:
		d.Skip()
		t.bad |= notObject
		return
	}
	for i := 0; d.More(i, '}'); i++ {
		f := taskField(d.Key())
		ok := true
		switch f {
		case 0:
			ok = d.String(&t.Name)
		case 1:
			ok = d.Int64(&t.WCET)
		case 2:
			ok = d.Int64(&t.Deadline)
		case 3:
			ok = d.Int64(&t.Period)
		case 4:
			ok = d.Int64(&t.Phase)
		case 5:
			ok = d.Int64(&t.CriticalSection)
		case 6:
			ok = d.Int64(&t.SelfSuspension)
		case 7:
			t.hasStream = true
			ok = jsonwire.Slice(d, &t.stream, decodeElement)
		case 8:
			ok = jsonwire.Slice(d, &t.Affinity, (*jsonwire.Decoder).Int)
		default:
			d.Skip()
		}
		if !ok {
			t.bad |= 1 << f
		}
	}
}

// taskField is jsonwire.Field over taskFields, with the exact names —
// nearly every key a task object carries — resolved by one switch.
func taskField(key []byte) int {
	switch string(key) {
	case "name":
		return 0
	case "wcet":
		return 1
	case "deadline":
		return 2
	case "period":
		return 3
	}
	return jsonwire.Field(key, taskFields)
}

var elementFields = []string{"cycle", "offset"}

// decodeElement reads one event-stream element into e.
func decodeElement(d *jsonwire.Decoder, e *eventstream.Element) bool {
	switch d.Peek() {
	case '{':
		d.Enter()
	case 'n':
		d.Null()
		return true
	default:
		d.Skip()
		return false
	}
	ok := true
	for i := 0; d.More(i, '}'); i++ {
		switch jsonwire.Field(d.Key(), elementFields) {
		case 0:
			ok = d.Int64(&e.Cycle) && ok
		case 1:
			ok = d.Int64(&e.Offset) && ok
		default:
			d.Skip()
		}
	}
	return ok
}

var processorFields = []string{"name", "speed"}

// decodeProcessor reads one processor into p.
func decodeProcessor(d *jsonwire.Decoder, p *Processor) bool {
	switch d.Peek() {
	case '{':
		d.Enter()
	case 'n':
		d.Null()
		return true
	default:
		d.Skip()
		return false
	}
	ok := true
	for i := 0; d.More(i, '}'); i++ {
		switch jsonwire.Field(d.Key(), processorFields) {
		case 0:
			ok = d.String(&p.Name) && ok
		case 1:
			ok = d.Int64(&p.Speed) && ok
		default:
			d.Skip()
		}
	}
	return ok
}

// taskScratch recycles the union buffers task arrays decode into before
// their model is known; the decoded workload gets exactly sized slices
// of its own. Buffers that grew past maxPooledTasks are dropped rather
// than pinned.
var taskScratch = sync.Pool{New: func() any { return new([]wireTask) }}

const maxPooledTasks = 4096

// Members collects the workload members of one JSON object while a
// decoder walks its keys, so a request decoder can flatten a workload
// out of its own object in the same pass. A repeated member replaces the
// earlier one wholesale, as the raw-value capture of the encoding/json
// decoder did; a member the final model does not read is only
// syntax-checked.
type Members struct {
	model string

	// hasTasks/hasProcs: the last occurrence was present and not null.
	hasTasks, hasProcs bool
	// tasksBad/procsBad: the last occurrence failed to decode as a task
	// or processor array whatever the model; taskBad ORs the per-task
	// failure flags of its elements.
	tasksBad, procsBad bool
	taskBad            uint16
	tasks              *[]wireTask
	procs              []Processor
}

var memberFields = []string{"model", "tasks", "processors"}

// Member decodes the value of key when key names a workload member and
// reports whether it did; otherwise nothing is read.
func (m *Members) Member(d *jsonwire.Decoder, key []byte) bool {
	switch jsonwire.Field(key, memberFields) {
	case 0:
		d.Check(d.String(&m.model), "model")
	case 1:
		m.decodeTasks(d)
	case 2:
		m.hasProcs, m.procsBad, m.procs = false, false, nil
		if d.Peek() != 'n' {
			m.hasProcs = true
			m.procsBad = !jsonwire.Slice(d, &m.procs, decodeProcessor)
		} else {
			d.Null()
		}
	default:
		return false
	}
	return true
}

// decodeTasks reads one occurrence of the task array into the union
// buffer.
func (m *Members) decodeTasks(d *jsonwire.Decoder) {
	m.hasTasks, m.tasksBad, m.taskBad = false, false, 0
	switch d.Peek() {
	case '[':
		d.Enter()
	case 'n':
		d.Null()
		return
	default:
		d.Skip()
		m.hasTasks, m.tasksBad = true, true
		return
	}
	m.hasTasks = true
	if m.tasks == nil {
		m.tasks = taskScratch.Get().(*[]wireTask)
	}
	ts := (*m.tasks)[:0]
	for i := 0; d.More(i, ']'); i++ {
		ts = append(ts, wireTask{})
		t := &ts[len(ts)-1]
		decodeTask(d, t)
		m.taskBad |= t.bad
	}
	*m.tasks = ts
}

// Workload resolves the collected members into a workload, recording a
// decode error in d when the model is unknown or a member the model
// reads failed to decode. It returns the buffers to the pool, so it is
// called once, after the enclosing object ends.
func (m *Members) Workload(d *jsonwire.Decoder) Workload {
	defer m.release()
	mdl, err := ParseModel(m.model)
	if err != nil {
		d.Fail(err)
		return Workload{}
	}
	w := Workload{Model: mdl}
	if mdl == Partitioned && m.hasProcs {
		if m.procsBad {
			d.Fail(fmt.Errorf("workload: processors: not an array of processor objects"))
			return Workload{}
		}
		w.Processors = m.procs
	}
	if !m.hasTasks {
		return w
	}
	var owned uint16
	switch mdl {
	case Events:
		owned = eventFields
	case Partitioned:
		owned = partitionedFields
	default:
		owned = sporadicFields
	}
	if m.tasksBad || m.taskBad&owned != 0 {
		d.Fail(fmt.Errorf("workload: %s tasks: not an array of task objects of that model", mdl))
		return Workload{}
	}
	if d.Err() != nil {
		return Workload{}
	}
	ts := *m.tasks // set by every array occurrence of "tasks"
	switch mdl {
	case Events:
		w.Events = make([]eventstream.Task, len(ts))
		for i := range ts {
			w.Events[i] = eventstream.Task{Name: ts[i].Name, Stream: ts[i].stream, WCET: ts[i].WCET, Deadline: ts[i].Deadline}
		}
	case Partitioned:
		w.PartTasks = make([]PartitionedTask, len(ts))
		for i := range ts {
			w.PartTasks[i] = ts[i].PartitionedTask
		}
	default:
		w.Tasks = make(model.TaskSet, len(ts))
		for i := range ts {
			w.Tasks[i] = ts[i].Task
		}
	}
	return w
}

func (m *Members) release() {
	if m.tasks == nil {
		return
	}
	ts := *m.tasks
	clear(ts)
	if cap(ts) <= maxPooledTasks {
		*m.tasks = ts[:0]
		taskScratch.Put(m.tasks)
	}
	m.tasks = nil
}

// DecodeWorkload reads a workload object (or null, giving an empty
// sporadic workload) into *w, replacing its contents; keys other than
// the workload members are skipped.
func DecodeWorkload(d *jsonwire.Decoder, w *Workload) {
	var m Members
	if d.Object("workload") {
		for i := 0; d.More(i, '}'); i++ {
			if key := d.Key(); !m.Member(d, key) {
				d.Skip()
			}
		}
	}
	*w = m.Workload(d)
}

// DecodeTask reads one polymorphic task into *t, replacing it: an
// object with a "stream" key is an event task, any other object — and
// null — a sporadic one.
func DecodeTask(d *jsonwire.Decoder, t *Task) {
	var u wireTask
	decodeTask(d, &u)
	*t = Task{}
	switch {
	case u.bad&notObject != 0:
		d.Check(false, "task")
	case u.hasStream:
		if u.bad&eventFields != 0 {
			d.Fail(fmt.Errorf("workload: event task: field of the wrong type"))
			break
		}
		t.Event = &eventstream.Task{Name: u.Name, Stream: u.stream, WCET: u.WCET, Deadline: u.Deadline}
	default:
		if u.bad&sporadicFields != 0 {
			d.Fail(fmt.Errorf("workload: sporadic task: field of the wrong type"))
			break
		}
		st := u.Task
		t.Sporadic = &st
	}
}
