package service

import (
	"fmt"

	"repro/internal/jsonwire"
	"repro/internal/workload"
)

// One decoder per wire shape, each a single pass over the body through
// internal/jsonwire. Shapes that flatten a workload into their own
// object collect its members with workload.Members as the keys go by
// and replace the whole target, as their encoding/json flattening did;
// the other shapes decode into the target's existing fields, as
// encoding/json does for plain structs.

// DecodeRequest decodes one request body, which must hold exactly one
// JSON value, into v: a pointer to one of the /v1 request types. edfd
// and edfproxy both decode through it.
func DecodeRequest(data []byte, v any) error {
	switch v := v.(type) {
	case *AnalyzeRequest:
		return jsonwire.Decode(data, v, decodeAnalyze)
	case *BatchRequest:
		return jsonwire.Decode(data, v, decodeBatch)
	case *PartitionRequest:
		return jsonwire.Decode(data, v, decodePartition)
	case *SessionRequest:
		return jsonwire.Decode(data, v, decodeSession)
	case *ProposeRequest:
		return jsonwire.Decode(data, v, decodePropose)
	case *ProposeBatchRequest:
		return jsonwire.Decode(data, v, decodeProposeBatch)
	}
	return fmt.Errorf("no wire decoder for %T", v)
}

var analyzeFields = []string{"name", "analyzer", "options"}

func decodeAnalyze(d *jsonwire.Decoder, r *AnalyzeRequest) {
	*r = AnalyzeRequest{}
	var m workload.Members
	if d.Object("analyze request") {
		for i := 0; d.More(i, '}'); i++ {
			key := d.Key()
			switch jsonwire.Field(key, analyzeFields) {
			case 0:
				d.Check(d.String(&r.Name), "name")
			case 1:
				d.Check(d.String(&r.Analyzer), "analyzer")
			case 2:
				decodeOptions(d, &r.Options)
			default:
				if !m.Member(d, key) {
					d.Skip()
				}
			}
		}
	}
	r.Workload = m.Workload(d)
}

var setFields = []string{"name"}

func decodeSet(d *jsonwire.Decoder, s *WorkloadSet) {
	*s = WorkloadSet{}
	var m workload.Members
	if d.Object("set") {
		for i := 0; d.More(i, '}'); i++ {
			key := d.Key()
			if jsonwire.Field(key, setFields) == 0 {
				d.Check(d.String(&s.Name), "name")
			} else if !m.Member(d, key) {
				d.Skip()
			}
		}
	}
	s.Workload = m.Workload(d)
}

func decodeSetElem(d *jsonwire.Decoder, s *WorkloadSet) bool {
	decodeSet(d, s)
	return true
}

var batchFields = []string{"sets", "analyzers", "options", "workers"}

func decodeBatch(d *jsonwire.Decoder, r *BatchRequest) {
	if !d.Object("batch request") {
		return
	}
	for i := 0; d.More(i, '}'); i++ {
		switch jsonwire.Field(d.Key(), batchFields) {
		case 0:
			d.Check(jsonwire.Slice(d, &r.Sets, decodeSetElem), "sets")
		case 1:
			d.Check(jsonwire.Slice(d, &r.Analyzers, (*jsonwire.Decoder).String), "analyzers")
		case 2:
			decodeOptions(d, &r.Options)
		case 3:
			d.Check(d.Int(&r.Workers), "workers")
		default:
			d.Skip()
		}
	}
}

var partitionFields = []string{"name", "analyzer", "options", "heuristics", "workers"}

func decodePartition(d *jsonwire.Decoder, r *PartitionRequest) {
	*r = PartitionRequest{}
	var m workload.Members
	if d.Object("partition request") {
		for i := 0; d.More(i, '}'); i++ {
			key := d.Key()
			switch jsonwire.Field(key, partitionFields) {
			case 0:
				d.Check(d.String(&r.Name), "name")
			case 1:
				d.Check(d.String(&r.Analyzer), "analyzer")
			case 2:
				decodeOptions(d, &r.Options)
			case 3:
				d.Check(jsonwire.Slice(d, &r.Heuristics, (*jsonwire.Decoder).String), "heuristics")
			case 4:
				d.Check(d.Int(&r.Workers), "workers")
			default:
				if !m.Member(d, key) {
					d.Skip()
				}
			}
		}
	}
	r.Workload = m.Workload(d)
}

var sessionFields = []string{"analyzer", "options"}

func decodeSession(d *jsonwire.Decoder, r *SessionRequest) {
	*r = SessionRequest{}
	var m workload.Members
	if d.Object("session request") {
		for i := 0; d.More(i, '}'); i++ {
			key := d.Key()
			switch jsonwire.Field(key, sessionFields) {
			case 0:
				d.Check(d.String(&r.Analyzer), "analyzer")
			case 1:
				decodeOptions(d, &r.Options)
			default:
				if !m.Member(d, key) {
					d.Skip()
				}
			}
		}
	}
	r.Workload = m.Workload(d)
}

var proposeFields = []string{"task"}

func decodePropose(d *jsonwire.Decoder, r *ProposeRequest) {
	if !d.Object("propose request") {
		return
	}
	for i := 0; d.More(i, '}'); i++ {
		if jsonwire.Field(d.Key(), proposeFields) == 0 {
			workload.DecodeTask(d, &r.Task)
		} else {
			d.Skip()
		}
	}
}

var proposeBatchFields = []string{"tasks"}

func decodeProposeBatch(d *jsonwire.Decoder, r *ProposeBatchRequest) {
	if !d.Object("propose-batch request") {
		return
	}
	for i := 0; d.More(i, '}'); i++ {
		if jsonwire.Field(d.Key(), proposeBatchFields) == 0 {
			d.Check(jsonwire.Slice(d, &r.Tasks, decodeTaskElem), "tasks")
		} else {
			d.Skip()
		}
	}
}

func decodeTaskElem(d *jsonwire.Decoder, t *workload.Task) bool {
	workload.DecodeTask(d, t)
	return true
}

var optionsFields = []string{"arithmetic", "revision_order", "max_iterations", "max_level"}

// decodeOptions merges an options object into o; null leaves o as is.
func decodeOptions(d *jsonwire.Decoder, o *OptionsJSON) {
	if !d.Object("options") {
		return
	}
	for i := 0; d.More(i, '}'); i++ {
		switch jsonwire.Field(d.Key(), optionsFields) {
		case 0:
			d.Check(d.String(&o.Arithmetic), "arithmetic")
		case 1:
			d.Check(d.String(&o.RevisionOrder), "revision_order")
		case 2:
			d.Check(d.Int64(&o.MaxIterations), "max_iterations")
		case 3:
			d.Check(d.Int64(&o.MaxLevel), "max_level")
		default:
			d.Skip()
		}
	}
}
