package service

// The encoding/json decoders the wire shapes used before the single-pass
// decoder, kept verbatim (renamed onto ref* mirror types) as the
// differential reference: the fuzz and table tests in decode_test.go
// decode every input with both and demand the same accept/reject
// decision and the same value.

import (
	"encoding/json"
	"fmt"

	"repro/internal/eventstream"
	"repro/internal/model"
	"repro/internal/workload"
)

// refWorkload is workload.Workload with the encoding/json decoder.
type refWorkload workload.Workload

// refWorkloadWire is the JSON layout: a model discriminator next to the task
// array (plus the processor array for partitioned workloads). Unknown
// sibling keys (name, analyzer, ...) are ignored, so a Workload can
// decode itself out of any enclosing request object.
type refWorkloadWire struct {
	Model      string          `json:"model"`
	Tasks      json.RawMessage `json:"tasks"`
	Processors json.RawMessage `json:"processors"`
}

// UnmarshalJSON decodes {"model": ..., "tasks": [...]}, dispatching the
// task element type on the model and defaulting to sporadic when the
// discriminator is absent — every pre-discriminator payload keeps
// working.
func (w *refWorkload) UnmarshalJSON(data []byte) error {
	var aux refWorkloadWire
	if err := json.Unmarshal(data, &aux); err != nil {
		return fmt.Errorf("workload: %w", err)
	}
	m, err := workload.ParseModel(aux.Model)
	if err != nil {
		return err
	}
	*w = refWorkload{Model: m}
	if m == workload.Partitioned && len(aux.Processors) != 0 && string(aux.Processors) != "null" {
		if err := json.Unmarshal(aux.Processors, &w.Processors); err != nil {
			return fmt.Errorf("workload: processors: %w", err)
		}
	}
	if len(aux.Tasks) == 0 || string(aux.Tasks) == "null" {
		return nil
	}
	switch m {
	case workload.Events:
		if err := json.Unmarshal(aux.Tasks, &w.Events); err != nil {
			return fmt.Errorf("workload: events tasks: %w", err)
		}
	case workload.Partitioned:
		if err := json.Unmarshal(aux.Tasks, &w.PartTasks); err != nil {
			return fmt.Errorf("workload: partitioned tasks: %w", err)
		}
	default:
		if err := json.Unmarshal(aux.Tasks, &w.Tasks); err != nil {
			return fmt.Errorf("workload: sporadic tasks: %w", err)
		}
	}
	return nil
}

// refTask is workload.Task with the encoding/json decoder.
type refTask workload.Task

// UnmarshalJSON dispatches on the task shape: an object with a "stream"
// key is an event-driven task, anything else decodes as a sporadic task —
// so pre-existing {"wcet", "deadline", "period"} payloads keep working.
func (t *refTask) UnmarshalJSON(data []byte) error {
	var probe struct {
		Stream json.RawMessage `json:"stream"`
	}
	if err := json.Unmarshal(data, &probe); err != nil {
		return fmt.Errorf("workload: task: %w", err)
	}
	if probe.Stream != nil {
		var et eventstream.Task
		if err := json.Unmarshal(data, &et); err != nil {
			return fmt.Errorf("workload: event task: %w", err)
		}
		*t = refTask{Event: &et}
		return nil
	}
	var st model.Task
	if err := json.Unmarshal(data, &st); err != nil {
		return fmt.Errorf("workload: sporadic task: %w", err)
	}
	*t = refTask{Sporadic: &st}
	return nil
}

type refAnalyzeRequest struct {
	Name     string
	Workload refWorkload
	Analyzer string
	Options  OptionsJSON
}

// analyzeShadow carries AnalyzeRequest's non-workload fields.
type analyzeShadow struct {
	Name     string      `json:"name,omitempty"`
	Analyzer string      `json:"analyzer,omitempty"`
	Options  OptionsJSON `json:"options,omitzero"`
}

// UnmarshalJSON flattens the workload out of the request object, so
// pre-workload bodies ({"tasks": [...]}) keep working.
func (r *refAnalyzeRequest) UnmarshalJSON(data []byte) error {
	var aux analyzeShadow
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	r.Name, r.Analyzer, r.Options = aux.Name, aux.Analyzer, aux.Options
	return json.Unmarshal(data, &r.Workload)
}

type refWorkloadSet struct {
	Name     string
	Workload refWorkload
}

// UnmarshalJSON flattens the workload out of the set object.
func (s *refWorkloadSet) UnmarshalJSON(data []byte) error {
	var aux struct {
		Name string `json:"name"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	s.Name = aux.Name
	return json.Unmarshal(data, &s.Workload)
}

type refBatchRequest struct {
	Sets      []refWorkloadSet `json:"sets"`
	Analyzers []string         `json:"analyzers,omitempty"`
	Options   OptionsJSON      `json:"options,omitzero"`
	Workers   int              `json:"workers,omitempty"`
}

type refSessionRequest struct {
	Analyzer string
	Options  OptionsJSON
	Workload refWorkload
}

// UnmarshalJSON flattens the seed workload out of the request object.
func (r *refSessionRequest) UnmarshalJSON(data []byte) error {
	var aux struct {
		Analyzer string      `json:"analyzer,omitempty"`
		Options  OptionsJSON `json:"options,omitzero"`
	}
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	r.Analyzer, r.Options = aux.Analyzer, aux.Options
	return json.Unmarshal(data, &r.Workload)
}

type refProposeRequest struct {
	Task refTask `json:"task"`
}

type refProposeBatchRequest struct {
	Tasks []refTask `json:"tasks"`
}

type refPartitionRequest struct {
	Name       string
	Workload   refWorkload
	Analyzer   string
	Options    OptionsJSON
	Heuristics []string
	Workers    int
}

// partitionShadow carries PartitionRequest's non-workload fields.
type partitionShadow struct {
	Name       string      `json:"name,omitempty"`
	Analyzer   string      `json:"analyzer,omitempty"`
	Options    OptionsJSON `json:"options,omitzero"`
	Heuristics []string    `json:"heuristics,omitempty"`
	Workers    int         `json:"workers,omitempty"`
}

// UnmarshalJSON flattens the workload out of the request object.
func (r *refPartitionRequest) UnmarshalJSON(data []byte) error {
	var aux partitionShadow
	if err := json.Unmarshal(data, &aux); err != nil {
		return err
	}
	r.Name, r.Analyzer, r.Options = aux.Name, aux.Analyzer, aux.Options
	r.Heuristics, r.Workers = aux.Heuristics, aux.Workers
	return json.Unmarshal(data, &r.Workload)
}

// The conversions from the reference mirrors to the real types.

func (r refAnalyzeRequest) real() AnalyzeRequest {
	return AnalyzeRequest{Name: r.Name, Workload: workload.Workload(r.Workload), Analyzer: r.Analyzer, Options: r.Options}
}

func (s refWorkloadSet) real() WorkloadSet {
	return WorkloadSet{Name: s.Name, Workload: workload.Workload(s.Workload)}
}

func (r refBatchRequest) real() BatchRequest {
	out := BatchRequest{Analyzers: r.Analyzers, Options: r.Options, Workers: r.Workers}
	if r.Sets != nil {
		out.Sets = make([]WorkloadSet, len(r.Sets))
		for i, s := range r.Sets {
			out.Sets[i] = s.real()
		}
	}
	return out
}

func (r refSessionRequest) real() SessionRequest {
	return SessionRequest{Analyzer: r.Analyzer, Options: r.Options, Workload: workload.Workload(r.Workload)}
}

func (r refPartitionRequest) real() PartitionRequest {
	return PartitionRequest{Name: r.Name, Workload: workload.Workload(r.Workload), Analyzer: r.Analyzer,
		Options: r.Options, Heuristics: r.Heuristics, Workers: r.Workers}
}

func (r refProposeRequest) real() ProposeRequest {
	return ProposeRequest{Task: workload.Task(r.Task)}
}

func (r refProposeBatchRequest) real() ProposeBatchRequest {
	var out ProposeBatchRequest
	if r.Tasks != nil {
		out.Tasks = make([]workload.Task, len(r.Tasks))
		for i, t := range r.Tasks {
			out.Tasks[i] = workload.Task(t)
		}
	}
	return out
}
