// End-to-end telemetry coverage: the SSE admission feed and the trace
// endpoint driven only through the typed client against a real server.
package service_test

import (
	"context"
	"sync"
	"testing"
	"time"

	edf "repro"
	"repro/internal/obs"
	"repro/internal/service"
)

// recvEvent reads one feed event with a deadline, so a broken stream
// fails the test instead of hanging it.
func recvEvent(t *testing.T, ch <-chan obs.Event) obs.Event {
	t.Helper()
	select {
	case ev, ok := <-ch:
		if !ok {
			t.Fatal("event channel closed early")
		}
		return ev
	case <-time.After(10 * time.Second):
		t.Fatal("timed out waiting for a feed event")
	}
	panic("unreachable")
}

// TestSessionEventsOrderingUnderConcurrentProposeBatch subscribes to one
// session's feed, hammers it with concurrent propose-batch requests, and
// requires every decision to arrive exactly once, in strictly increasing
// Seq order, all tagged with the session and a resolvable trace.
func TestSessionEventsOrderingUnderConcurrentProposeBatch(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	h, _, err := c.OpenSession(ctx, service.SessionRequest{
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "seed", WCET: 2, Deadline: 8, Period: 10}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	ch, err := c.Events(ctx, h.ID)
	if err != nil {
		t.Fatal(err)
	}

	const (
		writers = 4
		batches = 5
		perReq  = 3
	)
	var wg sync.WaitGroup
	for w := range writers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for b := range batches {
				tasks := make([]service.WorkloadTask, perReq)
				for i := range tasks {
					tasks[i] = service.SporadicTask(edf.Task{
						Name: "t", WCET: 1,
						Deadline: int64(5000 + 100*(w*batches+b) + i),
						Period:   100000,
					})
				}
				if _, err := h.ProposeBatch(ctx, service.ProposeBatchRequest{Tasks: tasks}); err != nil {
					t.Errorf("writer %d batch %d: %v", w, b, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if _, err := h.Commit(ctx); err != nil {
		t.Fatal(err)
	}
	if err := h.Close(ctx); err != nil {
		t.Fatal(err)
	}

	decisions, commits := 0, 0
	var lastSeq uint64
	for {
		ev := recvEvent(t, ch)
		if ev.Session != h.ID {
			t.Fatalf("event for session %q on a %q subscription", ev.Session, h.ID)
		}
		if ev.Seq <= lastSeq {
			t.Fatalf("seq went %d -> %d: feed order broke", lastSeq, ev.Seq)
		}
		lastSeq = ev.Seq
		switch ev.Type {
		case obs.EventAdmit, obs.EventReject:
			decisions++
			if ev.Trace == "" || ev.Path == "" {
				t.Fatalf("decision event missing trace/path: %+v", ev)
			}
		case obs.EventCommit:
			commits++
			if ev.Moved != writers*batches*perReq {
				t.Fatalf("commit moved %d, want %d", ev.Moved, writers*batches*perReq)
			}
		}
		if ev.Type == obs.EventClose {
			break
		}
	}
	if want := writers * batches * perReq; decisions != want {
		t.Fatalf("feed delivered %d decisions, want %d", decisions, want)
	}
	if commits != 1 {
		t.Fatalf("feed delivered %d commit events, want 1", commits)
	}
}

// TestTraceRoundTrip pins the direct-to-edfd trace contract: the trace
// ID echoed on an analyze response resolves to a span record carrying
// the cache lookup and the analysis, and the recent-trace listing knows
// it.
func TestTraceRoundTrip(t *testing.T) {
	_, c := newTestServer(t, service.Config{})
	ctx := context.Background()

	_, rt, err := c.Analyze(ctx, service.AnalyzeRequest{
		Name:     "traced",
		Workload: edf.SporadicWorkload(edf.TaskSet{{Name: "a", WCET: 2, Deadline: 8, Period: 10}}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rt.TraceID == "" {
		t.Fatal("analyze response carried no trace id")
	}
	tr, err := c.Trace(ctx, rt.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	if tr.ID != rt.TraceID || tr.Op != "analyze" {
		t.Fatalf("trace identity: %+v", tr)
	}
	names := map[string]bool{}
	for _, sp := range tr.Spans {
		names[sp.Name] = true
	}
	for _, want := range []string{"cache", "analyze"} {
		if !names[want] {
			t.Fatalf("trace lacks %q span: %v", want, tr.Spans)
		}
	}

	sums, err := c.Traces(ctx, 10)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, s := range sums {
		found = found || s.ID == rt.TraceID
	}
	if !found {
		t.Fatalf("trace %s missing from the recent listing", rt.TraceID)
	}

	// Unknown IDs are a clean 404, not a hang or a 500.
	if _, err := c.Trace(ctx, "no-such-trace"); err == nil {
		t.Fatal("unknown trace id resolved")
	}
}
