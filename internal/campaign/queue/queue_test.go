package queue

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// wait blocks until j is terminal or the test times out.
func wait(t *testing.T, j *Job) {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s stuck in state %s", j.ID, j.State())
	}
}

func TestLifecycleDone(t *testing.T) {
	q := New(2, func(ctx context.Context, j *Job) ([]byte, error) {
		j.Publish(map[string]int{"step": 1})
		return []byte("result:" + j.Key[:8]), nil
	})
	defer q.Drain(context.Background())

	j, coalesced, err := q.Submit(k("a"), "payload")
	if err != nil || coalesced {
		t.Fatalf("Submit = %v, coalesced=%v", err, coalesced)
	}
	wait(t, j)
	if j.State() != Done {
		t.Fatalf("state = %s, want done; err = %q", j.State(), j.Err())
	}
	body, ok := j.Body()
	if !ok || string(body) != "result:"+k("a")[:8] {
		t.Fatalf("body = %q, %v", body, ok)
	}

	// Event stream replays from the start: queued, running, progress, done.
	evs, _ := j.EventsSince(0)
	var kinds []string
	for _, ev := range evs {
		if ev.Kind == "state" {
			kinds = append(kinds, string(ev.State))
		} else {
			kinds = append(kinds, ev.Kind)
		}
	}
	want := []string{"queued", "running", "progress", "done"}
	if fmt.Sprint(kinds) != fmt.Sprint(want) {
		t.Fatalf("event kinds = %v, want %v", kinds, want)
	}
	for i, ev := range evs {
		if ev.Seq != i {
			t.Fatalf("event %d has seq %d", i, ev.Seq)
		}
	}
}

func TestLifecycleFailed(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		return nil, errors.New("boom")
	})
	defer q.Drain(context.Background())
	j, _, err := q.Submit(k("fail"), nil)
	if err != nil {
		t.Fatal(err)
	}
	wait(t, j)
	if j.State() != Failed || j.Err() != "boom" {
		t.Fatalf("state=%s err=%q", j.State(), j.Err())
	}
	if _, ok := j.Body(); ok {
		t.Fatal("failed job served a body")
	}
}

func TestPanickingRunnerFailsJobNotPool(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		if j.Payload == "explode" {
			panic("kaboom")
		}
		return []byte("ok"), nil
	})
	defer q.Drain(context.Background())
	j1, _, _ := q.Submit(k("p1"), "explode")
	wait(t, j1)
	if j1.State() != Failed {
		t.Fatalf("panicked job state = %s", j1.State())
	}
	// The worker survived and runs the next job.
	j2, _, _ := q.Submit(k("p2"), "fine")
	wait(t, j2)
	if j2.State() != Done {
		t.Fatalf("post-panic job state = %s, err=%q", j2.State(), j2.Err())
	}
}

// Concurrent submissions of the same key share one job; a resubmission
// after completion is a fresh job (the cache layer, not the queue,
// handles replays of finished work).
func TestSingleFlightCoalescing(t *testing.T) {
	release := make(chan struct{})
	q := New(2, func(ctx context.Context, j *Job) ([]byte, error) {
		<-release
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())

	j1, c1, _ := q.Submit(k("same"), nil)
	j2, c2, _ := q.Submit(k("same"), nil)
	if c1 || !c2 {
		t.Fatalf("coalesced flags = %v, %v", c1, c2)
	}
	if j1 != j2 {
		t.Fatal("identical keys produced distinct live jobs")
	}
	close(release)
	wait(t, j1)

	j3, c3, _ := q.Submit(k("same"), nil)
	if c3 || j3 == j1 {
		t.Fatal("submission after completion coalesced onto a finished job")
	}
	wait(t, j3)
	if st := q.Stats(); st.Coalesce != 1 {
		t.Fatalf("coalesce counter = %d, want 1", st.Coalesce)
	}
}

func TestCancelQueuedJobNeverRuns(t *testing.T) {
	block := make(chan struct{})
	var ran sync.Map
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		ran.Store(j.Key, true)
		<-block
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())

	j1, _, _ := q.Submit(k("blocker"), nil)
	// Wait until the single worker is occupied by j1.
	for j1.State() != Running {
		time.Sleep(time.Millisecond)
	}
	j2, _, _ := q.Submit(k("victim"), nil)
	if !q.Cancel(j2.ID) {
		t.Fatal("Cancel returned false for a known job")
	}
	wait(t, j2)
	if j2.State() != Canceled {
		t.Fatalf("state = %s", j2.State())
	}
	close(block)
	wait(t, j1)
	if _, ok := ran.Load(k("victim")); ok {
		t.Fatal("canceled queued job still ran")
	}
	// The canceled job's key is free for a fresh submission.
	j3, c3, err := q.Submit(k("victim"), nil)
	if err != nil || c3 {
		t.Fatalf("resubmit after cancel: err=%v coalesced=%v", err, c3)
	}
	wait(t, j3)
	if j3.State() != Done {
		t.Fatalf("resubmitted job state = %s", j3.State())
	}
}

func TestCancelRunningJobDrains(t *testing.T) {
	started := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		// Mimic the campaign runner: drain, then report cancellation.
		return nil, fmt.Errorf("canceled after draining: %w", ctx.Err())
	})
	defer q.Drain(context.Background())
	j, _, _ := q.Submit(k("run"), nil)
	<-started
	if !q.Cancel(j.ID) {
		t.Fatal("Cancel returned false")
	}
	wait(t, j)
	if j.State() != Canceled {
		t.Fatalf("state = %s, err = %q", j.State(), j.Err())
	}
}

func TestCancelUnknownJob(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) { return nil, nil })
	defer q.Drain(context.Background())
	if q.Cancel("j999999") {
		t.Fatal("Cancel invented a job")
	}
}

func TestCompletedJobIsCacheHit(t *testing.T) {
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		t.Error("runner invoked for a cache hit")
		return nil, nil
	})
	defer q.Drain(context.Background())
	j := q.CompletedJob(k("hit"), "payload", []byte("cached body"))
	if j.State() != Done || !j.Cached {
		t.Fatalf("state=%s cached=%v", j.State(), j.Cached)
	}
	body, ok := j.Body()
	if !ok || string(body) != "cached body" {
		t.Fatalf("body = %q, %v", body, ok)
	}
	select {
	case <-j.Done():
	default:
		t.Fatal("done channel not closed")
	}
	if got, ok := q.Get(j.ID); !ok || got != j {
		t.Fatal("cache-hit job not retrievable by id")
	}
}

// Drain cancels queued work, lets running work settle, and refuses new
// submissions.
func TestDrain(t *testing.T) {
	started := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-ctx.Done()
		return nil, ctx.Err()
	})
	running, _, _ := q.Submit(k("running"), nil)
	<-started
	queued, _, _ := q.Submit(k("queued"), nil)

	if err := q.Drain(context.Background()); err != nil {
		t.Fatalf("Drain = %v", err)
	}
	if running.State() != Canceled {
		t.Fatalf("running job state = %s", running.State())
	}
	if queued.State() != Canceled || queued.Err() != "server draining" {
		t.Fatalf("queued job state = %s, err = %q", queued.State(), queued.Err())
	}
	if _, _, err := q.Submit(k("late"), nil); err == nil {
		t.Fatal("Submit accepted work during drain")
	}
}

func TestDrainTimeout(t *testing.T) {
	hang := make(chan struct{})
	started := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		close(started)
		<-hang // ignores ctx: a stuck runner
		return nil, nil
	})
	q.Submit(k("stuck"), nil)
	<-started
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := q.Drain(ctx); err == nil {
		t.Fatal("Drain did not report timeout for a stuck runner")
	}
	close(hang)
}

func TestEventsSinceWaitsForNext(t *testing.T) {
	release := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		<-release
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())
	j, _, _ := q.Submit(k("ev"), nil)

	// Consume everything, then wait for the next event.
	evs, _ := j.EventsSince(0)
	next := len(evs)
	for {
		more, ch := j.EventsSince(next)
		if len(more) > 0 {
			next += len(more)
			continue
		}
		break_ := false
		select {
		case <-ch:
		case <-time.After(10 * time.Millisecond):
			break_ = true
		}
		if break_ {
			break
		}
	}
	close(release)
	wait(t, j)
	evs, _ = j.EventsSince(0)
	last := evs[len(evs)-1]
	if last.Kind != "state" || last.State != Done {
		t.Fatalf("last event = %+v", last)
	}
}

func TestStats(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 4)
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		started <- struct{}{}
		<-release
		return []byte("x"), nil
	})
	defer q.Drain(context.Background())
	q.Submit(k("s1"), nil)
	<-started
	q.Submit(k("s2"), nil)
	st := q.Stats()
	if st.Workers != 1 || st.Busy != 1 || st.Depth != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if st.ByState[Running] != 1 || st.ByState[Queued] != 1 {
		t.Fatalf("byState = %+v", st.ByState)
	}
	close(release)
}

// k derives a 64-hex-char key from a short label.
func k(label string) string {
	const hexd = "0123456789abcdef"
	out := make([]byte, 64)
	for i := range out {
		out[i] = hexd[(len(label)+i*7+int(label[i%len(label)]))%16]
	}
	return string(out)
}

// TestSettledJobsAreBounded: a service answering cache hits all day mints
// one born-done job per request; the table must stay at the recent-window
// bound instead of pinning every artifact forever, while a job that is
// still queued or running survives any number of later hits.
func TestSettledJobsAreBounded(t *testing.T) {
	release := make(chan struct{})
	q := New(1, func(ctx context.Context, j *Job) ([]byte, error) {
		<-release
		return []byte("ran"), nil
	})
	defer q.Drain(context.Background())

	running, _, err := q.Submit(k("running"), nil)
	if err != nil {
		t.Fatal(err)
	}
	queued, _, err := q.Submit(k("queued"), nil)
	if err != nil {
		t.Fatal(err)
	}
	var first, last *Job
	for i := 0; i < 10000; i++ {
		last = q.CompletedJob(k(fmt.Sprint("hit", i)), nil, []byte("cached"))
		if first == nil {
			first = last
		}
	}
	if got, want := len(q.Jobs()), settledKeep+2; got != want {
		t.Fatalf("table holds %d jobs after 10000 hits, want %d settled + 2 live = %d", got, settledKeep, want)
	}
	if st := q.Stats(); st.ByState[Done] != settledKeep {
		t.Fatalf("Stats counts %d done jobs, want %d", st.ByState[Done], settledKeep)
	}
	if _, ok := q.Get(first.ID); ok {
		t.Fatalf("oldest hit %s still addressable", first.ID)
	}
	if body, ok := first.Body(); !ok || string(body) != "cached" {
		t.Fatal("an evicted job must stay usable by whoever holds it (the ?wait=1 path)")
	}
	if j, ok := q.Get(last.ID); !ok || j != last {
		t.Fatalf("newest hit %s not addressable", last.ID)
	}
	for _, live := range []*Job{running, queued} {
		if j, ok := q.Get(live.ID); !ok || j != live {
			t.Fatalf("live job %s (%s) was evicted", live.ID, live.State())
		}
	}

	close(release)
	wait(t, running)
	wait(t, queued)
	if body, ok := queued.Body(); !ok || string(body) != "ran" {
		t.Fatalf("queued job finished with %q, %v", body, ok)
	}
	if got := len(q.Jobs()); got != settledKeep {
		t.Fatalf("table holds %d jobs once everything settled, want %d", got, settledKeep)
	}
}
