package main

import (
	"sync"
	"testing"
	"time"

	"nlidb/internal/sqldata"
)

func TestOpenLoopTimesFromScheduledSend(t *testing.T) {
	// 20 requests at 200/s (due every 5ms). Request 0 stalls for 60ms and
	// there is one sender, so requests 1..11 are sent late: their latency,
	// measured from when each was due, must include the wait the stall
	// imposed, and the lag must report how late each went out.
	const stall = 60 * time.Millisecond
	lat, lag, _ := openLoop(1, 200, 20, func(i int) func() {
		if i == 0 {
			time.Sleep(stall)
		}
		return nil
	})
	if lat[0] < stall {
		t.Errorf("request 0 latency %v < its own %v stall", lat[0], stall)
	}
	// Request 1 was due at 5ms and could go out only at ~60ms.
	if lag[1] < stall-10*time.Millisecond {
		t.Errorf("request 1 lag %v, want ≈ %v", lag[1], stall-5*time.Millisecond)
	}
	if lat[1] < lag[1] {
		t.Errorf("request 1 latency %v excludes its %v lag", lat[1], lag[1])
	}
	// Long after the stall the generator is back on schedule.
	if lag[19] > 20*time.Millisecond {
		t.Errorf("request 19 still %v late", lag[19])
	}
}

func TestOpenLoopSendsEveryRequestOnce(t *testing.T) {
	var mu sync.Mutex
	seen := map[int]int{}
	openLoop(2, 5000, 100, func(i int) func() {
		mu.Lock()
		seen[i]++
		mu.Unlock()
		return nil
	})
	for i := 0; i < 100; i++ {
		if seen[i] != 1 {
			t.Fatalf("request %d sent %d times", i, seen[i])
		}
	}
}

// TestSequencerOrdersReadsAndWrites checks the benchmark's write lock:
// every Ask sees exactly the inserts scheduled before it, and the loop
// always ends on a cycle boundary.
func TestSequencerOrdersReadsAndWrites(t *testing.T) {
	q := &question{text: "q"}
	cycle := []op{{q: q}, {insert: sqldata.Row{}}, {q: q}, {q: q}, {insert: sqldata.Row{}}, {q: q}}
	s := newSequencer(cycle)
	var mu sync.Mutex
	writes := 0
	bad := 0
	recs, _ := closedLoop(2, s, 30*time.Millisecond, func(pos int, o op) func() {
		time.Sleep(time.Millisecond)
		mu.Lock()
		defer mu.Unlock()
		if o.insert != nil {
			writes++
		} else if writes != s.writesAt(pos) {
			bad++
		}
		return nil
	})
	if bad > 0 {
		t.Errorf("%d asks saw a data version other than their position's", bad)
	}
	if len(recs) == 0 || len(recs)%len(cycle) != 0 {
		t.Errorf("%d operations: not whole cycles of %d", len(recs), len(cycle))
	}
	if got, want := s.writesAt(len(cycle)+3), 3; got != want {
		t.Errorf("writesAt(cycle+3) = %d, want %d", got, want)
	}
}

// TestClosedLoopChargesOrderingWaitToInserts checks what the closed loop
// times: an insert from issue, so it includes the wait for the Ask in
// flight before it, and an Ask from when the sequencer lets it start, so
// it excludes the wait for the insert before it. The first Ask and the
// insert each take slow; the second Ask is claimed when the first
// returns and waits out the insert.
func TestClosedLoopChargesOrderingWaitToInserts(t *testing.T) {
	const slow = 40 * time.Millisecond
	q := &question{text: "q"}
	cycle := []op{{q: q}, {insert: sqldata.Row{}}, {q: q}}
	s := newSequencer(cycle)
	recs, _ := closedLoop(2, s, time.Hour, func(pos int, o op) func() {
		if pos == 0 {
			s.halt() // one cycle
		}
		if pos < 2 {
			time.Sleep(slow)
		}
		return nil
	})
	lat := map[int]time.Duration{}
	for _, r := range recs {
		lat[r.pos] = r.latency
	}
	if len(lat) != 3 {
		t.Fatalf("%d operations, want 3", len(lat))
	}
	if lat[1] < slow*3/2 {
		t.Errorf("insert latency %v excludes its wait for the %v Ask before it", lat[1], slow)
	}
	if lat[2] > slow/2 {
		t.Errorf("Ask latency %v includes its wait behind the insert", lat[2])
	}
}
